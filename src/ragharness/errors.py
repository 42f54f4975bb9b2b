"""The common base of every error the harness raises on bad input."""

from __future__ import annotations


class HarnessError(ValueError):
    """A failure caused by the inputs, reported as one line and exit code 1."""
