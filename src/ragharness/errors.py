"""The common base of every error the harness raises on bad input, and the
integer check every loader shares."""

from __future__ import annotations


class HarnessError(ValueError):
    """A failure caused by the inputs, reported as one line and exit code 1."""


def as_int(value, name: str) -> int:
    """``int(value)``, except that a float with a fractional part (or an
    infinite or NaN one) is a ValueError naming `name` instead of being
    truncated. Callers turn the ValueError into their own typed error."""
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)
