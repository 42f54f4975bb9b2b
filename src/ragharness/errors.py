"""The one error the harness raises on bad input, and the integer, float,
string, id-list, file-id and stray-key checks every loader shares."""

from __future__ import annotations


class HarnessError(ValueError):
    """A failure caused by the inputs, reported as one line and exit code 1."""


def as_int(value, name: str) -> int:
    """`value` as an int when it is a JSON number with no fractional part. A
    boolean, a string, a float with a fractional part (or an infinite or NaN
    one) and anything else is a ValueError naming `name`, never read as 0/1,
    parsed or truncated. Callers turn the ValueError into a HarnessError."""
    if type(value) is int or (type(value) is float and value.is_integer()):
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


def as_float(value, name: str) -> float:
    """`value` as a float when it is a JSON number; a boolean, a string and
    anything else is a ValueError naming `name`; the float twin of
    `as_int`."""
    if type(value) in (int, float):
        return float(value)
    raise ValueError(f"{name} must be a number, got {value!r}")


def as_str(value, name: str) -> str:
    """`value` when it is a string; a null, a number, a list or an object is a
    HarnessError naming `name`, never read as its ``str()`` text."""
    if not isinstance(value, str):
        raise HarnessError(f"{name} must be a string, got {value!r}")
    return value


def as_id_list(value, name: str) -> tuple[str, ...] | None:
    """A JSON list of string ids as a tuple; None (an absent field) stays
    None. Anything else, a bare string included, is a HarnessError naming
    `name`, never a tuple of characters."""
    if value is None:
        return None
    if not (isinstance(value, list) and all(isinstance(v, str) for v in value)):
        raise HarnessError(f"{name} must be a list of strings, got {value!r}")
    return tuple(value)


def as_file_id(value: str, name: str) -> str:
    """`value`, an id that becomes part of an output file name (as a regime
    id does), when it is one path component: non-empty, not ``.`` or ``..``,
    and without ``/``, ``\\`` or NUL. Anything else is a HarnessError naming
    `name`, so no output lands outside the output directory."""
    if value in ("", ".", "..") or "/" in value or "\\" in value or "\0" in value:
        raise HarnessError(f"{name} must be one path component, got {value!r}")
    return value


def _reject_stray(where: str, keys, known, noun: str = "unknown key", tail: str = "") -> None:
    """Fail on the first of `keys` that is not `known`, which would
    otherwise be read as nothing at all, naming it after `noun`."""
    stray = next((key for key in keys if key not in known), None)
    if stray is not None:
        raise HarnessError(f"{where}: {noun} {stray!r}{tail}")
