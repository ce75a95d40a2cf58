"""Exception hierarchy shared across the package, and the checks that
raise them for config dataclasses, stored objects, name lists and numbers.

The CLI maps these onto exit codes: ConfigError -> 1, DataError -> 2,
anything else -> 3.
"""

import dataclasses
import sys

import numpy as np


class EmocompError(Exception):
    pass


class ConfigError(EmocompError):
    """Invalid configuration value or inconsistent run setup."""


class DataError(EmocompError):
    """Malformed or missing input data."""


class CorpusFormatError(DataError):
    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ResourceError(DataError):
    """A feature flag was enabled but its backing resource is missing."""


class DimensionError(EmocompError):
    """Shape mismatch between tensors or feature vectors."""


class StateError(EmocompError):
    """Operation called before required fitting/training happened."""


# what a config field holds, by its default's type, and its test (a bool is no int)
_FIELD_KINDS = {
    int: ("an integer", lambda v: type(v) is int),
    float: ("a finite number", lambda v: type(v) in (int, float) and abs(v) <= sys.float_info.max),
    bool: ("a boolean", lambda v: type(v) is bool),
    tuple: ("a tuple of integers", lambda v: type(v) is tuple and all(type(i) is int for i in v)),
}


def check_fields(config, prefix: str = "") -> None:
    """A ConfigError, naming ``prefix`` and the field, unless each field of
    the dataclass ``config`` holds what ``_FIELD_KINDS`` asks of its default."""
    for f in dataclasses.fields(config):
        what, ok = _FIELD_KINDS[type(f.default)]
        value = getattr(config, f.name)
        if not ok(value):
            raise ConfigError(f"{prefix}{f.name} must be {what}, got {value!r}")


def stored_object(value, members, what: str) -> dict:
    """An object holding exactly ``members``; else a data error naming ``what`` and the member."""
    if not isinstance(value, dict):
        raise DataError(f"{what} must be an object, got {type(value).__name__}")
    for m in [*members, *value]:   # each missing member first, then each unknown one
        if m not in value:
            raise DataError(f"{what} lacks required key {m!r}")
        if m not in members:
            raise DataError(f"{what} holds unknown member {m!r}")
    return value


def stored_names(value, what: str) -> tuple[str, ...]:
    """A stored list of distinct names; anything else is a data error."""
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise DataError(f"{what} must be a list of names, got {type(value).__name__}")
    if len(set(value)) < len(value):
        raise DataError(f"{what} repeats a name")
    return tuple(value)


def stored_numbers(value) -> np.ndarray | None:
    """A number, or lists of ints and floats nested alike, as a new float64 array; None for a
    boolean, string, null, object, ragged or too deep lists, or an int too large for a float."""
    cells = np.array(value, dtype=object)   # lists too ragged or deep for numpy stay cells
    if not set(map(type, cells.ravel())) <= {int, float}:   # float arrays read true as 1.0
        return None
    try:
        return cells.astype(np.float64)
    except OverflowError:   # an int too large for a float
        return None
