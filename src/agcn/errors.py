"""Shared exception types. Every input is checked where it is read, before
training starts, so a NumericError never reports bad input late."""

import numbers
import typing

__all__ = ["AgcnError", "ParseError", "ConfigError", "NumericError"]


class AgcnError(Exception):
    """Base class for all package-specific failures."""


class ParseError(AgcnError):
    """Malformed input file; carries the file path and 1-based line number."""

    def __init__(self, message, path=None, line=None):
        self.path = path
        self.line = line
        where = ""
        if path is not None:
            where = f"{path}"
            if line is not None:
                where += f":{line}"
            where = f" [{where}]"
        super().__init__(f"{message}{where}")


class ConfigError(AgcnError):
    """Invalid configuration or input: hyperparameters, sizes or lengths of
    related inputs that do not agree, missing labels."""


class NumericError(AgcnError):
    """Non-finite value produced during a numeric computation."""


# the values each type of a checked field or argument takes, and their
# name; a bool is an integer to Python, but only a bool field takes one
_KINDS = {int: (numbers.Integral, "an integer"),
          float: (numbers.Real, "a real number"),
          bool: (bool, "a bool"), str: (str, "a string")}


def _check_type(name, value, kind=int):
    """A ConfigError unless ``value`` is of type ``kind`` (int, float, bool
    or str); NumPy numbers count, and a bool counts only as a bool."""
    types, wanted = _KINDS[kind]
    if not isinstance(value, types) or (
            kind is not bool and isinstance(value, bool)):
        raise ConfigError(f"{name} must be {wanted}, not {value!r}")


def _check_fields(record):
    """:func:`_check_type` on every field of the dataclass ``record``, each
    against its type hint. A field hinted ``X | None`` may be None, and one
    hinted ``tuple[X, ...]`` is a tuple or list whose every element is an X."""
    for name, kind in typing.get_type_hints(type(record)).items():
        value = getattr(record, name)
        if type(None) in typing.get_args(kind):
            if value is None:
                continue
            [kind] = set(typing.get_args(kind)) - {type(None)}
        if typing.get_origin(kind) is tuple:
            if not isinstance(value, (tuple, list)):
                raise ConfigError(f"{name} must be a tuple, not {value!r}")
            for item in value:
                _check_type(name, item, typing.get_args(kind)[0])
        else:
            _check_type(name, value, kind)
