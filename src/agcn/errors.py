"""Shared exception types. Every input is checked where it is read, before
training starts, so a NumericError never reports bad input late."""

__all__ = ["AgcnError", "ParseError", "DimensionError", "ConfigError",
           "NumericError"]


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


class DimensionError(AgcnError):
    """Shapes or row counts of related inputs do not agree."""


class ConfigError(AgcnError):
    """Invalid configuration (dimensions, hyperparameters, missing labels)."""


class NumericError(AgcnError):
    """Non-finite value produced during a numeric computation."""
