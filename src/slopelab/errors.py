"""Exception types shared across the engine."""

import json
import re
from collections.abc import Mapping
from fractions import Fraction


class SlopelabError(Exception):
    """Base class for engine errors."""


class FalsificationError(SlopelabError):
    """A checked mathematical invariant failed.

    This is never a user error: it means either an encoding bug or a genuine
    counterexample to a property the engine asserts, and must surface loudly.
    """


class ExpressionError(SlopelabError):
    """Syntax or semantic error in the module expression language."""

    def __init__(self, message: str, line: int | None = None,
                 column: int | None = None, expected=None):
        self.line = line
        self.column = column
        self.expected = tuple(expected) if expected else ()
        loc = f" at line {line}, column {column}" if line is not None else ""
        hint = f" (expected {', '.join(self.expected)})" if self.expected else ""
        super().__init__(f"{message}{loc}{hint}")


class ScriptError(SlopelabError):
    """Malformed or inadmissible blow-up script / model file."""

    def __init__(self, message: str, step: int | None = None):
        self.step = step
        prefix = f"step {step}: " if step is not None else ""
        super().__init__(f"{prefix}{message}")


def ascii_int(text: str) -> int | None:
    """The integer that `text` spells as a sign and ASCII digits, with
    surrounding whitespace, or None for any other string, such as "1_0" or
    one in other scripts' digits, which int() would also read."""
    if re.fullmatch(r"\s*[+-]?[0-9]+\s*", text):
        try:
            return int(text)
        except ValueError:  # more than 4300 digits
            pass
    return None


def json_int(value, field: str) -> int:
    """An integer field of a model or script: a JSON integer or a numeric
    string such as "1" (ascii_int).  A JSON boolean or float, which int()
    would truncate, and any other string are refused naming the field."""
    if isinstance(value, str):
        number = ascii_int(value)
        if number is not None:
            return number
    elif isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ScriptError(f"{field} must be an integer, got {json.dumps(value)}")


def json_list(value, field: str) -> list | tuple:
    """An array field of a model or script.  Anything else, above all a
    string, which would be iterated one character at a time, raises a
    TypeError naming the field; the caller adds its context."""
    if not isinstance(value, (list, tuple)):
        raise TypeError(f"{field} must be an array, got {json.dumps(value)}")
    return value


def json_field(value, key: str, field: str):
    """Field `key` of a JSON object named `field`.  A value that is no
    object, or an object without the key, raises a TypeError naming both;
    the caller adds its context."""
    if not isinstance(value, Mapping):
        raise TypeError(f"{field} must be a JSON object, got {json.dumps(value)}")
    if key not in value:
        raise TypeError(f"{field} has no '{key}' field")
    return value[key]


def json_rat(value, field: str) -> Fraction:
    """A rational field: a JSON integer or a "num/den" string (a sign, ASCII
    digits and an optional /digits).  A JSON boolean or float, which
    Fraction() would take, and any other string, such as "0.5" or "1e9", are
    refused naming the field before Fraction() runs."""
    if isinstance(value, str) and re.fullmatch(r"\s*[+-]?[0-9]+(/[0-9]+)?\s*", value):
        try:
            return Fraction(value.strip())
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
        except ValueError:
            pass
    elif isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise ScriptError(f"{field} must be an integer or a rational string, "
                      f"got {json.dumps(value)}")
