"""Shared exception types."""

import functools


class GridlabError(Exception):
    """Base class for errors raised by this package."""


class SizeLimitError(GridlabError):
    """Input exceeds a documented desk-scale limit of an exact routine."""


class FormatError(GridlabError):
    """Malformed .gr / .td / .emb / certificate file."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ConstructionError(GridlabError):
    """A constructive procedure detected that its own intermediate
    invariants do not hold on the given input."""


def _int_token(token, line, low=0):
    """`token`, which must match -?[0-9]+, as an integer of at least
    `low`; otherwise a FormatError naming the line.  int() alone would
    also take "1_0", "+1" and non-ASCII digits."""
    digits = token.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise FormatError(f"expected an integer, found {token!r}", line)
    value = int(token)
    if value < low:
        raise FormatError(f"{value} is below {low}", line)
    return value


# what indexing, converting and building objects from malformed text
# raise; json.loads raises RecursionError on deeply nested text
_PARSE_ERRORS = (ValueError, TypeError, KeyError, IndexError, AttributeError,
                 RecursionError)


def _raises_format_error(loads):
    """Make a `*_loads` parser raise FormatError and nothing else on
    malformed text.  A ValueError keeps its message, which this package
    writes for users; the others also name their Python type."""

    @functools.wraps(loads)
    def parse(text):
        try:
            return loads(text)
        except _PARSE_ERRORS as exc:
            message = (str(exc) if isinstance(exc, ValueError)
                       else f"{type(exc).__name__}: {exc}")
            raise FormatError(message) from exc
    return parse
