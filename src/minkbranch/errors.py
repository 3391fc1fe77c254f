"""Shared exception types, and the bounded quote of outside input their messages use."""

from __future__ import annotations


_QUOTED_CHARS = 60


def _cut(text: str) -> str:
    """`text` for a message, unquoted, cut to its first 60 characters; a cut ends in '...'."""
    return text if len(text) <= _QUOTED_CHARS else f"{text[:_QUOTED_CHARS]}..."


def _quoted(value) -> str:
    """`repr(value)` for a message, bounded: a string is cut to its first 60 characters
    before its repr, which escapes each in at most ten (as '\\U000e0001'), and another
    value's repr is cut to 60 characters; a cut ends in '...'."""
    if isinstance(value, str):
        return f"{value[:_QUOTED_CHARS]!r}{'...' if len(value) > _QUOTED_CHARS else ''}"
    return _cut(repr(value))


class DimensionMismatch(ValueError):
    """Operands have different coordinate dimensions."""


class UnknownScenario(LookupError):
    """A scenario label is not part of the model."""


class MissingFamily(LookupError):
    """A scenario pair has no declared splitting family."""


class ScenariosNotEnumerable(TypeError):
    """The scenario set is a generator, not a finite list.

    Raised by operations that need to materialize scenario sets; callers
    should use representative event classes or the binary-row closed forms.
    """


class GridBudgetExceeded(ValueError):
    """A grid enumeration would exceed the hard point budget."""


class WitnessNotFound(RuntimeError):
    """A search that promises a witness on valid inputs found none."""


class ModelFormatError(ValueError):
    """A model file or a command-line value failed schema validation.

    `location` is a path into the document, e.g. "$.families[2].kind", or
    into an argument, e.g. "--a.point[0]".
    """

    def __init__(self, message: str, location: str = "$"):
        super().__init__(f"{location}: {message}")
        self.location = location
        self.reason = message
