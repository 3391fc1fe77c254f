"""Shared exception types, and the bounded quote of outside input their messages use."""

from __future__ import annotations


_QUOTED_CHARS = 60


def _quoted(value) -> str:
    """`repr(value)` for a message, bounded: a string is cut to its first 60 characters
    before its repr, which escapes each in at most ten (as '\\U000e0001'), and another
    value's repr is cut to 60 characters; a cut ends in '...'."""
    if isinstance(value, str):
        return f"{value[:_QUOTED_CHARS]!r}{'...' if len(value) > _QUOTED_CHARS else ''}"
    text = repr(value)
    return text if len(text) <= _QUOTED_CHARS else f"{text[:_QUOTED_CHARS]}..."


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
    """A model file failed schema validation.

    `location` is a dotted path into the document, e.g. "families[2].kind".
    """

    def __init__(self, message: str, location: str = "$"):
        super().__init__(f"{location}: {message}")
        self.location = location
        self.reason = message
