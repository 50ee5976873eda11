"""Exception types shared across the package.

Everything derives from ``PlatError`` so callers can catch input problems
with a single except clause.  The CLI maps these onto exit code 2
(malformed input), while refusals that are *verdicts* rather than errors
(failed hypotheses, two-bridge exclusion in certification) are reported
through result objects and exit code 1.

``_as_tuple`` is the one home of the rule that an argument which cannot be
iterated at all (a path, slopes, rows, a row) is an input error of the
caller's class; a ``TypeError`` raised as an iterable is read passes.
``_shown`` keeps a message that names a caller's value, and with it the
``PlatError``, past the interpreter's int-to-text digit limit.
"""

from __future__ import annotations


class PlatError(ValueError):
    """Base class for all input and parameter errors raised here."""


class MalformedDiagramError(PlatError):
    """A diagram violates the structural shape rules (row counts, box counts)."""


class ParameterError(PlatError):
    """A scalar parameter is outside its documented domain."""


class PathError(PlatError):
    """A candidate path is malformed or not allowable for the diagram."""


class TwoBridgeError(PlatError):
    """Raised by operations that are undefined for 2-bridge plats (n <= 2)."""


class UnsupportedBoxError(PlatError):
    """A box's tangle cannot be expressed in the requested form."""


class MalformedPDCodeError(PlatError):
    """A PD code's crossing is not four int labels, or its arc labels do not
    each appear exactly twice."""


def _as_tuple(value: object, error: type[PlatError], what: str) -> tuple:
    """``tuple(value)``, or ``error(f"{what}: got <type>")`` when ``iter`` fails too."""
    try:
        return tuple(value)
    except TypeError:
        try:
            iter(value)
        except TypeError:
            raise error(f"{what}: got {type(value).__name__}") from None
        raise


class _Text(str):
    __repr__ = str.__str__  # read by !r as by str, without quotes


def _shown(value: object) -> object:
    """``value``, or past the int-to-text digit limit a stand-in naming its size."""
    try:
        repr(value)
        return value
    except ValueError:  # an int past the limit, or a value holding one
        if isinstance(value, int):
            return _Text(f"<int of {value.bit_length()} bits>")
        return _Text(f"<{type(value).__name__} holding an int past the digit limit>")
