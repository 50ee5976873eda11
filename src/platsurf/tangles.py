"""Rational tangle arithmetic.

A rational tangle in a twist box is recorded by its slope, a reduced
fraction p/q with the vertical tangle (two parallel strands) at 1/0 and
the pure horizontal twist box with ``a`` half twists at 1/a.  Slopes are
kept canonical: q >= 0, and the infinite slope is always written 1/0.

Continued fraction convention (see FORMATS.md): a term list
``[t1, ..., tk]`` is read innermost first,

    value([t1, ..., tk]) = tk + 1/(t(k-1) + 1/(... + 1/t1)),

so ``[3] -> 3/1`` and ``[2, 3] -> 7/2``.  Evaluation runs the projective
recurrence (num, den) -> (t*num + den, num) starting from (t1, 1), which
never forms 0/0 and lands exactly on the canonical fraction.

Each box induces a pairing of its four boundary points {NW, NE, SW, SE}.
Which of the three pairings occurs depends only on the parities of p and
q.  That parity rule lives in one place, ``diagram._slope_code``, which
gives every box its slope byte ``3 * min(|q|, 3) + code``, the code
0, 1 or 2 in the order of ``Pairing``; ``pairing`` and
``incompressibility_level`` read the two halves of that byte.
``pairing_by_tracing`` is the rule's oracle: it recomputes the pairing
by building the tangle one half twist at a time, and the rule is frozen
against the trace, not the other way around.
"""

from __future__ import annotations

import enum
import math
from typing import Iterable

from ._record import Record, set_field
from .diagram import MAX_PD_CROSSINGS, _check_ints, _slope_code
from .errors import ParameterError, _as_tuple


def _continued_fraction_terms(terms: Iterable[int]) -> tuple[int, ...]:
    ts = _as_tuple(terms, ParameterError, "continued fraction terms are not a sequence of ints")
    if not ts:
        raise ParameterError("empty continued fraction")
    _check_ints(ParameterError, "continued fraction terms", *ts)
    return ts


class TangleFraction(Record):
    """A reduced slope p/q with q >= 0; 1/0 denotes the vertical tangle.

    The same type is the surgery slope of ``surgery``, where 1/0 is the
    meridian.
    """

    __slots__ = _fields = ("p", "q")

    def __init__(self, p: int, q: int) -> None:
        _check_ints(ParameterError, "fraction entries", p, q)
        if q < 0:
            raise ParameterError(f"fraction {p}/{q} not canonical: q < 0")
        if q == 0 and p != 1:
            raise ParameterError("infinite slope must be written 1/0")
        if math.gcd(abs(p), q) != 1:
            raise ParameterError(f"fraction {p}/{q} is not reduced")
        set_field(self, "p", p)
        set_field(self, "q", q)

    @classmethod
    def of(cls, p: int, q: int) -> "TangleFraction":
        """Canonicalize an arbitrary integer pair (p, q) != (0, 0)."""
        _check_ints(ParameterError, "fraction entries", p, q)
        if (p, q) == (0, 0):
            raise ParameterError("0/0 is not a slope")
        if q == 0:
            return cls(1, 0)
        if q < 0:
            p, q = -p, -q
        g = math.gcd(abs(p), q)
        return cls(p // g, q // g)

    @classmethod
    def parse(cls, text: str) -> "TangleFraction":
        """Read ``p/q`` or ``p`` (for p/1), canonicalizing as ``of`` does."""
        if not isinstance(text, str):
            raise ParameterError(f"slope text must be a str, got {text!r}")
        parts = text.strip().split("/")
        try:
            if len(parts) == 1:
                return cls.of(int(parts[0]), 1)
            if len(parts) == 2:
                return cls.of(int(parts[0]), int(parts[1]))
        except ValueError as e:
            raise ParameterError(f"bad slope {text!r}") from e
        raise ParameterError(f"bad slope {text!r}")

    @classmethod
    def from_continued_fraction(cls, terms: Iterable[int]) -> "TangleFraction":
        """The fraction of an innermost-first term list; ParameterError when
        the terms are empty or not a sequence of ints."""
        ts = _continued_fraction_terms(terms)
        num, den = ts[0], 1
        for t in ts[1:]:
            num, den = t * num + den, num
        return cls.of(num, den)

    def continued_fraction(self) -> tuple[int, ...]:
        """An innermost-first term list evaluating back to this fraction.

        The infinite slope expands to (0, 0); everything else comes from
        the Euclidean algorithm with floor division, emitted outermost
        first and then reversed.
        """
        if self.q == 0:
            return (0, 0)
        out: list[int] = []
        p, q = self.p, self.q
        while q != 0:
            t = p // q
            out.append(t)
            p, q = q, p - t * q
        return tuple(reversed(out))

    @property
    def is_vertical(self) -> bool:
        return self.q == 0

    # read as a surgery slope, the vertical 1/0 is the meridian
    is_meridian = is_vertical

    def __str__(self) -> str:
        return f"{self.p}/{self.q}"


class Pairing(enum.Enum):
    """How a box joins its four boundary points.

    THROUGH_IDENTITY: NW-SW and NE-SE (both strands pass straight through).
    THROUGH_SWAP:     NW-SE and NE-SW (the strands trade columns).
    CAPS:             NW-NE and SW-SE (each pair of same-height points is
                      joined inside the box; no strand passes through).
    """

    THROUGH_IDENTITY = "through_identity"
    THROUGH_SWAP = "through_swap"
    CAPS = "caps"


_BY_CODE = tuple(Pairing)  # indexed by the pairing code of a slope byte


def pairing(f: TangleFraction) -> Pairing:
    """Boundary pairing of the p/q box, by the parity rule of
    ``diagram._slope_code``: odd/odd swaps, odd/even passes straight
    through, even/odd caps off.  Frozen against ``pairing_by_tracing``.
    """
    return _BY_CODE[_slope_code(f.p, f.q) % 3]


# endpoint sets for the two possible starting tangles of the trace
_ZERO = frozenset({frozenset({"NW", "NE"}), frozenset({"SW", "SE"})})
_VERTICAL = frozenset({frozenset({"NW", "SW"}), frozenset({"NE", "SE"})})


def _twist(state: frozenset, a: str, b: str) -> frozenset:
    def repl(x: str) -> str:
        return b if x == a else a if x == b else x

    return frozenset(frozenset(repl(x) for x in pair) for pair in state)


def pairing_by_tracing(terms: Iterable[int]) -> Pairing:
    """Boundary pairing computed by building the tangle twist by twist.

    A term list of odd length starts from the 0 tangle and applies
    horizontal, vertical, horizontal, ... twist moves; even length starts
    from the vertical tangle and leads with a vertical move.  Either way
    the final move is horizontal, matching the evaluation convention of
    ``from_continued_fraction``.  A horizontal half twist exchanges the
    two east endpoints, a vertical one the two south endpoints; the twist
    sign never changes which points are exchanged, so only |t| matters
    here.  Terms that are empty or not a sequence of ints, or whose |t|
    total more than ``MAX_PD_CROSSINGS``, are a ParameterError.
    """
    ts = _continued_fraction_terms(terms)
    if sum(map(abs, ts)) > MAX_PD_CROSSINGS:  # unprinted: it may pass the int-to-text limit
        raise ParameterError(f"tracing takes at most {MAX_PD_CROSSINGS} half twists in all")
    if len(ts) % 2 == 1:
        state, moves = _ZERO, ("H", "V")
    else:
        state, moves = _VERTICAL, ("V", "H")
    for idx, t in enumerate(ts):
        for _ in range(abs(t)):
            if moves[idx % 2] == "H":
                state = _twist(state, "NE", "SE")
            else:
                state = _twist(state, "SW", "SE")
    if state == _VERTICAL:
        return Pairing.THROUGH_IDENTITY
    if state == _ZERO:
        return Pairing.CAPS
    return Pairing.THROUGH_SWAP


def incompressibility_level(f: TangleFraction) -> int:
    """min(|q|, 3): how much of the box's tangle space is essential.

    0: vertical tangle, the box is trivial and imposes no condition.
    1: integer twists; the once-punctured disks are incompressible.
    2: adds incompressibility of the twice-punctured disks.
    3: |q| >= 3, the full condition needed of interior and end boxes.
    """
    return _slope_code(f.p, f.q) // 3
