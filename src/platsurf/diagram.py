"""Plat diagrams of links.

A link in 2n-plat position is drawn on 2n vertical strands joined by m
rows of twist boxes, m odd.  Rows are numbered 1..m from the top.  Odd
rows hold n-1 boxes, box j sitting over strands (2j, 2j+1); even rows
hold n boxes, box j over strands (2j-1, 2j).  Above row 1 and below row
m the strands are capped in pairs (1,2), (3,4), ..., (2n-1, 2n).

Box coefficients follow FORMATS.md: ``Twist(a)`` is a box of ``a``
signed half twists (slope 1/a); ``Rational(p, q)`` holds an arbitrary
rational tangle of slope p/q.  A plain integer in the JSON form encodes
a twist box, a two-element array a rational one.

``check_hypotheses`` verifies the combinatorial hypotheses under which
the certified statements about essential surfaces apply:

  (i)   n >= 3 (the 2-bridge case n <= 2 is excluded and reported as a
        distinguished verdict);
  (ii)  every interior box, in every row, has nonzero denominator;
  (iii) the first and last box of every odd row has denominator >= 3,
        or >= 2 in the relaxed variant.  End boxes of even rows are
        unrestricted.

"Denominator" of a box means q of its canonical slope, so |a| for a
twist box.  The hypotheses constrain denominators only; signs are free.

Everything the hypotheses and the link walk need of a box fits in one
byte, ``3 * min(q, 3) + code``, where ``code`` is 0, 1 or 2 for the
through-identity, through-swap and caps pairing (``Pairing`` order).
A box computes its byte once, when built, from its slope p/q (1/a for
a twist box), and with it its canonical JSON text (``3``, ``[1,2]``), so
a box int past the int-to-text digit limit is refused, as in a file.
``PlatDiagram``, also named ``make_diagram``, builds a diagram in one
pass per row: it reads the row, turns its ints into Twists (one per
value) and its pairs into Rationals, checks its length, and gathers its
bytes into ``slope_table``, one ``bytes`` per row, and its box types
into ``is_all_twist``.
``check_hypotheses`` scans each row once, for inner codes 0-2 (level 0),
and keeps its report on the diagram in ``_hypotheses``, one per mode.
``tangles`` loads only where slopes are wanted as fractions, in
``box_fraction`` and ``surgery``.  A diagram keeps its digest, which
joins its box texts a row at a time, and ``topology.build_topology``
keeps on it the labels of its link components, made in one pass down
``slope_table``.  ``surfaces`` keeps on it ``_spans``, the side spans of
a path indexed by entry, and ``_reports``, the surface reports by loop
counts.  A diagram has at most ``MAX_BOXES`` boxes.
"""

from __future__ import annotations

import functools
import json
import math
import operator
import random
import re  # json imports it already
from typing import TYPE_CHECKING, Any, Iterator, Sequence, Union

from ._record import Record, set_field
from .errors import MalformedDiagramError, ParameterError, _as_tuple, _shown

if TYPE_CHECKING:
    from .tangles import TangleFraction

STRICT = "strict"
RELAXED = "relaxed"
# per hypothesis mode, the least denominator condition (iii) asks of an odd-row end box
END_BOUND = {STRICT: 3, RELAXED: 2}
MAX_BOXES = 10**6
MAX_PD_CROSSINGS = 10**6  # PD crossings, and half twists tangles.pairing_by_tracing traces
_LEVEL_0 = re.compile(b"[\0-\2]")  # the slope codes of level 0: boxes of denominator 0
_quote = json.encoder.encode_basestring_ascii  # the str encoder of json.dumps

# pairing codes of the slope table, in the order tangles.Pairing lists them
IDENTITY, SWAP, CAPS = range(3)


def _slope_code(p: int, q: int) -> int:
    """``3 * min(|q|, 3) + pairing code`` of the reduced slope p/q: p and q
    odd swap the strands, p odd and q even pass through, p even caps off."""
    return 3 * min(abs(q), 3) + (q & 1 if p & 1 else CAPS)


def _box_text(fmt: str, *ints: int) -> str:
    try:  # a box int past the int-to-text digit limit is refused, as in a diagram file
        return fmt % ints
    except ValueError as e:
        raise MalformedDiagramError(f"box entry exceeds a limit: {e}") from None


def _check_ints(error: type[Exception], what: str, *values: object) -> None:
    for v in values:  # a bool is no int here
        if isinstance(v, bool) or not isinstance(v, int):
            raise error(f"{what} must be ints, got {_shown(v)!r}")


class Twist(Record):
    """A box of ``a`` half twists between two adjacent strands."""

    _fields = ("a",)
    __slots__ = ("a", "_code", "_json")  # slope code, JSON text: no fields, so repr, ==, hash skip

    def __init__(self, a: int) -> None:
        if isinstance(a, bool) or not isinstance(a, int):
            raise MalformedDiagramError(f"twist count must be an int, got {_shown(a)!r}")
        set_field(self, "a", a)
        set_field(self, "_code", _slope_code(1, a))
        set_field(self, "_json", _box_text("%d", a))

    def __str__(self) -> str:
        return str(self.a)


class Rational(Record):
    """A box holding the rational tangle of slope p/q."""

    _fields = ("p", "q")
    __slots__ = ("p", "q", "_code", "_json")

    def __init__(self, p: int, q: int) -> None:
        _check_ints(MalformedDiagramError, "rational box entries", p, q)
        if (p, q) == (0, 0):
            raise MalformedDiagramError("rational box 0/0 is not a tangle")
        if math.gcd(abs(p), abs(q)) != 1:
            raise MalformedDiagramError(f"rational box {_shown(p)}/{_shown(q)} is not reduced")
        set_field(self, "p", p)
        set_field(self, "q", q)
        set_field(self, "_code", _slope_code(p, q))
        set_field(self, "_json", _box_text("[%d,%d]", p, q))

    def __str__(self) -> str:
        return f"{self.p}/{self.q}"


TangleBox = Union[Twist, Rational]
_BOX_TYPES = frozenset((Twist, Rational))
_code_of = operator.attrgetter("_code")
_json_of = operator.attrgetter("_json")


def box_fraction(box: TangleBox) -> TangleFraction:
    """Canonical slope of a box: Twist(a) -> 1/a, Rational(p, q) -> p/q."""
    from .tangles import TangleFraction

    if isinstance(box, Twist):
        return TangleFraction.of(1, box.a)
    return TangleFraction.of(box.p, box.q)


def box_denominator(box: TangleBox) -> int:
    """q >= 0 of the canonical slope; |a| for a twist box."""
    return abs(box.a) if isinstance(box, Twist) else abs(box.q)


def row_length(n: int, i: int) -> int:
    """Number of boxes in row i: n-1 for odd rows, n for even rows."""
    return n - 1 if i % 2 == 1 else n


def _check_box_count(n: int, m: int, error: type[Exception]) -> None:
    count = (m + 1) // 2 * (n - 1) + m // 2 * n
    if count > MAX_BOXES:
        raise error(f"n = {_shown(n)}, m = {_shown(m)} give {_shown(count)} boxes; "
                    f"diagrams are limited to {MAX_BOXES}")


def box_strands(i: int, j: int) -> tuple[int, int]:
    """The strand pair under box j of row i."""
    if i % 2 == 1:
        return (2 * j, 2 * j + 1)
    return (2 * j - 1, 2 * j)


class PlatDiagram(Record):
    """A 2n-plat projection: n strand pairs, m rows of boxes, m odd.  A box is an int,
    a (p, q) pair, a Twist or a Rational; ``rows`` is stored as a tuple of tuples.
    Rows, or a row, that cannot be iterated are refused by ``errors._as_tuple``'s rule."""

    _fields = ("n", "m", "rows")  # no __slots__: derived values live in __dict__

    def __init__(self, n: int, m: int, rows: Sequence[Sequence[Any]]) -> None:
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise MalformedDiagramError(f"n must be a positive int, got {_shown(n)!r}")
        if isinstance(m, bool) or not isinstance(m, int) or m < 1:
            raise MalformedDiagramError(f"m must be a positive int, got {_shown(m)!r}")
        if m % 2 == 0:
            raise MalformedDiagramError(
                f"m = {_shown(m)} is even: a plat needs an odd number of rows "
                "(an even count leaves the bottom caps misaligned)"
            )
        _check_box_count(n, m, MalformedDiagramError)
        rows = _as_tuple(rows, MalformedDiagramError, "rows are not a sequence of rows")
        if len(rows) != m:
            raise MalformedDiagramError(f"expected {m} rows, got {len(rows)}")
        twists: dict[int, Twist] = {}
        kinds: set[type] = set()
        built, table = [], []
        try:  # a row is checked for an iterator only once a TypeError stops the pass
            for i, row in enumerate(rows, 1):
                boxes = []
                for box in row:
                    if type(box) is int:  # True and 1.0 equal 1 as keys: test the type first
                        box = twists.get(box) or twists.setdefault(box, Twist(box))
                    elif type(box) not in _BOX_TYPES:
                        if isinstance(box, int) and not isinstance(box, bool):
                            box = Twist(box)
                        elif isinstance(box, (list, tuple)) and len(box) == 2:
                            box = Rational(*box)
                        else:
                            raise MalformedDiagramError(f"row {i}: bad box {_shown(box)!r}")
                    boxes.append(box)
                row = tuple(boxes)
                want = row_length(n, i)
                if len(row) != want:
                    raise MalformedDiagramError(f"row {i} has {len(row)} boxes, expected {want}")
                kinds.update(map(type, row))
                built.append(row)
                table.append(bytes(map(_code_of, row)))
        except TypeError:
            _as_tuple(row, MalformedDiagramError, f"row {i} is not a sequence of boxes")
            raise
        set_field(self, "n", n)
        set_field(self, "m", m)
        set_field(self, "rows", tuple(built))
        set_field(self, "slope_table", tuple(table))
        set_field(self, "is_all_twist", Rational not in kinds)

    @property
    def strand_count(self) -> int:
        return 2 * self.n

    def row_length(self, i: int) -> int:
        return row_length(self.n, i)

    def box(self, i: int, j: int) -> TangleBox:
        return self.rows[i - 1][j - 1]

    def boxes(self) -> Iterator[tuple[int, int, TangleBox]]:
        """Yield (row, column, box), rows top to bottom, boxes left to right."""
        for i, row in enumerate(self.rows, 1):
            for j, box in enumerate(row, 1):
                yield i, j, box

    # The fields are frozen, so values derived from them live in the instance __dict__:
    # the slope table and all-twist flag from __init__; from first use, the digest, the
    # hypothesis reports by mode (_hypotheses), build_topology's component labels
    # (_components), and the span ranges (_spans) and surface reports (_reports) that
    # surfaces shares between the paths of one diagram.  Equality, hashing, repr and
    # pickling read the fields alone.

    @functools.cached_property
    def digest(self) -> str:
        """sha256 hex digest of the canonical diagram encoding."""
        import hashlib  # only certificates read the digest: kept off the import path

        return hashlib.sha256(canonical_diagram_bytes(self)).hexdigest()

    @property
    def twist_crossing_count(self) -> int:
        """Total crossings drawn by the twist boxes."""
        return sum(abs(b.a) for _, _, b in self.boxes() if isinstance(b, Twist))

    def reflected(self) -> "PlatDiagram":
        """Mirror image across the vertical axis: every row reversed."""
        return PlatDiagram(self.n, self.m, tuple(tuple(reversed(r)) for r in self.rows))


make_diagram = PlatDiagram  # both names stay public


# ---------------------------------------------------------------------------
# hypothesis checking


def _ends(length: int) -> tuple[int, ...]:
    # first and last box index; a single box is both
    return (1,) if length == 1 else (1, length)


class HypothesisReport(Record):
    """Verdicts and witnesses for the three hypotheses of a diagram.

    ``witness`` triples are (row, column, value) where value is the box's
    JSON form.  ``two_bridge`` flags the excluded case n <= 2, reported
    separately from an ordinary failure of (i) so callers can refuse with
    the right explanation.
    """

    __slots__ = _fields = ("mode", "n", "m", "n_at_least_3", "interior_nonzero",
                           "odd_row_ends_ok", "interior_zero_boxes", "small_end_boxes")

    @property
    def two_bridge(self) -> bool:
        return self.n <= 2

    @property
    def passed(self) -> bool:
        return self.n_at_least_3 and self.interior_nonzero and self.odd_row_ends_ok

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "n": self.n,
            "m": self.m,
            "two_bridge": self.two_bridge,
            "conditions": {
                "n_at_least_3": self.n_at_least_3,
                "interior_nonzero": self.interior_nonzero,
                "odd_row_ends_ok": self.odd_row_ends_ok,
            },
            "witnesses": {
                "interior_zero": [list(w) for w in self.interior_zero_boxes],
                "small_ends": [list(w) for w in self.small_end_boxes],
            },
            "passed": self.passed,
        }


def _box_json(box: TangleBox) -> Any:
    return box.a if isinstance(box, Twist) else [box.p, box.q]


def check_hypotheses(d: PlatDiagram, mode: str = STRICT) -> HypothesisReport:
    """Check conditions (i)-(iii); relaxed mode lowers the end bound to 2.
    The report is kept on d, one per mode, so each mode scans d once.

    A mode other than the str ``"strict"`` or ``"relaxed"`` is a ParameterError."""
    if not isinstance(mode, str) or mode not in END_BOUND:
        raise ParameterError(f"unknown hypothesis mode {mode!r}")
    kept = d.__dict__.setdefault("_hypotheses", {})
    if mode not in kept:
        kept[mode] = _scan_hypotheses(d, mode)
    return kept[mode]


def _scan_hypotheses(d: PlatDiagram, mode: str) -> HypothesisReport:
    floor = 3 * END_BOUND[mode]  # the least slope code of an odd-row end box

    interior_zero, small_ends = [], []
    for i, (row, codes) in enumerate(zip(d.rows, d.slope_table), 1):
        for w in _LEVEL_0.finditer(codes, 1, len(codes) - 1):
            interior_zero.append((i, w.start() + 1, _box_json(row[w.start()])))
        if i % 2 and codes:
            ends = _ends(len(codes))
            small_ends += [(i, j, _box_json(row[j - 1])) for j in ends if codes[j - 1] < floor]

    return HypothesisReport(
        mode=mode,
        n=d.n,
        m=d.m,
        n_at_least_3=d.n >= 3,
        interior_nonzero=not interior_zero,
        odd_row_ends_ok=not small_ends,
        interior_zero_boxes=tuple(interior_zero),
        small_end_boxes=tuple(small_ends),
    )


# ---------------------------------------------------------------------------
# random generation


def random_diagram(
    n: int,
    m: int,
    max_twist: int = 5,
    seed: int | None = None,
    require_parity: bool = False,
) -> PlatDiagram:
    """A random all-twist diagram satisfying the strict hypotheses.

    Odd-row end boxes draw |a| from [3, max_twist], interior boxes from
    [1, max_twist], even-row end boxes from [0, max_twist]; signs are
    uniform.  With ``require_parity`` the diagram is adjusted so that
    some odd row starts with an odd twist count and some odd row ends
    with one (the slope-coverage parity criterion).
    """
    _check_ints(ParameterError, "n, m and max_twist", n, m, max_twist)
    if n < 3:
        raise ParameterError("random_diagram needs n >= 3")
    if m < 1 or m % 2 == 0:
        raise ParameterError("random_diagram needs odd m >= 1")
    if max_twist < 3:
        raise ParameterError("max_twist must be at least 3")
    _check_box_count(n, m, ParameterError)
    rng = random.Random(seed)

    def sign() -> int:
        return rng.choice((-1, 1))

    rows: list[list[int]] = []
    for i in range(1, m + 1):
        length = row_length(n, i)
        row = []
        for j in range(1, length + 1):
            is_end = j in _ends(length)
            if i % 2 == 1 and is_end:
                row.append(sign() * rng.randint(3, max_twist))
            elif is_end:
                row.append(rng.randint(-max_twist, max_twist))
            else:
                row.append(sign() * rng.randint(1, max_twist))
        rows.append(row)

    if require_parity:
        odds = [v for v in range(3, max_twist + 1) if v % 2 == 1]
        odd_rows = list(range(1, m + 1, 2))
        if not any(rows[i - 1][0] % 2 for i in odd_rows):
            i = rng.choice(odd_rows)
            rows[i - 1][0] = sign() * rng.choice(odds)
        if not any(rows[i - 1][-1] % 2 for i in odd_rows):
            i = rng.choice(odd_rows)
            rows[i - 1][-1] = sign() * rng.choice(odds)

    return PlatDiagram(n, m, rows)


# ---------------------------------------------------------------------------
# serialization


def to_json_dict(d: PlatDiagram) -> dict:
    return {
        "n": d.n,
        "m": d.m,
        "rows": [[_box_json(b) for b in row] for row in d.rows],
    }


def from_json_dict(obj: Any) -> PlatDiagram:
    if not isinstance(obj, dict):
        raise MalformedDiagramError("diagram JSON must be an object")
    unknown = set(obj) - {"n", "m", "rows"}
    if unknown:
        raise MalformedDiagramError(f"unknown keys in diagram JSON: {sorted(unknown)}")
    for key in ("n", "m", "rows"):
        if key not in obj:
            raise MalformedDiagramError(f"diagram JSON missing key {key!r}")
    if not isinstance(obj["rows"], list) or not all(isinstance(r, list) for r in obj["rows"]):
        raise MalformedDiagramError("rows must be a list of lists")
    return PlatDiagram(obj["n"], obj["m"], obj["rows"])


def diagram_to_json(d: PlatDiagram) -> str:
    return json.dumps(to_json_dict(d), indent=2) + "\n"


def _indented_json(obj: Any, indent: str = "\n") -> str:
    """``json.dumps(obj, indent=2)``, byte for byte, for str-keyed dicts, lists, tuples,
    str, int (int subclasses too, by ``int.__repr__`` as json), bool and None; any other
    type, a float too, is a TypeError.  Under ``indent`` 3.10-3.12 run json's pure-Python
    encoder, about twice as slow on a certificate; 3.13's C encoder is about 8 us a
    certificate faster, and ``diagram_to_json`` keeps it."""
    if isinstance(obj, str):
        return _quote(obj)
    if obj is None or obj is True or obj is False:
        return "null" if obj is None else "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    inner = indent + "  "
    if isinstance(obj, dict):  # _quote refuses a key that is no str
        body, ends = [f"{_quote(k)}: {_indented_json(v, inner)}" for k, v in obj.items()], "{}"
    elif isinstance(obj, (list, tuple)):
        body, ends = [_indented_json(v, inner) for v in obj], "[]"
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    return f"{ends[0]}{inner}{(',' + inner).join(body)}{indent}{ends[1]}" if body else ends


def diagram_from_json(text: str) -> PlatDiagram:
    """The diagram of a JSON text; MalformedDiagramError when the text is no
    str, bytes or bytearray, is not JSON or is no diagram."""
    if not isinstance(text, (str, bytes, bytearray)):
        raise MalformedDiagramError(
            f"diagram text must be str, bytes or bytearray, got {type(text).__name__}")
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise MalformedDiagramError(f"diagram file is not valid JSON: {e}") from e
    except (ValueError, RecursionError) as e:
        # the interpreter's limits on integer digits and on nesting depth
        raise MalformedDiagramError(f"diagram file exceeds a JSON limit: {e}") from e
    return from_json_dict(obj)


def canonical_diagram_bytes(d: PlatDiagram) -> bytes:
    """Compact, key-sorted JSON encoding used for digests."""
    rows = "],[".join([",".join(map(_json_of, row)) for row in d.rows])
    return ('{"m":%d,"n":%d,"rows":[[%s]]}' % (d.m, d.n, rows)).encode()
