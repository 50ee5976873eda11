"""Dehn surgery slopes and Haken certificates.

A surgery instruction assigns one slope p/q to each link component,
listed in canonical component order (component ids as produced by the
topology pass).  Slopes are reduced with q >= 0; the meridian is 1/0.
Note 0/1 is a genuine surgery slope, not the meridian.

The certified surgery statement needs three ingredients on top of the
strict hypotheses: the slope tuple must be *totally nontrivial* (no
component receives its meridian), and every component must intersect
some allowable sphere.  The coverage condition is checked directly: a
component misses every allowable sphere exactly when it lies strictly
left of the leftmost sphere or strictly right of the rightmost one.
For all-twist diagrams there is also a parity reading: coverage holds
iff some odd row starts with an odd twist count and some odd row ends
with one.  The parity value is recorded as an annotation and checked
against the direct computation in the test suite; the direct check is
the one that gates certification.

A ``HakenCertificate`` is a ``certificates.Certificate`` with four
surgery records more and never a path or surfaces.  That module's one
builder, ``Certificate.assemble``, checks its hypotheses and row count
and writes its conclusions and footnotes; this module supplies only the
two slope refusals and the four records.
"""

from __future__ import annotations

from typing import Sequence

from ._record import Record
from .certificates import MODE_SURGERY, Certificate, certificate_json
from .diagram import PlatDiagram, Twist
from .errors import ParameterError, TwoBridgeError, _as_tuple
from .paths import extremal_paths
from .tangles import TangleFraction
from .topology import build_topology, sphere_partition

# a surgery slope is a tangle fraction read as a slope on a component's
# boundary torus; 1/0 is the meridian
Slope = TangleFraction
MERIDIAN = Slope(1, 0)
_NOT_SLOPES = "slopes are not a sequence of Slope"


def parse_slopes(text: str) -> tuple[Slope, ...]:
    """Comma-separated slope list, e.g. '3/1,5/2,1/0'; no item may be empty."""
    if not isinstance(text, str):
        raise ParameterError(f"slope list must be a str, got {text!r}")
    if not text.strip():
        raise ParameterError("empty slope list")
    items = text.split(",")
    for k, item in enumerate(items, 1):
        if not item.strip():
            raise ParameterError(f"empty slope at position {k} of {text!r}")
    return tuple(map(Slope.parse, items))


class NontrivialityCheck(Record):
    """Whether a slope tuple avoids every meridian; offenders by id."""

    __slots__ = _fields = ("ok", "offenders")

    def __bool__(self) -> bool:
        return self.ok

    def to_dict(self) -> dict:
        return {"passed": self.ok, "offenders": list(self.offenders)}


def is_totally_nontrivial(slopes: Sequence[Slope]) -> NontrivialityCheck:
    """Component ids whose slope is the meridian; slopes that are not
    iterable, or an item that is no Slope, are an input error, the item
    named by its position as in ``parse_slopes``."""
    slopes = _as_tuple(slopes, ParameterError, _NOT_SLOPES)
    for k, s in enumerate(slopes, 1):
        if not isinstance(s, Slope):
            raise ParameterError(f"slope at position {k} is not a Slope: got {type(s).__name__}")
    offenders = tuple(i for i, s in enumerate(slopes) if s.is_meridian)
    return NontrivialityCheck(not offenders, offenders)


class ParityCheck(Record):
    """The odd-twist reading of the coverage condition.

    ``value`` is None when an odd-row end box is rational: the reading
    is defined for twist counts only, and the direct check stands alone.
    It is None as well for n = 1, where odd rows hold no boxes at all.
    """

    __slots__ = _fields = ("value", "first_odd_row", "last_odd_row", "note")
    _defaults = (None,)

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "first_odd_row": self.first_odd_row,
            "last_odd_row": self.last_odd_row,
            "note": self.note,
        }


def parity_criterion(d: PlatDiagram) -> ParityCheck:
    """Some odd row starts odd and some odd row ends odd (twist boxes)."""
    if d.n == 1:
        return ParityCheck(
            None, None, None, "odd rows hold no boxes; parity reading undefined"
        )
    first = last = None
    for i in range(1, d.m + 1, 2):
        head, tail = d.box(i, 1), d.box(i, d.row_length(i))
        if not isinstance(head, Twist) or not isinstance(tail, Twist):
            return ParityCheck(
                None, None, None,
                "an odd-row end box is rational; parity reading undefined",
            )
        if first is None and head.a % 2 != 0:
            first = i
        if last is None and tail.a % 2 != 0:
            last = i
    return ParityCheck(first is not None and last is not None, first, last)


class CoverageCheck(Record):
    """Whether every component meets some allowable sphere."""

    __slots__ = _fields = ("ok", "uncovered")

    def __bool__(self) -> bool:
        return self.ok

    def to_dict(self) -> dict:
        return {"passed": self.ok, "uncovered": list(self.uncovered)}


def direct_coverage_check(d: PlatDiagram) -> CoverageCheck:
    """Components missing every sphere, found at the two extremal spheres.

    A component disjoint from all allowable spheres lies strictly left
    of the leftmost sphere or strictly right of the rightmost one, so
    those two are the only spheres that need looking at.
    """
    if d.n <= 2:
        raise TwoBridgeError("coverage is undefined for n <= 2: no allowable spheres")
    low, high = extremal_paths(d)
    t = build_topology(d)
    uncovered = sphere_partition(t, low.entries)[1] | sphere_partition(t, high.entries)[2]
    return CoverageCheck(not uncovered, tuple(sorted(uncovered)))


class HakenCertificate(Certificate):
    """Surgery certificate: hypotheses plus slope conditions, by citation."""

    __slots__ = ("slopes", "totally_nontrivial", "coverage", "parity")
    _fields = Certificate._fields + __slots__

    def _surgery_records(self) -> dict:
        return {
            "slopes": [str(s) for s in self.slopes],
            "totally_nontrivial": self.totally_nontrivial.to_dict(),
            "coverage": self.coverage.to_dict() if self.coverage is not None else None,
            "parity_criterion": self.parity.to_dict(),
        }


haken_certificate_json = certificate_json


def certify_haken(d: PlatDiagram, slopes: Sequence[Slope]) -> HakenCertificate:
    """Certify that every totally nontrivial surgery along ``slopes`` is Haken.

    Requires the strict hypotheses with m >= 3 (so that an ordinary
    certificate exists for the same diagram), full slope coverage, and
    no meridian in the tuple.  The slope list must carry exactly one
    slope per component, in canonical component order; a wrong arity is
    an input error rather than a refusal, as are slopes that are not
    iterable.
    """
    slopes = _as_tuple(slopes, ParameterError, _NOT_SLOPES)
    t = build_topology(d)
    if len(slopes) != t.component_count:
        raise ParameterError(
            f"need {t.component_count} slopes (one per component), got {len(slopes)}"
        )

    refusals = []
    nontrivial = is_totally_nontrivial(slopes)
    if not nontrivial:
        ids = ", ".join(str(i) for i in nontrivial.offenders)
        refusals.append(
            f"slope tuple is not totally nontrivial: component(s) {ids} "
            "receive the meridian 1/0"
        )

    coverage: CoverageCheck | None = None
    if d.n >= 3:
        coverage = direct_coverage_check(d)
        if not coverage:
            ids = ", ".join(str(i) for i in coverage.uncovered)
            refusals.append(
                f"component(s) {ids} meet no allowable sphere; the surgered "
                "surfaces would miss them"
            )

    return HakenCertificate.assemble(
        d, MODE_SURGERY, refusals, path=None, surfaces=(), slopes=slopes,
        totally_nontrivial=nontrivial, coverage=coverage, parity=parity_criterion(d),
    )
