"""Certificates: machine-checked hypotheses, conclusions by citation.

A certificate records the epistemic split this package lives by.  The
combinatorial hypotheses of the certified statements are verified here,
mechanically, with witnesses for any failure.  The conclusions (that
certain surfaces are essential, that an exterior is irreducible) are
*asserted by citation* to the tagged statements listed in FORMATS.md;
no incompressibility computation of any kind happens in this package,
and the certificate says so in its footnotes.

Three modes for ``certify``:

* ``theorem1``: the strict hypotheses with m >= 3.  Certifies that the
  exterior is irreducible and that the planar surface and both closed
  tubed surfaces along the chosen path are essential.
* ``relaxed_remark1``: odd-row end denominators only need to reach 2.
  Certifies the planar surface alone; the closed surfaces are not
  covered by the relaxed variant.
* ``composite_remark3``: the single-row case m = 1 under the strict
  bounds.  The link is composite and nonsplit, and the two closed
  surfaces are essential swallow-follow tori.

The fourth mode, ``corollary2``, is ``surgery.certify_haken``'s; its
record subclasses ``Certificate``.  One builder, ``Certificate.assemble``,
decides every mode: it checks the mode's hypotheses, refuses a row count
the mode does not cover, and writes the conclusions and footnotes.  A
caller adds only its own refusals and records (the path and surfaces
here, the slope conditions in ``surgery``).

Any diagram with n <= 2 is refused in every mode: such links are
2-bridge and their exteriors contain no closed essential surface, so
the certified statements are out of reach by design, not by failure of
the checker.
"""

from __future__ import annotations

from typing import Sequence

from ._record import Record
from .diagram import (
    END_BOUND,
    RELAXED,
    STRICT,
    PlatDiagram,
    _indented_json,
    check_hypotheses,
)
from .errors import ParameterError
from .paths import AllowablePath, extremal_paths
from .surfaces import (
    SphereDecomposition,
    assembled_surface_cells,
    decompose,
    surface_invariants,
)

MODE_THEOREM1 = "theorem1"
MODE_RELAXED = "relaxed_remark1"
MODE_COMPOSITE = "composite_remark3"
MODES = (MODE_THEOREM1, MODE_RELAXED, MODE_COMPOSITE)  # those of ``certify``
MODE_SURGERY = "corollary2"

CITE_THEOREM1 = "Theorem 1"
CITE_COROLLARY2 = "Corollary 2"
CITE_REMARK1 = "Remark 1"
CITE_REMARK3 = "Remark 3"

_PLANAR = (
    "the planar surface along the certified path is essential in the link exterior",
    CITE_REMARK1,
)
# what a certificate of each mode concludes, as (statement, cite) pairs;
# {genus} is the genus (m + 1) / 2 of the closed tubed surfaces
_CONCLUSIONS = {
    MODE_THEOREM1: (
        ("the link exterior is irreducible", CITE_THEOREM1),
        _PLANAR,
        (
            "the closed genus-{genus} surface tubing the planar surface on "
            "the left is essential in the link exterior",
            CITE_THEOREM1,
        ),
        (
            "the closed genus-{genus} surface tubing the planar surface on "
            "the right is essential in the link exterior",
            CITE_THEOREM1,
        ),
    ),
    MODE_RELAXED: (_PLANAR,),
    MODE_COMPOSITE: (
        (
            "the link is composite and nonsplit, and its exterior is irreducible",
            CITE_REMARK3,
        ),
        (
            "both closed surfaces along the certified path are essential "
            "swallow-follow tori",
            CITE_REMARK3,
        ),
    ),
    MODE_SURGERY: (
        (
            "the manifold obtained by the given totally nontrivial surgery is Haken",
            CITE_COROLLARY2,
        ),
        (
            "both closed tubed surfaces remain incompressible in the surgered manifold",
            CITE_COROLLARY2,
        ),
    ),
}

# the row counts m each mode covers (m is odd), with the refusal for any
# other m; relaxed_remark1 covers every m
_SCOPE = {
    MODE_THEOREM1: (
        lambda m: m != 1,
        "mode theorem1 covers m >= 3; single-row diagrams are the composite case, "
        "use composite_remark3",
    ),
    MODE_COMPOSITE: (
        lambda m: m == 1,
        "mode composite_remark3 covers m = 1 only, this diagram has m = {m}",
    ),
    MODE_SURGERY: (
        lambda m: m != 1,
        "surgery certification covers m >= 3, matching the mode the ordinary "
        "certificate would use",
    ),
}

FOOTNOTE_INDEXING = (
    "Indexing caveat: the published index bounds in conditions (ii) and "
    "(iii) of the cited statement do not fit the row lengths of a 2n-plat; "
    "the hypotheses checked here follow the prose reading (every interior "
    "box of every row nonzero; both end boxes of every odd row bounded "
    "below; even-row end boxes unconstrained)."
)
FOOTNOTE_EPISTEMIC = (
    "Hypotheses above are machine-checked.  Conclusions are asserted by "
    "citation to the tagged statements; essentiality and irreducibility "
    "are never computed by this package."
)
FOOTNOTE_RATIONAL = (
    "This diagram uses rational tangle boxes; they are admitted in place "
    "of twist boxes because only the denominators enter the hypotheses."
)


def diagram_digest(d: PlatDiagram) -> str:
    """sha256 hex digest of the canonical diagram encoding, kept on the diagram."""
    return d.digest


class Conclusion(Record):
    __slots__ = _fields = ("statement", "cite")

    def to_dict(self) -> dict:
        return {"statement": self.statement, "cite": self.cite}


class Certificate(Record):
    __slots__ = _fields = ("mode", "digest", "certified", "hypotheses", "path", "surfaces",
                           "conclusions", "refusals", "footnotes")

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "digest": self.digest,
            "certified": self.certified,
            "hypotheses": self.hypotheses.to_dict(),
            "path": list(self.path.entries) if self.path is not None else None,
            **self._surgery_records(),
            "surfaces": [s.to_dict() for s in self.surfaces],
            "conclusions": [c.to_dict() for c in self.conclusions],
            "refusals": list(self.refusals),
            "footnotes": list(self.footnotes),
        }

    def _surgery_records(self) -> dict:
        """Records written between ``path`` and ``surfaces``; none here."""
        return {}

    @classmethod
    def assemble(
        cls, d: PlatDiagram, mode: str, refusals: Sequence[str] = (),
        notes: Sequence[str] = (), **records,
    ):
        """The certificate of ``mode`` for d, with every refusal in order.

        Refusals run: the 2-bridge line or one line per failed hypothesis
        witness, then the mode's row-count scope, then ``refusals``.  The
        certificate concludes only when none is left.  ``notes`` follow
        the standard footnotes; ``records`` fill the remaining fields.
        """
        hyp = check_hypotheses(d, RELAXED if mode == MODE_RELAXED else STRICT)
        if hyp.two_bridge:
            lines = [
                "n <= 2: the link is a 2-bridge link and its exterior contains "
                "no closed essential surface; nothing here applies"
            ]
        else:
            lines = [
                f"condition (ii) fails: interior box (row {i}, box {j}) has value {value}"
                for i, j, value in hyp.interior_zero_boxes
            ]
            lines += [
                f"condition (iii) fails: odd-row end box (row {i}, box {j}) "
                f"has value {value}, denominator below {END_BOUND[hyp.mode]}"
                for i, j, value in hyp.small_end_boxes
            ]
        if mode in _SCOPE and not _SCOPE[mode][0](d.m):
            lines.append(_SCOPE[mode][1].format(m=d.m))
        lines += refusals

        certified = not lines
        rational = () if d.is_all_twist else (FOOTNOTE_RATIONAL,)
        return cls(
            mode=mode,
            digest=diagram_digest(d),
            certified=certified,
            hypotheses=hyp,
            conclusions=tuple(
                Conclusion(statement.format(genus=(d.m + 1) // 2), cite)
                for statement, cite in (_CONCLUSIONS[mode] if certified else ())
            ),
            refusals=tuple(lines),
            footnotes=(FOOTNOTE_INDEXING, FOOTNOTE_EPISTEMIC, *rational, *notes),
            **records,
        )


def certificate_json(cert: Certificate) -> str:
    return _indented_json(cert.to_dict()) + "\n"


def _euler_footnote(dec: SphereDecomposition) -> str:
    m = dec.m
    open_cells = assembled_surface_cells(m + 1, 0)
    closed_cells = assembled_surface_cells(m + 1, (m + 1) // 2)
    return (
        "Euler characteristics recomputed by cell assembly: planar "
        f"V={open_cells['vertices']} E={open_cells['edges']} "
        f"F={open_cells['faces']} chi={open_cells['euler']}; tubed "
        f"V={closed_cells['vertices']} E={closed_cells['edges']} "
        f"F={closed_cells['faces']} chi={closed_cells['euler']} "
        f"genus={closed_cells['genus']}; both agree with the closed forms."
    )


def certify(
    d: PlatDiagram,
    path: AllowablePath | Sequence[int] | None = None,
    mode: str = MODE_THEOREM1,
) -> Certificate:
    """Check a diagram's hypotheses and emit the certificate for one mode.

    ``path`` defaults to the leftmost allowable path.  A path that is
    present but not allowable is an input error, not a refusal.  Failed
    hypotheses, the excluded 2-bridge case, and a mode/m mismatch all
    produce an uncertified certificate whose ``refusals`` name the
    reasons.
    """
    if mode not in MODES:
        raise ParameterError(f"unknown certificate mode {mode!r}")
    if path is None:
        if d.n <= 2:
            return Certificate.assemble(d, mode, path=None, surfaces=())
        path, _ = extremal_paths(d)
    dec = decompose(d, path)
    return Certificate.assemble(
        d, mode, notes=(_euler_footnote(dec),), path=dec.path, surfaces=surface_invariants(dec)
    )
