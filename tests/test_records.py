"""The value records: repr, equality, hashing, immutability and copying.

One instance of every record type is built by keyword from its fields,
in field order, and checked against the behaviour callers rely on.
"""

import copy
import importlib
import inspect
import pickle
import pkgutil

import pytest

import platsurf
from platsurf import (
    AllowablePath,
    BraidWord,
    Certificate,
    HakenCertificate,
    PDCode,
    PlatDiagram,
    Rational,
    SphereDecomposition,
    SurfaceReport,
    TangleFraction,
    Twist,
    build_topology,
)
from platsurf._record import Record
from platsurf.certificates import Conclusion
from platsurf.diagram import HypothesisReport
from platsurf.paths import PathCheck
from platsurf.surfaces import SideSummary
from platsurf.surgery import CoverageCheck, NontrivialityCheck, ParityCheck

D = PlatDiagram(3, 1, ((Twist(3), Twist(-3)),))
D_REPR = "PlatDiagram(n=3, m=1, rows=((Twist(a=3), Twist(a=-3)),))"
HYP = HypothesisReport("strict", 3, 1, True, True, False, (), ((1, 2, -2),))
HYP_REPR = (
    "HypothesisReport(mode='strict', n=3, m=1, n_at_least_3=True, interior_nonzero=True, "
    "odd_row_ends_ok=False, interior_zero_boxes=(), small_end_boxes=((1, 2, -2),))"
)
LEFT = SideSummary("left", (range(1, 2),), ())
LEFT_REPR = "SideSummary(side='left', spans=(range(1, 2),), loop_components=())"
RIGHT = SideSummary("right", (range(2, 3),), (0,))
RIGHT_REPR = "SideSummary(side='right', spans=(range(2, 3),), loop_components=(0,))"
CERT = dict(
    mode="theorem1", digest="ab", certified=False, hypotheses=HYP, path=None,
    surfaces=(), conclusions=(), refusals=("no",), footnotes=("note",),
)
CERT_REPR = (
    f"mode='theorem1', digest='ab', certified=False, hypotheses={HYP_REPR}, path=None, "
    "surfaces=(), conclusions=(), refusals=('no',), footnotes=('note',)"
)
PARITY = ParityCheck(True, 1, 1)
PARITY_REPR = "ParityCheck(value=True, first_odd_row=1, last_odd_row=1, note=None)"
NONTRIVIAL = NontrivialityCheck(True, ())
NONTRIVIAL_REPR = "NontrivialityCheck(ok=True, offenders=())"

# (type, fields by keyword, another value of the same type, exact repr)
RECORDS = [
    (Twist, dict(a=3), Twist(-3), "Twist(a=3)"),
    (Rational, dict(p=1, q=3), Rational(3, 1), "Rational(p=1, q=3)"),
    (PlatDiagram, dict(n=3, m=1, rows=D.rows), D.reflected(), D_REPR),
    (HypothesisReport, dict(
        mode="strict", n=3, m=1, n_at_least_3=True, interior_nonzero=True,
        odd_row_ends_ok=False, interior_zero_boxes=(), small_end_boxes=((1, 2, -2),),
    ), HypothesisReport("relaxed", 3, 1, True, True, False, (), ((1, 2, -2),)), HYP_REPR),
    (TangleFraction, dict(p=3, q=1), TangleFraction(1, 3), "TangleFraction(p=3, q=1)"),
    (AllowablePath, dict(entries=(1, 1, 1)), AllowablePath((1, 2, 1)),
     "AllowablePath(entries=(1, 1, 1))"),
    (PathCheck, dict(ok=False, reason="x"), PathCheck(False), "PathCheck(ok=False, reason='x')"),
    (SideSummary, dict(side="left", spans=(range(1, 2),), loop_components=()), RIGHT, LEFT_REPR),
    (SphereDecomposition, dict(
        diagram=D, path=AllowablePath((1,)), crossing=(0, 0), left=LEFT, right=RIGHT,
    ), SphereDecomposition(D, AllowablePath((1,)), (0, 1), LEFT, RIGHT),
     f"SphereDecomposition(diagram={D_REPR}, path=AllowablePath(entries=(1,)), "
     f"crossing=(0, 0), left={LEFT_REPR}, right={RIGHT_REPR})"),
    (SurfaceReport, dict(kind="planar", euler=0, genus=0, boundary=2, closed=False, extra_tori=None),
     SurfaceReport("tubed_left", 0, 1, 0, True, 0),
     "SurfaceReport(kind='planar', euler=0, genus=0, boundary=2, closed=False, extra_tori=None)"),
    (Conclusion, dict(statement="s", cite="Remark 1"), Conclusion("s", "Remark 3"),
     "Conclusion(statement='s', cite='Remark 1')"),
    (Certificate, CERT, Certificate(**dict(CERT, certified=True)), f"Certificate({CERT_REPR})"),
    (NontrivialityCheck, dict(ok=True, offenders=()), NontrivialityCheck(False, (0,)),
     NONTRIVIAL_REPR),
    (ParityCheck, dict(value=True, first_odd_row=1, last_odd_row=1, note=None),
     ParityCheck(None, None, None, "undefined"), PARITY_REPR),
    (CoverageCheck, dict(ok=True, uncovered=()), CoverageCheck(False, (1,)),
     "CoverageCheck(ok=True, uncovered=())"),
    (HakenCertificate, dict(
        CERT, slopes=(TangleFraction(3, 1),), totally_nontrivial=NONTRIVIAL, coverage=None,
        parity=PARITY,
    ), HakenCertificate(**CERT, slopes=(), totally_nontrivial=NONTRIVIAL, coverage=None,
                        parity=PARITY),
     f"HakenCertificate({CERT_REPR}, slopes=(TangleFraction(p=3, q=1),), "
     f"totally_nontrivial={NONTRIVIAL_REPR}, coverage=None, parity={PARITY_REPR})"),
    (BraidWord, dict(strands=6, syllables=((2, 3),)), BraidWord(6, ((2, -3),)),
     "BraidWord(strands=6, syllables=((2, 3),))"),
    (PDCode, dict(crossings=((1, 2, 3, 4),)), PDCode(((4, 1, 2, 3),)),
     "PDCode(crossings=((1, 2, 3, 4),))"),
]


@pytest.mark.parametrize("cls, fields, other, text", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_behaviour(cls, fields, other, text):
    x = cls(**fields)
    assert repr(x) == text
    assert x == cls(*fields.values()) and not x != cls(**fields)
    assert x != other and type(other) is cls
    assert hash(x) == hash(tuple(fields.values())) == hash(cls(**fields))
    for name, value in fields.items():
        assert getattr(x, name) is value or getattr(x, name) == value
        with pytest.raises(AttributeError):
            setattr(x, name, value)
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert x == pickle.loads(pickle.dumps(x)) == copy.copy(x) == copy.deepcopy(x)
    # __init__ is the class's own, takes exactly the fields, in order, and nothing else
    init = cls.__init__
    assert (init.__qualname__, init.__module__) == (f"{cls.__qualname__}.__init__", cls.__module__)
    assert list(inspect.signature(cls).parameters) == list(cls._fields) == list(fields)
    required = [p.name for p in inspect.signature(cls).parameters.values()
                if p.default is p.empty]
    with pytest.raises(TypeError):
        cls(**{name: v for name, v in fields.items() if name != required[-1]})
    with pytest.raises(TypeError):
        cls(*fields.values(), None)
    with pytest.raises(TypeError):
        cls(**fields, unknown=None)


def _record_types(cls=Record):
    for sub in cls.__subclasses__():
        yield sub
        yield from _record_types(sub)


def test_every_record_type_is_pinned():
    for info in pkgutil.walk_packages(platsurf.__path__, "platsurf."):
        importlib.import_module(info.name)
    defined = {t for t in _record_types() if t.__module__.startswith("platsurf.")}
    assert defined == {r[0] for r in RECORDS}
    assert len(RECORDS) == len(defined)


@pytest.mark.parametrize("box, text, shown", [
    (Twist(-3), "-3", "Twist(a=-3)"),
    (Twist(0), "0", "Twist(a=0)"),
    (Rational(-1, 2), "[-1,2]", "Rational(p=-1, q=2)"),
    (Rational(1, 0), "[1,0]", "Rational(p=1, q=0)"),
])
def test_box_json_text_is_kept_but_is_no_field(box, text, shown):
    assert box._json == text and repr(box) == shown
    assert hash(box) == hash(box._values())
    for other in (copy.copy(box), copy.deepcopy(box), pickle.loads(pickle.dumps(box))):
        assert other == box and other is not box
        assert other._json == text and repr(other) == shown and hash(other) == hash(box)
    with pytest.raises(AttributeError):
        box._json = "0"
    with pytest.raises(AttributeError):
        del box._json
    assert box._json == text


def test_defaults():
    defaults = {(cls.__name__, p.name): p.default for cls, *_ in RECORDS
                for p in inspect.signature(cls).parameters.values() if p.default is not p.empty}
    assert defaults == {("PathCheck", "reason"): None, ("SurfaceReport", "extra_tori"): None,
                        ("ParityCheck", "note"): None}
    assert PathCheck(True).reason is None
    assert SurfaceReport("planar", 0, 0, 2, False).extra_tori is None
    assert ParityCheck(None, None, None).note is None


def test_equality_needs_the_same_type():
    haken = HakenCertificate(
        **CERT, slopes=(), totally_nontrivial=NONTRIVIAL, coverage=None, parity=PARITY
    )
    assert isinstance(haken, Certificate)
    assert Certificate(**CERT) != haken and haken != Certificate(**CERT)
    assert Twist(1) != TangleFraction(1, 1) and Twist(3) != 3
    assert D != D.reflected() and D.reflected().reflected() == D


def test_link_topology_is_mutable_and_compared_by_identity():
    t = build_topology(D)
    assert repr(t) == f"LinkTopology(diagram={D_REPR})"
    assert t == t and t != build_topology(D) and len({t, build_topology(D)}) == 2
    t.diagram = D.reflected()
    assert t.diagram == D.reflected()


def test_a_field_that_is_no_slot_needs_its_own_init():
    with pytest.raises(TypeError) as info:
        class NoSlot(Record):
            __slots__ = ()
            _fields = ("x",)
    assert str(info.value) == (
        "test_a_field_that_is_no_slot_needs_its_own_init.<locals>.NoSlot.x is no slot: "
        "the class needs its own __init__"
    )
