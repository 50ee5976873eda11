"""Diagram structure, hypotheses, random generation, serialization."""

import copy
import enum
import json
import math
import pickle
import random
import re
import sys
from pathlib import Path

import pytest

from platsurf import (
    MalformedDiagramError,
    Pairing,
    ParameterError,
    PlatDiagram,
    Rational,
    Twist,
    box_denominator,
    box_fraction,
    check_hypotheses,
    diagram_digest,
    diagram_from_json,
    diagram_to_json,
    incompressibility_level,
    make_diagram,
    pairing,
    pairing_by_tracing,
    random_diagram,
)
from platsurf.diagram import (
    MAX_BOXES,
    RELAXED,
    STRICT,
    _indented_json,
    canonical_diagram_bytes,
    from_json_dict,
    row_length,
    to_json_dict,
)
from platsurf.surgery import parity_criterion

from helpers import canonical_json_bytes, per_box_hypotheses, random_all_twist, random_mixed

GOLDEN = Path(__file__).parent / "golden"


def test_shape_rules():
    d = make_diagram(3, 3, [[3, 3], [3, 3, 3], [3, 3]])
    assert d.strand_count == 6
    assert d.row_length(1) == 2 and d.row_length(2) == 3
    assert d.box(2, 3) == Twist(3)
    assert d.twist_crossing_count == 21
    assert d.is_all_twist


def test_even_m_rejected():
    with pytest.raises(MalformedDiagramError, match="even"):
        make_diagram(3, 2, [[3, 3], [3, 3, 3]])


def test_wrong_row_length_named():
    with pytest.raises(MalformedDiagramError, match="row 2"):
        make_diagram(3, 3, [[3, 3], [3, 3], [3, 3]])
    with pytest.raises(MalformedDiagramError, match="3 rows"):
        make_diagram(3, 3, [[3, 3]])


def test_box_coercion_and_validation():
    d = make_diagram(3, 1, [[3, [7, 2]]])
    assert d.box(1, 1) == Twist(3)
    assert d.box(1, 2) == Rational(7, 2)
    with pytest.raises(MalformedDiagramError):
        make_diagram(3, 1, [[3, [4, 2]]])  # not reduced
    with pytest.raises(MalformedDiagramError):
        make_diagram(3, 1, [[3, [0, 0]]])
    with pytest.raises(MalformedDiagramError):
        make_diagram(3, 1, [[3, "x"]])
    with pytest.raises(MalformedDiagramError):
        make_diagram(3, 1, [[3, True]])


def test_box_fractions():
    assert box_fraction(Twist(3)).p == 1 and box_fraction(Twist(3)).q == 3
    assert box_fraction(Twist(-4)).q == 4
    assert box_fraction(Twist(0)).is_vertical
    assert box_denominator(Rational(-7, 2)) == 2
    assert box_denominator(Rational(7, -2)) == 2


def test_hypotheses_all_threes_pass():
    d = make_diagram(3, 3, [[3, 3], [3, 3, 3], [3, 3]])
    rep = check_hypotheses(d)
    assert rep.passed and not rep.two_bridge
    assert rep.mode == "strict"


def test_hypotheses_small_end_witness():
    # first box of row 1 lowered to 2: strict names it, relaxed accepts it
    d = make_diagram(3, 3, [[2, 3], [3, 3, 3], [3, 3]])
    strict = check_hypotheses(d)
    assert not strict.passed
    assert strict.small_end_boxes == ((1, 1, 2),)
    relaxed = check_hypotheses(d, RELAXED)
    assert relaxed.passed and relaxed.mode == "relaxed"


def test_hypotheses_interior_zero_witness():
    d = make_diagram(3, 3, [[3, 3], [3, 0, 3], [3, 3]])
    rep = check_hypotheses(d)
    assert not rep.passed
    assert rep.interior_zero_boxes == ((2, 2, 0),)
    assert not check_hypotheses(d, RELAXED).passed


def test_even_row_ends_unrestricted():
    d = make_diagram(3, 3, [[3, 3], [0, 3, 0], [3, 3]])
    assert check_hypotheses(d).passed


def test_rational_boxes_judged_by_denominator():
    # 7/2 at an odd-row end: denominator 2 fails strict, passes relaxed
    d = make_diagram(3, 3, [[[7, 2], 3], [3, 3, 3], [3, 3]])
    assert not check_hypotheses(d).passed
    assert check_hypotheses(d, RELAXED).passed
    # 5/3 everywhere is fine strictly
    d2 = make_diagram(3, 3, [[[5, 3], 3], [3, 3, 3], [3, 3]])
    assert check_hypotheses(d2).passed
    # a vertical tangle in the interior is a zero denominator
    d3 = make_diagram(3, 3, [[3, 3], [3, [1, 0], 3], [3, 3]])
    rep = check_hypotheses(d3)
    assert rep.interior_zero_boxes == ((2, 2, [1, 0]),)


def test_two_bridge_flag():
    d = make_diagram(2, 3, [[3], [3, 3], [3]])
    rep = check_hypotheses(d)
    assert rep.two_bridge and not rep.passed
    assert not rep.n_at_least_3


def test_bad_mode():
    d = make_diagram(3, 1, [[3, 3]])
    with pytest.raises(ParameterError):
        check_hypotheses(d, "loose")
    for mode in ([], {}):  # unhashable: refused before the lookup
        with pytest.raises(ParameterError, match=f"^{re.escape(f'unknown hypothesis mode {mode!r}')}$"):
            check_hypotheses(d, mode)
    assert "_hypotheses" not in d.__dict__  # a refused mode keeps nothing


def test_hypothesis_reports_are_kept_per_mode():
    d = make_diagram(3, 3, [[2, 3], [3, 3, 3], [3, 3]])
    strict, relaxed = check_hypotheses(d), check_hypotheses(d, RELAXED)
    assert check_hypotheses(d, STRICT) is strict and check_hypotheses(d, RELAXED) is relaxed
    assert (strict.mode, strict.passed) == (STRICT, False)
    assert (relaxed.mode, relaxed.passed) == (RELAXED, True)
    assert d.__dict__["_hypotheses"] == {STRICT: strict, RELAXED: relaxed}


def test_kept_hypotheses_stay_out_of_the_diagram_value():
    d = make_diagram(3, 3, [[2, 3], [3, 3, 3], [3, 3]])
    fresh = make_diagram(3, 3, [[2, 3], [3, 3, 3], [3, 3]])
    text, value = repr(d), hash(d)
    check_hypotheses(d), check_hypotheses(d, RELAXED)
    assert "_hypotheses" in d.__dict__
    assert repr(d) == text == repr(fresh) and hash(d) == value == hash(fresh)
    assert d == fresh and fresh == d
    for copied in (pickle.loads(pickle.dumps(d)), copy.copy(d), copy.deepcopy(d)):
        assert copied == d and "_hypotheses" not in copied.__dict__
    assert pickle.dumps(d) == pickle.dumps(fresh)


def test_random_diagrams_strictly_valid():
    for seed in range(200):
        rng = random.Random(seed)
        n, m = rng.randint(3, 6), rng.choice((1, 3, 5, 7))
        d = random_diagram(n, m, seed=seed)
        assert d.is_all_twist
        assert check_hypotheses(d).passed, (n, m, seed)


def test_random_diagram_deterministic():
    a = random_diagram(4, 5, seed=42)
    b = random_diagram(4, 5, seed=42)
    assert a == b
    assert a != random_diagram(4, 5, seed=43)


@pytest.mark.parametrize(
    "case, n, m, seed, parity",
    [
        ("twist-random-3-5-s9-parity", 3, 5, 9, True),
        ("twist-random-4-5-s3", 4, 5, 3, False),
        ("twist-random-5-7-s2", 5, 7, 2, False),
        ("twist-random-6-3-s4", 6, 3, 4, False),
    ],
)
def test_random_diagram_matches_the_golden_draws(case, n, m, seed, parity):
    recorded = json.loads((GOLDEN / case / "case.json").read_text())["diagram"]
    d = random_diagram(n, m, seed=seed, require_parity=parity)
    assert d == from_json_dict(recorded)
    assert d.slope_table == PlatDiagram(d.n, d.m, d.rows).slope_table


def test_random_diagram_parity_flag():
    for seed in range(100):
        d = random_diagram(4, 5, seed=seed, require_parity=True)
        assert parity_criterion(d).value is True, seed
        assert check_hypotheses(d).passed


def test_random_diagram_parity_draws_an_odd_twist_from_3_to_max_twist():
    # no odd row ends in an odd twist, so the adjustment redraws the last box of
    # row 1 from the odd values 3..max_twist; with max_twist even, drawing from
    # 3..7 or from 5 alone would give other rows
    plain = random_diagram(3, 3, max_twist=6, seed=5)
    assert [[box.a for box in row] for row in plain.rows] == [[5, -6], [6, -6, -6], [-3, 6]]
    d = random_diagram(3, 3, max_twist=6, seed=5, require_parity=True)
    assert [[box.a for box in row] for row in d.rows] == [[5, 3], [6, -6, -6], [-3, 6]]
    assert parity_criterion(d).value is True


def test_random_diagram_parameter_errors():
    with pytest.raises(ParameterError):
        random_diagram(2, 3)
    with pytest.raises(ParameterError):
        random_diagram(3, 4)
    with pytest.raises(ParameterError):
        random_diagram(3, 3, max_twist=2)
    # each is checked before any comparison; a bool is no int
    for args, kwargs, bad in ((("3", 3), {}, "'3'"), ((3.0, 3), {}, "3.0"),
                              ((4, 3), {"max_twist": None}, "None"), ((3, True), {}, "True")):
        with pytest.raises(ParameterError) as info:
            random_diagram(*args, **kwargs)
        assert str(info.value) == f"n, m and max_twist must be ints, got {bad}"


def test_reflection():
    d = make_diagram(3, 3, [[2, 3], [4, 5, 6], [7, 8]])
    r = d.reflected()
    assert r.rows[0] == (Twist(3), Twist(2))
    assert r.rows[1] == (Twist(6), Twist(5), Twist(4))
    assert r.reflected() == d


def test_json_round_trip():
    d = make_diagram(3, 3, [[3, [7, 2]], [3, 0, -3], [3, 3]])
    text = diagram_to_json(d)
    assert diagram_from_json(text) == d
    obj = to_json_dict(d)
    assert obj["rows"][0] == [3, [7, 2]]
    assert from_json_dict(json.loads(json.dumps(obj))) == d


def test_json_rejects_unknowns_and_junk():
    good = {"n": 3, "m": 1, "rows": [[3, 3]]}
    assert from_json_dict(good).n == 3
    with pytest.raises(MalformedDiagramError, match="unknown"):
        from_json_dict({**good, "name": "trefoil"})
    with pytest.raises(MalformedDiagramError, match="missing"):
        from_json_dict({"n": 3, "m": 1})
    with pytest.raises(MalformedDiagramError):
        from_json_dict([1, 2, 3])
    with pytest.raises(MalformedDiagramError):
        from_json_dict({"n": 3, "m": 1, "rows": [[3.5, 3]]})
    with pytest.raises(MalformedDiagramError):
        from_json_dict({"n": 3, "m": 1, "rows": [[3, [1, 2, 3]]]})
    with pytest.raises(MalformedDiagramError):
        diagram_from_json("{not json")
    with pytest.raises(MalformedDiagramError,
                       match="^diagram text must be str, bytes or bytearray, got int$"):
        diagram_from_json(3)


def test_direct_construction_validates():
    with pytest.raises(MalformedDiagramError):
        PlatDiagram(0, 1, ())
    with pytest.raises(MalformedDiagramError):
        PlatDiagram(3, 1, ((Twist(3), "bad"),))
    for bad in (1.5, True):
        with pytest.raises(MalformedDiagramError,
                           match=re.escape(f"twist count must be an int, got {bad!r}")):
            Twist(bad)


def _seeded_boxes():
    """Twists 0, +-1, +-2, +-10**30 and rationals of all three pairings, 1/0 too."""
    rng = random.Random(59)
    boxes = [Twist(a) for a in (0, 1, -1, 2, -2, 10**30, -(10**30), 10**30 + 1)]
    boxes += [Rational(p, q) for p, q in ((1, 0), (-1, 0), (0, 1), (7, 2), (5, 3), (-4, 5))]
    boxes += [Twist(rng.randint(-9, 9)) for _ in range(60)]
    while len(boxes) < 200:
        p, q = rng.randint(-40, 40), rng.randint(-40, 40)
        if (p, q) != (0, 0) and math.gcd(p, q) == 1:
            boxes.append(Rational(p, q))
    return boxes


def _packed(boxes, n=5):
    """A diagram holding the boxes in reading order, padded with Twist(3)."""
    rows, rest, i = [], list(boxes), 1
    while rest or len(rows) % 2 == 0:
        take = row_length(n, i)
        rows.append(tuple((rest[:take] + [Twist(3)] * take)[:take]))
        rest, i = rest[take:], i + 1
    return PlatDiagram(n, len(rows), tuple(rows))


def test_slope_table_matches_fraction_and_pairing():
    d = _packed(_seeded_boxes())
    assert [len(codes) for codes in d.slope_table] == [len(r) for r in d.rows]
    assert all(isinstance(codes, bytes) for codes in d.slope_table)
    kinds = list(Pairing)
    for i, j, box in d.boxes():
        level, kind = divmod(d.slope_table[i - 1][j - 1], 3)
        f = box_fraction(box)
        assert level == incompressibility_level(f) == min(box_denominator(box), 3), box
        assert kinds[kind] is pairing(f), box
        # each half twist of the trace exchanges two endpoints, an
        # involution, so only the parity of each term matters to it
        terms = [abs(t) % 2 for t in f.continued_fraction()]
        assert kinds[kind] is pairing_by_tracing(terms), box
    assert {code % 3 for codes in d.slope_table for code in codes} == {0, 1, 2}


def test_hash_is_kept_and_equality_compares_fields():
    d = make_diagram(3, 3, [[3, 4], [3, [7, 2], -3], [3, 5]])
    same = diagram_from_json(diagram_to_json(d))
    assert d is not same
    assert hash(d) == hash(same) == hash((d.n, d.m, d.rows))
    assert d == same and diagram_digest(d) == diagram_digest(same)
    mirror = d.reflected()
    assert mirror != d and diagram_digest(mirror) != diagram_digest(d)
    assert not mirror.is_all_twist and mirror.reflected() == d


def test_parse_shares_one_twist_per_value():
    d = diagram_from_json(diagram_to_json(make_diagram(3, 3, [[3, 4], [3, -3, 3], [4, 3]])))
    assert d.box(1, 1) is d.box(2, 1) is d.box(2, 3) is d.box(3, 2)
    assert d.box(1, 2) is d.box(3, 1)
    assert d.box(2, 2) == Twist(-3) and d.box(2, 2) is not d.box(1, 1)


def _seeded_shapes(count):
    rng = random.Random(61)
    for _ in range(count):
        yield rng, rng.randint(1, 6), rng.choice((1, 3, 5, 7, 9))


def test_parse_fills_what_direct_construction_computes():
    for k, (rng, n, m) in enumerate(_seeded_shapes(300)):
        d = (random_mixed if k % 2 else random_all_twist)(rng, n, m)
        parsed = diagram_from_json(diagram_to_json(d))
        direct = PlatDiagram(d.n, d.m, d.rows)
        assert {"slope_table", "is_all_twist"} <= parsed.__dict__.keys()
        # copies are rebuilt by __init__, so they recompute the boxes' codes
        for other in (parsed, pickle.loads(pickle.dumps(d)), copy.deepcopy(d)):
            assert other.slope_table == direct.slope_table
            assert other.is_all_twist is direct.is_all_twist
            assert other.digest == direct.digest


def test_parse_rejects_what_it_did_before():
    for bad in (True, 1.0, [1, 2, 3]):
        with pytest.raises(MalformedDiagramError, match=re.escape(f"bad box value {bad!r}")):
            make_diagram(3, 1, [[3, bad]])

    class Count(int):
        pass

    d = make_diagram(3, 1, [[Count(3), (1, 3)]])
    assert d.rows == ((Twist(3), Rational(1, 3)),) and not d.is_all_twist


class _Half(enum.IntEnum):
    THREE = 3
    MINUS_FIVE = -5


def _digest_corpus():
    rng = random.Random(24)
    for _ in range(3):
        for n in range(1, 9):  # n = 1 leaves every odd row empty
            for m in range(1, 12, 2):
                yield random_mixed(rng, n, m)
    big = 10**20
    yield make_diagram(3, 3, [[0, -1], [0, -7, 0], [big, -big]])
    yield make_diagram(2, 3, [[-(10**40) - 7], [0, big + 1], [-3]])
    # every pairing: through-identity, through-swap, caps; negative p; 1/0 and 0/1
    yield make_diagram(4, 3, [[(1, 2), (-3, 4), (1, 0)], [(1, 3), (-5, 7), (0, 1), (2, 3)],
                              [(-4, 5), (-1, 0), (big + 1, big)]])
    yield make_diagram(3, 1, [[_Half.THREE, (_Half.MINUS_FIVE, 2)]])
    for case in sorted(GOLDEN.glob("*/case.json")):
        yield from_json_dict(json.loads(case.read_text())["diagram"])
    yield random_diagram(200, 201, seed=1)


def test_digest_bytes_equal_json_dumps_of_the_box_table():
    count = 0
    for d in _digest_corpus():
        assert canonical_diagram_bytes(d) == canonical_json_bytes(d), d
        count += 1
    assert count == 3 * 8 * 6 + 4 + len(list(GOLDEN.glob("*/case.json"))) + 1


def test_box_past_the_digit_limit_still_builds_and_its_digest_raises():
    huge = 10**5000
    assert Twist(huge).a == huge and Rational(huge, 1).q == 1
    d = make_diagram(3, 1, [[huge, 3]])
    assert d.box(1, 1) == Twist(huge) and d.slope_table == (bytes([9, 10]),)
    with pytest.raises(ValueError, match="limit"):
        d.digest


def test_direct_construction_names_the_bad_box():
    with pytest.raises(MalformedDiagramError, match="row 1: bad box 'bad'"):
        PlatDiagram(3, 1, ((Twist(3), "bad"),))
    with pytest.raises(MalformedDiagramError, match="row 2: bad box 3"):
        PlatDiagram(3, 3, ((Twist(3),) * 2, (Twist(3), 3, Twist(3)), (Twist(3),) * 2))


_SPOILERS = (0, 1, -1, 2, -2, (1, 0), (0, 1), (1, 2), (-3, 2), (2, 5))


def _spoil(rng, rows, where):
    """Put a spoiler box inside a random row, or at an end of an odd or an even row."""
    m = len(rows)
    if where == "interior":
        i = rng.randint(1, m)
    else:
        i = rng.randrange(1 if where == "odd end" or m == 1 else 2, m + 1, 2)
    row = rows[i - 1]
    if len(row) > 2 and where == "interior":
        row[rng.randrange(1, len(row) - 1)] = rng.choice(_SPOILERS)
    elif row:
        row[rng.choice((0, len(row) - 1))] = rng.choice(_SPOILERS)


def test_hypotheses_match_the_per_box_check():
    places = ("interior", "odd end", "even end", None)
    for k, (rng, n, m) in enumerate(_seeded_shapes(400)):
        rows = [[rng.choice((3, -4, 5)) for _ in range(row_length(n, i))] for i in range(1, m + 1)]
        for _ in range(rng.randint(1, 3) if places[k % 4] else 0):
            _spoil(rng, rows, places[k % 4])
        parsed = make_diagram(n, m, rows)
        for d in (parsed, PlatDiagram(n, m, parsed.rows)):
            for mode in (STRICT, RELAXED):
                assert check_hypotheses(d, mode).to_dict() == per_box_hypotheses(d, mode), (rows, mode)
    # one row with several interior zeros and both odd ends small: witnesses
    # come in column order, interior and end lists each
    d = make_diagram(7, 3, [[2, 0, 5, (1, 0), 0, 1], [3] * 7, [-2, 4, (-1, 0), 3, 0, (1, 2)]])
    for mode in (STRICT, RELAXED):
        assert check_hypotheses(d, mode).to_dict() == per_box_hypotheses(d, mode), mode
    report = check_hypotheses(d).to_dict()["witnesses"]
    assert report == {
        "interior_zero": [[1, 2, 0], [1, 4, [1, 0]], [1, 5, 0], [3, 3, [-1, 0]], [3, 5, 0]],
        "small_ends": [[1, 1, 2], [1, 6, 1], [3, 1, -2], [3, 6, [1, 2]]],
    }


def test_box_count_is_limited_before_any_row_is_built():
    # (MAX_BOXES + 1, 1) holds exactly MAX_BOXES boxes, one more box is over
    with pytest.raises(MalformedDiagramError, match="expected 1 rows"):
        make_diagram(MAX_BOXES + 1, 1, [])
    with pytest.raises(MalformedDiagramError, match="limited to"):
        make_diagram(MAX_BOXES + 2, 1, [])
    with pytest.raises(MalformedDiagramError, match="limited to"):
        from_json_dict({"n": 10**6, "m": 10**6 + 1, "rows": []})
    with pytest.raises(ParameterError, match="limited to"):
        random_diagram(1000, 2001)


class _Loud(int):
    def __repr__(self) -> str:
        return "loud"

    __str__ = __repr__


def test_indented_json_writes_what_json_dumps_writes():
    texts = ("", "quote \" backslash \\ slash / tab \t newline \n nul \x00 bell \x07 del \x7f",
             "\u00e9 \u221e \U0001d11e lone \ud800")
    docs = [[], {}, (), [[]], [{}], {"a": []}, {"a": {}, "b": [[], [{}], ()]}, [[[[]]]],
            *texts, [*texts], {t: t for t in texts},
            [True, 1, False, 0, None], {"t": True, "one": 1}, True, 1, None,
            -1, -(10**40), 0, 10**40, [-3, [-7, 2]], ((1, 2), [3, (4,)]),
            # int subclasses are written by int.__repr__, as json writes them
            _Half.THREE, [_Half.MINUS_FIVE, {"a": _Half.THREE}], _Loud(7), [_Loud(-7)]]
    for doc in docs:
        assert _indented_json(doc) == json.dumps(doc, indent=2), doc
    assert _indented_json([True, 1]) == "[\n  true,\n  1\n]"
    # a float, a set, a non-str key or any other object is no document
    for doc in (1.5, [0.0], {1, 2}, {1: 2}, {"a": frozenset()}, b"x", [object()], range(2)):
        with pytest.raises(TypeError):
            _indented_json(doc)
    if hasattr(sys, "get_int_max_str_digits") and sys.get_int_max_str_digits():
        for doc in (10 ** sys.get_int_max_str_digits(), {"a": [-(10 ** 5000)]}):
            with pytest.raises(ValueError) as want:
                json.dumps(doc, indent=2)
            with pytest.raises(ValueError) as got:
                _indented_json(doc)
            assert str(got.value) == str(want.value)
