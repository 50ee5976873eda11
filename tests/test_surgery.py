"""Surgery slopes, coverage, parity reading, Haken certificates."""

import json
import random

import pytest

from platsurf import (
    MERIDIAN,
    ParameterError,
    Slope,
    TwoBridgeError,
    build_topology,
    certify_haken,
    direct_coverage_check,
    haken_certificate_json,
    is_totally_nontrivial,
    make_diagram,
    parity_criterion,
    parse_slopes,
    random_diagram,
)

ALL_THREES = [[3, 3], [3, 3, 3], [3, 3]]
EVEN_ENDS = [[4, 4], [3, 3, 3], [4, 4]]


def test_slope_canonicalization():
    assert Slope.of(2, 4) == Slope(1, 2)
    assert Slope.of(-2, 4) == Slope(-1, 2)
    assert Slope.of(2, -4) == Slope(-1, 2)
    assert Slope.of(7, 0) == Slope(1, 0)
    assert Slope.of(0, -5) == Slope(0, 1)
    assert str(Slope(-5, 3)) == "-5/3"


def test_slope_constructor_requires_canonical_form():
    for p, q in ((2, 4), (1, -2), (3, 0), (0, 0), (0, 3)):
        with pytest.raises(ParameterError):
            Slope(p, q)
    Slope(0, 1)
    Slope(1, 0)


def test_meridian_is_one_over_zero_only():
    assert MERIDIAN == Slope(1, 0)
    assert MERIDIAN.is_meridian
    assert not Slope(0, 1).is_meridian
    assert not Slope(5, 1).is_meridian


def test_slope_parsing():
    assert Slope.parse("3") == Slope(3, 1)
    assert Slope.parse(" -5/3 ") == Slope(-5, 3)
    assert Slope.parse("5/-3") == Slope(-5, 3)
    assert Slope.parse("4/6") == Slope(2, 3)
    assert parse_slopes("3/1,1/0, -2") == (Slope(3, 1), Slope(1, 0), Slope(-2, 1))
    for bad in ("a/b", "1/2/3", "0/0", "", "1//2"):
        with pytest.raises(ParameterError):
            parse_slopes(bad)
    for blank in ("", " ", " \t"):
        with pytest.raises(ParameterError, match="empty slope list"):
            parse_slopes(blank)
    # an empty item is an error, not a dropped slope, so arity checks see it
    for text, position in (("3/1,,3/1", 2), ("3/1,", 2), (" ,3/1", 1), (",", 1)):
        with pytest.raises(ParameterError, match=f"empty slope at position {position} "):
            parse_slopes(text)
    # text that is no str is a ParameterError, not an AttributeError
    for call, message in ((lambda: Slope.parse(3), "slope text must be a str, got 3"),
                          (lambda: parse_slopes(3), "slope list must be a str, got 3"),
                          (lambda: parse_slopes(None), "slope list must be a str, got None")):
        with pytest.raises(ParameterError) as info:
            call()
        assert str(info.value) == message


def test_totally_nontrivial():
    good = is_totally_nontrivial((Slope(3, 1), Slope(0, 1)))
    assert good and good.offenders == ()
    bad = is_totally_nontrivial((MERIDIAN, Slope(3, 1), MERIDIAN))
    assert not bad
    assert bad.offenders == (0, 2)
    assert bad.to_dict() == {"passed": False, "offenders": [0, 2]}
    assert is_totally_nontrivial(s for s in (Slope(3, 1), MERIDIAN)).offenders == (1,)
    for slopes, position, kind in ((["3/1"], 1, "str"), ((Slope(3, 1), 10**5000), 2, "int"),
                                   ((MERIDIAN, Slope(0, 1), (1, 0)), 3, "tuple")):
        with pytest.raises(ParameterError, match=f"slope at position {position} is not a "
                                                 f"Slope: got {kind}$"):
            is_totally_nontrivial(slopes)


def test_parity_criterion_frozen():
    assert parity_criterion(make_diagram(3, 3, ALL_THREES)).value is True
    even = parity_criterion(make_diagram(3, 3, EVEN_ENDS))
    assert even.value is False
    assert even.first_odd_row is None and even.last_odd_row is None
    mixed = parity_criterion(make_diagram(3, 3, [[4, 3], [3, 3, 3], [3, 4]]))
    assert mixed.value is True
    assert mixed.first_odd_row == 3 and mixed.last_odd_row == 1


def test_parity_reading_undefined_for_rational_ends():
    d = make_diagram(3, 3, [[[1, 3], 3], [3, 3, 3], [3, 3]])
    check = parity_criterion(d)
    assert check.value is None
    assert "rational" in check.note
    # rational boxes away from odd-row ends keep the reading defined
    d2 = make_diagram(3, 3, [[3, 3], [3, [1, 3], 3], [3, 3]])
    assert parity_criterion(d2).value is True


def test_direct_coverage_frozen():
    assert direct_coverage_check(make_diagram(3, 3, ALL_THREES)).ok
    cov = direct_coverage_check(make_diagram(3, 3, EVEN_ENDS))
    assert not cov.ok
    assert cov.uncovered == (0, 2)
    flat = direct_coverage_check(make_diagram(3, 1, [[2, 4]]))
    assert flat.uncovered == (0, 2)
    with pytest.raises(TwoBridgeError):
        direct_coverage_check(make_diagram(2, 3, [[3], [3, 3], [3]]))


def test_parity_matches_direct_coverage_on_valid_diagrams():
    rng = random.Random(67)
    for _ in range(150):
        d = random_diagram(rng.randint(3, 6), rng.choice((3, 5, 7)), seed=rng.random())
        assert parity_criterion(d).value == direct_coverage_check(d).ok, d


def test_haken_certificate_positive():
    d = make_diagram(3, 3, ALL_THREES)
    cert = certify_haken(d, parse_slopes("3/1"))
    assert cert.mode == "corollary2"
    assert cert.certified
    assert cert.refusals == ()
    assert [c.cite for c in cert.conclusions] == ["Corollary 2", "Corollary 2"]
    assert "Haken" in cert.conclusions[0].statement
    assert "incompressible" in cert.conclusions[1].statement
    assert cert.coverage.ok and cert.totally_nontrivial.ok


def test_haken_refuses_meridian_and_names_it():
    d = make_diagram(3, 3, ALL_THREES)
    cert = certify_haken(d, (MERIDIAN,))
    assert not cert.certified
    assert cert.conclusions == ()
    assert any("component(s) 0" in r and "meridian" in r for r in cert.refusals)


def test_haken_slope_arity_is_an_input_error():
    d = make_diagram(3, 3, ALL_THREES)
    assert build_topology(d).component_count == 1
    with pytest.raises(ParameterError, match="need 1 slopes"):
        certify_haken(d, parse_slopes("3/1,4/1"))
    # the arity is checked first, then each item must be a Slope
    with pytest.raises(ParameterError, match="need 1 slopes"):
        certify_haken(d, [3, "3/1"])
    for slopes, position, kind in (([3], 1, "int"), (["3/1"], 1, "str"),
                                   ((None,), 1, "NoneType"), ((3.0,), 1, "float")):
        with pytest.raises(ParameterError, match=f"slope at position {position} is not a "
                                                 f"Slope: got {kind}$"):
            certify_haken(d, slopes)


def test_haken_refuses_uncovered_components():
    d = make_diagram(3, 3, EVEN_ENDS)
    cert = certify_haken(d, parse_slopes("3/1,3/1,3/1"))
    assert not cert.certified
    assert any("component(s) 0, 2" in r for r in cert.refusals)
    assert cert.parity.value is False


def test_haken_record_names_uncovered_components():
    d = make_diagram(3, 3, EVEN_ENDS)
    obj = json.loads(haken_certificate_json(certify_haken(d, parse_slopes("3/1,3/1,3/1"))))
    assert obj["coverage"] == {"passed": False, "uncovered": [0, 2]}


def test_haken_one_pair_is_a_two_bridge_refusal():
    # odd rows hold no boxes when n = 1
    d = make_diagram(1, 3, [[], [2], []])
    cert = certify_haken(d, parse_slopes("3/1"))
    assert not cert.certified
    assert any("2-bridge" in r for r in cert.refusals)
    assert cert.coverage is None
    assert cert.parity.value is None and "no boxes" in cert.parity.note


def test_haken_refuses_single_row_and_two_bridge():
    flat = make_diagram(4, 1, [[3, 4, 3]])
    k = build_topology(flat).component_count
    cert = certify_haken(flat, tuple(Slope(3, 1) for _ in range(k)))
    assert not cert.certified
    assert any("m >= 3" in r for r in cert.refusals)

    tb = make_diagram(2, 3, [[3], [3, 3], [3]])
    k2 = build_topology(tb).component_count
    cert2 = certify_haken(tb, tuple(Slope(3, 1) for _ in range(k2)))
    assert not cert2.certified
    assert any("2-bridge" in r for r in cert2.refusals)
    assert cert2.coverage is None


def test_haken_refuses_failed_hypotheses():
    d = make_diagram(3, 3, [[2, 3], [3, 3, 3], [3, 3]])
    k = build_topology(d).component_count
    cert = certify_haken(d, tuple(Slope(5, 2) for _ in range(k)))
    assert not cert.certified
    assert any("condition (iii)" in r for r in cert.refusals)


def test_haken_json_layout():
    d = make_diagram(3, 3, ALL_THREES)
    text = haken_certificate_json(certify_haken(d, parse_slopes("-7/2")))
    assert text.endswith("\n")
    obj = json.loads(text)
    assert list(obj) == [
        "mode",
        "digest",
        "certified",
        "hypotheses",
        "path",
        "slopes",
        "totally_nontrivial",
        "coverage",
        "parity_criterion",
        "surfaces",
        "conclusions",
        "refusals",
        "footnotes",
    ]
    assert obj["path"] is None
    assert obj["surfaces"] == []
    assert obj["slopes"] == ["-7/2"]
    assert obj["totally_nontrivial"] == {"passed": True, "offenders": []}
    assert obj["coverage"] == {"passed": True, "uncovered": []}
    assert obj["parity_criterion"]["value"] is True


def test_haken_certificate_reproducible():
    d = make_diagram(3, 3, ALL_THREES)
    a = haken_certificate_json(certify_haken(d, parse_slopes("3/1")))
    b = haken_certificate_json(certify_haken(d, parse_slopes("3/1")))
    assert a == b
