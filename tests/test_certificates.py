"""Certificates: modes, conclusions, refusals, JSON stability."""

import hashlib
import json
import random

import pytest

from platsurf import (
    MODE_COMPOSITE,
    MODE_RELAXED,
    MODE_THEOREM1,
    ParameterError,
    PathError,
    Slope,
    Twist,
    build_topology,
    certificate_json,
    certify,
    certify_haken,
    check_hypotheses,
    diagram_digest,
    diagram_from_json,
    diagram_to_json,
    extremal_paths,
    make_diagram,
    parse_slopes,
    random_diagram,
)
from platsurf import diagram
from platsurf.surgery import MODE_SURGERY

from helpers import canonical_json_bytes

ALL_THREES = [[3, 3], [3, 3, 3], [3, 3]]


def test_theorem1_certificate_positive():
    d = make_diagram(3, 3, ALL_THREES)
    cert = certify(d)
    assert cert.mode == MODE_THEOREM1
    assert cert.certified
    assert cert.refusals == ()
    assert cert.path is not None and cert.path.entries == (1, 1, 1)
    assert cert.path.entries == extremal_paths(d)[0].entries
    assert [s.kind for s in cert.surfaces] == ["planar", "tubed_left", "tubed_right"]
    assert [c.cite for c in cert.conclusions] == [
        "Theorem 1",
        "Remark 1",
        "Theorem 1",
        "Theorem 1",
    ]
    assert "irreducible" in cert.conclusions[0].statement
    assert "genus-2" in cert.conclusions[2].statement


def test_certificate_digest_is_sha256_of_canonical_form():
    d = make_diagram(3, 3, ALL_THREES)
    canonical = json.dumps(
        {"n": 3, "m": 3, "rows": [[3, 3], [3, 3, 3], [3, 3]]},
        sort_keys=True,
        separators=(",", ":"),
    ).encode()
    assert certify(d).digest == hashlib.sha256(canonical).hexdigest()
    assert diagram_digest(d) == certify(d).digest
    other = make_diagram(3, 3, [[3, 3], [3, 3, 3], [3, 4]])
    assert diagram_digest(other) != diagram_digest(d)


def test_digest_is_joined_from_the_box_texts(monkeypatch):
    # the digest joins the boxes' kept texts: it must not rebuild the box table
    def refuse(d):
        raise AssertionError("to_json_dict is not on the digest route")

    monkeypatch.setattr(diagram, "to_json_dict", refuse)
    rows = [[3, (1, 3)], [0, -3, -4], [-3, (-5, 3)]]

    def fresh():
        return make_diagram(3, 3, rows)

    want = hashlib.sha256(canonical_json_bytes(fresh())).hexdigest()
    assert fresh().digest == want
    cert = certify(fresh())
    assert cert.digest == want and cert.certified
    assert certify_haken(fresh(), parse_slopes("3/1,1/0")).digest == want


def test_relaxed_mode_covers_smaller_ends():
    d = make_diagram(3, 3, [[2, 3], [3, 3, 3], [3, 2]])
    strict = certify(d, mode=MODE_THEOREM1)
    assert not strict.certified
    assert strict.conclusions == ()
    assert any("(row 1, box 1)" in r for r in strict.refusals)
    assert any("(row 3, box 2)" in r for r in strict.refusals)
    relaxed = certify(d, mode=MODE_RELAXED)
    assert relaxed.certified
    assert [c.cite for c in relaxed.conclusions] == ["Remark 1"]
    assert "planar" in relaxed.conclusions[0].statement


def test_relaxed_conclusions_are_a_subset():
    rng = random.Random(59)
    for _ in range(40):
        d = random_diagram(rng.randint(3, 5), rng.choice((3, 5)), seed=rng.random())
        full = certify(d, mode=MODE_THEOREM1)
        relaxed = certify(d, mode=MODE_RELAXED)
        assert full.certified and relaxed.certified
        full_stmts = {c.statement for c in full.conclusions}
        assert {c.statement for c in relaxed.conclusions} < full_stmts


def test_composite_mode_single_row():
    d = make_diagram(4, 1, [[3, 4, 3]])
    cert = certify(d, mode=MODE_COMPOSITE)
    assert cert.certified
    assert [c.cite for c in cert.conclusions] == ["Remark 3", "Remark 3"]
    assert "composite" in cert.conclusions[0].statement
    assert "swallow-follow" in cert.conclusions[1].statement

    wrong = certify(d, mode=MODE_THEOREM1)
    assert not wrong.certified
    assert any("composite_remark3" in r for r in wrong.refusals)

    tall = certify(make_diagram(3, 3, ALL_THREES), mode=MODE_COMPOSITE)
    assert not tall.certified
    assert any("m = 3" in r for r in tall.refusals)


def test_relaxed_mode_accepts_single_row():
    d = make_diagram(4, 1, [[2, 4, 2]])
    cert = certify(d, mode=MODE_RELAXED)
    assert cert.certified
    assert [c.cite for c in cert.conclusions] == ["Remark 1"]


def test_two_bridge_refused_in_every_mode():
    d = make_diagram(2, 3, [[3], [3, 3], [3]])
    for mode in (MODE_THEOREM1, MODE_RELAXED):
        cert = certify(d, mode=mode)
        assert not cert.certified
        assert cert.hypotheses.two_bridge
        assert any("2-bridge" in r for r in cert.refusals)
        assert cert.path is None
        assert cert.surfaces == ()
    single = certify(make_diagram(2, 1, [[3]]), mode=MODE_COMPOSITE)
    assert not single.certified
    assert any("2-bridge" in r for r in single.refusals)


def test_refused_certificate_still_reports_surfaces_for_explicit_path():
    d = make_diagram(3, 3, [[3, 3], [3, 0, 3], [3, 3]])
    cert = certify(d, path=(1, 1, 1))
    assert not cert.certified
    assert any("condition (ii)" in r and "(row 2, box 2)" in r for r in cert.refusals)
    assert cert.conclusions == ()
    assert len(cert.surfaces) == 3


def test_explicit_path_validation():
    d = make_diagram(3, 3, ALL_THREES)
    cert = certify(d, path=(1, 2, 1))
    assert cert.certified and cert.path.entries == (1, 2, 1)
    with pytest.raises(PathError):
        certify(d, path=(1, 3, 1))
    # the surgery mode has conclusions in the table but is not a mode of certify
    for mode in ("remark2", MODE_SURGERY):
        with pytest.raises(ParameterError):
            certify(d, mode=mode)


def test_citation_tags_stay_in_the_frozen_set():
    allowed = {"Theorem 1", "Corollary 2", "Remark 1", "Remark 3"}
    rng = random.Random(61)
    diagrams = [make_diagram(4, 1, [[3, 4, 3]]), make_diagram(3, 3, ALL_THREES)]
    diagrams += [
        random_diagram(rng.randint(3, 5), rng.choice((1, 3, 5)), seed=rng.random())
        for _ in range(20)
    ]
    for d in diagrams:
        for mode in (MODE_THEOREM1, MODE_RELAXED, MODE_COMPOSITE):
            for c in certify(d, mode=mode).conclusions:
                assert c.cite in allowed


def test_footnotes():
    d = make_diagram(3, 3, ALL_THREES)
    notes = certify(d).footnotes
    assert len(notes) == 3
    assert "Indexing caveat" in notes[0]
    assert "asserted by citation" in notes[1]
    assert "cell assembly" in notes[2]
    assert "planar V=6 E=10 F=2 chi=-2" in notes[2]
    assert "tubed V=6 E=12 F=4 chi=-2 genus=2" in notes[2]

    with_rational = make_diagram(3, 3, [[[1, 3], 3], [3, 3, 3], [3, 3]])
    assert any("rational tangle" in f for f in certify(with_rational).footnotes)


def test_certificate_json_layout_and_reproducibility():
    d = make_diagram(3, 3, ALL_THREES)
    text = certificate_json(certify(d))
    assert text.endswith("\n")
    assert text == certificate_json(certify(d))
    obj = json.loads(text)
    assert list(obj) == [
        "mode",
        "digest",
        "certified",
        "hypotheses",
        "path",
        "surfaces",
        "conclusions",
        "refusals",
        "footnotes",
    ]
    assert obj["path"] == [1, 1, 1]
    assert obj["certified"] is True
    assert obj["surfaces"][0] == {
        "kind": "planar",
        "euler": -2,
        "genus": 0,
        "boundary": 4,
        "closed": False,
    }
    assert obj["surfaces"][1]["extra_tori"] == 0
    assert all(set(c) == {"statement", "cite"} for c in obj["conclusions"])
    assert obj["hypotheses"]["passed"] is True


def test_certifying_never_mutates_the_diagram():
    d = make_diagram(3, 3, ALL_THREES)
    before = d.rows
    certify(d)
    certify(d, mode=MODE_RELAXED)
    assert d.rows == before
    assert d.rows[0][0] == Twist(3)


def test_hypotheses_are_scanned_once_per_diagram_and_mode(monkeypatch):
    scans = []
    scan = diagram._scan_hypotheses

    def counted(d, mode):
        scans.append(mode)
        return scan(d, mode)

    monkeypatch.setattr(diagram, "_scan_hypotheses", counted)
    d = diagram_from_json(diagram_to_json(random_diagram(4, 5, seed=2, require_parity=True)))
    slopes = (Slope(3, 1),) * build_topology(d).component_count
    report = check_hypotheses(d)
    cert, haken = certify(d), certify_haken(d, slopes)
    assert scans == [diagram.STRICT]
    assert cert.certified and haken.certified
    assert cert.hypotheses is haken.hypotheses is report
    relaxed = certify(d, mode=MODE_RELAXED)
    certify(d, mode=MODE_COMPOSITE), certify_haken(d, slopes)
    assert scans == [diagram.STRICT, diagram.RELAXED]
    assert relaxed.hypotheses is check_hypotheses(d, diagram.RELAXED)
