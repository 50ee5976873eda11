"""Braid word and PD code export."""

import itertools
import random

import pytest

from platsurf import (
    MalformedPDCodeError,
    ParameterError,
    PDCode,
    UnsupportedBoxError,
    braid_permutation,
    build_topology,
    make_diagram,
    pd_trace_components,
    random_diagram,
    to_braid_word,
    to_pd_code,
)
from platsurf import export
from platsurf.export import pd_validate
from helpers import (
    DELTA,
    bracket_from_pd,
    bracket_from_plat,
    laurent_mul,
    mirror,
    pd_text_or_refusal,
    per_crossing_pd_code,
    plat_cycle_count,
    random_all_twist,
    random_mixed,
    sweep_pd_code,
)


def test_braid_word_frozen():
    d = make_diagram(3, 3, [[3, 3], [3, 3, 3], [3, 3]])
    word = to_braid_word(d)
    assert word.strands == 6
    assert word.text() == "s2^3 s4^3 s1^3 s3^3 s5^3 s2^3 s4^3"
    assert word.syllables[0] == (2, 3)


def test_braid_word_generator_indices():
    # odd rows use even generators starting at 2, even rows odd ones from 1
    d = make_diagram(4, 3, [[1, 1, 1], [1, 1, 1, 1], [1, 1, 1]])
    assert [g for g, _ in to_braid_word(d).syllables] == [2, 4, 6, 1, 3, 5, 7, 2, 4, 6]


def test_braid_word_drops_zero_boxes():
    assert to_braid_word(make_diagram(3, 1, [[3, 0]])).text() == "s2^3"
    empty = to_braid_word(make_diagram(3, 1, [[0, 0]]))
    assert empty.syllables == ()
    assert empty.text() == ""
    assert empty.permutation() == (1, 2, 3, 4, 5, 6)


def test_braid_word_negative_exponents():
    word = to_braid_word(make_diagram(3, 1, [[-2, 5]]))
    assert word.text() == "s2^-2 s4^5"


def test_braid_word_permutation_matches_diagram():
    rng = random.Random(71)
    for _ in range(100):
        d = random_diagram(rng.randint(3, 6), rng.choice((1, 3, 5, 7)), seed=rng.random())
        word = to_braid_word(d)
        assert word.permutation() == braid_permutation(d)
        assert plat_cycle_count(word.permutation()) == build_topology(d).component_count


def test_braid_word_rejects_rational_boxes():
    d = make_diagram(3, 1, [[[1, 3], 3]])
    with pytest.raises(UnsupportedBoxError, match=r"\(1, 1\)"):
        to_braid_word(d)


def test_pd_code_frozen_trefoil():
    code = to_pd_code(make_diagram(3, 1, [[3, 0]]))
    assert code.crossing_count == 3
    assert code.crossings == ((1, 5, 2, 4), (5, 3, 6, 2), (3, 1, 4, 6))
    assert code.text() == "PD[X(1, 5, 2, 4), X(5, 3, 6, 2), X(3, 1, 4, 6)]"
    assert pd_trace_components(code) == 1


def test_trefoil_bracket_two_ways():
    # A^-7 - A^-3 - A^5, the bracket of the trefoil drawn with three
    # crossings of one sign (Kauffman, Topology 26, 1987), loops counted
    # as delta; the plat adds the crossing-free loop on strands 5 and 6
    trefoil = laurent_mul(DELTA, {-7: 1, -3: -1, 5: -1})
    d, flipped = make_diagram(3, 1, [[3, 0]]), make_diagram(3, 1, [[-3, 0]])
    assert bracket_from_pd(to_pd_code(d)) == trefoil
    assert bracket_from_plat(d) == laurent_mul(DELTA, trefoil)
    assert bracket_from_pd(to_pd_code(flipped)) == mirror(trefoil) != trefoil
    assert bracket_from_plat(flipped) == laurent_mul(DELTA, mirror(trefoil))


def test_pd_code_frozen_single_kinks():
    assert to_pd_code(make_diagram(3, 1, [[1, 0]])).crossings == ((1, 1, 2, 2),)
    assert to_pd_code(make_diagram(3, 1, [[-1, 0]])).crossings == ((2, 1, 1, 2),)


def test_pd_code_mirror_image():
    code = to_pd_code(make_diagram(3, 1, [[-3, 0]]))
    assert code.crossings == ((4, 1, 5, 2), (2, 5, 3, 6), (6, 3, 1, 4))
    assert pd_trace_components(code) == 1


def _rotations(quad):
    return [quad[k:] + quad[:k] for k in range(4)]


def _canonical(quads):
    return sorted(min(_rotations(q)) for q in quads)


def test_pd_trefoil_up_to_relabeling():
    # the exported code must be the standard 3-crossing trefoil code,
    # allowing arc relabeling, crossing order, and quad rotation
    standard = [(1, 4, 2, 5), (3, 6, 4, 1), (5, 2, 6, 3)]
    mine = to_pd_code(make_diagram(3, 1, [[3, 0]])).crossings
    target = _canonical(standard)
    for perm in itertools.permutations(range(1, 7)):
        relabeled = [tuple(perm[x - 1] for x in q) for q in mine]
        if _canonical(relabeled) == target:
            return
    raise AssertionError("no relabeling matches the standard trefoil code")


def test_pd_crossing_free_component_is_dropped():
    # strand pair (5, 6) of [[3, 0]] never meets a crossing, so the code
    # covers one of the two link components
    d = make_diagram(3, 1, [[3, 0]])
    assert build_topology(d).component_count == 2
    assert pd_trace_components(to_pd_code(d)) == 1


def test_pd_requires_a_crossing():
    with pytest.raises(UnsupportedBoxError, match="no crossings"):
        to_pd_code(make_diagram(3, 1, [[0, 0]]))


def test_pd_refuses_a_twist_past_the_crossing_limit():
    # refused from the crossing count, before a slot per crossing is allocated
    with pytest.raises(ParameterError, match="limited to"):
        to_pd_code(make_diagram(3, 1, [[10**12, 0]]))


def test_pd_crossing_limit_is_inclusive(monkeypatch):
    d = make_diagram(3, 1, [[3, 0]])
    monkeypatch.setattr(export, "MAX_PD_CROSSINGS", 3)
    assert to_pd_code(d).crossing_count == 3
    monkeypatch.setattr(export, "MAX_PD_CROSSINGS", 2)
    with pytest.raises(ParameterError) as exc:
        to_pd_code(d)
    assert str(exc.value) == "diagram has 3 crossings; PD codes are limited to 2"


def test_pd_rejects_rational_boxes():
    with pytest.raises(UnsupportedBoxError, match="rational"):
        to_pd_code(make_diagram(3, 1, [[3, [1, 2]]]))


def test_pd_validate_rejects_bad_codes():
    with pytest.raises(ValueError, match="malformed"):
        pd_validate(PDCode(((1, 2, 3, 4),)))
    with pytest.raises(ValueError, match="malformed"):
        pd_validate(PDCode(((1, 1, 1, 2), (2, 3, 3, 4))))
    pd_validate(PDCode(((1, 1, 2, 2),)))
    pd_validate(PDCode(()))  # no crossings, no labels
    bad = {
        "label 0": ((0, 2, 1, 1), (3, 4, 3, 4)),
        "label 0 twice": ((0, 0, 1, 1),),  # every other count right but one
        "negative label": ((1, 1, 2, -1),),  # -1 would count for label 2
        "far negative label": ((1, 1, 2, -10**6),),
        "label above 2C": ((1, 1, 2, 3),),
        "label 0 in place of 1": ((0, 0, 2, 2),),  # 2C labels, each twice
        "label 3 in place of 2": ((1, 1, 3, 3),),
        "label seen three times": ((1, 2, 1, 2), (1, 3, 4, 4)),
        "label missing": ((1, 1, 2, 2), (3, 3, 2, 1)),
        "label seen 256 times": ((1, 1, 1, 1),) * 64,
    }
    for what, quads in bad.items():
        with pytest.raises(MalformedPDCodeError, match="^malformed PD code: label counts"):
            pd_validate(PDCode(quads))
    # PDCode refuses the first crossing that is not four int labels before any
    # label is counted: a str, None, float or unhashable label, a bool (though
    # True equals 1), or a crossing of three labels
    for quads, crossing in (
        (((1, "a", 1, "a"),), "(1, 'a', 1, 'a')"),
        (((1, 2, 1, None),), "(1, 2, 1, None)"),
        (((1, 2.0, 1, 2),), "(1, 2.0, 1, 2)"),
        (((1, 1, 2, 2.0),), "(1, 1, 2, 2.0)"),
        (((1, 1, 2),), "(1, 1, 2)"),
        (((True, 2, 1, 2),), "(True, 2, 1, 2)"),
        (((1, [2], 1, [2]),), "(1, [2], 1, [2])"),
        (((1, 1, 2, 2), (3, [4], 3, [4])), "(3, [4], 3, [4])"),
        (((1, 1, 2, {}),), "(1, 1, 2, {})"),
    ):
        with pytest.raises(MalformedPDCodeError) as exc:
            PDCode(quads)
        assert str(exc.value) == f"malformed PD code: crossing {crossing} is not four int labels"
    with pytest.raises(MalformedPDCodeError) as exc:
        PDCode((1,))
    assert str(exc.value) == "malformed PD code: crossings (1,) are not sequences of labels"
    # PDCode takes its crossings as 4-tuples, so a one-shot iterator is read once
    code = PDCode((iter((1, 1, 2, 2)),))
    assert code.crossings == ((1, 1, 2, 2),)
    pd_validate(code)
    with pytest.raises(MalformedPDCodeError) as exc:
        pd_validate(PDCode(bad["negative label"]))
    assert str(exc.value) == "malformed PD code: label counts [(-1, 1), (1, 2), (2, 1)]"


def test_pd_code_input_is_a_code_or_malformed():
    # arbitrary nested input either builds a code, which pd_validate passes or
    # refuses, or is refused when built: never another exception
    rng = random.Random(101)
    atoms = [1, 2, 3, 0, -1, True, 2.0, "a", None, [1], {}, (1, 2)]

    def crossing():
        quad = [rng.choice((1, 2, 3, 4)) if rng.random() < 0.8 else rng.choice(atoms)
                for _ in range(rng.choice((4, 4, 4, 3, 5)))]
        return rng.choice((tuple, list, iter))(quad) if rng.random() < 0.9 else rng.choice(atoms)

    built = 0
    for _ in range(2000):
        crossings = [crossing() for _ in range(rng.randint(0, 2))]
        try:
            code = PDCode(rng.choice((tuple, list, iter))(crossings))
        except MalformedPDCodeError as exc:
            # label counts are pd_validate's to report, not the constructor's
            assert not str(exc).startswith("malformed PD code: label counts"), exc
            continue
        built += 1
        assert all(type(x) is int for quad in code.crossings for x in quad)
        try:
            pd_validate(code)
        except MalformedPDCodeError:
            pass
    assert built > 500, built


def test_pd_validate_raises_a_package_error():
    # a PlatError, so the CLI reports it with exit 2 rather than a traceback
    with pytest.raises(MalformedPDCodeError):
        pd_validate(PDCode(((1, 2, 3, 4),)))


def test_pd_well_formed_on_random_diagrams():
    rng = random.Random(73)
    for _ in range(80):
        d = random_diagram(rng.randint(3, 5), rng.choice((1, 3, 5)), seed=rng.random())
        code = to_pd_code(d)
        pd_validate(code)
        assert code.crossing_count == d.twist_crossing_count
        assert pd_trace_components(code) == build_topology(d).component_count


def test_pd_code_matches_sweep_oracle():
    # byte for byte against the sweep, on all-twist diagrams with zero
    # boxes, negative twists and crossing-free components, and on mixed
    # diagrams whose rational boxes must be refused alike
    rng = random.Random(79)
    refused = dropped = 0
    for k in range(1500):
        n, m = rng.randint(1, 7), rng.choice(range(1, 16, 2))
        if k % 10 == 0:
            d = random_mixed(rng, n, m)
        else:
            d = random_all_twist(rng, n, m, spread=rng.choice((1, 2, 5)))
        mine = pd_text_or_refusal(to_pd_code, d)
        assert mine == pd_text_or_refusal(sweep_pd_code, d), d
        if isinstance(mine, tuple):
            refused += 1
        elif pd_trace_components(to_pd_code(d)) < build_topology(d).component_count:
            dropped += 1
    assert refused > 50 and dropped > 50, (refused, dropped)


def test_pd_code_matches_sweep_oracle_at_ladder_sizes():
    # byte for byte at the sizes the export benchmark runs, zero boxes and
    # negative twists included
    rng = random.Random(83)
    for n, m in ((15, 15), (30, 31), (50, 51)):
        d = random_all_twist(rng, n, m)
        assert any(b.a == 0 for _, _, b in d.boxes())
        assert any(b.a < 0 for _, _, b in d.boxes())
        assert to_pd_code(d).text() == sweep_pd_code(d).text()


def test_pd_code_matches_the_per_crossing_walk():
    # byte for byte against the walk that labels one crossing end at a time,
    # zero boxes, negative twists and diagrams without crossings included
    rng = random.Random(89)
    refused = 0
    for _ in range(400):
        d = random_all_twist(rng, rng.randint(1, 9), rng.choice(range(1, 14, 2)), spread=7)
        mine = pd_text_or_refusal(to_pd_code, d)
        assert mine == pd_text_or_refusal(per_crossing_pd_code, d), d
        if isinstance(mine, tuple):
            refused += 1
        else:
            assert to_pd_code(d) == per_crossing_pd_code(d)
    assert 0 < refused < 40, refused


def test_pd_labels_run_consecutively_from_one():
    code = to_pd_code(random_diagram(4, 3, seed=3))
    labels = sorted(set(itertools.chain.from_iterable(code.crossings)))
    assert labels == list(range(1, 2 * code.crossing_count + 1))


def test_exports_are_deterministic():
    d = random_diagram(5, 5, seed=9)
    assert to_pd_code(d).text() == to_pd_code(d).text()
    assert to_braid_word(d).text() == to_braid_word(d).text()
