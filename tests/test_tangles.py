"""Fractions, continued fractions, and box pairings."""

import math
import random
import re
import time

import pytest

from platsurf import (
    Pairing,
    ParameterError,
    TangleFraction,
    incompressibility_level,
    pairing,
    pairing_by_tracing,
)
from platsurf import tangles
from platsurf.diagram import MAX_PD_CROSSINGS


def test_continued_fraction_values():
    assert TangleFraction.from_continued_fraction([3]) == TangleFraction(3, 1)
    assert TangleFraction.from_continued_fraction([2, 3]) == TangleFraction(7, 2)
    assert TangleFraction.from_continued_fraction([0]) == TangleFraction(0, 1)
    assert TangleFraction.from_continued_fraction([0, 0]) == TangleFraction(1, 0)


def test_canonicalization():
    assert TangleFraction.of(-7, 2) == TangleFraction(-7, 2)
    assert TangleFraction.of(7, -2) == TangleFraction(-7, 2)
    assert TangleFraction.of(6, 4) == TangleFraction(3, 2)
    assert TangleFraction.of(0, 5) == TangleFraction(0, 1)
    assert TangleFraction.of(-3, 0) == TangleFraction(1, 0)
    assert TangleFraction.of(1, 0).is_vertical
    assert str(TangleFraction.of(-7, 2)) == "-7/2"


def test_invalid_fractions():
    with pytest.raises(ParameterError):
        TangleFraction(2, 4)
    with pytest.raises(ParameterError, match="^infinite slope must be written 1/0$"):
        TangleFraction(0, 0)
    with pytest.raises(ParameterError, match="^0/0 is not a slope$"):
        TangleFraction.of(0, 0)
    with pytest.raises(ParameterError):
        TangleFraction(3, -1)
    with pytest.raises(ParameterError):
        TangleFraction(2, 0)
    with pytest.raises(ParameterError):
        TangleFraction.from_continued_fraction([])
    with pytest.raises(ParameterError, match="^empty continued fraction$"):
        pairing_by_tracing([])
    # terms are a sequence of ints, a bool not one; no term is read as another value
    for terms, message in ((3, "continued fraction terms are not a sequence of ints: got int"),
                           ([1.5], "continued fraction terms must be ints, got 1.5"),
                           ([True], "continued fraction terms must be ints, got True"),
                           ([1.5, 2], "continued fraction terms must be ints, got 1.5")):
        for build in (TangleFraction.from_continued_fraction, pairing_by_tracing):
            with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
                build(terms)
    # p and q are ints, a bool not one, as in a Rational box
    for p, q in ((1.5, 1), (1, "2"), (None, 1), (True, 1), (1, 2.0)):
        for build in (TangleFraction, TangleFraction.of):
            with pytest.raises(ParameterError, match="^fraction entries must be ints, got "):
                build(p, q)


def _all_reduced(limit):
    for p in range(-limit, limit + 1):
        for q in range(limit + 1):
            if (p, q) == (0, 0) or math.gcd(abs(p), q) != 1:
                continue
            if q == 0 and p != 1:
                continue
            yield TangleFraction(p, q)


def test_continued_fraction_round_trip():
    for f in _all_reduced(25):
        assert TangleFraction.from_continued_fraction(f.continued_fraction()) == f


def test_pairing_frozen_cases():
    assert pairing(TangleFraction.of(1, 0)) is Pairing.THROUGH_IDENTITY
    assert pairing(TangleFraction.of(1, 3)) is Pairing.THROUGH_SWAP  # Twist(3)
    assert pairing(TangleFraction.of(7, 2)) is Pairing.THROUGH_IDENTITY
    assert pairing(TangleFraction.of(0, 1)) is Pairing.CAPS
    assert pairing(TangleFraction.of(1, 2)) is Pairing.THROUGH_IDENTITY
    assert pairing(TangleFraction.of(5, 3)) is Pairing.THROUGH_SWAP


def test_pairing_table_matches_tracing():
    # the slope rule is the fast route; the trace builds the tangle move by move
    for f in _all_reduced(25):
        assert pairing_by_tracing(f.continued_fraction()) is pairing(f), f
        assert incompressibility_level(f) == min(f.q, 3), f


def test_pairing_by_tracing_random_term_lists():
    rng = random.Random(11)
    for _ in range(300):
        k = rng.randint(1, 6)
        terms = [rng.randint(-4, 4) for _ in range(k)]
        f = TangleFraction.from_continued_fraction(terms)
        assert pairing_by_tracing(terms) is pairing(f), (terms, f)


def test_incompressibility_levels():
    assert incompressibility_level(TangleFraction.of(1, 0)) == 0
    assert incompressibility_level(TangleFraction.of(1, 1)) == 1
    assert incompressibility_level(TangleFraction.of(7, 2)) == 2
    assert incompressibility_level(TangleFraction.of(5, 3)) == 3
    assert incompressibility_level(TangleFraction.of(1, 5)) == 3


def test_continued_fraction_bits_are_limited_before_the_loop():
    # each term counts |t|.bit_length() + 1; terms of 3 at the limit still evaluate
    at_limit = [3] * (tangles._MAX_TERM_BITS // 3)
    assert TangleFraction.from_continued_fraction(at_limit).q > 0
    message = f"^continued fraction terms exceed {tangles._MAX_TERM_BITS} bits$"
    for terms in (at_limit + [1], [2 ** tangles._MAX_TERM_BITS], [10**5000] * 20):
        start = time.perf_counter()
        with pytest.raises(ParameterError, match=message):
            TangleFraction.from_continued_fraction(terms)
        assert time.perf_counter() - start < 0.05


def test_tracing_is_limited_before_any_twist_is_traced(monkeypatch):
    start = time.perf_counter()
    message = f"^tracing takes at most {MAX_PD_CROSSINGS} half twists in all$"
    for terms in ([MAX_PD_CROSSINGS + 1], [MAX_PD_CROSSINGS, -1], [-(10**5000)],
                  [1] * 10 + [-MAX_PD_CROSSINGS]):
        with pytest.raises(ParameterError, match=message):
            pairing_by_tracing(terms)
    assert time.perf_counter() - start < 0.05
    monkeypatch.setattr(tangles, "MAX_PD_CROSSINGS", 5)
    assert pairing_by_tracing([2, -3]) is pairing(TangleFraction.from_continued_fraction([2, -3]))
    with pytest.raises(ParameterError, match="at most 5 half twists"):
        pairing_by_tracing([3, -3])
