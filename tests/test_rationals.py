import json
import random
from fractions import Fraction as F
from pathlib import Path

import pytest

from realword.rationals import (DivisionByZero, enumerate_rationals,
                                enumerate_vectors, format_rat, format_vec,
                                pair, parse_rat, parse_vec, rat_op,
                                rational_index, unpair, vector_arity,
                                vector_index)

GOLDEN = Path(__file__).parent / "golden"


def test_rat_op_examples():
    assert rat_op("add", F(1, 2), F(1, 3)) == F(5, 6)
    assert rat_op("mul", F(0), F(7, 3)) == 0
    assert rat_op("sub", F(1, 2), F(1, 3)) == F(1, 6)
    assert rat_op("div", F(3), F(2)) == F(3, 2)
    with pytest.raises(DivisionByZero):
        rat_op("div", F(1), F(0))


def test_results_canonical():
    rng = random.Random(0)
    for _ in range(2000):
        a = F(rng.randint(-50, 50), rng.randint(1, 30))
        b = F(rng.randint(-50, 50), rng.randint(1, 30))
        for kind in ("add", "sub", "mul"):
            c = rat_op(kind, a, b)
            assert c.denominator > 0
            from math import gcd
            assert gcd(abs(c.numerator), c.denominator) == 1


def test_field_axioms_randomized():
    rng = random.Random(1)
    for _ in range(10_000):
        a = F(rng.randint(-99, 99), rng.randint(1, 40))
        b = F(rng.randint(-99, 99), rng.randint(1, 40))
        c = F(rng.randint(-99, 99), rng.randint(1, 40))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == 0
        if a != 0:
            assert rat_op("mul", a, rat_op("div", F(1), a)) == 1


def test_parse_format():
    assert format_rat(F(5, 3)) == "5/3"
    assert format_rat(F(-5, 3)) == "-5/3"
    assert format_rat(F(4)) == "4"
    assert parse_rat("5/3") == F(5, 3)
    assert parse_rat("-5/3") == F(-5, 3)
    assert parse_rat(" 7 ") == 7
    assert parse_rat("+2/4") == F(1, 2)
    with pytest.raises(ValueError):
        parse_rat("5/-3")
    with pytest.raises(ValueError):
        parse_rat("1/0")
    assert parse_vec("2,1/3") == (F(2), F(1, 3))
    assert parse_vec("") == ()
    assert format_vec((F(2), F(1, 3))) == "2,1/3"


def test_pairing_bijection():
    seen = set()
    for n in range(5000):
        ab = unpair(n)
        assert pair(*ab) == n
        seen.add(ab)
    assert len(seen) == 5000


def test_rational_enumeration():
    assert enumerate_rationals(0) == 0
    values = [enumerate_rationals(i) for i in range(10_000)]
    assert len(set(values)) == 10_000
    for i in range(0, 10_000, 37):
        assert rational_index(values[i]) == i


def test_rational_enumeration_golden():
    golden = json.loads((GOLDEN / "rationals.json").read_text())
    assert [format_rat(enumerate_rationals(i)) for i in range(64)] == golden["first"]
    for text, idx in golden["spot_indices"].items():
        assert rational_index(parse_rat(text)) == idx
        assert enumerate_rationals(idx) == parse_rat(text)
    assert golden["spot_indices"]["5/3"] < 10_000


def test_vector_enumeration():
    assert enumerate_vectors(0) == ()
    vecs = [enumerate_vectors(i) for i in range(1000)]
    assert len(set(vecs)) == 1000
    for i in range(0, 1000, 17):
        assert vector_index(vecs[i]) == i
    assert [vector_arity(i) for i in range(1000)] == [len(v) for v in vecs]


def test_small_vectors_appear_early():
    from itertools import product
    for d in (0, 1, 2):
        for combo in product([F(0), F(1), F(-1), F(1, 2)], repeat=d):
            idx = vector_index(combo)
            assert idx < 10 ** 6
            assert enumerate_vectors(idx) == combo


def test_vector_enumeration_golden():
    golden = json.loads((GOLDEN / "vectors.json").read_text())
    got = [[format_rat(x) for x in enumerate_vectors(i)] for i in range(40)]
    assert got == golden


def test_deep_vector_round_trip():
    # unpairing is iterative, so arities past the recursion limit work
    for m in (0, 5, 123_456):
        n = pair(2999, m) + 1  # the m-th vector of arity 3000
        v = enumerate_vectors(n)
        assert len(v) == 3000
        assert vector_index(v) == n
        assert enumerate_vectors(vector_index(v)) == v
    zeros = (F(0),) * 1100
    assert enumerate_vectors(vector_index(zeros)) == zeros
