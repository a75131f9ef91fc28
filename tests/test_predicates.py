import dataclasses
import gc
import json
import tempfile
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from realword.presentations import presentation_from_json, presentation_to_json
from realword.rationals import QUOTE_LIMIT
from realword.reduction import extension_presentation
from realword.sample_groups import BUILTIN_PRESENTATIONS, circle_presentation
from realword.predicates import (FALSE, MAX_POW_EXPONENT, TRUE, Poly, Pred,
                                 conj, const, disj, eq, ge, gt, is_int,
                                 is_nat, le, lt, ne,
                                 negate, shift_poly, shift_pred,
                                 solvable, solve_unknown, var)

# as in test_fuzz: Hypothesis's cache stays out of the checkout
set_hypothesis_home_dir(Path(tempfile.gettempdir(), "realword-hypothesis"))


def test_poly_eval():
    p = (var(0) + 2) * var(1) - var(0) ** 2
    assert p.eval((F(3), F(4))) == (3 + 2) * 4 - 9
    assert (-var(0)).eval((F(5),)) == -5
    assert const(F(2, 3)).eval(()) == F(2, 3)


def test_poly_vars():
    assert (var(0) * var(2) + 1).vars() == {0, 2}
    assert const(1).vars() == set()


def test_pred_eval():
    assert eq(var(0) + var(1), 1).eval((F(1, 3), F(2, 3)))
    assert not eq(var(0), var(1)).eval((F(1), F(2)))
    assert ne(var(0), 0).eval((F(5),))
    assert ge(var(0), 0).eval((F(0),))
    assert gt(var(0) * var(1), 0).eval((F(-2), F(-3)))
    assert lt(var(0), 0).eval((F(-1),))
    assert le(var(0), 1).eval((F(1),))
    assert is_int(var(0)).eval((F(4, 2),))
    assert not is_int(var(0)).eval((F(1, 2),))
    assert is_nat(var(0)).eval((F(0),))
    assert not is_nat(var(0)).eval((F(-1),))
    assert conj(TRUE, ge(var(0), 0)).eval((F(1),))
    assert disj(FALSE, eq(var(0), 1)).eval((F(1),))
    assert negate(FALSE).eval(())


SOLVE_CASES = [
    # bare variable
    (var(1), F(7), {}, (1, F(7))),
    # product with a known nonzero cofactor: n * p = 6 with p = 2
    (var(2) * var(0), F(6), {0: F(2)}, (2, F(3))),
    # zero cofactor is unsolvable
    (var(2) * var(0), F(0), {0: F(0)}, None),
    # sums and negation
    (var(0) + var(1), F(5), {0: F(2)}, (1, F(3))),
    (var(0) - var(1), F(5), {0: F(2)}, (1, F(-3))),
    (-var(1), F(4), {}, (1, F(-4))),
    # two unknowns: not solvable
    (var(0) + var(1), F(1), {}, None),
    # the unknown in both operands: not solvable in one step, and the other
    # operand is never evaluated without it
    (var(0) + var(0), F(2), {}, None),
    (var(1) + var(1), F(6), {2: F(5)}, None),
]


def test_solve_unknown_shapes():
    for expr, target, known, expected in SOLVE_CASES:
        assert solve_unknown(expr, target, known) == expected


def test_solve_unknown_leaves_no_reference_cycles():
    gc.collect()
    gc.disable()
    try:
        for expr, target, known, _ in SOLVE_CASES:
            solve_unknown(expr, target, known)
        assert gc.collect() == 0
    finally:
        gc.enable()


small_rats = st.fractions(min_value=-3, max_value=3, max_denominator=3)
polys = st.recursive(
    st.one_of(small_rats.map(const), st.integers(0, 2).map(var)),
    lambda kids: st.one_of(
        st.builds(Poly, st.sampled_from(["add", "sub", "mul"]), st.tuples(kids, kids)),
        kids.map(lambda a: -a),
        st.builds(lambda a, k: a ** k, kids, st.integers(0, 3))),
    max_leaves=8)


@settings(database=None, derandomize=True, max_examples=500, deadline=None)
@given(polys, small_rats, st.lists(small_rats, min_size=3, max_size=3),
       st.data())
def test_solve_rule_agrees_with_solvable(e, target, values, data):
    # every variable but uv is known: where the shape is not solvable for
    # uv, no known values make it so, and a returned value solves e == target
    uv = data.draw(st.sampled_from(sorted(e.vars()) or [0]))
    known = {i: x for i, x in enumerate(values) if i != uv}
    got = solve_unknown(e, target, known)
    if not solvable(e, uv):
        assert got is None
    if got is not None:
        assert got[0] == uv
        env = list(values)
        env[uv] = got[1]
        assert e.eval(env) == target


def test_shift_vars():
    p = var(0) * var(1) + 3
    assert shift_poly(p, 2).eval((F(0), F(0), F(2), F(5))) == 13
    q = conj(eq(var(0), 1), is_int(var(1)))
    assert shift_pred(q, 1).eval((F(9), F(1), F(4)))


def test_json_roundtrip():
    p = (var(0) + F(1, 2)) * var(1) ** 2 - 3
    assert Poly.from_json(p.to_json()) == p
    q = conj(ne(p, 0), disj(is_int(var(0)), negate(ge(var(1), F(2, 3)))))
    assert Pred.from_json(q.to_json()) == q
    assert Pred.from_json(TRUE.to_json()) == TRUE


@pytest.mark.parametrize("k", [5, [1]])
def test_k_is_read_only_on_a_pow_node(k):
    # `to_json` writes "k" only on pow; elsewhere it is an ignored extra key,
    # so the parsed node equals its own round trip and can be hashed
    v0 = var(0).to_json()
    for node, expected in (({"op": "add", "args": [v0, v0], "k": k}, var(0) + var(0)),
                           ({"op": "neg", "args": [v0], "k": k}, -var(0)),
                           ({"op": "const", "value": "1/2", "k": k}, const(F(1, 2)))):
        got = Poly.from_json(node)
        assert got == expected == Poly.from_json(got.to_json())
        assert hash(got) == hash(expected)


def test_pow_exponent_cap():
    def power(arg, k):
        return {"op": "pow", "args": [arg], "k": k}
    v0 = var(0).to_json()
    assert Poly.from_json(power(v0, MAX_POW_EXPONENT)) == var(0) ** MAX_POW_EXPONENT
    # nested exponents multiply, so the cap bounds their product
    assert Poly.from_json(power(power(v0, 4), MAX_POW_EXPONENT // 4)).k == MAX_POW_EXPONENT // 4
    for node in (power(v0, MAX_POW_EXPONENT + 1),
                 power(power(v0, 2), MAX_POW_EXPONENT // 2 + 1),
                 power({"op": "add", "args": [power(v0, 11), v0]}, 10)):
        with pytest.raises(ValueError, match="exceeds"):
            Poly.from_json(node)


# JSON nodes whose offending value is far longer than any message may be
HOSTILE_NODES = [
    (Poly, {"op": "x" * 200_000, "args": []}),
    (Poly, {"op": "const", "value": list(range(50_000))}),
    (Poly, {"op": "var", "i": "1" * 100_000}),
    (Poly, {"op": "pow", "args": [{"op": "var", "i": 0}], "k": "1" * 100_000}),
    (Pred, {"op": "cmp", "rel": "x" * 100_000,
            "lhs": {"op": "var", "i": 0}, "rhs": {"op": "var", "i": 0}}),
    (Pred, {"op": "x" * 100_000, "args": []}),
]


@pytest.mark.parametrize("cls, node", HOSTILE_NODES,
                         ids=["poly-op", "const-list", "var-string", "pow-string",
                              "cmp-rel", "pred-op"])
def test_json_error_messages_are_bounded(cls, node):
    with pytest.raises(ValueError) as err:
        cls.from_json(node)
    assert len(str(err.value)) < QUOTE_LIMIT + 80, str(err.value)[:300]


def test_eval_total():
    q = conj(ne(var(0), 0), ge(var(0) ** 3, var(1)))
    for a in (F(-2), F(0), F(1, 3)):
        for b in (F(-1), F(7, 5)):
            assert q.eval((a, b)) in (True, False)


# -- the variable-set memo is invisible --------------------------------------

def _nodes(p):
    """Every Poly and Pred node of a presentation, children after parents."""
    stack = [c.pred for c in p.generators]
    for s in p.relators:
        stack.append(s.constraint)
        stack.extend(e for t in s.template for e in t.index)
    while stack:
        n = stack.pop()
        yield n
        stack.extend(n.args)
        stack.extend(x for x in (getattr(n, "lhs", None), getattr(n, "rhs", None))
                     if x is not None)


def _reference_vars(n) -> set:
    if isinstance(n, Poly) and n.op == "var":
        return {n.k}
    out = set()
    for child in n.args + ((n.lhs, n.rhs) if isinstance(n, Pred) else ()):
        if child is not None:
            out |= _reference_vars(child)
    return out


def _presentations():
    for p in [mk() for mk in BUILTIN_PRESENTATIONS.values()] + [extension_presentation()]:
        parsed = presentation_from_json(json.loads(json.dumps(presentation_to_json(p))))
        assert parsed == p and hash(parsed) == hash(p)
        yield p.label, p
        yield p.label + " (parsed)", parsed


PRESENTATIONS = list(_presentations())


@pytest.mark.parametrize("label, p", PRESENTATIONS, ids=[label for label, _ in PRESENTATIONS])
def test_vars_memo_is_invisible(label, p):
    before = presentation_to_json(p)
    seen = 0
    for n in _nodes(p):
        # an equal node built afresh has an empty memo
        twin = dataclasses.replace(n)
        assert twin._vars is None
        assert n.vars() == _reference_vars(n)
        assert n._vars is not None and twin._vars is None
        assert n == twin and twin == n and hash(n) == hash(twin)
        assert repr(n) == repr(twin) and n.to_json() == twin.to_json()
        assert twin.vars() == n.vars()
        seen += 1
    assert seen > 0
    # with every memo filled the presentation still serializes the same
    assert presentation_to_json(p) == before
    assert presentation_from_json(before) == p


def test_parse_shares_leaves_within_one_call_only():
    data = presentation_to_json(circle_presentation())
    first, second = presentation_from_json(data), presentation_from_json(data)
    leaves = [[e for t in p.relators[0].template for e in t.index] for p in (first, second)]
    # same-ray reads x(v0,v1) . x(v2,v3)^-1; each index entry is a var leaf
    assert [e.k for e in leaves[0]] == [0, 1, 2, 3]
    assert all(a == b and a is not b for a, b in zip(*leaves))
    v0 = leaves[0][0]
    assert sum(n is v0 for n in _nodes(first)) > 1
