"""Every parse error pinned: presentation JSON, polynomial and predicate nodes,
word texts, rational tokens and machine constants.

Each malformed input maps to the exception type and message it raises.
Inputs with two faults pin which one is reported first.  Presentation
errors are also checked through the CLI, where each one is exit code 2.
"""

import json
from fractions import Fraction as F

import pytest

from realword.cli import main
from realword.machine import parse_program
from realword.predicates import Poly, Pred
from realword.presentations import presentation_from_json
from realword.rationals import parse_rat
from realword.words import parse_word

TRUE_J = {"op": "true"}
V0 = {"op": "var", "i": 0}
DROP = object()  # a key the input leaves out


def _var(i):
    return {"op": "var", "i": i}


def _x(index, exp=1):
    return {"family": "x", "exp": exp, "index": [index]}


def _without_drops(base: dict, over: dict) -> dict:
    base.update(over)
    return {k: v for k, v in base.items() if v is not DROP}


def _clause(**over):
    return _without_drops({"family": "x", "arity": 1, "pred": TRUE_J}, over)


def _rel(**over):
    return _without_drops({"arity": 1, "label": "r", "constraint": TRUE_J,
                           "letters": [_x(V0), _x(V0, -1)]}, over)


def _pres(gens=None, rels=None, **over):
    return _without_drops({"label": "p", "dim": 1,
                           "generators": [_clause()] if gens is None else gens,
                           "relators": [_rel()] if rels is None else rels}, over)


GE_10_2 = {"op": "cmp", "rel": ">=", "lhs": _var(10), "rhs": _var(2)}


def _bad_vars(v):
    return f"uses variable {v} but has arity 1"


PRESENTATIONS = [
    ("not-object", [1, 2], "presentation must be an object"),
    ("no-generators", _pres(generators=DROP), "presentation needs 'generators' as a list"),
    ("generators-object", _pres(generators={}), "presentation needs 'generators' as a list"),
    ("no-relators", _pres(relators=DROP), "presentation needs 'relators' as a list"),
    ("no-label", _pres(label=DROP), "presentation needs 'label' as a string"),
    ("label-int", _pres(label=3), "presentation needs 'label' as a string"),
    ("no-dim", _pres(dim=DROP), "presentation needs 'dim' as an integer"),
    ("dim-string", _pres(dim="two"), "presentation needs 'dim' as an integer"),
    ("dim-negative", _pres(dim=-1), "presentation needs 'dim' at least 0, got -1"),
    ("dim-bool", _pres(dim=True), "presentation needs 'dim' as an integer"),
    ("clause-not-object", _pres(gens=[5]), "generator clause 0 must be an object"),
    ("clause-family-int", _pres(gens=[_clause(family=1)]),
     "generator clause 0 needs 'family' as a string"),
    ("clause-family-unknown", _pres(gens=[_clause(family="q")]),
     "generator clause 0: unknown generator family 'q'"),
    ("clause-family-long", _pres(gens=[_clause(family="z" * 300)]),
     f"generator clause 0: unknown generator family {'z' * 100!r}... (300 characters)"),
    ("clause-no-arity", _pres(gens=[_clause(arity=DROP)]),
     "generator clause 0 needs 'arity' as an integer"),
    ("clause-arity-negative", _pres(gens=[_clause(arity=-1)]),
     "generator clause 0 needs 'arity' at least 0, got -1"),
    ("clause-no-pred", _pres(gens=[_clause(pred=DROP)]), KeyError("pred")),
    ("clause-pred-list", _pres(gens=[_clause(pred=[])]),
     "predicate node must be an object, got list"),
    # the offending variable is the smallest by repr: 10 before 2
    ("clause-vars-10-2", _pres(gens=[_clause(pred=GE_10_2)]),
     "generator clause 0 ('x') " + _bad_vars(10)),
    ("clause-var-negative", _pres(gens=[_clause(pred={"op": "isint", "arg": _var(-1)})]),
     "generator clause 0 ('x') " + _bad_vars(-1)),
    ("clause-arity-over-dim", _pres(gens=[_clause(arity=2)]), "clause arity 2 exceeds dim 1"),
    ("relator-not-object", _pres(rels=[7]), "relator 0 must be an object"),
    ("relator-label-int", _pres(rels=[_rel(label=5)]), "relator 0 needs 'label' as a string"),
    ("relator-no-letters", _pres(rels=[_rel(letters=DROP)]),
     "relator 0 ('r') needs 'letters' as a list"),
    ("letter-not-object", _pres(rels=[_rel(letters=["x"])]), "relator 0 ('r') must be an object"),
    ("letter-no-exp", _pres(rels=[_rel(letters=[{"family": "x", "index": [V0]}])]),
     "relator 0 ('r') needs 'exp' as an integer"),
    ("letter-exp-2", _pres(rels=[_rel(letters=[_x(V0, 2)])]),
     "relator 0 ('r'): letter exponent must be 1 or -1, got 2"),
    ("letter-exp-bool", _pres(rels=[_rel(letters=[_x(V0, True)])]),
     "relator 0 ('r') needs 'exp' as an integer"),
    ("letter-no-index", _pres(rels=[_rel(letters=[{"family": "x", "exp": 1}])]),
     "relator 0 ('r') needs 'index' as a list"),
    ("letter-no-family", _pres(rels=[_rel(letters=[{"exp": 1, "index": [V0]}])]),
     "relator 0 ('r') needs 'family' as a string"),
    ("letter-family-unknown", _pres(rels=[_rel(letters=[{"family": "q", "exp": 1,
                                                          "index": [V0]}])]),
     "relator 0 ('r'): unknown generator family 'q'"),
    ("letter-index-entry-bad", _pres(rels=[_rel(letters=[_x({"op": "div"})])]),
     "unknown polynomial op 'div'"),
    ("relator-mode-bad", _pres(rels=[_rel(mode="enumerable")]),
     "relator 0 ('r'): unknown mode 'enumerable'"),
    ("relator-mode-int", _pres(rels=[_rel(mode=1)]), "relator 0 ('r') needs 'mode' as a string"),
    ("relator-no-arity", _pres(rels=[_rel(arity=DROP)]),
     "relator 0 ('r') needs 'arity' as an integer"),
    ("relator-arity-negative", _pres(rels=[_rel(arity=-2)]),
     "relator 0 ('r') needs 'arity' at least 0, got -2"),
    ("relator-no-constraint", _pres(rels=[_rel(constraint=DROP)]), KeyError("constraint")),
    ("relator-vars-10-2", _pres(rels=[_rel(letters=[_x(_var(10)), _x(_var(2), -1)])]),
     "relator 0 ('r') " + _bad_vars(10)),
    # 2 in a letter's index, 10 in the constraint: still 10
    ("relator-vars-split", _pres(rels=[_rel(letters=[_x(_var(2))],
                                            constraint={"op": "isnat", "arg": _var(10)})]),
     "relator 0 ('r') " + _bad_vars(10)),
    ("relator-var-3", _pres(rels=[_rel(letters=[_x(_var(3)), _x(V0, -1)])]),
     "relator 0 ('r') " + _bad_vars(3)),
    ("relator-unlabelled-var", _pres(rels=[_rel(label=DROP, letters=[_x(_var(1))])]),
     "relator 0 ('') " + _bad_vars(1)),
    ("long-label", _pres(rels=[_rel(label="l" * 300, letters=[_x(_var(1))])]),
     f"relator 0 ({'l' * 100!r}... (300 characters)) " + _bad_vars(1)),
    # two faults at once: the first one met is reported
    ("two-clauses-bad", _pres(gens=[_clause(pred=GE_10_2), _clause(arity=-1)]),
     "generator clause 0 ('x') " + _bad_vars(10)),
    ("clause-and-relator-bad", _pres(gens=[_clause(pred=GE_10_2)],
                                     rels=[_rel(letters=[_x(_var(5))])]),
     "generator clause 0 ('x') " + _bad_vars(10)),
    ("clause-bad-and-no-label", _pres(gens=[_clause(arity=-1)], label=DROP),
     "generator clause 0 needs 'arity' at least 0, got -1"),
    ("relator-bad-and-no-dim", _pres(rels=[_rel(letters=[_x(_var(4))])], dim=DROP),
     "relator 0 ('r') " + _bad_vars(4)),
    ("no-relators-and-no-label", _pres(relators=DROP, label=DROP),
     "presentation needs 'relators' as a list"),
    ("family-int-and-arity-bad", _pres(gens=[_clause(family=2, arity=-1)]),
     "generator clause 0 needs 'family' as a string"),
    ("arity-bad-and-pred-bad", _pres(gens=[_clause(arity="1", pred=5)]),
     "generator clause 0 needs 'arity' as an integer"),
    ("exp-bad-and-no-family", _pres(rels=[_rel(letters=[{"exp": 3, "index": [V0]}])]),
     "relator 0 ('r'): letter exponent must be 1 or -1, got 3"),
    ("index-bad-and-family-bad",
     _pres(rels=[_rel(letters=[{"family": 1, "exp": 1, "index": 5}])]),
     "relator 0 ('r') needs 'index' as a list"),
    ("family-bad-and-entry-bad",
     _pres(rels=[_rel(letters=[{"family": 1, "exp": 1, "index": [5]}])]),
     "relator 0 ('r') needs 'family' as a string"),
    # a letter's family is checked when it is read: after its exponent and
    # index list, before its index entries
    ("family-unknown-and-entry-bad",
     _pres(rels=[_rel(letters=[{"family": "q", "exp": 1, "index": [5]}])]),
     "relator 0 ('r'): unknown generator family 'q'"),
    ("exp-bad-and-family-unknown",
     _pres(rels=[_rel(letters=[{"family": "q", "exp": 2, "index": [V0]}])]),
     "relator 0 ('r'): letter exponent must be 1 or -1, got 2"),
    ("clause-family-unknown-and-arity-bad", _pres(gens=[_clause(family="q", arity=-1)]),
     "generator clause 0: unknown generator family 'q'"),
    ("entry-bad-and-constraint-bad", _pres(rels=[_rel(letters=[_x(5)], constraint=5)]),
     "polynomial node must be an object, got int"),
    ("mode-bad-and-arity-bad", _pres(rels=[_rel(mode="x", arity=-1)]),
     "relator 0 ('r'): unknown mode 'x'"),
    ("arity-bad-and-constraint-bad", _pres(rels=[_rel(arity=-1, constraint=5)]),
     "relator 0 ('r') needs 'arity' at least 0, got -1"),
    ("constraint-bad-and-vars-bad", _pres(rels=[_rel(letters=[_x(_var(9))],
                                                     constraint={"op": "nand"})]),
     "unknown predicate op 'nand'"),
    ("letters-bad-and-label-bad", _pres(rels=[_rel(letters=5, label=5)]),
     "relator 0 needs 'label' as a string"),
    ("second-letter-bad-first-var-bad",
     _pres(rels=[_rel(letters=[_x(_var(9)), _x(V0, 0)])]),
     "relator 0 ('r'): letter exponent must be 1 or -1, got 0"),
    ("clause-over-dim-and-relator-var", _pres(gens=[_clause(arity=3)],
                                              rels=[_rel(letters=[_x(_var(9))])]),
     "relator 0 ('r') " + _bad_vars(9)),
]

POLYS = [
    ("not-object", 5, "polynomial node must be an object, got int"),
    ("list", [], "polynomial node must be an object, got list"),
    ("no-op", {"i": 0}, KeyError("op")),
    ("op-list", {"op": [], "i": 0}, "unknown polynomial op []"),
    ("op-unknown", {"op": "div", "args": [V0, V0]}, "unknown polynomial op 'div'"),
    ("const-no-value", {"op": "const"}, KeyError("value")),
    ("const-int", {"op": "const", "value": 1}, "const value must be a string, got 1"),
    ("const-bad-text", {"op": "const", "value": "x"},
     "invalid literal for int() with base 10: 'x'"),
    ("const-zero-den", {"op": "const", "value": "1/0"}, "denominator must be positive in '1/0'"),
    ("const-negative-den", {"op": "const", "value": "3/-1"},
     "denominator must be positive in '3/-1'"),
    ("const-float-text", {"op": "const", "value": "1.5"},
     "invalid literal for int() with base 10: '1.5'"),
    ("const-empty", {"op": "const", "value": ""}, "invalid literal for int() with base 10: ''"),
    ("var-no-i", {"op": "var"}, KeyError("i")),
    ("var-string", {"op": "var", "i": "0"}, "var index must be an integer, got '0'"),
    ("var-bool", {"op": "var", "i": True}, "var index must be an integer, got True"),
    ("add-no-args", {"op": "add"}, KeyError("args")),
    ("add-one-arg", {"op": "add", "args": [V0]}, "'add' node needs a list of 2 args"),
    ("neg-args-int", {"op": "neg", "args": 5}, "'neg' node needs a list of 1 args"),
    ("pow-negative", {"op": "pow", "args": [V0], "k": -1},
     "pow exponent must be a natural number, got -1"),
    ("pow-string", {"op": "pow", "args": [V0], "k": "2"},
     "pow exponent must be a natural number, got '2'"),
    ("pow-over-cap", {"op": "pow", "args": [V0], "k": 101},
     "pow exponent 101 exceeds 100 (nested pow exponents multiply to at most 100)"),
    ("pow-nested-over-cap",
     {"op": "pow", "args": [{"op": "pow", "args": [V0], "k": 20}], "k": 6},
     "pow exponent 6 exceeds 5 (nested pow exponents multiply to at most 100)"),
    # two faults at once
    ("add-both-args-bad", {"op": "add", "args": [{"op": "x"}, {"op": "y"}]},
     "unknown polynomial op 'x'"),
    ("pow-k-bad-and-args-bad", {"op": "pow", "args": 5, "k": -1},
     "pow exponent must be a natural number, got -1"),
    ("pow-over-cap-and-arg-bad", {"op": "pow", "args": [{"op": "var", "i": "z"}], "k": 500},
     "var index must be an integer, got 'z'"),
    ("op-unknown-and-no-args", {"op": "mod"}, "unknown polynomial op 'mod'"),
    ("args-bad-and-child-bad", {"op": "sub", "args": [{"op": "q"}]},
     "'sub' node needs a list of 2 args"),
    ("nested-const-bad",
     {"op": "mul", "args": [V0, {"op": "neg", "args": [{"op": "const", "value": "2/0"}]}]},
     "denominator must be positive in '2/0'"),
]

PREDS = [
    ("not-object", "true", "predicate node must be an object, got str"),
    ("list", [1], "predicate node must be an object, got list"),
    ("no-op", {}, KeyError("op")),
    ("op-unknown", {"op": "xor", "args": []}, "unknown predicate op 'xor'"),
    ("op-list", {"op": ["and"], "args": []}, "unknown predicate op ['and']"),
    ("cmp-no-rel", {"op": "cmp", "lhs": V0, "rhs": V0}, KeyError("rel")),
    ("cmp-rel-bad", {"op": "cmp", "rel": "<", "lhs": V0, "rhs": V0}, "unknown comparison '<'"),
    ("cmp-rel-list", {"op": "cmp", "rel": [], "lhs": V0, "rhs": V0}, "unknown comparison []"),
    ("cmp-no-lhs", {"op": "cmp", "rel": "=", "rhs": V0}, KeyError("lhs")),
    ("isint-no-arg", {"op": "isint"}, KeyError("arg")),
    ("isnat-arg-bad", {"op": "isnat", "arg": {"op": "const", "value": "q"}},
     "invalid literal for int() with base 10: 'q'"),
    ("and-no-args", {"op": "and"}, KeyError("args")),
    ("and-args-object", {"op": "and", "args": {}}, "'and' node needs a list of args"),
    ("not-two-args", {"op": "not", "args": [TRUE_J, TRUE_J]}, "'not' node needs a list of 1 args"),
    ("or-child-bad", {"op": "or", "args": [TRUE_J, {"op": "maybe"}]},
     "unknown predicate op 'maybe'"),
    # two faults at once
    ("cmp-rel-bad-and-lhs-bad", {"op": "cmp", "rel": "~", "lhs": 5, "rhs": V0},
     "unknown comparison '~'"),
    ("cmp-lhs-bad-and-rhs-bad", {"op": "cmp", "rel": "=", "lhs": {"op": "v"}, "rhs": {"op": "w"}},
     "unknown polynomial op 'v'"),
    ("and-children-bad", {"op": "and", "args": [{"op": "p"}, {"op": "q"}]},
     "unknown predicate op 'p'"),
    ("not-args-bad-and-child-bad", {"op": "not", "args": [{"op": "p"}, TRUE_J]},
     "'not' node needs a list of 1 args"),
]

_INT_LITERAL = "invalid literal for int() with base 10: "

WORDS = [
    ("unclosed", "x(1", "unclosed index in 'x(1'"),
    ("zero-den", "x(1/0)", "bad index in 'x(1/0)': denominator must be positive in '1/0'"),
    ("negative-den", "x(1/-2)", "bad index in 'x(1/-2)': denominator must be positive in '1/-2'"),
    ("letter-index", "x(a)", "bad index in 'x(a)': " + _INT_LITERAL + "'a'"),
    ("decimal-index", "x(1.5)", "bad index in 'x(1.5)': " + _INT_LITERAL + "'1.5'"),
    ("empty-entry", "x(1,,2)", "bad index in 'x(1,,2)': " + _INT_LITERAL + "''"),
    ("extra-paren", "x(1))", "bad index in 'x(1))': " + _INT_LITERAL + "'1)'"),
    ("zero-exponent", "x^0", "zero exponent in 'x^0'"),
    ("bad-exponent", "x^a", "bad exponent 'a' in 'x^a'"),
    ("empty-exponent", "x^", "bad exponent '' in 'x^'"),
    ("exponent-over-cap", "x^10001", "exponent 10001 in 'x^10001' exceeds 10000 in absolute value"),
    ("exponent-under-cap", "y^-10001",
     "exponent -10001 in 'y^-10001' exceeds 10000 in absolute value"),
    ("unknown-family", "q(1)", "unknown generator family 'q'"),
    ("empty-letter", "x . . y", "unknown generator family ''"),
    ("leading-dot", ". x", "unknown generator family ''"),
    ("long-family", "z" * 300, f"unknown generator family {'z' * 100!r}... (300 characters)"),
    # two faults at once
    ("family-then-exponent", "q(1) . x^0", "unknown generator family 'q'"),
    ("exponent-then-family", "x^0 . q", "zero exponent in 'x^0 '"),
    ("family-and-exponent", "q^0", "zero exponent in 'q^0'"),
    ("family-and-index", "q(1/0)", "bad index in 'q(1/0)': denominator must be positive in '1/0'"),
    ("index-and-exponent", "x(1/0)^0", "zero exponent in 'x(1/0)^0'"),
    ("unclosed-and-family", "q(1", "unclosed index in 'q(1'"),
    ("index-then-index", "x(1/0) . x(2/0)",
     "bad index in 'x(1/0)': denominator must be positive in '1/0'"),
]


def _ids(cases):
    return [case[0] for case in cases]


def _raises(fn, arg, expected):
    kind, message = ((KeyError, str(expected)) if isinstance(expected, KeyError)
                     else (ValueError, expected))
    with pytest.raises(Exception) as err:
        fn(arg)
    assert type(err.value) is kind
    assert str(err.value) == message


@pytest.mark.parametrize("cid, data, expected", PRESENTATIONS, ids=_ids(PRESENTATIONS))
def test_presentation_error(cid, data, expected):
    _raises(presentation_from_json, data, expected)


@pytest.mark.parametrize("cid, data, expected", PRESENTATIONS, ids=_ids(PRESENTATIONS))
def test_presentation_error_is_a_usage_error(cid, data, expected, tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(data))
    assert main(["wp", str(path), "--word", "x(0)", "--fuel", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {expected}\n"


@pytest.mark.parametrize("cid, node, expected", POLYS, ids=_ids(POLYS))
def test_poly_error(cid, node, expected):
    _raises(Poly.from_json, node, expected)


@pytest.mark.parametrize("cid, node, expected", PREDS, ids=_ids(PREDS))
def test_pred_error(cid, node, expected):
    _raises(Pred.from_json, node, expected)


@pytest.mark.parametrize("cid, text, expected", WORDS, ids=_ids(WORDS))
def test_word_error(cid, text, expected):
    _raises(parse_word, text, expected)


_LIMIT = ("Exceeds the limit (4300 digits) for integer string conversion: value has "
          "5000 digits; use sys.set_int_max_str_digits() to increase the limit")

# token -> its Fraction, or the message of its ValueError
RATS = [
    ("²", _INT_LITERAL + "'²'"),  # "²".isdigit(), but int() rejects it
    ("٣", F(3)),
    ("1_0", F(10)),
    (" 7 ", F(7)),
    ("+7", F(7)),
    ("-0", F(0)),
    ("007", F(7)),
    ("3/6", F(1, 2)),
    ("3/-1", "denominator must be positive in '3/-1'"),
    ("1/0", "denominator must be positive in '1/0'"),
    ("", _INT_LITERAL + "''"),
    ("-", _INT_LITERAL + "'-'"),
    ("-3/6", F(-1, 2)),
    (" 3 / 6 ", F(1, 2)),
    ("1/+2", F(1, 2)),
    ("0/5", F(0)),
    ("1/", _INT_LITERAL + "''"),
    ("/2", _INT_LITERAL + "''"),
    ("1/2/3", _INT_LITERAL + "'2/3'"),
    ("٣/٤", F(3, 4)),
    ("½", _INT_LITERAL + "'½'"),
    ("1e3", _INT_LITERAL + "'1e3'"),
    ("0x10", _INT_LITERAL + "'0x10'"),
    ("9" * 5000, _LIMIT),
]


@pytest.mark.parametrize("text, expected", RATS, ids=[repr(t[:8]) for t, _ in RATS])
def test_parse_rat_tokens(text, expected):
    if isinstance(expected, F):
        got = parse_rat(text)
        assert type(got) is F and got == expected
        assert (got.numerator, got.denominator) == (expected.numerator, expected.denominator)
    else:
        with pytest.raises(ValueError) as err:
            parse_rat(text)
        assert type(err.value) is ValueError and str(err.value) == expected


# machine constants go through parse_rat as well; a bad one names its line
CONSTANTS = [
    ("7", F(7)), ("-3", F(-3)), ("3/6", F(1, 2)), ("-3/6", F(-1, 2)), ("٣", F(3)),
    ("1_0", F(10)), ("+7", F(7)), ("007", F(7)), ("-0", F(0)), ("0/5", F(0)),
    ("3/-1", None), ("1/0", None), ("²", None), ("-", None), ("1/", None), ("1.5", None),
]


@pytest.mark.parametrize("tok, expected", CONSTANTS, ids=[t for t, _ in CONSTANTS])
def test_machine_constant_tokens(tok, expected):
    text = f"1: set r1 {tok}\n2: halt\n"
    if expected is None:
        with pytest.raises(ValueError) as err:
            parse_program(text)
        assert str(err.value) == f"bad constant {tok!r} in '1: set r1 {tok}'"
    else:
        got = parse_program(text).instructions[0].const
        assert type(got) is F and got == expected
