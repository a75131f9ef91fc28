"""Every parse error pinned: presentation JSON, polynomial and predicate nodes,
word texts, rational tokens, machine constants and machine programs.

Each malformed input maps to the exception type and message it raises.
Inputs with two faults pin which one is reported first.  Presentation
and program errors are also checked through the CLI, where each one is exit
code 2.
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


# program text -> the message of the ValueError parse_program raises
PROGRAMS = [
    # labels and branch targets read as integers
    ('label-word', 'x: halt\n',
     "bad label 'x' in 'x: halt'"),
    ('label-empty', ': halt\n',
     "bad label '' in ': halt'"),
    ('label-fraction', '1/2: halt\n',
     "bad label '1/2' in '1/2: halt'"),
    ('label-no-colon', '1 halt\n',
     "bad label '1 halt' in '1 halt'"),
    ('branch-target-word', '1: brgeq two\n2: halt\n',
     "bad branch target 'two' in '1: brgeq two'"),
    ('branch-target-fraction', '1: brgeq 3/2\n2: halt\n',
     "bad branch target '3/2' in '1: brgeq 3/2'"),
    # the instruction name and its operand count
    ('missing', '1:\n',
     "missing instruction in '1:'"),
    ('missing-suffix-only', '1: i+ j0\n',
     "missing instruction in '1: i+ j0'"),
    ('unknown', '1: jmp 2\n',
     "unknown instruction 'jmp'"),
    ('unknown-case', '1: HALT\n',
     "unknown instruction 'HALT'"),
    ('halt-1', '1: halt r1\n',
     "halt takes 0 operands in '1: halt r1'"),
    ('set-1', '1: set r1\n2: halt\n',
     "set takes 2 operands in '1: set r1'"),
    ('set-3', '1: set r1 2 3\n2: halt\n',
     "set takes 2 operands in '1: set r1 2 3'"),
    ('add-2', '1: add r1 r2\n2: halt\n',
     "add takes 3 operands in '1: add r1 r2'"),
    ('sub-4', '1: sub r1 r2 r3 r4\n2: halt\n',
     "sub takes 3 operands in '1: sub r1 r2 r3 r4'"),
    ('mul-1', '1: mul r1\n2: halt\n',
     "mul takes 3 operands in '1: mul r1'"),
    ('div-0', '1: div\n2: halt\n',
     "div takes 3 operands in '1: div'"),
    ('brgeq-0', '1: brgeq\n2: halt\n',
     "brgeq takes 1 operands in '1: brgeq'"),
    ('brgeq-2', '1: brgeq 2 3\n2: halt\n',
     "brgeq takes 1 operands in '1: brgeq 2 3'"),
    ('copy-1', '1: copy r1\n2: halt\n',
     "copy takes 0 operands in '1: copy r1'"),
    # halt and brgeq take no copy-register suffix
    ('halt-suffix', '1: halt i+\n',
     "halt takes no i+ i0 j+ j0 suffix in '1: halt i+'"),
    ('brgeq-suffix', '1: brgeq 2 j0\n2: halt\n',
     "brgeq takes no i+ i0 j+ j0 suffix in '1: brgeq 2 j0'"),
    # registers: r, then at most five ASCII digits, at most MAX_REGISTER
    ('reg-no-r', '1: add 1 r2 r3\n2: halt\n',
     "expected a register r0..r10000, got '1' in '1: add 1 r2 r3'"),
    ('reg-bare-r', '1: add r1 r r3\n2: halt\n',
     "expected a register r0..r10000, got 'r' in '1: add r1 r r3'"),
    ('reg-negative', '1: add r1 r2 r-3\n2: halt\n',
     "expected a register r0..r10000, got 'r-3' in '1: add r1 r2 r-3'"),
    ('reg-fraction', '1: set r1.5 2\n2: halt\n',
     "expected a register r0..r10000, got 'r1.5' in '1: set r1.5 2'"),
    ('reg-upper', '1: mul R1 r2 r3\n2: halt\n',
     "expected a register r0..r10000, got 'R1' in '1: mul R1 r2 r3'"),
    ('reg-over-max', '1: add r10001 r1 r1\n2: halt\n',
     "expected a register r0..r10000, got 'r10001' in '1: add r10001 r1 r1'"),
    ('reg-too-many-digits', '1: add r1 r123456 r1\n2: halt\n',
     "expected a register r0..r10000, got 'r123456' in '1: add r1 r123456 r1'"),
    ('reg-non-ascii-digit', '1: add r1 r1 r٣\n2: halt\n',
     "expected a register r0..r10000, got 'r٣' in '1: add r1 r1 r٣'"),
    ('reg-plus', '1: div r1 r+1 r2\n2: halt\n',
     "expected a register r0..r10000, got 'r+1' in '1: div r1 r+1 r2'"),
    # constants go through parse_rat (see CONSTANTS above)
    ('constant-word', '1: set r1 x\n2: halt\n',
     "bad constant 'x' in '1: set r1 x'"),
    ('constant-zero-den', '1: set r1 1/0\n2: halt\n',
     "bad constant '1/0' in '1: set r1 1/0'"),
    # whole-program checks, made once every line has parsed
    ('target-past-end', '1: brgeq 3\n2: halt\n',
     'branch target 3 out of range'),
    ('target-zero', '1: brgeq 0\n2: halt\n',
     'branch target 0 out of range'),
    ('target-negative', '1: brgeq -1\n2: halt\n',
     'branch target -1 out of range'),
    ('labels-start-2', '2: halt\n',
     'labels must be 1..N in order, got 2 at 1'),
    ('labels-skip', '1: set r1 1\n3: halt\n',
     'labels must be 1..N in order, got 3 at 2'),
    ('labels-repeat', '1: set r1 1\n1: halt\n',
     'labels must be 1..N in order, got 1 at 2'),
    ('empty', '',
     'empty program'),
    ('comments-only', '# nothing\n   \n',
     'empty program'),
    ('no-halt', '1: set r1 1\n',
     'last instruction must be halt'),
    ('halt-not-last', '1: halt\n2: set r1 1\n',
     'last instruction must be halt'),
    # two faults at once: the first one met is reported
    ('label-and-unknown', 'x: jmp\n',
     "bad label 'x' in 'x: jmp'"),
    ('unknown-and-count', '1: jmp 1 2 3\n',
     "unknown instruction 'jmp'"),
    ('count-and-register', '1: add r1 q\n2: halt\n',
     "add takes 3 operands in '1: add r1 q'"),
    ('register-and-constant', '1: set q x\n2: halt\n',
     "expected a register r0..r10000, got 'q' in '1: set q x'"),
    ('suffix-and-count', '1: halt r1 i+\n',
     "halt takes 0 operands in '1: halt r1 i+'"),
    ('target-and-order', '2: brgeq 9\n3: halt\n',
     'labels must be 1..N in order, got 2 at 1'),
    ('second-line-bad', '1: set r1 1\n2: add r1 r1\n3: halt\n',
     "add takes 3 operands in '2: add r1 r1'"),
    ('order-before-no-halt', '2: set r1 1\n',
     'labels must be 1..N in order, got 2 at 1'),
    # the message quotes the raw line: comment, indentation and all
    ('raw-line-comment', '1: set r1 x   # note\n2: halt\n',
     "bad constant 'x' in '1: set r1 x   # note'"),
    ('raw-line-indent', '  1: add r1 r1 r  \n2: halt\n',
     "expected a register r0..r10000, got 'r' in '  1: add r1 r1 r  '"),
    ("raw-line-long", "1: set r1 " + "9" * 300 + "x\n2: halt\n",
     f"bad constant {'9' * 100!r}... (301 characters) "
     f"in {'1: set r1 ' + '9' * 90!r}... (311 characters)"),
]


@pytest.mark.parametrize("cid, text, expected", PROGRAMS, ids=_ids(PROGRAMS))
def test_program_error(cid, text, expected):
    _raises(parse_program, text, expected)


@pytest.mark.parametrize("cid, text, expected", PROGRAMS, ids=_ids(PROGRAMS))
def test_program_error_is_a_usage_error(cid, text, expected, tmp_path, capsys):
    path = tmp_path / "p.bss"
    path.write_text(text, encoding="utf-8")
    assert main(["run", str(path), "--input", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {expected}\n"
