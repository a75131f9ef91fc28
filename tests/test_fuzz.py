"""Hostile input gives a result or a usage error, never a traceback.

Parsers may only raise what `cli.main` turns into exit code 2, and the CLI
itself either answers (exit 0 or 1) or exits 2 with a message on stderr.
Sizes and fuel are kept small, examples are derived from the test's name
(`derandomize=True`) and no example database is written, so every run
repeats exactly.
"""

import contextlib
import io
import json
import tempfile
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings, strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from realword.cli import main
from realword.machine import MAX_REGISTER, BssProgram, parse_program, run
from realword.presentations import (Presentation, presentation_from_json,
                                    presentation_to_json)
from realword.programs import ALL_PROGRAMS
from realword.reduction import assemble_u
from realword.sample_groups import BUILTIN_PRESENTATIONS
from realword.words import MAX_EXPONENT, Word, concat, encode_w, invert, parse_word
from test_machine import _run_by_steps
from test_reduction import walk_member_within

# Hypothesis caches the constants it reads from local modules under its home
# directory, ./.hypothesis by default, while pytest collects: keep that cache
# in the system temp directory, out of the checkout
set_hypothesis_home_dir(Path(tempfile.gettempdir(), "realword-hypothesis"))

FUZZ = settings(database=None, derandomize=True, max_examples=60, deadline=None)

# besides OSError, what `cli.main` reports as a usage error
USAGE_ERRORS = (ValueError, KeyError)

NUMBERS = ["0", "1", "-1", "2", "1/3", "-2/3", "1/0", "1/-2", "7/", "x",
           "1.5", "", str(MAX_EXPONENT), str(MAX_EXPONENT + 1), "99999999"]


def _sometimes_junk(strategy, junk):
    """Mostly well-formed text, now and then one junk token."""
    return st.one_of(strategy, strategy, strategy, strategy, strategy,
                     st.sampled_from(junk))


number = _sometimes_junk(st.sampled_from(NUMBERS[:6]), NUMBERS[6:])

letter_text = st.builds(
    lambda family, index, exp: family + index + exp,
    st.sampled_from(["x", "y", "a", "m", "t", "s", "aux"]),
    st.one_of(st.just(""), st.lists(st.sampled_from(NUMBERS[:6]), max_size=3).map(
        lambda xs: "(" + ",".join(xs) + ")")),
    st.one_of(st.just(""), st.just("^-1"), st.integers(-3, 3).map("^{}".format)))
word_text = st.lists(_sometimes_junk(
    letter_text, ["q", "(", ")", "", "^", ",", "x(1", "x(1/0)", "y^x",
                  f"x^{MAX_EXPONENT + 1}", "x(1.5)"]), max_size=5).map(" . ".join)

register = _sometimes_junk(st.sampled_from(["r0", "r1", "r2", "r3", f"r{MAX_REGISTER}"]),
                           [f"r{MAX_REGISTER + 1}", "r-1", "r", "r1.5"])
control = st.lists(st.sampled_from(["i+", "i0", "j+", "j0"]), max_size=2).map(" ".join)
instruction_text = st.one_of(
    st.builds("set {} {} {}".format, register, number, control),
    st.builds("{} {} {} {} {}".format, st.sampled_from(["add", "sub", "mul", "div"]),
              register, register, register, control),
    st.builds("brgeq {}".format, st.integers(-1, 8)),
    st.builds("copy {}".format, control),
    st.just("halt"))
program_text = st.lists(_sometimes_junk(instruction_text, ["", "jmp 1", "set r1", "#"]),
                        max_size=7).map(
    lambda lines: "".join(f"{k + 1}: {line}\n" for k, line in enumerate(lines))
    + f"{len(lines) + 1}: halt\n")

input_text = st.lists(number, max_size=4).map(",".join)

# Registers r0..r3 take any value; `mul` and `div` scale by r255, which only
# `set` writes (copy-register i needs more than 200 steps to reach it).  So
# values grow at most linearly in size with the fuel, where a squaring loop
# would double it every pass.  Copy-register controls are rare and branches
# common, so that many runs end in a loop that repeats.
SCALE = "r255"
small_register = st.sampled_from(["r0", "r1", "r2", "r3"])
rare_control = st.one_of(st.just(""), st.just(""), st.just(""), control)
loop_instruction = st.one_of(
    st.builds("set {} {} {}".format, st.one_of(small_register, st.just(SCALE)),
              st.sampled_from(NUMBERS[:6]), rare_control),
    st.builds("{} {} {} {} {}".format, st.sampled_from(["add", "sub"]),
              small_register, small_register, small_register, rare_control),
    st.builds("{} {} {} {} {}".format, st.sampled_from(["mul", "div"]),
              small_register, small_register, st.just(SCALE), rare_control),
    st.builds("copy {}".format, rare_control))


@st.composite
def loop_program(draw, instruction=loop_instruction):
    """A program of at most 8 instructions whose branches stay in range."""
    size = draw(st.integers(1, 8))
    branch = st.integers(1, size).map("brgeq {}".format)
    lines = [draw(st.one_of(instruction, branch, branch))
             for _ in range(size - 1)] + ["halt"]
    return parse_program("".join(f"{k + 1}: {line}\n" for k, line in enumerate(lines)))

json_scalar = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 5), st.sampled_from([10**12, -(10**12)]),
    st.sampled_from(["", "x", "0", "1/3", "var", "const", "pow", "cmp", "and",
                     "decidable", "enumerable", "=", ">="]))
json_value = st.recursive(
    json_scalar,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.sampled_from(["op", "args", "i", "k", "value", "rel",
                                         "lhs", "rhs", "family", "exp", "index"]),
                        inner, max_size=3)),
    max_leaves=8)


@st.composite
def mutated(draw, doc):
    """`doc`, or `doc` with one subtree replaced by a random JSON value.

    The walk to the replaced subtree mostly goes deep, so most mutations
    touch one leaf of an otherwise well-formed document.
    """
    def walk(node):
        if isinstance(node, (dict, list)) and node and draw(st.integers(0, 7)) < 6:
            if isinstance(node, dict):
                key = draw(st.sampled_from(sorted(node)))
                return {**node, key: walk(node[key])}
            k = draw(st.integers(0, len(node) - 1))
            return node[:k] + [walk(node[k])] + node[k + 1:]
        return draw(json_value)
    return walk(doc) if draw(st.integers(0, 5)) < 4 else doc


@st.composite
def presentation_text(draw):
    name = draw(st.sampled_from(sorted(BUILTIN_PRESENTATIONS)))
    text = json.dumps(draw(mutated(presentation_to_json(BUILTIN_PRESENTATIONS[name]()))))
    if draw(st.integers(0, 9)) == 9:
        text = text[:draw(st.integers(0, len(text)))]  # truncated JSON
    return text


# the certificate `realword wp torus` finds for x(1/3) . x(2/3) . x(0)^-1
GOOD_CERT = [{"conjugator": "1", "relator": "x(1/3) . x(2/3) . x(1)^-1",
              "schema": 2, "params": ["1/3", "2/3"]},
             {"conjugator": "1", "relator": "x(1) . x(0)^-1",
              "schema": 1, "params": ["0"]}]


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc in (0, 1, 2), (argv, rc)
    if rc == 2:
        assert err.getvalue().strip(), argv
    return rc


@FUZZ
@given(word_text)
def test_parse_word_fuzz(text):
    try:
        assert isinstance(parse_word(text), Word)
    except USAGE_ERRORS:
        pass


@FUZZ
@given(program_text)
def test_parse_program_fuzz(text):
    try:
        assert isinstance(parse_program(text), BssProgram)
    except USAGE_ERRORS:
        pass


@FUZZ
@given(presentation_text())
def test_presentation_from_json_fuzz(text):
    try:
        assert isinstance(presentation_from_json(json.loads(text)), Presentation)
    except USAGE_ERRORS:
        pass


@FUZZ
@given(loop_program(), st.lists(st.sampled_from(NUMBERS[:6]).map(Fraction), max_size=3),
       st.integers(0, 200))
def test_run_matches_stepping_fuzz(program, inputs, fuel):
    # small fuels come up most, so the complement to 200 runs as well
    for f in (fuel, 200 - fuel):
        res = run(program, inputs, f)
        assert (res.status, res.steps, res.output, res.final) == \
            _run_by_steps(program, inputs, f)


# words of one to three pattern factors over vectors of dimension 0..2
pattern_factor = st.tuples(
    st.lists(st.sampled_from(NUMBERS[:6]).map(Fraction), max_size=2).map(tuple),
    st.booleans())
pattern_word = st.lists(pattern_factor, min_size=1, max_size=3).map(
    lambda factors: concat(*(invert(encode_w(v)) if inverse else encode_w(v)
                             for v, inverse in factors)))


@FUZZ
@given(loop_program(st.one_of(loop_instruction, st.builds("copy {}".format, control))),
       pattern_word)
def test_member_within_matches_walk_fuzz(program, word):
    # copy-register controls split forced states that share a label
    warm = assemble_u(program)
    for fuel in range(81):
        expect = walk_member_within(program, word, fuel)
        assert assemble_u(program).member_within(word, fuel) == expect, fuel
        assert warm.member_within(word, fuel) == expect, fuel


@FUZZ
@given(st.one_of(program_text, st.sampled_from(sorted(ALL_PROGRAMS))), input_text,
       st.sampled_from(["run", "reduce"]), st.integers(0, 30))
def test_cli_run_and_reduce_fuzz(program, inputs, command, fuel):
    # fuel stays small: a squaring loop doubles its operand's size every
    # pass, so run time grows exponentially with fuel
    with tempfile.TemporaryDirectory() as tmp:
        if program not in ALL_PROGRAMS:
            path = Path(tmp, "p.bss")
            path.write_text(program)
            program = str(path)
        _cli([command, program, "--input", inputs, "--fuel", str(fuel)])


@FUZZ
@given(st.one_of(presentation_text(), st.sampled_from(sorted(BUILTIN_PRESENTATIONS))),
       word_text, mutated(GOOD_CERT), st.integers(0, 60))
def test_cli_wp_and_verify_fuzz(presentation, word, cert, fuel):
    with tempfile.TemporaryDirectory() as tmp:
        if presentation not in BUILTIN_PRESENTATIONS:
            path = Path(tmp, "p.json")
            path.write_text(presentation)
            presentation = str(path)
        cert_path = Path(tmp, "c.json")
        cert_path.write_text(json.dumps(cert))
        _cli(["wp", presentation, "--word", word, "--fuel", str(fuel),
              "--cert-out", str(Path(tmp, "out.json"))])
        _cli(["verify", presentation, "--word", word, "--cert", str(cert_path)])
