import json
import sys
import time
from decimal import Decimal

import pytest

from realword.cli import MAX_DIGITS, MAX_JSON_DEPTH, main
from realword.machine import MAX_BITS, MAX_REGISTER
from realword.predicates import MAX_POW_EXPONENT
from realword.programs import SIGN_SRC


@pytest.fixture
def sign_file(tmp_path):
    path = tmp_path / "sign.bss"
    path.write_text(SIGN_SRC)
    return str(path)


def test_run_builtin(capsys):
    assert main(["run", "sign", "--input", "2", "--fuel", "100"]) == 0
    out = capsys.readouterr().out
    assert "status=halted" in out


def test_run_file_jsonl(sign_file, capsys):
    assert main(["run", sign_file, "--input", "0", "--fuel", "50",
                 "--format", "jsonl"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["status"] == "out_of_fuel"


def test_paths(capsys):
    assert main(["paths", "sign", "--count", "5"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 5
    assert "d=" in out[0]


def test_paths_unranks_the_first_path_of_a_wide_level(tmp_path, capsys):
    # level 30 of a chain of 30 branches holds 2^30 paths; its first one is
    # printed without listing the others
    prog = tmp_path / "chain.bss"
    prog.write_text("".join(f"{k}: brgeq {k + 1}\n" for k in range(1, 31)) + "31: halt\n")
    t0 = time.perf_counter()
    assert main(["paths", str(prog), "--count", "1"]) == 0
    assert time.perf_counter() - t0 < 1.0
    assert capsys.readouterr().out == ("index=465  d=0  D=1  guards=" + "1" * 30
                                       + "  ops=assign" + " geq" * 30 + "\n")


def test_wp_and_verify(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    rc = main(["wp", "torus", "--word", "x(1/3) . x(2/3) . x(0)^-1",
               "--fuel", "20000", "--cert-out", str(cert)])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("PROVED")
    assert cert.exists()
    assert main(["verify", "torus", "--word", "x(1/3) . x(2/3) . x(0)^-1",
                 "--cert", str(cert)]) == 0
    # the same certificate must not verify a different word
    assert main(["verify", "torus", "--word", "x(1/3)",
                 "--cert", str(cert)]) == 1


def test_verify_word_outside_the_generators_is_a_usage_error(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps([{"conjugator": "y", "relator": "x(0) . x(1)^-1",
                                 "schema": 0, "params": ["0"]}]))
    word = ["torus", "--word", "y . x(0) . x(1)^-1 . y^-1"]
    for argv in (["wp", *word], ["verify", *word, "--cert", str(cert)]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "word contains letters outside the generator set" in captured.err
    # a conjugator outside the generators rejects the certificate
    cert.write_text(json.dumps([{"conjugator": "y . y^-1", "relator": "x(0) . x(1)^-1",
                                 "schema": 0, "params": ["0"]}]))
    assert main(["verify", "torus", "--word", "x(0) . x(1)^-1", "--cert", str(cert)]) == 1
    assert capsys.readouterr().out == "REJECTED\n"


def test_wp_unknown_exit_code(capsys):
    assert main(["wp", "torus", "--word", "x(1/2)", "--fuel", "500"]) == 1
    assert "UNKNOWN" in capsys.readouterr().out


def test_hnn_reduce(capsys):
    assert main(["hnn-reduce", "--structure", "bs12",
                 "--word", "t . a . t^-1 . a^-2"]) == 0
    out = capsys.readouterr().out
    assert "identity=True" in out


def test_hnn_reduce_stops_before_a_power_past_the_cap(capsys):
    # each bs12 pinch of t . a^k . t^-1 doubles k, so t^30 . a . t^-30 would
    # reduce to 2^30 letters; the first power over the cap is never built
    t0 = time.perf_counter()
    assert main(["hnn-reduce", "--structure", "bs12",
                 "--word", "t^30 . a . t^-30"]) == 2
    assert time.perf_counter() - t0 < 1.0
    assert "britton.MAX_POWER (100,000)" in capsys.readouterr().err


def test_hnn_reduce_builds_a_power_below_the_cap(capsys):
    assert main(["hnn-reduce", "--structure", "bs12",
                 "--word", "t^16 . a . t^-16"]) == 0
    fields = dict(f.split("=") for f in capsys.readouterr().out.strip().split("  "))
    assert fields["identity"] == "False"
    assert fields["reduced"] == " . ".join(["a"] * 2 ** 16)


def test_reduce_agreement(capsys):
    assert main(["reduce", "sign", "--input", "2", "--fuel", "2000"]) == 0
    out = capsys.readouterr().out
    assert "agree=True" in out and "group=member" in out


def test_reduce_input_past_the_guard_scratch_registers(capsys):
    # this input loads r4 and r5, above square's own registers; the guard's
    # scratch registers lie below r0
    assert main(["reduce", "square", "--input", "3,0,0,0,7"]) == 0
    out = capsys.readouterr().out
    assert "simulated=halt" in out and "group=member" in out and "agree=True" in out



def test_squaring_loop_ends_at_bit_cap(tmp_path, capsys):
    path = tmp_path / "square.bss"
    path.write_text("1: mul r1 r1 r1\n2: brgeq 1\n3: halt\n")
    t0 = time.perf_counter()
    assert main(["run", str(path), "--input", "3", "--fuel", "1000",
                 "--format", "jsonl"]) == 0
    assert json.loads(capsys.readouterr().out) == {"status": "over_bit_cap", "steps": 30}
    assert main(["reduce", str(path), "--input", "3", "--fuel", "1000",
                 "--format", "jsonl"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert (rec["simulated"], rec["group"], rec["agree"]) == \
        ("inconclusive", "not-within-fuel", True)
    assert time.perf_counter() - t0 < 2

# 14 squarings of 2 halt with 2^16384, of 4,933 digits, past CPython's
# default bound of 4,300 on decimal conversion
SQUARINGS = ("1: set r1 2\n" + "".join(f"{k}: mul r1 r1 r1\n" for k in range(2, 16))
             + "16: halt\n")


@pytest.mark.parametrize("fmt", ["text", "jsonl"])
def test_run_prints_an_output_past_the_default_digit_limit(fmt, tmp_path, capsys):
    path = tmp_path / "squarings.bss"
    path.write_text(SQUARINGS)
    limit = sys.get_int_max_str_digits()
    assert main(["run", str(path), "--format", fmt]) == 0
    assert sys.get_int_max_str_digits() == limit  # the caller's bound comes back
    out = capsys.readouterr().out
    rec = json.loads(out) if fmt == "jsonl" else dict(
        field.split("=") for field in out.split())
    assert (rec["status"], int(rec["steps"])) == ("halted", 15)
    assert len(rec["output"]) == 4933 and Decimal(rec["output"]) == Decimal(1 << 16384)


def test_number_over_the_digit_bound_is_a_usage_error(capsys):
    # every value a run's `mul` or `div` may keep fits under the bound
    assert 1 << MAX_BITS < 10 ** MAX_DIGITS
    big = "9" * (MAX_DIGITS + 1)
    for argv in (["run", "sign", "--input", big], ["wp", "torus", "--word", f"x({big})"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"Exceeds the limit ({MAX_DIGITS} digits)" in captured.err
    assert main(["run", "sign", "--input", big[1:], "--fuel", "10"]) == 0
    assert "status=halted" in capsys.readouterr().out


def test_figure1_deterministic(capsys):
    assert main(["figure1", "--row", "add", "--samples", "10", "--seed", "3"]) == 0
    first = capsys.readouterr().out
    assert main(["figure1", "--row", "add", "--samples", "10", "--seed", "3"]) == 0
    assert capsys.readouterr().out == first
    assert main(["figure1", "--row", "nope"]) == 2


def test_examples(capsys):
    assert main(["examples", "torus", "--word", "x(1/3) . x(2/3)"]) == 0
    assert "identity=True" in capsys.readouterr().out
    assert main(["examples", "circle", "--word", "x(0,1)"]) == 0
    assert "identity=False" in capsys.readouterr().out


def test_selftest_single_check(capsys):
    assert main(["selftest", "--seed", "7", "--only", "action"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("PASS action-laws")


def test_usage_errors(capsys):
    assert main(["wp"]) == 2
    assert main(["run", "/nonexistent/prog.bss"]) == 2
    assert main([]) == 2


def test_wp_accepts_presentation_file(tmp_path, capsys):
    from realword.presentations import presentation_to_json
    from realword.sample_groups import torus_presentation
    pres = tmp_path / "torus.json"
    with open(pres, "w") as fh:
        json.dump(presentation_to_json(torus_presentation()), fh, indent=2)
    cert = tmp_path / "c.json"
    assert main(["wp", str(pres), "--word", "x(1/4) . x(3/4) . x(1)^-1",
                 "--fuel", "20000", "--cert-out", str(cert)]) == 0
    assert "PROVED" in capsys.readouterr().out
    assert main(["verify", str(pres), "--word", "x(1/4) . x(3/4) . x(1)^-1",
                 "--cert", str(cert)]) == 0


def test_reduce_disagreement_exit_code(monkeypatch, capsys):
    # fault injection: a group side that never finds members must disagree
    # with the simulator on a halting input and exit 1
    from realword import reduction

    def broken(self, w, fuel):
        return False

    monkeypatch.setattr(reduction.UHandle, "member_within", broken)
    assert main(["reduce", "sign", "--input", "2", "--fuel", "500"]) == 1
    assert "agree=False" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["run", "sign", "--input", "1"],
    ["wp", "torus", "--word", "x(1/2)"],
    ["reduce", "sign", "--input", "2"],
])
def test_negative_fuel_is_a_usage_error(argv, capsys):
    assert main(argv + ["--fuel", "-3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--fuel: must be at least 0" in captured.err


@pytest.mark.parametrize("argv, option", [
    (["paths", "sign", "--count", "-3"], "--count"),
    (["paths", "sign", "--max-index", "-1"], "--max-index"),
    (["figure1", "--row", "add", "--samples", "-2"], "--samples"),
])
def test_negative_count_is_a_usage_error(argv, option, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{option}: must be at least 0" in captured.err


@pytest.mark.parametrize("argv", [
    ["run", "sign", "--input", "-1,2", "--fuel", "50"],
    ["reduce", "sign", "--input", "-2/3", "--fuel", "300"],
])
def test_input_value_may_start_with_dash(argv, capsys):
    # a separate `--input <value>` means the same as `--input=<value>`
    k = argv.index("--input")
    joined = argv[:k] + ["--input=" + argv[k + 1]] + argv[k + 2:]
    assert main(joined) == 0
    expected = capsys.readouterr()
    assert expected.out and not expected.err
    assert main(argv) == 0
    assert capsys.readouterr() == expected


def test_truncated_program_is_a_usage_error(tmp_path, capsys):
    prog = tmp_path / "bad.bss"
    prog.write_text("1: set r1\n2: halt\n")
    assert main(["run", str(prog), "--input", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "'1: set r1'" in captured.err
    # extra operands are rejected the same way
    prog.write_text("1: set r1 2 junk\n2: halt\n")
    assert main(["run", str(prog), "--input", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "'1: set r1 2 junk'" in captured.err


def _one_relator_presentation(tmp_path, letters, arity=1, pred=None):
    """A JSON presentation over x(v0) with a single relator schema."""
    data = {"label": "p", "dim": 1,
            "generators": [{"family": "x", "arity": 1,
                            "pred": pred or {"op": "true"}}],
            "relators": [{"arity": arity, "label": "r", "letters": letters,
                          "constraint": {"op": "true"}}]}
    path = tmp_path / "p.json"
    path.write_text(json.dumps(data))
    return str(path)


def _x(index, exp=1):
    return {"family": "x", "exp": exp, "index": [index]}


V0 = {"op": "var", "i": 0}


def test_wp_relator_with_repeated_unknown(tmp_path, capsys):
    # x(v0 + v0) . x(v0)^-1: v0 comes from the second letter, not the sum
    pres = _one_relator_presentation(
        tmp_path, [_x({"op": "add", "args": [V0, V0]}), _x(V0, -1)])
    cert = tmp_path / "c.json"
    assert main(["wp", pres, "--word", "x(2) . x(1)^-1",
                 "--cert-out", str(cert)]) == 0
    assert capsys.readouterr().out.startswith("PROVED n=1 ")
    entries = json.loads(cert.read_text())
    assert [e["params"] for e in entries] == [["1"]]


@pytest.mark.parametrize("where", ["relator", "generator"])
def test_out_of_range_variable_is_a_usage_error(where, tmp_path, capsys):
    v3 = {"op": "var", "i": 3}
    if where == "relator":
        pres = _one_relator_presentation(tmp_path, [_x(v3), _x(V0, -1)])
    else:
        pres = _one_relator_presentation(
            tmp_path, [_x(V0), _x(V0, -1)],
            pred={"op": "cmp", "rel": ">=", "lhs": v3, "rhs": V0})
    assert main(["wp", pres, "--word", "x(1) . x(1)^-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "uses variable 3 but has arity 1" in captured.err


@pytest.mark.parametrize("command", [
    ["wp", "torus", "--word", "x(1/3) . x(2/3) . x(0)^-1"],
    ["verify", "torus", "--word", "x(1/3)", "--cert", "c.json"],
    ["selftest", "--only", "action"],
])
def test_format_only_on_record_commands(command, capsys):
    assert main(command + ["--format", "jsonl"]) == 2
    assert "unrecognized arguments: --format" in capsys.readouterr().err


def _deep_neg(depth):
    return ('{"op": "neg", "args": [' * depth + json.dumps(V0) + "]}" * depth)


def _relator_text(index_json, exp=1, **extra):
    data = {"label": "p", "dim": 1,
            "generators": [{"family": "x", "arity": 1, "pred": {"op": "true"}}],
            "relators": [{"arity": 1, "label": "r", "constraint": {"op": "true"},
                          "letters": [{"family": "x", "exp": exp, "index": ["@"]},
                                      _x(V0, -1)], **extra}]}
    return json.dumps(data).replace('"@"', index_json)


@pytest.mark.parametrize("text, message", [
    ("[1, 2]", "presentation must be an object"),
    (json.dumps({"label": "p", "dim": "two", "generators": [], "relators": []}),
     "presentation needs 'dim' as an integer"),
    (_relator_text(json.dumps({"op": "neg", "args": 5})), "'neg' node needs a list of 1 args"),
    (_relator_text(_deep_neg(3000)), "JSON nested too deeply"),
    (_relator_text(json.dumps({"op": "pow", "args": [V0], "k": -1})),
     "pow exponent must be a natural number, got -1"),
    (_relator_text(json.dumps({"op": "pow", "args": [V0], "k": MAX_POW_EXPONENT + 1})),
     f"pow exponent {MAX_POW_EXPONENT + 1} exceeds"),
    (_relator_text(json.dumps(V0), exp=2),
     "relator 0 ('r'): letter exponent must be 1 or -1, got 2"),
    (_relator_text(json.dumps({"op": [], "i": 0})), "unknown polynomial op []"),
    (_relator_text(json.dumps({"op": "var", "i": []})), "var index must be an integer"),
    # "decidable" is the only mode an older file can name
    (_relator_text(json.dumps(V0), mode="enumerable"),
     "relator 0 ('r'): unknown mode 'enumerable'"),
    (_relator_text(json.dumps(V0), mode=1), "relator 0 ('r') needs 'mode' as a string"),
], ids=["list", "dim-string", "args-int", "deep-neg", "negative-pow", "pow-over-cap",
        "exp-2", "op-list", "var-index-list", "mode-enumerable", "mode-int"])
def test_malformed_presentation_is_a_usage_error(text, message, tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(text)
    assert main(["wp", str(path), "--word", "x(0) . x(1)^-1", "--fuel", "50"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_hostile_presentation_value_is_a_bounded_usage_error(tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(_relator_text(json.dumps({"op": "x" * 200_000, "args": []})))
    assert main(["wp", str(path), "--word", "x(0) . x(1)^-1", "--fuel", "50"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unknown polynomial op 'xxx" in captured.err
    assert len(captured.err) < 1000


@pytest.mark.parametrize("data, message", [
    ([1], "certificate entry 0 needs"),
    ([{"conjugator": "1", "relator": "1", "schema": "0", "params": []}],
     "certificate entry 0 needs"),
    ({"entries": []}, "a certificate is a JSON list"),
    ("[" * 100_000, "JSON nested too deeply"),
    # at the nesting limit the lists are read and their shape rejected
    ("[" * MAX_JSON_DEPTH + "]" * MAX_JSON_DEPTH, "certificate entry 0 needs"),
    ("[" * (MAX_JSON_DEPTH + 1) + "]" * (MAX_JSON_DEPTH + 1), "JSON nested too deeply"),
], ids=["int-entry", "schema-string", "object", "deep", "at-depth-limit",
        "past-depth-limit"])
def test_malformed_certificate_is_a_usage_error(data, message, tmp_path, capsys):
    cert = tmp_path / "c.json"
    cert.write_text(data if isinstance(data, str) else json.dumps(data))
    assert main(["verify", "torus", "--word", "x(1/3)", "--cert", str(cert)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_word_beyond_presentation_dimension_is_a_usage_error(capsys):
    assert main(["wp", "circle", "--word", "x(0,0,0)", "--fuel", "50"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "index arity 3 exceeds presentation dimension 2" in captured.err


def test_word_exponent_above_cap_is_a_usage_error(capsys):
    from realword.words import MAX_EXPONENT
    assert main(["wp", "torus", "--word", f"x(1/3)^{MAX_EXPONENT + 1}",
                 "--fuel", "50"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "exceeds" in captured.err


def test_register_above_cap_is_a_usage_error(tmp_path, capsys):
    prog = tmp_path / "big.bss"
    prog.write_text(f"1: set r{MAX_REGISTER + 1} 1\n2: halt\n")
    assert main(["run", str(prog), "--input", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"1: set r{MAX_REGISTER + 1} 1" in captured.err
