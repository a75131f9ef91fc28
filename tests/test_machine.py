import json
import random
import re
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

from realword import machine
from realword.machine import (HALTED, MAX_BITS, MAX_REGISTER, Configuration,
                              format_program, execute, initial_configuration,
                              mult_guard_transform, parse_program, run, step)
from realword.programs import (ALL_PROGRAMS, SQUARE_SRC, double_program, poly3_program,
                               recip_program, sign_program, square_program)
from realword.rationals import QUOTE_LIMIT, DivisionByZero

GOLDEN = Path(__file__).parent / "golden"


def test_parse_and_validate():
    prog = sign_program()
    assert prog.size == 6
    assert prog.constants == {F(-1), F(0)}
    with pytest.raises(ValueError):
        parse_program("1: halt\n3: halt\n")  # labels must be contiguous
    with pytest.raises(ValueError):
        parse_program("1: brgeq 9\n2: halt\n")  # target out of range
    with pytest.raises(ValueError):
        parse_program("1: set r1 2\n")  # must end in halt


def test_format_roundtrip():
    for mk in ALL_PROGRAMS.values():
        prog = mk()
        assert parse_program(format_program(prog)) == prog
    # the guard's scratch registers lie below r0, where no program text
    # can name them
    gt = mult_guard_transform(square_program())
    with pytest.raises(ValueError, match="r-1"):
        parse_program(format_program(gt))


def test_step_halt_and_branch():
    prog = sign_program()
    cfg = initial_configuration((F(2),))
    assert cfg.n == 1 and cfg.i == 1 and cfg.j == 1
    assert step(prog, Configuration(6, 1, 1, ())) is HALTED
    # branch tests register 0 and jumps on >= 0, including 0 itself
    br = parse_program("1: brgeq 3\n2: halt\n3: halt\n")
    nxt = step(br, initial_configuration(()))
    assert nxt.n == 3


def test_division_by_zero_is_divergence():
    prog = parse_program("1: div r2 r1 r3\n2: halt\n")
    res = run(prog, (F(5),), 10)
    assert res.status == "division_by_zero"
    assert not res.halted


def test_sign_runs():
    prog = sign_program()
    res = run(prog, (F(2),), 4)
    assert res.halted and res.steps <= 4
    assert res.trimmed_output == (F(2), F(-1))
    assert run(prog, (F(0),), 5000).status == "out_of_fuel"
    assert run(prog, (F(0),), 50).status == "out_of_fuel"
    assert run(prog, (F(1),), 100).halted


def test_fuel_zero():
    assert run(sign_program(), (F(2),), 0).status == "out_of_fuel"
    halt_now = parse_program("1: halt\n")
    assert run(halt_now, (), 0).halted  # halt detection consumes no fuel


def test_run_monotone_in_fuel():
    prog = poly3_program()
    for x in (F(2), F(-3), F(1)):
        base = run(prog, (x,), 20)
        assert base.halted
        more = run(prog, (x,), 500)
        assert more.status == base.status
        assert more.steps == base.steps
        assert more.output == base.output


def test_copy_instruction():
    # copy moves regs[j] into regs[i]; ctl suffixes advance the copy-registers
    prog = parse_program("""
1: set r1 7
2: copy i+ j0
3: halt
""")
    res = run(prog, (), 10)
    assert res.halted
    cfg = res.final
    assert cfg.reg(1) == 7  # copy wrote regs[1] <- regs[1]
    assert cfg.i == 2 and cfg.j == 0


def test_guard_transform_identity_on_plain_programs():
    prog = sign_program()
    assert mult_guard_transform(prog) == prog


# square's body behind four `copy i+` and a `copy`, which copy r1 into
# r1..r5: copy registers reach any register at or above 1
COPY_SQUARE_SRC = """\
1: copy i+
2: copy i+
3: copy i+
4: copy i+
5: copy
6: mul r2 r1 r1
7: set r3 -4
8: add r0 r2 r3
9: brgeq 12
10: set r0 0
11: brgeq 10
12: halt
"""


def copy_square_program():
    return parse_program(COPY_SQUARE_SRC)


def test_guard_transform_differential():
    rng = random.Random(13)
    for mk in (square_program, recip_program, double_program, copy_square_program):
        prog = mk()
        gt = mult_guard_transform(prog)
        for _ in range(100):
            x = F(rng.randint(-9, 9), rng.randint(1, 5))
            a = run(prog, (x,), 500)
            b = run(gt, (x,), 5000)
            assert a.halted == b.halted
            if a.halted:
                assert a.output == b.output
    # an input may load any register from r1 up, and `copy` may write any
    # register from r1 up: neither reaches the guard's scratch registers
    for mk in (square_program, recip_program, copy_square_program):
        prog = mk()
        gt = mult_guard_transform(prog)
        for d in range(1, 7):
            for _ in range(30):
                x = (F(rng.randint(-9, 9), rng.randint(1, 5)),) + tuple(
                    F(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 5))
                    for _ in range(d - 1))
                a = run(prog, x, 500)
                b = run(gt, x, 5000)
                assert a.halted == b.halted, (mk.__name__, x)
                if a.halted:
                    assert a.output == b.output


# a product into r0, a product that reads r0 and a division, each with
# copy-register suffixes, and a branch over a guarded block
SYNTHETIC_SRC = """\
1: set r1 3
2: brgeq 4
3: mul r0 r1 r2 i+
4: mul r3 r0 r1 j0
5: div r4 r3 r1 i+ j0
6: add r0 r4 r1
7: brgeq 9
8: copy i0
9: halt
"""


def test_guard_transform_golden():
    golden = json.loads((GOLDEN / "guarded_programs.json").read_text())
    progs = {name: mk() for name, mk in ALL_PROGRAMS.items()}
    progs["synthetic"] = parse_program(SYNTHETIC_SRC)
    assert sorted(golden) == sorted(progs)
    for name, prog in progs.items():
        assert format_program(mult_guard_transform(prog)).splitlines() == golden[name], name


@pytest.mark.parametrize("name", ["sign", "poly3", "halt", "double"])
def test_guard_transform_keeps_unmoved_instructions(name):
    prog = ALL_PROGRAMS[name]()
    gt = mult_guard_transform(prog)
    assert len(gt.instructions) == len(prog.instructions)
    for k, ins in enumerate(prog.instructions):
        assert gt.instructions[k] is ins


def test_instruction_record_contract():
    ins = square_program().instructions[0]
    assert repr(ins) == ("Instruction(label=1, kind='compute', op='mul', target=2, a=1, b=1, "
                         "const=Fraction(0, 1), jump=0, ictl='=', jctl='=')")
    assert repr(parse_program("1: set r2 -3/2 i+ j0\n2: halt\n").instructions[0]) == (
        "Instruction(label=1, kind='assign', op='', target=2, a=0, b=0, "
        "const=Fraction(-3, 2), jump=0, ictl='+', jctl='0')")
    assert repr(mult_guard_transform(recip_program()).instructions[5]) == (
        "Instruction(label=6, kind='branch', op='', target=0, a=0, b=0, "
        "const=Fraction(0, 1), jump=13, ictl='=', jctl='=')")
    for field in ("label", "kind", "const", "jump"):
        with pytest.raises(AttributeError):
            setattr(ins, field, 2)
    assert ins.label == 1 and ins.jump == 0
    for src in [SQUARE_SRC, SYNTHETIC_SRC]:
        a, b = parse_program(src), parse_program(src)
        assert a == b and hash(a) == hash(b)
        for x, y in zip(a.instructions, b.instructions, strict=True):
            assert x is not y and x == y and hash(x) == hash(y)


def test_guard_transform_no_zero_mul():
    gt = mult_guard_transform(square_program())
    rng = random.Random(14)
    inputs = [F(0), F(2), F(-3)] + [F(rng.randint(-9, 9), rng.randint(1, 5))
                                    for _ in range(97)]
    for x in inputs:  # halting or not: square does not halt on 0
        cfg = initial_configuration((x,))
        for _ in range(3000):
            ins = gt.instructions[cfg.n - 1]
            if ins.kind == "compute" and ins.op == "mul":
                assert cfg.reg(ins.a) != 0 and cfg.reg(ins.b) != 0
            cfg = step(gt, cfg)
            if cfg is HALTED:
                break


def test_guard_transform_div_diverges_on_zero():
    gt = mult_guard_transform(recip_program())
    res = run(gt, (F(0),), 5000)
    assert res.status == "out_of_fuel"  # spins instead of faulting


def test_determinism():
    prog = poly3_program()
    a = run(prog, (F(3, 2),), 1000)
    b = run(prog, (F(3, 2),), 1000)
    assert a == b


def test_step_division_by_zero_raises():
    prog = parse_program("1: div r2 r1 r3\n2: halt\n")
    with pytest.raises(DivisionByZero):
        step(prog, initial_configuration((F(5),)))


@pytest.mark.parametrize("text", [
    "1: set\n2: halt\n",
    "1: set r1\n2: halt\n",
    "1: add r1 r2\n2: halt\n",
    "1: brgeq\n2: halt\n",
    "1: i+ j0\n2: halt\n",
    # extra operands and copy-register suffixes where none belong
    "1: set r1 2 junk\n2: halt\n",
    "1: halt 5 6\n",
    "1: brgeq 2 i+\n2: halt\n",
    # a constant, label or branch target that is not a number
    "1: set r1 1.5\n2: halt\n",
    "x: halt\n",
    "1: brgeq x\n2: halt\n",
])
def test_parse_truncated_line(text):
    line = text.splitlines()[0]
    with pytest.raises(ValueError, match=re.escape(line)):
        parse_program(text)


def test_register_index_bounds():
    prog = parse_program(f"1: set r{MAX_REGISTER} 1\n2: add r0 r0 r0\n3: halt\n")
    assert prog.instructions[0].target == MAX_REGISTER
    for line in (f"1: set r{MAX_REGISTER + 1} 1", "1: set r-1 1",
                 "1: add r1 r-3 r2", "1: set r 1"):
        with pytest.raises(ValueError, match=re.escape(line)):
            parse_program(line + "\n2: halt\n")


@pytest.mark.parametrize("line", [
    "1: set r1 " + "9" * 200_000,            # bad constant
    "1: set r1 2 " + "x " * 100_000,         # extra operands
    "1: " + "jump" * 50_000,                 # unknown instruction
    "1: set r" + "1" * 200_000 + " 2",       # bad register
])
def test_parse_program_error_quotes_an_excerpt(line):
    with pytest.raises(ValueError) as err:
        parse_program(line + "\n2: halt\n")
    assert len(str(err.value)) < 4 * QUOTE_LIMIT
    assert "characters)" in str(err.value)


def test_parse_program_error_quotes_short_lines_whole():
    with pytest.raises(ValueError) as err:
        parse_program("1: set r1 1.5\n2: halt\n")
    assert str(err.value) == "bad constant '1.5' in '1: set r1 1.5'"


def _run_by_steps(prog, x, fuel):
    """Reference for run: iterate step, bookkeeping the written registers."""
    cfg = initial_configuration(x)
    max_written = len(x)
    for count in range(fuel + 1):
        ins = prog.instructions[cfg.n - 1]
        if ins.kind == "halt":
            out = tuple(cfg.reg(r) for r in range(1, max_written + 1))
            return "halted", count, out, cfg
        if count == fuel:
            break
        try:
            nxt = step(prog, cfg)
        except DivisionByZero:
            return "division_by_zero", count, None, cfg
        if ins.kind in ("compute", "assign"):
            max_written = max(max_written, ins.target)
        elif ins.kind == "copy":
            max_written = max(max_written, cfg.i)
        cfg = nxt
    return "out_of_fuel", fuel, None, cfg


def test_run_equals_iterated_step():
    progs = []
    for mk in ALL_PROGRAMS.values():
        progs += [mk(), mult_guard_transform(mk())]
    progs.append(parse_program("1: div r2 r1 r3\n2: halt\n"))
    progs.append(parse_program("1: set r1 7\n2: copy i+ j0\n3: copy\n4: halt\n"))
    for prog in progs:
        for x in (F(-2), F(-1, 2), F(0), F(1), F(5, 2)):
            exact = run(prog, (x,), 100).steps
            for fuel in sorted({-1, 0, 1, 7, max(exact - 1, 0), exact, exact + 5}):
                want = _run_by_steps(prog, (x,), fuel)
                res = run(prog, (x,), fuel)
                got = (res.status, res.steps, res.output, res.final)
                assert got == want, (format_program(prog), x, fuel)


def test_run_skips_repeated_configurations(monkeypatch):
    loops = [  # (program, input, prefix + period): runs that never halt
        # period 1
        (parse_program("1: set r0 0\n2: brgeq 2\n3: halt\n"), (), 2),
        # period 2 after a prefix of 4
        (sign_program(), (F(0),), 6),
        # period 4 that resets copy-register i
        (parse_program("1: set r0 0 i0\n2: copy i+\n3: copy i+\n4: brgeq 1\n5: halt\n"),
         (F(1),), 5),
        # the guard transform's spin on a zero divisor
        (mult_guard_transform(recip_program()), (F(0),), 8),
        # never repeat: a counter, and copy-registers that keep growing
        # while the registers stay 0 (so the packed reference stays small)
        (parse_program("1: set r2 1\n2: add r1 r1 r2\n3: set r0 0\n4: brgeq 2\n5: halt\n"),
         (F(0),), 4),
        (parse_program("1: copy i+\n2: brgeq 1\n3: halt\n"), (), 2),
        (parse_program("1: copy i0 j+\n2: brgeq 1\n3: halt\n"), (), 2),
    ]
    for prog, x, length in loops:
        for fuel in [*range(3 * length + 3), 10_000]:
            res = run(prog, x, fuel)
            got = (res.status, res.steps, res.output, res.final)
            assert got == _run_by_steps(prog, x, fuel), (format_program(prog), x, fuel)

    calls = [0]

    def counted(*args):
        calls[0] += 1
        return execute(*args)

    monkeypatch.setattr(machine, "execute", counted)
    for prog, x, _ in loops[:2]:
        calls[0] = 0
        res = run(prog, x, 10**6)
        assert (res.status, res.steps) == ("out_of_fuel", 10**6)
        assert calls[0] < 100


def test_bit_cap_ends_a_squaring_loop():
    prog = parse_program("1: mul r1 r1 r1\n2: brgeq 1\n3: halt\n")
    # r1 is 3^(2^k) after k passes: 51,937 bits at k = 15, 103,872 at k = 16
    res = run(prog, (F(3),), 30)
    assert (res.status, res.steps) == ("out_of_fuel", 30)
    assert res.final.reg(1) == 3 ** 2 ** 15
    for fuel in (31, 1000):
        t0 = time.perf_counter()
        res = run(prog, (F(3),), fuel)
        assert time.perf_counter() - t0 < 1
        # the crossing step is not counted and writes nothing, as a zero divisor
        assert (res.status, res.steps, res.output) == ("over_bit_cap", 30, None)
        assert res.final.n == 1 and res.final.reg(1) == 3 ** 2 ** 15


def test_bit_cap_boundary():
    mul = parse_program("1: mul r1 r1 r2\n2: halt\n")
    div = parse_program("1: div r1 r1 r2\n2: halt\n")
    big = F(2) ** (MAX_BITS - 2)  # MAX_BITS - 1 bits
    # r1 op r2 has exactly MAX_BITS bits, in the numerator for the first two
    # rows and in the denominator for the last two
    for prog, x, y in ((mul, big, F(2)), (div, big, F(1, 2)),
                       (div, 1 / big, F(2)), (mul, -1 / big, F(1, 2))):
        res = run(prog, (x, y), 5)
        out = res.output[0]
        assert res.status == "halted"
        assert max(out.numerator.bit_length(), out.denominator.bit_length()) == MAX_BITS
        over = x * 2 if abs(x) > 1 else x / 2  # one bit more
        res = run(prog, (over, y), 5)
        assert (res.status, res.steps, res.final.reg(1)) == ("over_bit_cap", 0, over)
    # add and sub grow one bit per step, so the fuel bounds them unchecked
    add = parse_program("1: add r1 r1 r1\n2: halt\n")
    assert run(add, (2 * big,), 5).output == (4 * big,)
