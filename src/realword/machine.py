"""Register machines over exact rationals.

A program is a contiguously labeled list of instructions (the last one is
the halt instruction).  A configuration is (n, i, j, regs): current label,
the two copy-registers used for indirect addressing, and a sparse register
file defaulting to 0.  Execution starts from (1, 1, 1, input), with the
input vector loaded into registers 1..d; register 0 is the branch test cell
("brgeq" jumps when it is >= 0).

Instruction semantics follow the standard real-RAM small step and are
written once, in `execute` (one instruction on a mutable register file)
and `advance` (the next label and copy-registers for a branch outcome):

    set r<t> <c>      assign the rational constant c to register t
    add r<t> r<a> r<b>   (likewise sub / mul / div)
    copy              copy register #j into register #i (copy-registers)
    brgeq <l>         if r0 >= 0 jump to l, else fall through
    halt

Computation and copy instructions may additionally increment or reset the
copy-registers; the assembly accepts optional `i+ i0 j+ j0` suffix tokens
for that (plain programs never need them).  `step`, `run` and
`slp.run_path` drive `execute`; forced path enumeration in `slp` drives
`advance`.

Register values are exact, so a loop of multiplications can double their
size every pass: a `mul` or `div` whose result has more than MAX_BITS bits
in its numerator or denominator ends the run with status `over_bit_cap`
(in the BSS model an operation costs one step whatever its operands, so
the fuel alone does not bound the host's work).  `add` and `sub` grow a
value by at most one bit per step, so the fuel bounds them.

Division by zero is not an error value: the machine is considered to
diverge on that input, and `mult_guard_transform` rewrites programs so that
every multiplication is preceded by explicit zero tests (assigning 0
directly when a factor is 0) and every division diverges explicitly on a
zero divisor.  Straight-line paths of transformed programs therefore never
invert or multiply by an unguarded zero.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .rationals import DivisionByZero, RatVec, format_rat, parse_rat, quote, rat_op

_CTL = ("=", "+", "0")
_ZERO = Fraction(0)

# largest numerator or denominator, in bits, that a `mul` or `div` may
# write; the tests, the acceptance checks and the benchmark inputs reach
# 12 bits in a `mul` or `div` result and 27 in any register
MAX_BITS = 100_000


class BitCapExceeded(ArithmeticError):
    """A `mul` or `div` result has more than MAX_BITS bits."""


class Instruction(NamedTuple):
    """One program line: an immutable record, cheap to build."""

    label: int
    kind: str  # compute | assign | branch | copy | halt
    op: str = ""  # add | sub | mul | div for compute
    target: int = 0
    a: int = 0
    b: int = 0
    const: Fraction = _ZERO
    jump: int = 0
    ictl: str = "="
    jctl: str = "="


@dataclass(frozen=True)
class BssProgram:
    instructions: tuple[Instruction, ...]

    def __post_init__(self):
        ins = self.instructions
        if not ins:
            raise ValueError("empty program")
        for k, i in enumerate(ins):
            if i.label != k + 1:
                raise ValueError(f"labels must be 1..N in order, got {i.label} at {k + 1}")
            if i.kind == "branch" and not (1 <= i.jump <= len(ins)):
                raise ValueError(f"branch target {i.jump} out of range")
            if i.ictl not in _CTL or i.jctl not in _CTL:
                raise ValueError("bad copy-register control")
        if ins[-1].kind != "halt":
            raise ValueError("last instruction must be halt")

    @property
    def size(self) -> int:
        return len(self.instructions)

    @property
    def constants(self) -> frozenset[Fraction]:
        return frozenset(i.const for i in self.instructions if i.kind == "assign")


@dataclass(frozen=True)
class Configuration:
    n: int
    i: int
    j: int
    regs: tuple[tuple[int, Fraction], ...]  # sparse, sorted, zero-free

    def reg(self, r: int) -> Fraction:
        for k, v in self.regs:
            if k == r:
                return v
        return Fraction(0)


def _pack(regs: dict[int, Fraction]) -> tuple[tuple[int, Fraction], ...]:
    return tuple(sorted((k, v) for k, v in regs.items() if v))


def initial_configuration(input_vec: Sequence[Fraction]) -> Configuration:
    return Configuration(1, 1, 1, _pack({k + 1: Fraction(v) for k, v in enumerate(input_vec)}))


class Halted:
    """Singleton marker returned by step when the halt label is reached."""

    def __repr__(self):
        return "HALTED"


HALTED = Halted()


def advance(ins: Instruction, n: int, i: int, j: int,
            taken: Optional[bool]) -> tuple[int, int, int]:
    """The next (label, i, j) after `ins` at label n, given the branch outcome."""
    if ins.kind == "branch":
        return (ins.jump if taken else n + 1), i, j
    ictl, jctl = ins.ictl, ins.jctl
    if ictl != "=":
        i = i + 1 if ictl == "+" else 0
    if jctl != "=":
        j = j + 1 if jctl == "+" else 0
    return n + 1, i, j


def execute(ins: Instruction, regs: dict[int, Fraction], n: int, i: int, j: int):
    """Apply `ins` (not halt) to `regs` in place; returns ((n, i, j), taken).

    `taken` is the branch outcome (None off branches).  A zero divisor
    raises DivisionByZero, and a `mul` or `div` result over MAX_BITS bits
    BitCapExceeded; both leave `regs` untouched.
    """
    kind = ins.kind
    taken = None
    if kind == "compute":
        op = ins.op
        v = rat_op(op, regs.get(ins.a, _ZERO), regs.get(ins.b, _ZERO))
        if (op == "mul" or op == "div") and (v.numerator.bit_length() > MAX_BITS
                                             or v.denominator.bit_length() > MAX_BITS):
            raise BitCapExceeded(f"{op} result over {MAX_BITS} bits")
        regs[ins.target] = v
    elif kind == "assign":
        regs[ins.target] = ins.const
    elif kind == "copy":
        regs[i] = regs.get(j, _ZERO)
    elif kind == "branch":
        # r0 >= 0; denominators are positive, so the numerator's sign decides
        # without Fraction's generic comparison
        taken = regs.get(0, _ZERO).numerator >= 0
    else:
        raise ValueError(f"cannot execute instruction kind {kind!r}")
    return advance(ins, n, i, j, taken), taken


def step(program: BssProgram, config: Configuration):
    """One small step; returns the next Configuration or HALTED.

    Raises DivisionByZero for a zero divisor (run() folds that into
    divergence) and BitCapExceeded for a `mul` or `div` result over
    MAX_BITS bits.
    """
    ins = program.instructions[config.n - 1]
    if ins.kind == "halt":
        return HALTED
    regs = dict(config.regs)
    (n, i, j), _ = execute(ins, regs, config.n, config.i, config.j)
    return Configuration(n, i, j, _pack(regs))


@dataclass(frozen=True)
class RunResult:
    status: str  # halted | out_of_fuel | division_by_zero | over_bit_cap
    steps: int
    output: Optional[RatVec] = None
    final: Optional[Configuration] = None

    @property
    def halted(self) -> bool:
        return self.status == "halted"

    @property
    def trimmed_output(self) -> Optional[RatVec]:
        if self.output is None:
            return None
        out = list(self.output)
        while out and out[-1] == 0:
            out.pop()
        return tuple(out)


def run(program: BssProgram, input_vec: Sequence[Fraction], fuel: int) -> RunResult:
    """Execute at most `fuel` steps from the initial configuration.

    A run that repeats a configuration skips its remaining whole periods, so
    a loop that never halts costs a few of its periods, not the whole fuel.
    The skip is exact.  The machine is deterministic, so from a repeated
    configuration it cycles through the same configurations forever, and
    none of them halts, divides by zero or crosses the bit cap: the run
    would have stopped there the first time round.  Whole periods later it
    is back where it was, so the result (status `out_of_fuel`,
    `steps == fuel`, `final`) is the one the step-by-step run reaches.
    """
    # the inputs and every written register, so a halting run outputs 1..max(regs)
    regs = {k + 1: v if type(v) is Fraction else Fraction(v)
            for k, v in enumerate(input_vec)}
    n = i = j = 1
    status, output, count = "out_of_fuel", None, min(fuel, 0)  # fuel < 0 runs no step
    jumps, mark, seen = 0, 1, None  # taken backward branches; snapshot schedule
    instructions = program.instructions
    while fuel >= 0:
        ins = instructions[n - 1]
        if ins.kind == "halt":
            status = "halted"
            output = tuple(regs.get(r, _ZERO) for r in range(1, max(regs, default=0) + 1))
            break
        if count == fuel:
            break
        try:
            (m, i, j), _ = execute(ins, regs, n, i, j)
        except DivisionByZero:
            status = "division_by_zero"
            break
        except BitCapExceeded:
            status = "over_bit_cap"
            break
        count += 1
        if m <= n:
            # A taken branch back: every cycle of labels passes through one,
            # and the configurations right after them form a deterministic
            # sequence of their own, so Brent's cycle detection applies to
            # it.  `seen` is the configuration after the 1st, 2nd, 4th, 8th,
            # ... such branch.  A later one equal to it is a real repeat, and
            # the steps in between a whole number of periods: the raw dicts
            # are compared, where an explicit 0 differs from a missing
            # register, which at worst notices a repeat one period late.
            jumps += 1
            if seen is not None and seen[1] == m and seen[2] == i and seen[3] == j \
                    and seen[4] == regs:
                period = count - seen[0]
                count += (fuel - count) // period * period
            if jumps == mark:
                seen = (count, m, i, j, dict(regs))
                mark *= 2
        n = m
    return RunResult(status, count, output, Configuration(n, i, j, _pack(regs)))


# -- assembly text format ------------------------------------------------------

# largest register index the assembly format accepts; a program names its
# registers literally, so this also bounds the output vector of a run
MAX_REGISTER = 10_000
# no more digits than MAX_REGISTER has, so int() never reads a huge index
_REGISTER_TOKEN = re.compile(rf"r0*([0-9]{{1,{len(str(MAX_REGISTER))}}})")

_OPERANDS = {"halt": 0, "set": 2, "add": 3, "sub": 3, "mul": 3, "div": 3,
             "brgeq": 1, "copy": 0}


def _number(parse, tok: str, what: str, raw: str):
    try:
        return parse(tok)
    except ValueError:
        raise ValueError(f"bad {what} {quote(tok)} in {quote(raw)}") from None


def _register(tok: str, raw: str) -> int:
    m = _REGISTER_TOKEN.fullmatch(tok)
    if m is not None:
        r = int(m[1])
        if r <= MAX_REGISTER:
            return r
    raise ValueError(f"expected a register r0..r{MAX_REGISTER}, "
                     f"got {quote(tok)} in {quote(raw)}")


def parse_program(text: str) -> BssProgram:
    """Parse the one-instruction-per-line assembly format ('#' comments)."""
    out: list[Instruction] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(":")
        label = _number(int, head.strip(), "label", raw)
        toks = rest.split()
        ictl = jctl = "="
        while toks and toks[-1] in ("i+", "i0", "j+", "j0"):
            t = toks.pop()
            if t[0] == "i":
                ictl = "+" if t[1] == "+" else "0"
            else:
                jctl = "+" if t[1] == "+" else "0"
        if not toks:
            raise ValueError(f"missing instruction in {quote(raw)}")
        name = toks[0]
        operands = _OPERANDS.get(name)
        if operands is None:
            raise ValueError(f"unknown instruction {quote(name)}")
        if len(toks) - 1 != operands:
            raise ValueError(f"{name} takes {operands} operands in {quote(raw)}")
        if name in ("halt", "brgeq") and (ictl, jctl) != ("=", "="):
            raise ValueError(f"{name} takes no i+ i0 j+ j0 suffix in {quote(raw)}")

        if name == "halt":
            out.append(Instruction(label, "halt"))
        elif name == "set":
            out.append(Instruction(label, "assign", target=_register(toks[1], raw),
                                   const=_number(parse_rat, toks[2], "constant", raw),
                                   ictl=ictl, jctl=jctl))
        elif name == "brgeq":
            out.append(Instruction(label, "branch",
                                   jump=_number(int, toks[1], "branch target", raw)))
        elif name == "copy":
            out.append(Instruction(label, "copy", ictl=ictl, jctl=jctl))
        else:  # add | sub | mul | div
            out.append(Instruction(label, "compute", name, _register(toks[1], raw),
                                   _register(toks[2], raw), _register(toks[3], raw),
                                   ictl=ictl, jctl=jctl))
    return BssProgram(tuple(out))


def format_program(program: BssProgram) -> str:
    lines = []
    for ins in program.instructions:
        ctl = ""
        if ins.kind in ("compute", "assign", "copy"):
            if ins.ictl != "=":
                ctl += f" i{ins.ictl}"
            if ins.jctl != "=":
                ctl += f" j{ins.jctl}"
        if ins.kind == "halt":
            body = "halt"
        elif ins.kind == "assign":
            body = f"set r{ins.target} {format_rat(ins.const)}"
        elif ins.kind == "compute":
            body = f"{ins.op} r{ins.target} r{ins.a} r{ins.b}"
        elif ins.kind == "branch":
            body = f"brgeq {ins.jump}"
        elif ins.kind == "copy":
            body = "copy"
        else:
            raise ValueError(ins.kind)
        lines.append(f"{ins.label}: {body}{ctl}")
    return "\n".join(lines) + "\n"


# -- zero-guarding transform ---------------------------------------------------

def _test_zero(src: int, z: int, tag: str, when_zero: str, when_nonzero: str) -> list[tuple]:
    # branch to `when_zero` when register src is 0, else to `when_nonzero`
    return [
        ("add", 0, src, z, "=", "="),
        ("br", f"nonneg_{tag}"),
        ("set", 0, _ZERO, "=", "="),
        ("br", when_nonzero),
        ("label", f"nonneg_{tag}"),
        ("sub", 0, z, src, "=", "="),
        ("br", when_zero),
        ("set", 0, _ZERO, "=", "="),
        ("br", when_nonzero),
    ]


def mult_guard_transform(program: BssProgram) -> BssProgram:
    """Equivalent program whose multiplications never see a zero operand.

    Every `mul` is preceded by zero tests on both operands (taking the
    direct-assignment branch when one is zero) and every `div` by a zero
    test on the divisor that spins forever when it is zero.  Register 0 is
    saved and restored around the inserted tests through a scratch register,
    which is scrubbed afterwards.  The scratch registers sit below r0: r-1
    holds the saved r0 and r-3, never written, always reads 0 (not r-2,
    which CPython hashes as it does -1, so the two would share a slot in a
    run's register dict).  Inputs load r1..rd, the copy registers start at
    1 and only step up by one or reset to 0, and the assembly format names
    only registers 0..MAX_REGISTER, so no input, no `copy` and no program
    text reaches them, whatever the input dimension.  Every register from
    r1 up is written exactly when the original program writes it, so
    outputs agree with the original's.

    An instruction whose label and jump target do not move is kept as it
    is, so a program with no `mul` or `div` comes back with its own
    instructions.
    """
    s1, z = -1, -3

    blocks: list[list[tuple]] = []  # proto-instructions; jumps symbolic
    for ins in program.instructions:
        if ins.kind == "compute" and ins.op in ("mul", "div"):
            a = s1 if ins.a == 0 else ins.a
            b = s1 if ins.b == 0 else ins.b
            blk: list[tuple] = [("add", s1, 0, z, "=", "=")]  # save r0
            if ins.op == "mul":
                for src, tag, then in ((a, "a", "test_b"), (b, "b", "do_op")):
                    blk += _test_zero(src, z, tag, f"zero_{tag}", then)
                    blk += [("label", f"zero_{tag}"),
                            ("set", ins.target, _ZERO, ins.ictl, ins.jctl),
                            ("set", 0, _ZERO, "=", "="),
                            ("br", "finish"),
                            ("label", then)]
                blk += [("mul", ins.target, a, b, ins.ictl, ins.jctl),
                        ("label", "finish")]
            else:  # div: diverge on zero divisor
                blk += _test_zero(b, z, "b", "spin", "do_op")
                blk += [("label", "spin"),
                        ("set", 0, _ZERO, "=", "="),
                        ("br", "spin"),
                        ("label", "do_op"),
                        ("div", ins.target, a, b, ins.ictl, ins.jctl),
                        ("label", "finish")]
            if ins.target != 0:
                blk.append(("add", 0, s1, z, "=", "="))  # restore r0
            blk.append(("set", s1, _ZERO, "=", "="))  # scrub scratch
            blocks.append(blk)
        else:
            blocks.append([("orig", ins)])

    # assign labels: first pass computes block start labels and local labels
    starts: list[int] = []
    local_labels: list[dict[str, int]] = []
    pos = 1
    for blk in blocks:
        starts.append(pos)
        local: dict[str, int] = {}
        for proto in blk:
            if proto[0] == "label":
                local[proto[1]] = pos
            else:
                pos += 1
        local_labels.append(local)

    out: list[Instruction] = []
    label = 1
    for blk, local in zip(blocks, local_labels):
        for proto in blk:
            kind = proto[0]
            if kind == "label":
                continue
            if kind == "orig":
                ins = proto[1]
                jump = starts[ins.jump - 1] if ins.kind == "branch" else 0
                if ins.label != label or ins.jump != jump:
                    ins = ins._replace(label=label, jump=jump)
                out.append(ins)
            elif kind == "br":  # every block defines the labels it jumps to
                out.append(Instruction(label, "branch", jump=local[proto[1]]))
            elif kind == "set":
                out.append(Instruction(label, "assign", target=proto[1],
                                       const=proto[2], ictl=proto[3], jctl=proto[4]))
            else:  # add | sub | mul | div
                out.append(Instruction(label, "compute", kind, proto[1], proto[2], proto[3],
                                       ictl=proto[4], jctl=proto[5]))
            label += 1
    return BssProgram(tuple(out))
