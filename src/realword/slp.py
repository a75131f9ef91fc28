"""Straight-line execution paths of register machine runs.

A path is a branch-resolved, single-assignment program: registers 1..d hold
the input, every later register d < i <= D is assigned exactly once by an
operation over earlier registers only, and guards pin down the branch
outcomes taken along the way.  The operation alphabet is deliberately small
(assign / copy / add / neg / mul / inv / geq / lt): machine subtraction and
division are split into neg+add and inv+mul as a path is built.

The input set of a path (the inputs that follow exactly its branch
outcomes) is decided by replaying the operations and checking every guard;
the replay also produces the unique single-assignment extension
(r_1,...,r_D) of a member input.

`run_path` (the path of one concrete run) and forced runs share
`_Builder.emit`, the one symbolic (single-assignment) semantics; concrete
runs take control flow from `machine.execute`, forced runs from
`machine.advance`.

Paths are enumerated without input values by running the machine "forced":
branch outcomes come from an explicit decision string instead of register
contents.  The stream is frozen as follows: paths are grouped by budget
B = d + F where F is the exact halting step count of the forced run, a
budget block lists d = 0..B in order, and within fixed (d, F) paths are
ordered by their branch-decision strings (shorter strings first, and the
>= 0 outcome sorting before the < 0 outcome position-wise).  Index n maps
to (block, offset) through the Cantor pairing; offsets past the end of a
block yield None and callers skip them.

No level is ever listed to find one of its paths.  `PathEnumerator`
counts forced runs by forced state: forward, to price a walk of a level
for fueled membership and to map an index to its level, and backward, to
unrank the path at an offset in its level.  `rank` places one path within
its level by a count of prefixes.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .machine import BitCapExceeded, BssProgram, advance, execute
from .rationals import DivisionByZero, unpair

PathOp = tuple  # ('assign', i, c) ('copy', i, j) ('add', i, j, k) ('neg', i, j)
#                 ('mul', i, j, k) ('inv', i, j) ('geq', j) ('lt', j)

_VALUE_OPS = ("assign", "copy", "add", "neg", "mul", "inv")


@dataclass(frozen=True)
class Path:
    d: int
    D: int
    ops: tuple[PathOp, ...]
    guard_string: str = ""  # '1' per >=0 outcome, '0' per <0 outcome

    def __post_init__(self):
        nxt = self.d + 1
        for op in self.ops:
            kind = op[0]
            if kind in _VALUE_OPS:
                if op[1] != nxt:
                    raise ValueError(f"targets must be consecutive, got {op}")
                for src in op[2:] if kind != "assign" else ():
                    if not (1 <= src < op[1]):
                        raise ValueError(f"operand out of range in {op}")
                nxt += 1
            elif kind in ("geq", "lt"):
                if not (1 <= op[1] < nxt):
                    raise ValueError(f"guard references unassigned register in {op}")
            else:
                raise ValueError(f"unknown path op {kind!r}")
        if nxt - 1 != self.D:
            raise ValueError(f"D={self.D} but ops assign up to {nxt - 1}")


def replay(path: Path, input_vec: Sequence[Fraction]) -> Optional[tuple[Fraction, ...]]:
    """Values r_1..r_D when the input follows the path, else None.

    A failed guard (or an inversion of 0, which guarded paths never
    request) means the input does not belong to the path.
    """
    if len(input_vec) != path.d:
        raise ValueError(f"input dimension {len(input_vec)} != path.d {path.d}")
    vals: list[Fraction] = [Fraction(0)] + [Fraction(v) for v in input_vec]
    for op in path.ops:
        kind = op[0]
        if kind == "assign":
            vals.append(op[2])
        elif kind == "copy":
            vals.append(vals[op[2]])
        elif kind == "add":
            vals.append(vals[op[2]] + vals[op[3]])
        elif kind == "neg":
            vals.append(-vals[op[2]])
        elif kind == "mul":
            vals.append(vals[op[2]] * vals[op[3]])
        elif kind == "inv":
            if vals[op[2]] == 0:
                return None
            vals.append(1 / vals[op[2]])
        elif kind == "geq":
            if not vals[op[1]] >= 0:
                return None
        else:  # lt
            if not vals[op[1]] < 0:
                return None
    return tuple(vals[1:])


class _Builder:
    """Shared single-assignment renaming for concrete and forced runs."""

    def __init__(self, d: int):
        self.regmap = {r: r for r in range(1, d + 1)}
        self.next = d + 1
        self.ops: list[PathOp] = []
        self.bits: list[str] = []

    def alloc(self) -> int:
        t = self.next
        self.next += 1
        return t

    def read(self, reg: int) -> int:
        ssa = self.regmap.get(reg)
        if ssa is None:
            ssa = self.alloc()
            self.ops.append(("assign", ssa, Fraction(0)))
            self.regmap[reg] = ssa
        return ssa

    def emit(self, ins, i_reg: int, j_reg: int, taken: Optional[bool]):
        if ins.kind == "assign":
            t = self.alloc()
            self.ops.append(("assign", t, ins.const))
            self.regmap[ins.target] = t
        elif ins.kind == "compute":
            ra = self.read(ins.a)
            rb = self.read(ins.b)
            if ins.op == "add":
                t = self.alloc()
                self.ops.append(("add", t, ra, rb))
            elif ins.op == "sub":
                tn = self.alloc()
                self.ops.append(("neg", tn, rb))
                t = self.alloc()
                self.ops.append(("add", t, ra, tn))
            elif ins.op == "mul":
                t = self.alloc()
                self.ops.append(("mul", t, ra, rb))
            else:  # div
                ti = self.alloc()
                self.ops.append(("inv", ti, rb))
                t = self.alloc()
                self.ops.append(("mul", t, ra, ti))
            self.regmap[ins.target] = t
        elif ins.kind == "copy":
            rj = self.read(j_reg)
            t = self.alloc()
            self.ops.append(("copy", t, rj))
            self.regmap[i_reg] = t
        elif ins.kind == "branch":
            r0 = self.read(0)
            self.ops.append(("geq", r0) if taken else ("lt", r0))
            self.bits.append("1" if taken else "0")
        else:
            raise ValueError(ins.kind)

    def path(self, d: int) -> Path:
        return Path(d, self.next - 1, tuple(self.ops), "".join(self.bits))


def run_path(program: BssProgram, input_vec: Sequence[Fraction],
             fuel: int) -> Optional[Path]:
    """The path of the run on `input_vec` if it halts within `fuel` steps, else None.

    The concrete registers decide each branch as `_Builder.emit` records it.
    """
    d = len(input_vec)
    regs = {k + 1: Fraction(v) for k, v in enumerate(input_vec)}
    b = _Builder(d)
    n = i = j = 1
    for count in range(fuel + 1):
        ins = program.instructions[n - 1]
        if ins.kind == "halt":
            return b.path(d)
        if count == fuel:
            break
        try:
            nxt, taken = execute(ins, regs, n, i, j)
        except (DivisionByZero, BitCapExceeded):
            break
        b.emit(ins, i, j, taken)
        n, i, j = nxt
    return None


# -- forced (value-free) execution and path enumeration ------------------------

class PathEnumerator:
    """Frozen enumeration of forced halting paths of one program.

    Block B lists, for d = 0..B, the forced runs of input dimension d that
    halt in exactly B - d steps (in the frozen per-(d, F) order).  Index n
    unpacks as Cantor (B, k).

    Two counts of forced runs answer everything without listing a level.  A
    forced walk ignores register values, so neither depends on d.

    - The forward count keeps, per depth, the number of forced prefixes at
      each forced state (label, i, j).  At depth t, live(t) prefixes stand at
      an instruction other than halt and `halting(t)` at halt.  `walked(s)`,
      the sum of live(t) over t < s, is exactly the number of forced steps
      the walk of any level (d, s) takes, and `halting(s)` the number of
      paths it finds.  It grows one depth at a time, and only as far as a
      caller asks.  Fueled membership prices its levels from it, and `path`
      reads a block's levels from its running sums, so an empty level costs
      one lookup.
    - The backward count gives, for a forced state with r steps and m
      branch bits left, the number of ways to halt in exactly r steps with
      exactly m more bits.  `unrank` descends it to the k-th path of a level,
      as `rank` ascends a count of prefixes to a path's place.  It is
      memoized per enumerator, and only states a caller's levels reach are
      counted.
    """

    def __init__(self, program: BssProgram):
        self.program = program
        # the forward count so far: halting(t) for every counted depth t and
        # `_halted`, its running sums (paths at depths below t), walked(t) up
        # to one depth further, and the live states of the deepest counted
        # depth with their numbers of prefixes
        self._halting: list[int] = []
        self._halted = [0]
        self._walked = [0]
        self._live: dict[tuple[int, int, int], int] = {}
        self._tally({(1, 1, 1): 1})
        # the backward count: (label, i, j, r, m) -> halting completions
        self._completions: dict[tuple[int, int, int, int, int], int] = {}

    def exact(self, d: int, steps: int) -> list[Path]:
        """Every path of level (d, steps), in the frozen order."""
        return [self.unrank(d, steps, k) for k in range(self.halting(steps))]

    def walked(self, steps: int) -> int:
        """Forced steps of a walk of level `steps`, whatever its d."""
        while len(self._walked) <= steps:
            self._extend()
        return self._walked[steps]

    def halting(self, steps: int) -> int:
        """Paths of level `steps`, whatever its d."""
        while len(self._halting) <= steps:
            self._extend()
        return self._halting[steps]

    def path(self, n: int) -> Optional[Path]:
        """The path at enumeration index n, or None past the end of its block."""
        b, k = unpair(n)
        self.halting(b)
        # block b lists levels b, b - 1, ..., 0 (d = 0, 1, ..., b).  From
        # offset k to its end it holds x paths: the rest of the path's level
        # t and every level below t, so halted[t] < x <= halted[t + 1]
        halted = self._halted
        x = halted[b + 1] - k
        if x <= 0:
            return None
        steps = bisect_left(halted, x) - 1
        return self.unrank(b - steps, steps, halted[steps + 1] - x)

    def unrank(self, d: int, steps: int, k: int) -> Path:
        """The k-th path (from 0) of level (d, steps) in the frozen order.

        Paths with fewer branch bits come first, so the bit count is found
        first; then each branch takes '1' when k falls among the completions
        that take it, and '0' past them.  The program is forced along those
        bits with one builder.
        """
        if not 0 <= k < self.halting(steps):
            raise IndexError(f"level {steps} has no path {k}")
        bits = 0
        while k >= (ahead := self._count(1, 1, 1, steps, bits)):
            k -= ahead
            bits += 1
        instructions = self.program.instructions
        b = _Builder(d)
        n = i = j = 1
        for r in range(steps, 0, -1):
            ins = instructions[n - 1]
            taken = None
            if ins.kind == "branch":
                ones = self._count(*advance(ins, n, i, j, True), r - 1, bits - 1)
                taken = k < ones
                if not taken:
                    k -= ones
                bits -= 1
            b.emit(ins, i, j, taken)
            n, i, j = advance(ins, n, i, j, taken)
        return b.path(d)

    def _count(self, n: int, i: int, j: int, r: int, m: int) -> int:
        """Forced runs from state (n, i, j) that halt in exactly r steps with
        exactly m branch bits, counted with an explicit stack."""
        memo = self._completions
        top = (n, i, j, r, m)
        got = memo.get(top)
        if got is not None:  # most calls, once a level's count is made
            return got
        instructions = self.program.instructions
        stack = [top]
        while stack:
            key = stack[-1]
            if key in memo:
                stack.pop()
                continue
            n, i, j, r, m = key
            ins = instructions[n - 1]
            branch = ins.kind == "branch"
            if ins.kind == "halt" or r == 0 or m > r or branch and m == 0:
                memo[key] = int(ins.kind == "halt" and r == m == 0)
                stack.pop()
                continue
            if branch:
                kids = [(*advance(ins, n, i, j, taken), r - 1, m - 1)
                        for taken in (True, False)]
            else:
                kids = [(*advance(ins, n, i, j, None), r - 1, m)]
            todo = [kid for kid in kids if kid not in memo]
            if todo:
                stack.extend(todo)
            else:
                memo[key] = sum(memo[kid] for kid in kids)
                stack.pop()
        return memo[top]

    def rank(self, bits: str, steps: int) -> tuple[int, int]:
        """Where the forced path with branch bits `bits` halting at `steps`
        stands in a walk of its level: `(reached, before)`.

        `reached` is the forced steps the walk takes up to the path's leaf in
        its 1-first preorder, and `before` the level's paths ahead of the path
        in the frozen order.  Prefixes are counted depth by depth, keyed by
        forced state, number of branch bits and `rel`: -1, 0 or +1 as the
        prefix is before, on or after the path in preorder.
        """
        instructions = self.program.instructions
        states = {(1, 1, 1, 0, 0): 1}
        reached = 0
        for _ in range(steps):
            nxt: dict[tuple[int, int, int, int, int], int] = {}
            for (n, i, j, m, rel), count in states.items():
                ins = instructions[n - 1]
                if ins.kind == "halt":
                    continue
                if rel <= 0:
                    reached += count
                if ins.kind == "branch":
                    # at the first bit that differs, taking '1' where the
                    # path took '0' puts the prefix before it, and vice versa
                    for taken in (True, False):
                        key = (*advance(ins, n, i, j, taken), m + 1,
                               rel or int(bits[m]) - taken)
                        nxt[key] = nxt.get(key, 0) + count
                else:
                    key = (*advance(ins, n, i, j, None), m, rel)
                    nxt[key] = nxt.get(key, 0) + count
            states = nxt
        before = sum(count for (n, _, _, m, rel), count in states.items()
                     if instructions[n - 1].kind == "halt"
                     and (m < len(bits) or m == len(bits) and rel < 0))
        return reached, before

    def _extend(self):
        """Count one depth more: one forced step from every live state."""
        instructions = self.program.instructions
        states: dict[tuple[int, int, int], int] = {}
        for (n, i, j), count in self._live.items():
            ins = instructions[n - 1]
            for taken in (True, False) if ins.kind == "branch" else (None,):
                nxt = advance(ins, n, i, j, taken)
                states[nxt] = states.get(nxt, 0) + count
        self._tally(states)

    def _tally(self, states: dict[tuple[int, int, int], int]):
        instructions = self.program.instructions
        halting = 0
        self._live = {}
        for state, count in states.items():
            if instructions[state[0] - 1].kind == "halt":
                halting += count
            else:
                self._live[state] = count
        self._halting.append(halting)
        self._halted.append(self._halted[-1] + halting)
        self._walked.append(self._walked[-1] + sum(self._live.values()))
