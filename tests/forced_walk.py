"""The tests' reference for a forced walk of one level, listed by DFS."""

import copy

from realword.machine import advance
from realword.slp import _Builder


def _bitkey(bits):
    # '1' (>=0) explored before '0' within the same number of bits
    return (len(bits), tuple(0 if c == "1" else 1 for c in bits))


def _fork(b):
    alt = copy.copy(b)
    alt.regmap, alt.ops, alt.bits = dict(b.regmap), list(b.ops), list(b.bits)
    return alt


def forced_walk(program, d, steps, counter=None):
    """All forced runs of input dimension d that halt in exactly `steps`
    steps, in the frozen order.

    With a `counter`, the walk takes one unit of `counter[0]` per forced
    step and stops, with the paths found so far, once it runs out."""
    out = []
    stack = [(1, 1, 1, _Builder(d), 0)]
    while stack:
        n, i, j, b, used = stack.pop()
        while True:
            ins = program.instructions[n - 1]
            if ins.kind == "halt":
                if used == steps:
                    out.append(b.path(d))
                break
            if used == steps:
                break
            if counter is not None:
                if counter[0] <= 0:
                    return out
                counter[0] -= 1
            used += 1
            taken = None
            if ins.kind == "branch":
                alt = _fork(b)
                alt.emit(ins, i, j, False)
                stack.append((*advance(ins, n, i, j, False), alt, used))
                taken = True
            b.emit(ins, i, j, taken)
            n, i, j = advance(ins, n, i, j, taken)
    # DFS with a stack pops the deepest alternative first, which would put
    # the '0' branch before the '1' branch; restore the frozen order
    out.sort(key=lambda p: _bitkey(p.guard_string))
    return out
