"""The tests' reference for a forced walk of one level that fuel cuts short."""

from realword.machine import advance
from realword.slp import _bitkey, _Builder


def forced_walk(program, d, steps, counter):
    """`slp._forced_dfs(program, d, steps)` that takes one unit of
    `counter[0]` per forced step and stops, with the paths found so far,
    once it runs out."""
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
            if counter[0] <= 0:
                return out
            counter[0] -= 1
            used += 1
            taken = None
            if ins.kind == "branch":
                alt = b.clone()
                alt.emit(ins, i, j, False)
                stack.append((*advance(ins, n, i, j, False), alt, used))
                taken = True
            b.emit(ins, i, j, taken)
            n, i, j = advance(ins, n, i, j, taken)
    out.sort(key=lambda p: _bitkey(p.guard_string))
    return out
