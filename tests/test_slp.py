import json
import random
from fractions import Fraction as F
from pathlib import Path

import pytest

from realword.machine import (HALTED, initial_configuration, mult_guard_transform,
                              parse_program, run, step)
from realword.programs import (ALL_PROGRAMS, halt_program, sign_program,
                               square_program)
from realword.slp import Path as SlpPath, PathEnumerator, _Builder, replay, run_path

from forced_walk import forced_walk

GOLDEN = Path(__file__).parent / "golden"


def sign_path(x):
    p = run_path(sign_program(), (F(x),), 100)
    assert p is not None
    return p


def test_extract_sign_path():
    p = sign_path(2)
    assert p.d == 1 and p.D == 3
    assert p.ops == (("assign", 2, F(-1)), ("add", 3, 1, 2), ("geq", 3))
    assert p.guard_string == "1"


def test_extract_immediate_halt():
    p = run_path(halt_program(), (F(1), F(2)), 10)
    assert p.ops == () and p.D == 2 and p.d == 2


def test_extract_branch_to_next_label():
    # the branch target is also the fall-through label, so only register 0
    # tells the two outcomes apart: r0 = -1 < 0 is the '0' outcome
    prog = parse_program("1: sub r0 r1 r2\n2: brgeq 3\n3: halt\n")
    x = (F(-1), F(0))
    p = run_path(prog, x, 10)
    assert p.guard_string == "0"
    assert replay(p, x) is not None


def test_membership_and_extend():
    p = sign_path(2)
    assert replay(p, (F(0),)) is None
    assert replay(p, (F(2),)) == (F(2), F(-1), F(1))
    assert replay(p, (F(1, 2),)) is None
    # membership boundary: the guard is >= 0, so exactly r1 >= 1
    assert replay(p, (F(1),)) is not None
    assert replay(p, (F(9, 10),)) is None


def test_noguard_path_accepts_everything():
    p = SlpPath(1, 2, (("assign", 2, F(7)),))
    for x in (F(0), F(-3), F(11, 7)):
        assert replay(p, (x,)) is not None
    trivial = SlpPath(2, 2, ())
    assert replay(trivial, (F(1), F(2))) == (F(1), F(2))


def test_path_validation():
    with pytest.raises(ValueError):
        SlpPath(1, 3, (("assign", 3, F(0)),))  # target skips an index
    with pytest.raises(ValueError):
        SlpPath(1, 2, (("add", 2, 1, 2),))  # operand not strictly earlier
    with pytest.raises(ValueError):
        SlpPath(1, 1, (("geq", 2),))  # guard references unassigned register


def test_extract_replay_consistency():
    # replaying the run's path reproduces the run's register values
    prog = mult_guard_transform(square_program())
    rng = random.Random(15)
    for _ in range(50):
        x = F(rng.randint(2, 9), rng.randint(1, 3))
        res = run(prog, (x,), 3000)
        if not res.halted:
            continue
        p = run_path(prog, (x,), 3000)
        vals = replay(p, (x,))
        assert vals is not None
        assert len(vals) == p.D
        # every register the run ends with was assigned on the path
        assert {v for _, v in res.final.regs} <= set(vals)


def test_same_branch_class_replay():
    prog = sign_program()
    base = sign_path(2)
    for x in (F(1), F(3), F(100), F(7, 2)):
        other = run_path(prog, (x,), 100)
        assert other == base  # same branch outcomes give the same path
        ext = replay(base, (x,))
        assert ext is not None and ext[0] == x


def test_enumeration_golden():
    golden = json.loads((GOLDEN / "sign_paths.json").read_text())
    en = PathEnumerator(sign_program())
    got = []
    for n in range(200):
        p = en.path(n)
        if p is not None:
            got.append({"n": n, "d": p.d, "D": p.D, "guards": p.guard_string,
                        "ops": [op[0] for op in p.ops]})
    assert got == golden


def test_enumeration_accepting_path_found():
    en = PathEnumerator(sign_program())
    hits = [n for n in range(100)
            if (p := en.path(n)) is not None
            and p.d == 1 and p.guard_string == "1"]
    assert hits, "accepting path must appear among the first 100 indices"
    p = en.path(hits[0])
    assert replay(p, (F(2),)) is not None


def test_enumeration_distinct_and_valid():
    en = PathEnumerator(sign_program())
    seen = set()
    for n in range(300):
        p = en.path(n)
        if p is None:
            continue
        key = (p.d, p.guard_string)
        assert key not in seen
        seen.add(key)
        SlpPath(p.d, p.D, p.ops, p.guard_string)  # re-validates invariants


def test_counts_match_forced_walk():
    # the forward count gives every level's forced steps and paths for any d
    for name, mk in ALL_PROGRAMS.items():
        prog = mult_guard_transform(mk())
        en = PathEnumerator(prog)
        for steps in range(22):
            for d in (0, 1, 2):
                counter = [10**9]
                paths = forced_walk(prog, d, steps, counter)
                assert (10**9 - counter[0], len(paths)) == \
                    (en.walked(steps), en.halting(steps)), (name, steps, d)


# besides the reference programs, one whose levels mix paths of many bit lengths
MIXED = parse_program("1: brgeq 4\n2: copy i+\n3: brgeq 1\n4: brgeq 6\n"
                      "5: halt\n6: add r0 r1 r2\n7: brgeq 1\n8: halt\n")


def test_rank_matches_forced_walk():
    # a path's rank is its index in its level, and a walk cut short after
    # `reached` forced steps lists it while one step fewer does not
    progs = {name: mult_guard_transform(mk()) for name, mk in ALL_PROGRAMS.items()}
    progs["mixed"] = MIXED
    ranked = 0
    for name, prog in progs.items():
        en = PathEnumerator(prog)
        for steps in range(15):
            for d in (0, 1):
                for index, p in enumerate(forced_walk(prog, d, steps)):
                    reached, before = en.rank(p.guard_string, steps)
                    assert before == index, (name, steps, d, p.guard_string)
                    assert p in forced_walk(prog, d, steps, [reached])
                    if reached:  # level 0 lists its path without a step
                        assert p not in forced_walk(prog, d, steps, [reached - 1])
                    ranked += 1
    assert ranked == 64 + 130


def test_unrank_matches_forced_walk():
    # a level unranked from the backward count is the level the DFS lists,
    # and ranking the k-th path of a level gives back k
    progs = {"mixed": MIXED}
    for name, mk in ALL_PROGRAMS.items():
        progs[name], progs[name + "/guarded"] = mk(), mult_guard_transform(mk())
    listed = 0
    for name, prog in progs.items():
        en = PathEnumerator(prog)
        for d in range(3):
            for steps in range(15 - d):
                level = en.exact(d, steps)
                assert level == forced_walk(prog, d, steps), (name, d, steps)
                for k, p in enumerate(level):
                    assert en.rank(p.guard_string, steps)[1] == k, (name, d, steps)
                listed += len(level)
        with pytest.raises(IndexError):
            en.unrank(0, 14, en.halting(14))
    assert listed == 332


def test_desk_scale_path_completeness():
    # every halting input is contained in some enumerated path
    prog = sign_program()
    en = PathEnumerator(prog)
    for x in (F(1), F(2), F(100), F(3, 2)):
        res = run(prog, (x,), 100)
        assert res.halted
        budget = 1 + res.steps
        found = False
        for n in range(2000):
            p = en.path(n)
            if p is not None and p.d == 1 and replay(p, (x,)) is not None:
                found = True
                break
        assert found, x


def test_path_soundness_all_programs():
    # every halting run yields a path containing its own input
    rng = random.Random(16)
    for name, mk in ALL_PROGRAMS.items():
        prog = mult_guard_transform(mk())
        for _ in range(25):
            x = F(rng.randint(-8, 8), rng.randint(1, 4))
            p = run_path(prog, (x,), 4000)
            if p is None:
                continue
            assert replay(p, (x,)) is not None, (name, x)


def _path_by_steps(prog, x, fuel):
    """Reference for run_path: iterate step, emitting each step's instruction."""
    cfg = initial_configuration(x)
    b = _Builder(len(x))
    for _ in range(fuel + 1):
        nxt = step(prog, cfg)
        if nxt is HALTED:
            return b.path(len(x))
        ins = prog.instructions[cfg.n - 1]
        b.emit(ins, cfg.i, cfg.j, cfg.reg(0) >= 0 if ins.kind == "branch" else None)
        cfg = nxt
    raise AssertionError("reference called on a run that does not halt")


def test_run_path_none_unless_halting():
    # a path exactly when the run halts within the fuel: the step-by-step
    # path, and one of the forced paths of its (d, steps) level
    progs = []
    for mk in ALL_PROGRAMS.values():
        progs += [mk(), mult_guard_transform(mk())]
    progs.append(parse_program("1: set r1 7\n2: copy i+ j0\n3: copy\n4: halt\n"))
    for prog in progs:
        for x in (F(-2), F(-1, 2), F(0), F(1), F(5, 2)):
            exact = run(prog, (x,), 200).steps
            for fuel in (exact - 1, exact, exact + 5):
                res = run(prog, (x,), fuel)
                p = run_path(prog, (x,), fuel)
                assert (p is None) == (not res.halted), (prog, x, fuel)
                if p is not None:
                    assert p == _path_by_steps(prog, (x,), fuel)
                    assert p in forced_walk(prog, 1, res.steps)
    div = parse_program("1: div r2 r1 r3\n2: halt\n")
    assert run(div, (F(5),), 10).status == "division_by_zero"
    assert run_path(div, (F(5),), 10) is None
