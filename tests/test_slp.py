import json
import random
from fractions import Fraction as F
from pathlib import Path

import pytest

from realword.machine import mult_guard_transform, parse_program, run
from realword.programs import halt_program, sign_program, square_program
from realword.slp import (MalformedTrace, Path as SlpPath, PathEnumerator,
                          extract_path, replay)

GOLDEN = Path(__file__).parent / "golden"


def sign_trace(x):
    res = run(sign_program(), (F(x),), 100)
    assert res.halted
    return res.trace


def test_extract_sign_path():
    p = extract_path(sign_trace(2), 1)
    assert p.d == 1 and p.D == 3
    assert p.ops == (("assign", 2, F(-1)), ("add", 3, 1, 2), ("geq", 3))
    assert p.guard_string == "1"


def test_extract_immediate_halt():
    res = run(halt_program(), (F(1), F(2)), 10)
    p = extract_path(res.trace, 2)
    assert p.ops == () and p.D == 2 and p.d == 2


def test_extract_wrong_dimension():
    with pytest.raises(MalformedTrace):
        extract_path(sign_trace(2), 3)


def test_extract_rejects_tampered_trace():
    tr = sign_trace(2)
    steps = list(tr.steps)
    steps[0], steps[1] = steps[1], steps[0]
    bad = type(tr)(tr.program, tr.d, tuple(steps))
    with pytest.raises(MalformedTrace):
        extract_path(bad, 1)


def test_extract_branch_to_next_label():
    # the branch target is also the fall-through label, so only register 0
    # tells the two outcomes apart: r0 = -1 < 0 is the '0' outcome
    prog = parse_program("1: sub r0 r1 r2\n2: brgeq 3\n3: halt\n")
    x = (F(-1), F(0))
    p = extract_path(run(prog, x, 10).trace, 2)
    assert p.guard_string == "0"
    assert replay(p, x) is not None


def test_membership_and_extend():
    p = extract_path(sign_trace(2), 1)
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
    # replaying the extracted path reproduces the run's intermediate values
    prog = mult_guard_transform(square_program())
    rng = random.Random(15)
    for _ in range(50):
        x = F(rng.randint(2, 9), rng.randint(1, 3))
        res = run(prog, (x,), 3000)
        if not res.halted:
            continue
        p = extract_path(res.trace, 1)
        vals = replay(p, (x,))
        assert vals is not None
        assert len(vals) == p.D
        # every value the machine computed appears at its single-assignment slot
        seen = {}
        for cfg, ins, _ in res.trace.steps:
            if ins.kind in ("compute", "assign"):
                seen[ins.target] = True
        assert p.D >= 1 + len([k for k in seen])


def test_same_branch_class_replay():
    prog = sign_program()
    base = extract_path(sign_trace(2), 1)
    for x in (F(1), F(3), F(100), F(7, 2)):
        res = run(prog, (x,), 100)
        other = extract_path(res.trace, 1)
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


def test_desk_scale_path_completeness():
    # every halting input is contained in some enumerated path
    prog = sign_program()
    en = PathEnumerator(prog)
    for x in (F(1), F(2), F(100), F(3, 2)):
        res = run(prog, (x,), 100, record_trace=False)
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
    # every halting trace yields a path containing its own input
    from realword.programs import ALL_PROGRAMS
    from realword.machine import mult_guard_transform
    rng = random.Random(16)
    for name, mk in ALL_PROGRAMS.items():
        prog = mult_guard_transform(mk())
        for _ in range(25):
            x = F(rng.randint(-8, 8), rng.randint(1, 4))
            res = run(prog, (x,), 4000)
            if not res.halted:
                continue
            p = extract_path(res.trace, 1)
            assert replay(p, (x,)) is not None, (name, x)
