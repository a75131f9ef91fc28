import random
import tracemalloc
from fractions import Fraction as F

import pytest

from realword import slp
from realword.machine import mult_guard_transform, parse_program, run
from realword.programs import ALL_PROGRAMS, halt_program, sign_program
from realword.rationals import pair, unpair
from realword.reduction import (ZeroScale, assemble_u, build_W,
                                check_reduction, extension_presentation,
                                l_reachability_check, path_constants,
                                pattern_group_presentation, reduce_halting,
                                stable_conjugate, u_membership, u_structure,
                                v_membership, w_membership, word_constants)
from realword.britton import hnn_is_identity
from realword.presentations import check_generator, check_relator
from realword.slp import replay, run_path
from realword.words import (EMPTY, GenSym, Word, concat, encode_w,
                            encode_w_tagged, format_word, invert,
                            nielsen_decompose, parse_word)

from forced_walk import forced_walk
from test_machine import copy_square_program


def sign_path():
    return run_path(sign_program(), (F(2),), 100)


def test_build_w_rows():
    add = build_W(("add", 3, 1, 2), 0, 3)
    assert add.w_pred.eval((F(2), F(-1), F(1)))
    assert not add.w_pred.eval((F(2), F(-1), F(0)))
    inv = build_W(("inv", 2, 1), 0, 2)
    assert not inv.w_pred.eval((F(0), F(5)))
    assert inv.w_pred.eval((F(4), F(1, 4)))
    geq = build_W(("geq", 1), 0, 1)
    assert geq.w_pred.eval((F(0),))
    lt = build_W(("lt", 1), 0, 1)
    assert lt.w_pred.eval((F(-1),)) and not lt.w_pred.eval((F(0),))
    with pytest.raises(IndexError):
        build_W(("add", 3, 1, 9), 0, 3)
    with pytest.raises(IndexError):
        build_W(("assign", 1, F(0)), 1, 3)  # target must exceed input dim


def test_doubling_rows():
    dadd = build_W(("add", 2, 1, 1), 0, 2)
    assert dadd.w_pred.eval((F(3), F(6)))
    assert l_reachability_check(dadd, encode_w((F(3), F(6))))
    assert not l_reachability_check(dadd, encode_w((F(3), F(5))))
    dmul = build_W(("mul", 2, 1, 1), 0, 2)
    assert dmul.w_pred.eval((F(3), F(9)))
    assert l_reachability_check(dmul, encode_w((F(3), F(9))))
    assert not l_reachability_check(dmul, encode_w((F(0), F(0))))


def test_w_membership():
    spec = build_W(("add", 3, 1, 2), 0, 3)
    assert w_membership(spec, encode_w((F(2), F(-1), F(1))))
    product = concat(encode_w((F(2), F(-1), F(1))), encode_w((F(0), F(3), F(3))))
    assert w_membership(spec, product)
    assert not w_membership(spec, parse_word("x(1,1)"))
    assert not w_membership(spec, encode_w((F(2), F(-1))))  # wrong dimension
    assert w_membership(spec, EMPTY)


def test_l_reachability():
    spec = build_W(("add", 3, 1, 2), 0, 3)
    assert l_reachability_check(spec, encode_w((F(2), F(-1), F(1))))
    assert l_reachability_check(spec, encode_w((F(0), F(0), F(0))))  # base word
    assert not l_reachability_check(spec, encode_w((F(2), F(-1), F(2))))
    const = build_W(("assign", 2, F(1)), 1, 2)
    assert not l_reachability_check(const, encode_w((F(0), F(2))))
    assert l_reachability_check(const, encode_w((F(7), F(1))))
    mul = build_W(("mul", 3, 1, 2), 0, 3)
    assert l_reachability_check(mul, encode_w((F(2), F(3), F(6))))
    assert not l_reachability_check(mul, encode_w((F(0), F(3), F(0))))  # zeros unreachable
    # products are not single conjugation orbits
    spec_geq = build_W(("geq", 1), 0, 1)
    assert l_reachability_check(spec_geq, encode_w((F(0),)))
    assert not l_reachability_check(spec_geq, encode_w((F(-1),)))
    two = concat(encode_w((F(1),)), encode_w((F(2),)))
    assert not l_reachability_check(spec_geq, two)


def test_stable_conjugate():
    w = encode_w((F(1), F(3)))
    assert stable_conjugate(GenSym("a", (F(2), F(5))), w) == encode_w((F(1), F(8)))
    assert stable_conjugate(GenSym("m", (F(1), F(1))), w) == w
    assert stable_conjugate(GenSym("a", (F(7), F(5))), w) == w
    assert stable_conjugate((GenSym("a", (F(2), F(5))), -1), w) \
        == encode_w((F(1), F(-2)))
    assert stable_conjugate(GenSym("m", (F(2), F(2))), w) == encode_w((F(1), F(6)))
    with pytest.raises(ZeroScale):
        stable_conjugate(GenSym("m", (F(1), F(0))), w)
    with pytest.raises(ValueError):
        stable_conjugate(GenSym("t"), w)


def test_v_membership():
    p = sign_path()
    full = replay(p, (F(2),))
    assert v_membership(p, full)
    assert not v_membership(p, (F(2), F(-1), F(0)))
    trivial = run_path(halt_program(), (F(1),), 5)
    assert v_membership(trivial, (F(9),))
    with pytest.raises(ValueError):
        v_membership(p, (F(1),))


def test_u_membership():
    p = sign_path()
    assert u_membership(p, encode_w((F(2),)))
    assert not u_membership(p, encode_w((F(0),)))
    assert u_membership(p, EMPTY)
    both = concat(encode_w((F(2),)), invert(encode_w((F(3),))))
    assert u_membership(p, both)
    assert not u_membership(p, encode_w((F(2), F(2))))  # wrong dimension


def test_u_handle():
    uh = assemble_u(sign_program())
    assert uh.member_within(encode_w((F(2),)), 2000)
    assert not uh.member_within(encode_w((F(0),)), 2000)
    assert uh.member_within(EMPTY, 1)
    assert not uh.member_within(parse_word("x(1,1)"), 1000)
    # an indexed y is no pattern word, not even for a program that accepts all
    assert not assemble_u(halt_program()).member_within(parse_word("y(5)"), 100)
    assert assemble_u(halt_program()).member_within(parse_word("y"), 100)


def test_u_handle_tagged():
    uh = assemble_u(sign_program())
    n = next(n for n in range(300)
             if (p := uh.enum.path(n)) is not None
             and p.d == 1 and p.guard_string == "1")
    assert uh.member_tagged(encode_w_tagged(n, (F(5),)))
    assert not uh.member_tagged(encode_w_tagged(n, (F(0),)))
    absent = next(n for n in range(300) if uh.enum.path(n) is None)
    assert not uh.member_tagged(encode_w_tagged(absent, (F(5),)))
    assert not uh.member_tagged(encode_w((F(5),)))  # untagged pattern


def test_u_handle_tagged_past_the_guard_scratch_registers():
    # an input of dimension 5 loads r4 and r5, which lie above square's own
    # registers; the guard's scratch registers lie below r0
    prog = ALL_PROGRAMS["square"]()
    uh = assemble_u(prog)
    r = (F(3), F(0), F(0), F(0), F(7))
    res = run(uh.guarded, r, 1000)
    bits = run_path(uh.guarded, r, res.steps).guard_string
    b = 5 + res.steps
    # block b lists the levels of d = 0..4 before (5, res.steps)
    k = sum(uh.enum.halting(b - e) for e in range(5)) + next(
        k for k, p in enumerate(uh.enum.exact(5, res.steps)) if p.guard_string == bits)
    n = pair(b, k)
    assert unpair(n) == (b, k)
    assert uh.member_tagged(encode_w_tagged(n, r))
    assert not uh.member_tagged(encode_w_tagged(n, (F(1, 2),) + r[1:]))


@pytest.mark.parametrize("name", sorted(ALL_PROGRAMS))
def test_check_reduction_inputs_past_the_guard_scratch_registers(name):
    rng = random.Random(f"scratch/{name}")
    inputs = [(F(2), F(0), F(0), F(0), F(7))]
    for d in range(1, 8):
        inputs += [tuple(F(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 3))
                         for _ in range(d)) for _ in range(4)]
    report = check_reduction(ALL_PROGRAMS[name](), inputs, 10_000)
    assert all(rec["agree"] for rec in report), name
    assert report[0]["group"] == "member"  # every program halts on r1 = 2


def test_check_reduction_copy_past_the_program_registers():
    # `copy` writes r1 into r1..r5, above every register the program names
    prog = copy_square_program()
    inputs = [(F(3),), (F(-2),), (F(1, 2),), (F(0),), (F(3), F(5)), (F(1), F(-7)),
              (F(3), F(0), F(0), F(0), F(7)), (F(1, 3), F(2), F(3), F(4), F(5))]
    report = check_reduction(prog, inputs, 10_000)
    assert all(rec["agree"] for rec in report)
    assert [rec["group"] == "member" for rec in report] == [
        True, True, False, False, True, False, True, False]


def test_reduce_halting_shapes():
    q, c = reduce_halting(sign_program(), (F(2),))
    assert q == encode_w((F(2),))
    assert len(c) == 8
    q0, c0 = reduce_halting(sign_program(), ())
    assert format_word(q0) == "y"
    assert len(c0) == 4


def test_check_reduction_sign():
    inputs = [(F(0),), (F(1, 2),), (F(1),), (F(2),), (F(100),)]
    report = check_reduction(sign_program(), inputs, 2000)
    assert all(r["agree"] for r in report)
    halting = [r["input"][0] for r in report if r["simulated"] == "halt"]
    assert halting == [F(1), F(2), F(100)]
    for r in report:
        if r["simulated"] == "halt":
            assert r["group"] == "member"


def test_check_reduction_trivial_cases():
    report = check_reduction(halt_program(), [(F(1),), (F(-5),)], 100)
    assert all(r["simulated"] == "halt" and r["group"] == "member" for r in report)
    report0 = check_reduction(sign_program(), [(F(2),)], 0)
    assert report0[0]["simulated"] == "inconclusive"
    assert report0[0]["group"] == "not-within-fuel"
    assert report0[0]["agree"] and not report0[0]["conclusive"]


def test_commutator_structure_matches_membership():
    uh = assemble_u(sign_program())
    struct = u_structure(uh, 2000)
    for x, expect in ((F(2), True), (F(1), True), (F(0), False), (F(-3), False)):
        _, comm = reduce_halting(sign_program(), (x,))
        assert hnn_is_identity(struct, comm) == expect


def test_constant_tracking():
    q, c = reduce_halting(sign_program(), (F(2), F(1, 3)))
    assert word_constants(c) == {F(1), F(2), F(1, 3)}
    p = sign_path()
    assert path_constants(p) == {F(-1)}


def test_pattern_group_presentation():
    g = pattern_group_presentation()
    assert check_generator(g, GenSym("x", (F(0), F(5))))
    assert check_generator(g, GenSym("y"))
    assert not check_generator(g, GenSym("x", (F(1, 2), F(5))))


def test_extension_presentation_realizes_action():
    ext = extension_presentation()
    rng = random.Random(40)
    shift_schema = next(s for s in ext.relators if s.label == "hnn-x"
                        and "a" in {t.family for t in s.template})
    for _ in range(50):
        i = F(rng.randint(1, 4))
        t = F(rng.randint(-5, 5), rng.randint(1, 3))
        s = F(rng.randint(-5, 5), rng.randint(1, 3))
        inst = shift_schema.instantiate((i, t, i, s))
        assert check_relator(ext, inst)
        # relator reads image . a . letter^-1 . a^-1 with image = the action
        x = Word.from_letters([(GenSym("x", (i, s)), 1)])
        image = stable_conjugate(GenSym("a", (i, t)), x)
        assert inst.letters[0] == image.letters[0]
    # scaling letters exclude the zero factor
    m_schema = next(s for s in ext.relators if s.label == "hnn-x"
                    and "m" in {t.family for t in s.template})
    assert not m_schema.admits((F(1), F(0), F(1), F(3)))
    assert m_schema.admits((F(1), F(2), F(1), F(3)))


def test_constant_free_program_emits_no_foreign_rationals():
    src = """\
1: add r0 r1 r2
2: brgeq 5
3: mul r0 r1 r1
4: brgeq 3
5: halt
"""
    prog = parse_program(src)
    assert not prog.constants
    uh = assemble_u(prog)
    vec = (F(7, 3),)
    q, c = reduce_halting(prog, vec)
    allowed = {F(7, 3), F(0), F(1)}
    assert word_constants(q) <= allowed
    assert word_constants(c) <= allowed
    for b in range(7):
        for d in range(b + 1):
            for path in uh.enum.exact(d, b - d):
                assert path_constants(path) <= {F(0)}


def test_v_membership_of_extensions():
    # any input following a path has its full vector inside every row set
    from realword.programs import ALL_PROGRAMS
    rng = random.Random(41)
    for name, mk in ALL_PROGRAMS.items():
        prog = mult_guard_transform(mk())
        for _ in range(10):
            x = F(rng.randint(-6, 6), rng.randint(1, 3))
            p = run_path(prog, (x,), 4000)
            if p is None:
                continue
            full = replay(p, (x,))
            assert full is not None
            assert v_membership(p, full), (name, x)


# smallest fuel at which member_within finds the query word of one input;
# pins the fuel charged per step level, per forced step and per replay
FUEL_BOUNDARY = [
    ("sign", F(1), 10), ("sign", F(5, 2), 10),
    ("double", F(3, 2), 15), ("double", F(4), 15),
    ("recip", F(2), 315), ("recip", F(1, 3), 315),
    ("square", F(-2), 642), ("square", F(5, 2), 1653),
    ("poly3", F(-2), 55), ("poly3", F(1), 24),
    ("halt", F(-7), 1),
]


@pytest.mark.parametrize("name,x,fuel", FUEL_BOUNDARY)
def test_member_within_fuel_boundary(name, x, fuel):
    prog = ALL_PROGRAMS[name]()
    w = encode_w((x,))
    assert assemble_u(prog).member_within(w, fuel)
    assert not assemble_u(prog).member_within(w, fuel - 1)


def reference_member_within(program, w, fuel):
    """`UHandle.member_within` as it was before the guarded run, on a fresh
    handle: fueled levels cached when the counter did not run out.

    A cached level costs no forced steps here, and every factor of a word
    shares the cache, so this agrees with `member_within` on single-factor
    words only; `walk_member_within` is the reference for longer words.
    """
    guarded = mult_guard_transform(program)
    cache = {}

    def exact(d, steps, counter):
        key = (d, steps)
        got = cache.get(key)
        if got is None:
            got = forced_walk(guarded, d, steps, counter)
            if counter[0] > 0:
                cache[key] = got
        return got

    decomp = nielsen_decompose(w)
    if decomp is None:
        return False
    counter = [fuel]
    for _, vec in decomp:
        d = len(vec)
        found = False
        steps = 0
        while counter[0] > 0 and not found:
            counter[0] -= 1  # one unit per step level, even when cached
            for path in exact(d, steps, counter):
                counter[0] -= 1  # one unit per candidate replay
                if replay(path, vec) is not None:
                    found = True
                    break
            steps += 1
        if not found:
            return False
    return True


# one input per program the guarded program never halts on
NON_HALTING = [("sign", F(0)), ("double", F(1)), ("recip", F(0)),
               ("square", F(1)), ("poly3", F(0))]


def _warm_handle(name):
    uh = assemble_u(ALL_PROGRAMS[name]())
    for x in (F(5), F(-1), F(1, 2), F(3)):
        uh.member_within(encode_w((x,)), 2000)
    for d in range(13):
        uh.enum.exact(d, 12 - d)
    return uh


def test_member_within_matches_reference():
    # the guarded run keeps every verdict of the level walk at every fuel,
    # on a fresh handle and on one warmed by other inputs
    cases = [(name, x, range(fuel + 3)) for name, x, fuel in FUEL_BOUNDARY]
    cases += [(name, x, [*range(51), 10_000]) for name, x in NON_HALTING]
    warm = {}
    compared = 0
    for name, x, fuels in cases:
        prog = ALL_PROGRAMS[name]()
        w = encode_w((x,))
        if name not in warm:
            warm[name] = _warm_handle(name)
        for fuel in fuels:
            expect = reference_member_within(prog, w, fuel)
            assert assemble_u(prog).member_within(w, fuel) == expect, (name, x, fuel)
            assert warm[name].member_within(w, fuel) == expect, (name, x, fuel)
            compared += 1
    assert compared == 3088 + 5 * 52


def test_warm_batch_agrees_with_one_shot():
    # a handle that checked 5 first charges 3 exactly what a fresh one does
    for fuel in range(12):
        warm = check_reduction(sign_program(), [(F(5),), (F(3),)], fuel)[1]
        cold = check_reduction(sign_program(), [(F(3),)], fuel)[0]
        assert warm["group"] == cold["group"], fuel


def walk_member_within(program, w, fuel):
    """`UHandle.member_within` before levels were charged from counts: one
    guarded run per factor, then a fresh forced walk of every level up to
    the factor's accepting path."""
    guarded = mult_guard_transform(program)
    decomp = nielsen_decompose(w)
    if decomp is None:
        return False
    counter = [fuel]
    for _, vec in decomp:
        if not run(guarded, vec, counter[0]).halted:
            return False
        d = len(vec)
        found = False
        steps = 0
        while counter[0] > 0 and not found:
            counter[0] -= 1  # one unit per step level
            for path in forced_walk(guarded, d, steps, counter):
                counter[0] -= 1  # one unit per candidate replay
                if replay(path, vec) is not None:
                    found = True
                    break
            steps += 1
        if not found:
            return False
    return True


# per program, a second input it halts on and a third its guarded form
# never halts on (`halt` halts on everything)
OTHER_INPUTS = {"sign": (F(3), F(0)), "double": (F(2), F(1)), "recip": (F(1), F(0)),
                "square": (F(3), F(1)), "poly3": (F(2), F(0)), "halt": (F(0), F(5))}


def _row_words(name, x):
    """Words of two and three pattern factors around the row's input."""
    y, z = OTHER_INPUTS[name]
    return [concat(encode_w((y,)), invert(encode_w((x,)))),
            concat(invert(encode_w((x, F(1)))), encode_w((y,)), encode_w((z,)))]


def test_member_within_matches_walk():
    # charging levels from counts keeps the walk's verdict at every fuel, on
    # a fresh handle and on one warmed by other inputs and fuels; words of
    # one factor are compared in `test_member_within_matches_reference`.
    # Besides the row's fuels, the fuels just below a word's own boundary
    # check what a factor before the last one is charged for its path.
    warm = {}
    compared = 0
    for name, x, boundary in FUEL_BOUNDARY:
        prog = ALL_PROGRAMS[name]()
        if name not in warm:
            warm[name] = _warm_handle(name)
        for w in _row_words(name, x):
            fuels = {*range(boundary + 3), 10_000}
            if assemble_u(prog).member_within(w, 10_000):
                lo, own = 0, 10_000  # bisect for the word's own boundary
                while lo + 1 < own:
                    mid = (lo + own) // 2
                    lo, own = (lo, mid) if assemble_u(prog).member_within(w, mid) \
                        else (mid, own)
                fuels.update(range(own - 20, own + 3))
            for fuel in sorted(fuels):
                expect = walk_member_within(prog, w, fuel)
                assert assemble_u(prog).member_within(w, fuel) == expect, \
                    (name, x, format_word(w), fuel)
                assert warm[name].member_within(w, fuel) == expect, \
                    (name, x, format_word(w), fuel)
                compared += 1
    assert compared == 6428


def test_doubling_forced_tree_is_never_walked(monkeypatch):
    # 40 branches to the next label: the forced tree doubles at every level,
    # so level s costs 2^s units and fuel 10^6 runs out at level 19, long
    # before the run's halting step 40
    prog = parse_program("".join(f"{k}: brgeq {k + 1}\n" for k in range(1, 41))
                         + "41: halt\n")
    walks = []
    real = slp.PathEnumerator.unrank
    monkeypatch.setattr(slp.PathEnumerator, "unrank",
                        lambda self, *a: walks.append(a) or real(self, *a))
    uh = assemble_u(prog)
    assert not uh.member_within(encode_w((F(1),)), 10**6)
    assert walks == [] and uh.enum._completions == {}
    assert len(uh.enum._halting) == 19  # levels 0..18 are paid for
    assert uh.enum.walked(18) == 2**18 - 1


# a countdown loop whose body runs one `copy i+` when r0 >= 0 and two when
# not: forced runs take both arms, so their copy-register i spreads out and
# the forced states multiply with depth, while the run on 30 halts at step 246
SPREADING = """\
1: set r40 -1
2: add r1 r1 r40
3: add r0 r1 r41
4: brgeq 7
5: set r0 0
6: brgeq 12
7: brgeq 9
8: copy i+
9: copy i+
10: set r0 0
11: brgeq 1
12: halt
"""


def test_count_stops_at_the_last_level_paid_for():
    prog = parse_program(SPREADING)
    w = encode_w((F(30),))
    assert run(prog, (F(30),), 10**6).steps == 246
    # each level's forced steps and paths, from walks that are not cut short
    cost = []
    for steps in range(60):
        counter = [10**9]
        paths = forced_walk(prog, 1, steps, counter)
        cost.append((10**9 - counter[0], len(paths)))
    # below 246 the run does not halt within the fuel, and nothing is counted
    for fuel in [*range(246, 700), *range(700, 40_000, 397)]:
        paid, left = 0, fuel  # the count always holds depth 0
        for steps, (walked, halting) in enumerate(cost):
            if left <= 0 or left - 1 < walked:
                break
            left -= 1 + walked + halting
            paid = steps
        else:
            raise AssertionError("fuel reaches past the precomputed levels")
        uh = assemble_u(prog)
        assert not uh.member_within(w, fuel)
        assert len(uh.enum._halting) - 1 == paid, fuel
    assert len(uh.enum._live) > 20  # the states did multiply


def _doubling(k, signed=False):
    """k branches to the next label, then halt: level s of the forced tree
    has 2^s prefixes, and every path halts at step k.  `signed` first sets
    r0 to -r1, so the run on x > 0 takes the '0' outcome every time and its
    path comes last in its level."""
    head = "1: sub r0 r0 r1\n" if signed else ""
    return parse_program(head + "".join(f"{n}: brgeq {n + 1}\n"
                                        for n in range(1 + signed, k + 1 + signed))
                         + f"{k + 1 + signed}: halt\n")


def test_halting_level_is_never_walked(monkeypatch):
    # a fresh walk of the halting level of k = 18 lists 2^18 paths; the
    # run's path is ranked in it instead, and not at all for a last factor
    # whose fuel pays for the whole walk
    walks, ranks = [], []
    real_unrank, real_rank = slp.PathEnumerator.unrank, slp.PathEnumerator.rank
    monkeypatch.setattr(slp.PathEnumerator, "unrank",
                        lambda self, *a: walks.append(a) or real_unrank(self, *a))
    monkeypatch.setattr(slp.PathEnumerator, "rank",
                        lambda self, *a: ranks.append(a) or real_rank(self, *a))
    uh = assemble_u(_doubling(18))
    assert uh.member_within(encode_w((F(1),)), 10**6)
    assert ranks == []
    # the first factor pays 2^19 units in full; the second reaches its
    # halting level with too little fuel for a whole walk, which still lists
    # the all-'1' path after the 18 forced steps down to it
    assert uh.member_within(concat(encode_w((F(1),)), encode_w((F(2),))), 10**6)
    assert ranks == [("1" * 18, 18)] * 2
    assert walks == [] and uh.enum._completions == {}


def test_membership_memory_stays_small():
    # all 2^21 paths of the halting level would take gigabytes
    uh = assemble_u(_doubling(21))
    w = concat(encode_w((F(1),)), encode_w((F(2),)))
    tracemalloc.start()
    try:
        assert uh.member_within(w, 10**7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, peak


def test_two_factor_rank_matches_walk():
    # the charge of a first factor whose path comes first, or last, in its
    # level, at every fuel just below the word's boundary and at a spread of
    # fuels around it, where the second factor's halting level is cut short
    one, minus = encode_w((F(1),)), encode_w((F(-1),))
    for prog, w in ((_doubling(10), concat(one, encode_w((F(2),)))),
                    (_doubling(10, signed=True), concat(one, minus)),
                    (_doubling(10, signed=True), concat(minus, one))):
        lo, own = 0, 10**5  # bisect for the word's own boundary
        assert assemble_u(prog).member_within(w, own)
        while lo + 1 < own:
            mid = (lo + own) // 2
            lo, own = (lo, mid) if assemble_u(prog).member_within(w, mid) else (mid, own)
        uh = assemble_u(prog)
        fuels = {*range(own - 20, own + 3), *range(own - 1100, own + 1100, 71)}
        for fuel in sorted(fuels):
            assert uh.member_within(w, fuel) == walk_member_within(prog, w, fuel), \
                (format_word(w), fuel)


def test_member_within_treats_bit_cap_as_not_halting():
    # two squarings take 2^30000 to 2^120000, past machine.MAX_BITS, where
    # any small input halts
    prog = parse_program("1: mul r1 r1 r1\n2: mul r1 r1 r1\n3: halt\n")
    big = F(2) ** 30_000
    handle = assemble_u(prog)
    assert run(handle.guarded, (big,), 10**4).status == "over_bit_cap"
    assert not handle.member_within(encode_w((big,)), 10**6)
    assert handle.member_within(encode_w((F(3),)), 10**6)
    rec = check_reduction(prog, [(big,)], 10**4)[0]
    assert (rec["simulated"], rec["group"], rec["agree"]) == \
        ("inconclusive", "not-within-fuel", True)
