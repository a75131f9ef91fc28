"""The acceptance suite: ten named checks, each deterministic under a seed.

Used both by tests/test_acceptance.py (one test per criterion) and by the
`realword selftest` CLI subcommand (one pass/fail line per criterion).
Sizes and tolerances are pinned here; every check is exact (the package has
no floating point anywhere).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .britton import (bs12_structure, commutator, halfline_structure,
                      hnn_is_identity)
from .presentations import (Presentation, verify_certificate, wp_semidecide)
from .programs import (double_program, halt_program, poly3_program,
                       recip_program, sign_program, square_program)
from .rationals import enumerate_rationals
from .reduction import (assemble_u, build_W, check_reduction,
                        l_reachability_check, path_constants, reduce_halting,
                        stable_conjugate, w_membership, word_constants)
from .sample_groups import (BUILTIN_PRESENTATIONS, ORACLES, s_word,
                            sl2_eval, sl2_wp, u_word, v_word)
from .words import (EMPTY, GenSym, Word, concat, encode_w, free_reduce,
                    invert, nielsen_decompose, span_decide)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _small_rat(rng: random.Random) -> Fraction:
    return enumerate_rationals(rng.randrange(0, 25))


# -- 1: free-reduction confluence -------------------------------------------------

def _random_order_reduce(ids: tuple[int, ...], rng: random.Random) -> tuple[int, ...]:
    """Cancel adjacent inverse pairs in random order via a doubly linked list."""
    n = len(ids)
    nxt = list(range(1, n)) + [-1]
    prv = [-1] + list(range(n - 1))
    alive = [True] * n

    def cancels(i: int) -> bool:
        j = nxt[i]
        return j != -1 and ids[i] == -ids[j]

    cands = {i for i in range(n - 1) if ids[i] == -ids[i + 1]}
    while cands:
        i = rng.choice(sorted(cands))
        cands.discard(i)
        if not alive[i] or not cancels(i):
            continue
        j = nxt[i]
        p, q = prv[i], nxt[j]
        alive[i] = alive[j] = False
        if p != -1:
            nxt[p] = q
        if q != -1:
            prv[q] = p
        for c in (i, j):
            cands.discard(c)
        if p != -1:
            if cancels(p):
                cands.add(p)
            else:
                cands.discard(p)
    return tuple(ids[i] for i in range(n) if alive[i])


def check_free_reduction_confluence(seed: int) -> CheckResult:
    t0 = time.time()
    rng = random.Random(seed)
    alphabet = [GenSym("x", (Fraction(k),)) for k in range(1, 21)]
    from .words import _intern  # interned ids back the random word builder
    gids = [_intern(g) for g in alphabet]
    mismatches = 0
    for _ in range(10_000):
        length = rng.randint(0, 50)
        ids = tuple(rng.choice(gids) * rng.choice((1, -1)) for _ in range(length))
        a = free_reduce(Word(ids)).ids
        b = _random_order_reduce(ids, rng)
        if a != b:
            mismatches += 1
    dt = time.time() - t0
    ok = mismatches == 0 and dt < 10.0
    return CheckResult("free-reduction-confluence", ok,
                       f"10000 words, {mismatches} mismatches, {dt:.1f}s", dt)


# -- 2: pattern-word freeness and span agreement -----------------------------------

def _random_vec(rng: random.Random, dim: int) -> tuple[Fraction, ...]:
    return tuple(_small_rat(rng) for _ in range(dim))


def check_pattern_freeness(seed: int) -> CheckResult:
    t0 = time.time()
    rng = random.Random(seed + 1)
    bad = 0
    for _ in range(1000):
        d = rng.randint(1, 4)
        r = _random_vec(rng, d)
        s = _random_vec(rng, d)
        while s == r:
            s = _random_vec(rng, d)
        if len(free_reduce(concat(encode_w(r), invert(encode_w(s))))) == 0:
            bad += 1

    is_pattern = lambda b: (dec := nielsen_decompose(b)) is not None \
        and len(dec) == 1 and dec[0][0] == 1
    span_checked = 0
    for _ in range(1000):
        m = rng.randint(1, 6)
        decomp = []
        word = EMPTY
        for _ in range(m):
            exp = rng.choice((1, -1))
            vec = _random_vec(rng, rng.randint(0, 4))
            if decomp and decomp[-1] == (-exp, vec):
                exp = -exp  # avoid an immediately cancelling factor
            piece = encode_w(vec) if exp == 1 else invert(encode_w(vec))
            if len(concat(word, piece)) != len(word) + len(piece):
                continue  # keep the product cancellation-free for the span side
            decomp.append((exp, vec))
            word = concat(word, piece)
        got = nielsen_decompose(word)
        if got != decomp:
            bad += 1
        if len(word) <= 24 and word.ids:
            span_checked += 1
            if not span_decide(word, is_pattern, max_letters=24):
                bad += 1
            chopped = Word(word.ids[:-1])  # not a pattern product
            if len(chopped) <= 24 and span_decide(chopped, is_pattern, max_letters=24):
                if nielsen_decompose(chopped) is None:
                    bad += 1
    dt = time.time() - t0
    return CheckResult("pattern-freeness", bad == 0,
                       f"1000 pairs + 1000 products ({span_checked} span-checked), "
                       f"{bad} mismatches", dt)


# -- 3: pinch elimination vs exhaustive rewriting ----------------------------------

def _affine_eval(word_ids: list[int]) -> tuple[Fraction, Fraction]:
    """Image in the affine maps x -> p*x + q: a adds 1, t doubles.

    This is a faithful representation of <a; t | t a t^-1 = a^2> (the group
    of dyadic translations and scalings), composed so that the rightmost
    letter acts first; it is the independent ground truth for the pinch
    procedure and the rewriting closure.
    """
    p, q = Fraction(1), Fraction(0)
    for v in word_ids:
        if abs(v) == 1:  # a^±1: translation by ±1, applied inside
            q = q + (p if v > 0 else -p)
        else:  # t^±1: scaling by 2 or 1/2, applied inside
            p = p * (Fraction(2) if v > 0 else Fraction(1, 2))
    return p, q


def _reduce_ids(ids) -> tuple[int, ...]:
    """Free reduction by one stack scan, kept apart from `words` as the reference."""
    st = []
    for v in ids:
        if st and st[-1] == -v:
            st.pop()
        else:
            st.append(v)
    return tuple(st)


def _rewrite_closure(cap: int, node_limit: int = 400_000) -> set[tuple[int, ...]]:
    """Words of length <= cap reachable from the empty word by relator insertion.

    Moves insert a cyclic rotation of (t a t^-1 a^-2)^±1 at any position and
    freely reduce; reachability equals triviality in the group, so the
    closure is the trivial class up to the length cap.
    """
    rel = (2, 1, -2, -1, -1)  # t a t^-1 a^-2 with a=1, t=2
    pieces = set()
    for word in (rel, tuple(-v for v in reversed(rel))):
        for r in range(len(word)):
            pieces.add(word[r:] + word[:r])

    seen = {()}
    frontier = [()]
    nodes = 0
    while frontier and nodes < node_limit:
        nxt = []
        for u in frontier:
            for piece in pieces:
                for pos in range(len(u) + 1):
                    nodes += 1
                    w = _reduce_ids(u[:pos] + piece + u[pos:])
                    if len(w) <= cap and w not in seen:
                        seen.add(w)
                        nxt.append(w)
        frontier = nxt
    return seen


def check_britton_oracle(seed: int) -> CheckResult:
    t0 = time.time()
    h = bs12_structure()
    a, t = GenSym("a"), GenSym("t")
    sym = {1: (a, 1), -1: (a, -1), 2: (t, 1), -2: (t, -1)}
    closure = _rewrite_closure(cap=12)
    checked = disagreements = 0

    def words_up_to(n):
        stack = [()]
        while stack:
            u = stack.pop()
            yield u
            if len(u) < n:
                for v in (1, -1, 2, -2):
                    stack.append(u + (v,))

    for raw in words_up_to(8):
        checked += 1
        word = Word.from_letters([sym[v] for v in raw])
        britton = hnn_is_identity(h, word)
        exhaustive = _reduce_ids(raw) in closure
        p, q = _affine_eval(list(raw))
        affine = (p, q) == (1, 0)
        if britton != exhaustive or britton != affine:
            disagreements += 1
    dt = time.time() - t0
    ok = disagreements == 0 and dt < 60.0
    return CheckResult("britton-oracle-equivalence", ok,
                       f"{checked} words (closure {len(closure)}), "
                       f"{disagreements} disagreements, {dt:.1f}s", dt)


# -- 4: commutator triviality equals membership ------------------------------------

def check_commutator_membership(seed: int) -> CheckResult:
    t0 = time.time()
    rng = random.Random(seed + 3)

    h = halfline_structure()
    member = h.stable["t"].member_a
    tsym = GenSym("t")
    bad = 0
    checked = 0
    while checked < 200:
        m = rng.randint(1, 3)
        word = EMPTY
        for _ in range(m):
            vec = tuple([_small_rat(rng) * rng.choice((1, 1, 1, -1))]
                        + [_small_rat(rng) for _ in range(rng.randint(0, 2))])
            piece = encode_w(vec)
            word = concat(word, piece if rng.random() < 0.8 else invert(piece))
        if rng.random() < 0.25:
            word = concat(word, Word.from_letters([(GenSym("x", (Fraction(1), Fraction(7))), 1)]))
        if len(word) == 0:
            continue
        checked += 1
        expect = member(word, ())
        got = hnn_is_identity(h, commutator(tsym, word))
        if got != expect:
            bad += 1
    dt = time.time() - t0
    return CheckResult("commutator-membership", bad == 0,
                       f"200 probe words, {bad} mismatches", dt)


# -- 5: certificate round trip on the example corpora -------------------------------

def _corpus_identities(name: str, p: Presentation, rng: random.Random, count: int):
    """Trivial words built from relator instances (verified against the oracle)."""
    oracle = ORACLES[name]
    out = []
    while len(out) < count:
        w = _corpus_identity(name, p, rng)
        if w is not None and oracle(w):
            out.append(w)
    return out


def _letter(name: str, rng: random.Random, u_share: float):
    """A random generator letter of the named group; in sl2 it is a
    translation u(s) with probability u_share, else v."""
    if name == "torus" or name == "rationals-a":
        return GenSym("x", (_small_rat(rng),)), rng.choice((1, -1))
    if name == "rationals-b":
        return (GenSym("x", (Fraction(rng.randint(-5, 5)), Fraction(rng.randint(1, 5)))),
                rng.choice((1, -1)))
    if name == "circle":
        return GenSym("x", _ray(rng)), rng.choice((1, -1))
    return u_word(_small_rat(rng)) if rng.random() < u_share else v_word()


def _conjugator(name: str, rng: random.Random) -> Word:
    return Word.from_letters([_letter(name, rng, 0.5) for _ in range(rng.randint(0, 2))])


def _ray(rng: random.Random) -> tuple[Fraction, Fraction]:
    r, s = Fraction(0), Fraction(0)
    while (r, s) == (0, 0):
        r, s = _small_rat(rng), _small_rat(rng)
    return r, s


def _unit_pair(rng: random.Random) -> tuple[Fraction, Fraction]:
    t = _small_rat(rng)
    den = 1 + t * t
    return (1 - t * t) / den, 2 * t / den


def _corpus_identity(name: str, p: Presentation, rng: random.Random) -> Optional[Word]:
    def inst(si_params):
        si, params = si_params
        return p.relators[si].instantiate(params)

    pick = rng.random()
    if name == "torus":
        t, s = _small_rat(rng), _small_rat(rng)
        core = inst((0, (t,))) if pick < 0.4 else inst((2, (t, s)))
    elif name == "rationals-a":
        t, s = _small_rat(rng), _small_rat(rng)
        core = inst((0, (t, s)))
    elif name == "rationals-b":
        if pick < 0.5:
            params = (Fraction(rng.randint(-6, 6)), Fraction(rng.randint(1, 6)),
                      Fraction(rng.randint(-6, 6)), Fraction(rng.randint(1, 6)))
            core = inst((0, params))
        else:
            params = (Fraction(rng.randint(-6, 6)), Fraction(rng.randint(1, 6)),
                      Fraction(rng.choice((-3, -2, -1, 1, 2, 3))))
            core = inst((2, params))
    elif name == "circle":
        if pick < 0.5:
            # the same-ray relator literally requires a*r > 0, so r != 0 here
            r, s = _ray(rng)
            while r == 0:
                r, s = _ray(rng)
            lam = abs(_small_rat(rng))
            while lam == 0:
                lam = abs(_small_rat(rng))
            core = inst((0, (r, s, lam * r, lam * s)))
        else:
            r, s = _unit_pair(rng)
            a, b = _unit_pair(rng)
            core = inst((2, (r, s, a, b, r * a - s * b, r * b + s * a)))
    else:  # sl2
        which = rng.randrange(4)
        a = _small_rat(rng)
        b = _small_rat(rng)
        while a == 0:
            a = _small_rat(rng)
        while b == 0:
            b = _small_rat(rng)
        if which == 0:
            core = inst((0, (a, b)))
        elif which == 1:
            core = inst((2, (a, 1 / a, b, 1 / b, a * b, 1 / (a * b))))
        elif which == 2:
            core = inst((4, ()))
        else:
            core = inst((6, (a, 1 / a, b)))
    if len(free_reduce(core)) != len(core):
        return None  # instance collapses; its parameters are not locally visible
    c = _conjugator(name, rng)
    w = concat(c, core, invert(c))
    if len(w) != 2 * len(c) + len(core):
        return None  # conjugator cancels into the instance
    if rng.random() < 0.3:
        c2 = _conjugator(name, rng)
        w2 = concat(w, c2, core, invert(c2))
        if len(w2) == len(w) + 2 * len(c2) + len(core):
            w = w2
    return w if len(w) > 0 else None


def _corpus_refuted(name: str, rng: random.Random, count: int):
    oracle = ORACLES[name]
    out = []
    while len(out) < count:
        n = rng.randint(1, 3 if name == "circle" else 4)
        w = free_reduce(Word.from_letters([_letter(name, rng, 0.7) for _ in range(n)]))
        if len(w) == 0:
            continue
        try:
            if not oracle(w):
                out.append(w)
        except ValueError:
            continue
    return out


def check_certificate_roundtrip(seed: int) -> CheckResult:
    t0 = time.time()
    rng = random.Random(seed + 4)
    names = ("circle", "torus", "sl2", "rationals-a", "rationals-b")
    proved = verified = refuted_ok = 0
    failures = []
    for name in names:
        p = BUILTIN_PRESENTATIONS[name]()
        for w in _corpus_identities(name, p, rng, 100):
            cert = wp_semidecide(p, w, 100_000)
            if cert is None:
                failures.append((name, "unproved", w))
                continue
            proved += 1
            if verify_certificate(p, w, cert):
                verified += 1
            else:
                failures.append((name, "unverified", w))
        for w in _corpus_refuted(name, rng, 100):
            if wp_semidecide(p, w, 1500) is None:
                refuted_ok += 1
            else:
                failures.append((name, "false-proof", w))
    dt = time.time() - t0
    ok = proved == verified == 500 and refuted_ok == 500 and not failures and dt < 120.0
    return CheckResult("certificate-roundtrip", ok,
                       f"{proved}/500 proved, {verified} verified, "
                       f"{refuted_ok}/500 refuted stay unproved, {dt:.1f}s", dt)


# -- 6: table coherence -------------------------------------------------------------

def row_cases(rng: random.Random):
    """A random dimension and one operation of every table row over it.

    Shared with `realword figure1`; the order of rng draws is frozen.
    """
    D = rng.randint(3, 5)
    i = rng.randint(2, D)
    j = rng.randint(1, i - 1)
    k = rng.randint(1, i - 1)
    alpha = _small_rat(rng)
    return D, [("copy", i, j), ("assign", i, alpha), ("add", i, j, k),
               ("neg", i, j), ("mul", i, j, k), ("inv", i, j),
               ("geq", j), ("lt", j)]


def positive_sample(spec, rng: random.Random):
    """A random input vector satisfying the row relation of `spec`."""
    D = spec.D
    vec = [_small_rat(rng) for _ in range(D)]

    def nz():
        x = _small_rat(rng)
        while x == 0:
            x = _small_rat(rng)
        return x

    row, op = spec.row, spec.op
    if row == "copy":
        vec[op[1] - 1] = vec[op[2] - 1]
    elif row == "const":
        vec[op[1] - 1] = op[2]
    elif row == "add":
        _, i, j, k = op
        vec[i - 1] = vec[j - 1] + vec[k - 1]
    elif row == "neg":
        vec[op[1] - 1] = -vec[op[2] - 1]
    elif row == "mul":
        _, i, j, k = op
        vec[j - 1] = nz()
        vec[k - 1] = nz()
        vec[i - 1] = vec[j - 1] * vec[k - 1]
    elif row == "inv":
        _, i, j = op
        vec[j - 1] = nz()
        vec[i - 1] = 1 / vec[j - 1]
    elif row == "geq":
        vec[op[1] - 1] = abs(vec[op[1] - 1])
    else:
        v = vec[op[1] - 1]
        vec[op[1] - 1] = -abs(v) if v != 0 else Fraction(-1)
    return tuple(vec)


def row_holds(spec, vec) -> bool:
    """Does vec satisfy the row relation, reach W and reach L, all three?"""
    if not spec.w_pred.eval(vec):
        return False
    w = encode_w(vec)
    return w_membership(spec, w) and l_reachability_check(spec, w)


def _violate(spec, vec, rng: random.Random):
    vec = list(vec)
    op, row = spec.op, spec.row
    tgt = op[1] - 1
    if row in ("geq", "lt"):
        v = vec[tgt]
        vec[tgt] = -(abs(v) + 1) if row == "geq" else abs(v) + 1
    else:
        vec[tgt] = vec[tgt] + 1 + abs(_small_rat(rng))
    return tuple(vec)


def check_table_coherence(seed: int) -> CheckResult:
    t0 = time.time()
    rng = random.Random(seed + 5)
    rows = checked = bad = 0
    for kind in ("copy", "assign", "add", "neg", "mul", "inv", "geq", "lt"):
        rows += 1
        pos = neg = 0
        while pos < 100 or neg < 20:
            D, cases = row_cases(rng)
            op = next(c for c in cases if c[0] == kind)
            spec = build_W(op, 0, D)
            if pos < 100:
                vec = positive_sample(spec, rng)
                checked += 1
                pos += 1
                if not row_holds(spec, vec):
                    bad += 1
            if neg < 20:
                vec2 = _violate(spec, positive_sample(spec, rng), rng)
                if spec.w_pred.eval(vec2):
                    continue  # perturbation failed to violate; resample
                checked += 1
                neg += 1
                if l_reachability_check(spec, encode_w(vec2)) \
                        or w_membership(spec, encode_w(vec2)):
                    bad += 1
    dt = time.time() - t0
    ok = bad == 0 and dt < 30.0
    return CheckResult("table-coherence", ok,
                       f"{rows} rows, {checked} samples, {bad} failures, {dt:.1f}s", dt)


# -- 7: action composition laws ------------------------------------------------------

def check_action_laws(seed: int) -> CheckResult:
    t0 = time.time()
    rng = random.Random(seed + 6)
    bad = 0
    for _ in range(1000):
        d = rng.randint(1, 4)
        vecs = [tuple(_small_rat(rng) for _ in range(rng.randint(1, d)))
                for _ in range(rng.randint(1, 3))]
        w = EMPTY
        for v in vecs:
            w = concat(w, encode_w(v))
        i = Fraction(rng.randint(1, d))
        j = Fraction(rng.randint(1, d))
        while j == i:
            j = Fraction(rng.randint(1, d + 1))
        tt, uu = _small_rat(rng), _small_rat(rng)
        a = lambda ii, s: GenSym("a", (ii, s))
        m = lambda ii, s: GenSym("m", (ii, s))
        if stable_conjugate(a(i, tt), stable_conjugate(a(i, uu), w)) \
                != stable_conjugate(a(i, tt + uu), w):
            bad += 1
        nt = tt if tt != 0 else Fraction(2)
        nu = uu if uu != 0 else Fraction(3)
        if stable_conjugate(m(i, nt), stable_conjugate(m(i, nu), w)) \
                != stable_conjugate(m(i, nt * nu), w):
            bad += 1
        if stable_conjugate(a(i, tt), stable_conjugate(a(j, uu), w)) \
                != stable_conjugate(a(j, uu), stable_conjugate(a(i, tt), w)):
            bad += 1
        if stable_conjugate(m(i, nt), stable_conjugate(a(j, uu), w)) \
                != stable_conjugate(a(j, uu), stable_conjugate(m(i, nt), w)):
            bad += 1
    dt = time.time() - t0
    return CheckResult("action-laws", bad == 0,
                       f"1000 random cases x 4 laws, {bad} failures", dt)


# -- 8: halting vs membership, differentially -----------------------------------------

def check_halting_reduction(seed: int) -> CheckResult:
    t0 = time.time()
    rng = random.Random(seed + 7)
    programs = {
        "sign": sign_program(),
        "poly3": poly3_program(),
        "square": square_program(),
        "recip": recip_program(),
        "double": double_program(),
        "halt": halt_program(),
    }
    fuel = 10_000
    total = disagreements = halts = 0
    for name, prog in programs.items():
        inputs = []
        for _ in range(200):
            inputs.append((Fraction(rng.randint(-12, 12), rng.randint(1, 6)),))
        report = check_reduction(prog, inputs, fuel)
        for rec in report:
            total += 1
            if rec["conclusive"] and not rec["agree"]:
                disagreements += 1
            if rec["simulated"] == "halt":
                halts += 1
                if rec["group"] != "member":
                    disagreements += 1
    dt = time.time() - t0
    ok = disagreements == 0 and dt < 300.0
    return CheckResult("halting-reduction", ok,
                       f"{total} inputs over {len(programs)} programs "
                       f"({halts} halting), {disagreements} disagreements, {dt:.0f}s",
                       dt)


# -- 9: matrix relations ---------------------------------------------------------------

def check_matrix_relations(seed: int) -> CheckResult:
    t0 = time.time()
    rng = random.Random(seed + 8)
    bad = 0
    for _ in range(100):
        a, b = _small_rat(rng), _small_rat(rng)
        while a == 0:
            a = _small_rat(rng)
        while b == 0:
            b = _small_rat(rng)
        sl1 = Word.from_letters([u_word(a), u_word(b), (GenSym("x", (a + b,)), -1)])
        sl2w = Word.from_letters(
            s_word(a) + s_word(b)
            + [(g, -e) for g, e in reversed(s_word(a * b))])
        sl3 = Word.from_letters([v_word(), v_word()]
                                + [(g, -e) for g, e in reversed(s_word(-1))])
        sl4 = Word.from_letters(
            s_word(a) + [u_word(b)] + s_word(1 / a)
            + [(GenSym("x", (b * a * a,)), -1)])
        for w in (sl1, sl2w, sl3, sl4):
            if not sl2_wp(w):
                bad += 1
        probe = Word.from_letters(
            [u_word(_small_rat(rng)) if rng.random() < 0.6 else v_word()
             for _ in range(rng.randint(0, 8))])
        m = sl2_eval(probe)
        if m[0][0] * m[1][1] - m[0][1] * m[1][0] != 1:
            bad += 1
    dt = time.time() - t0
    return CheckResult("matrix-relations", bad == 0,
                       f"100 parameter draws x 4 relation families, {bad} failures", dt)


# -- 10: constant hygiene ----------------------------------------------------------------

NONNEG_SRC = """\
1: add r0 r1 r2
2: brgeq 5
3: mul r0 r1 r1
4: brgeq 3
5: halt
"""


def check_constant_hygiene(seed: int) -> CheckResult:
    t0 = time.time()
    from .machine import parse_program
    rng = random.Random(seed + 9)
    prog = parse_program(NONNEG_SRC)
    assert not prog.constants
    handle = assemble_u(prog)
    bad = 0
    for _ in range(50):
        vec = tuple(_small_rat(rng) for _ in range(rng.randint(1, 3)))
        allowed = set(vec) | {Fraction(0)} | {Fraction(n) for n in range(0, 8)}
        query, comm = reduce_halting(prog, vec)
        for w in (query, comm):
            if not word_constants(w) <= allowed:
                bad += 1
    for b in range(8):
        for d in range(b + 1):
            for path in handle.enum.exact(d, b - d):
                if not path_constants(path) <= {Fraction(0)}:
                    bad += 1
    dt = time.time() - t0
    return CheckResult("constant-hygiene", bad == 0,
                       f"50 inputs + enumerated path scan, {bad} leaks", dt)


ALL_CHECKS: list[Callable[[int], CheckResult]] = [
    check_free_reduction_confluence,
    check_pattern_freeness,
    check_britton_oracle,
    check_commutator_membership,
    check_certificate_roundtrip,
    check_table_coherence,
    check_action_laws,
    check_halting_reduction,
    check_matrix_relations,
    check_constant_hygiene,
]
