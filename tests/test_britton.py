import random
from fractions import Fraction as F

import pytest

from realword.britton import (CERTIFIED, INCONCLUSIVE, NEG_POS_WITH_A,
                              POS_NEG_WITH_B, AmalgamOracles, HnnStructure,
                              OracleUndefined, PinchSite, StableKind,
                              amalgam_nontrivial, bs12_structure,
                              britton_reduce, commutator, commuting_structure,
                              find_pinch, halfline_structure, hnn_is_identity)
from realword.programs import ALL_PROGRAMS
from realword.reduction import assemble_u, u_structure
from realword.words import (EMPTY, GenSym, Word, concat, encode_w, free_reduce,
                            invert, nielsen_decompose, parse_word)

A = GenSym("a")
T = GenSym("t")


def aw(*exps):
    return Word.from_letters([(A, e) for e in exps])


def tw(word_text):
    return parse_word(word_text)


def test_find_pinch_examples():
    h = bs12_structure()
    site = find_pinch(h, tw("t . a . t^-1"))
    assert site is not None
    assert (site.start, site.end, site.kind) == (0, 3, POS_NEG_WITH_B)
    assert find_pinch(h, tw("a . a . a^-1")) is None  # no stable letters
    assert find_pinch(h, tw("t . a . t")) is None  # same signs
    neg = find_pinch(h, tw("t^-1 . a . a . t"))
    assert neg is not None and neg.kind == NEG_POS_WITH_A


def test_britton_reduce_examples():
    h = bs12_structure()
    assert britton_reduce(h, tw("t . a . t^-1 . a^-1 . a^-1")) == EMPTY
    assert britton_reduce(h, tw("a . a^-1 . a")) == tw("a")
    assert britton_reduce(h, tw("t . a . a . t^-1")) == tw("a . a . a . a")
    assert britton_reduce(h, tw("t^-1 . a . a . t")) == tw("a")
    out = britton_reduce(h, tw("t . a . t^-1"))
    assert find_pinch(h, out) is None


def test_hnn_is_identity():
    h = bs12_structure()
    assert hnn_is_identity(h, EMPTY)
    assert hnn_is_identity(h, tw("t . a . t^-1 . a^-1 . a^-1"))
    assert not hnn_is_identity(h, tw("t . a . t^-1 . a^-1"))
    assert not hnn_is_identity(h, tw("t^-1 . a . t"))  # pinch-free, letters remain
    assert not hnn_is_identity(h, tw("a"))


def test_base_embeds():
    h = bs12_structure()
    rng = random.Random(30)
    for _ in range(200):
        w = Word.from_letters([(A, rng.choice((1, -1)))
                               for _ in range(rng.randint(0, 10))])
        assert hnn_is_identity(h, w) == (len(free_reduce(w)) == 0)


def test_commuting_extension_membership():
    # t commutes exactly with words whose pattern factors have r_1 >= 0
    def member(g, idx=()):
        dec = nielsen_decompose(g)
        return dec is not None and all(len(v) >= 1 and v[0] >= 0 for _, v in dec)

    h = commuting_structure(lambda w: len(free_reduce(w)) == 0, "t", member)
    rng = random.Random(31)
    for _ in range(200):
        vec = tuple(F(rng.randint(-6, 6), rng.randint(1, 3))
                    for _ in range(rng.randint(1, 3)))
        g = encode_w(vec)
        expected = vec[0] >= 0
        assert hnn_is_identity(h, commutator(GenSym("t"), g)) == expected


def test_oracle_undefined_propagates():
    def partial(g, idx=()):
        raise OracleUndefined("cannot settle")

    h = HnnStructure(lambda w: len(free_reduce(w)) == 0,
                     {"t": StableKind(partial, partial,
                                      lambda g, i: g, lambda g, i: g)})
    with pytest.raises(OracleUndefined):
        hnn_is_identity(h, tw("t . a . t^-1"))


def test_indexed_stable_letters_need_matching_indices():
    h = bs12_structure()
    t1 = GenSym("t", ())
    # a pinch needs the same stable letter on both sides; fabricate a word
    # with two different stable families to check no cross-pinch happens
    h2 = HnnStructure(h.base_is_identity,
                      {"t": h.stable["t"], "s": h.stable["t"]})
    w = Word.from_letters([(GenSym("t"), 1), (A, 1), (GenSym("s"), -1)])
    assert find_pinch(h2, w) is None


def test_amalgam_nontrivial():
    is_id = lambda w: len(free_reduce(w)) == 0
    in_a = lambda w: (dec := nielsen_decompose(w)) is not None \
        and all(len(v) >= 1 and v[0] >= 0 for _, v in dec)
    oracles = AmalgamOracles(is_id, is_id, in_a, in_a)
    good = encode_w((F(-1),))
    assert amalgam_nontrivial([(1, good)], oracles) == CERTIFIED
    assert amalgam_nontrivial([(1, EMPTY)], oracles) == INCONCLUSIVE
    assert amalgam_nontrivial([], oracles) == INCONCLUSIVE
    assert amalgam_nontrivial([(1, good), (1, good)], oracles) == INCONCLUSIVE
    inside = encode_w((F(2),))
    assert amalgam_nontrivial([(1, inside), (2, good)], oracles) == INCONCLUSIVE
    assert amalgam_nontrivial([(1, good), (2, good)], oracles) == CERTIFIED
    with pytest.raises(ValueError):
        amalgam_nontrivial([(3, good)], oracles)


def test_termination_stable_count():
    h = bs12_structure()
    w = tw("t . t . a . a . t^-1 . t^-1")
    out = britton_reduce(h, w)
    stable = [1 for g, _ in out.letters if g.family == "t"]
    assert not stable
    assert out == aw(*([1] * 8))


# -- the letters-based procedures, kept as a reference for the id-based ones ---

def ref_find_pinch(h, w):
    letters = w.letters
    stables = [(k, g, e) for k, (g, e) in enumerate(letters)
               if g.family in h.stable]
    for (p1, g1, e1), (p2, g2, e2) in zip(stables, stables[1:]):
        if g1 != g2 or e1 == e2:
            continue
        seg = Word.from_letters(letters[p1 + 1:p2])
        kind = h.stable[g1.family]
        if e1 == -1:
            if kind.member_a(seg, g1.index):
                return PinchSite(p1, p2 + 1, NEG_POS_WITH_A, (g1, e1))
        else:
            if kind.member_b(seg, g1.index):
                return PinchSite(p1, p2 + 1, POS_NEG_WITH_B, (g1, e1))
    return None


def ref_britton_reduce(h, w):
    w = free_reduce(w)
    while True:
        site = ref_find_pinch(h, w)
        if site is None:
            return w
        letters = w.letters
        g, _ = site.letter
        seg = Word.from_letters(letters[site.start + 1:site.end - 1])
        kind = h.stable[g.family]
        image = (kind.forward if site.kind == NEG_POS_WITH_A else kind.backward)(
            seg, g.index)
        w = concat(Word.from_letters(letters[:site.start]), image,
                   Word.from_letters(letters[site.end:]))


def ref_hnn_is_identity(h, w):
    reduced = ref_britton_reduce(h, w)
    if any(g.family in h.stable for g, _ in reduced.letters):
        return False
    return h.base_is_identity(reduced)


def logged(h, log):
    """h with every oracle call recorded as (oracle, segment, index)."""
    def wrap(name, fn):
        def call(g, idx):
            log.append((name, g, idx))
            return fn(g, idx)
        return call

    return HnnStructure(h.base_is_identity, {
        fam: StableKind(*(wrap(f"{fam}.{name}", getattr(k, name))
                          for name in ("member_a", "member_b", "forward",
                                       "backward")))
        for fam, k in h.stable.items()})


def outcome(fn, h, w):
    try:
        return fn(h, w)
    except OracleUndefined as exc:
        return ("raised", str(exc))


def assert_same_as_reference(h, w):
    """Same pinch, reduced word, verdict and oracle calls as the reference."""
    new_log, ref_log = [], []
    new_h, ref_h = logged(h, new_log), logged(h, ref_log)
    r = free_reduce(w)
    assert outcome(find_pinch, new_h, r) == outcome(ref_find_pinch, ref_h, r)
    assert outcome(britton_reduce, new_h, w) == outcome(ref_britton_reduce, ref_h, w)
    verdict = outcome(hnn_is_identity, new_h, w)
    assert verdict == outcome(ref_hnn_is_identity, ref_h, w)
    assert new_log == ref_log
    return verdict, [name for name, _, _ in new_log]


# a second letter of the stable family: it never pinches with T
T1 = GenSym("t", (F(1),))


def stable_sandwiches(rng, pieces, stables, depth):
    """A word mixing random pieces with t^e . (...) . t^-e sandwiches."""
    out = []
    for _ in range(rng.randint(1, 4)):
        roll = rng.random()
        t = rng.choice(stables)
        if depth and roll < 0.4:
            e = rng.choice((1, -1))
            out.append(concat(Word.from_letters([(t, e)]),
                              stable_sandwiches(rng, pieces, stables, depth - 1),
                              Word.from_letters([(t, -e)])))
        elif roll < 0.55:
            out.append(Word.from_letters([(t, rng.choice((1, -1)))]))
        else:
            out.append(rng.choice(pieces)(rng))
    return Word(tuple(v for piece in out for v in piece.ids))  # unreduced


def test_britton_on_ids_matches_letters_bs12():
    h = bs12_structure()
    a_pow = lambda rng: aw(*[rng.choice((1, -1))] * rng.randint(0, 4))
    rng = random.Random(160)
    calls = []
    for _ in range(400):
        w = stable_sandwiches(rng, [a_pow], (T, T1), 3)
        calls += assert_same_as_reference(h, w)[1]
    # pinches were eliminated both ways, so the images were non-trivial
    assert calls.count("t.forward") > 20 and calls.count("t.backward") > 20


def test_britton_on_ids_matches_letters_halfline():
    h = halfline_structure()
    vals = (F(-2), F(-1, 2), F(0), F(1), F(5, 3))

    def pattern(rng):
        g = encode_w(tuple(rng.choice(vals) for _ in range(rng.randint(0, 2))))
        return g if rng.random() < 0.5 else invert(g)

    def stray(rng):
        return Word.from_letters([(GenSym("x", (F(rng.randint(0, 2)),
                                                rng.choice(vals))),
                                   rng.choice((1, -1)))])

    rng = random.Random(161)
    calls = []
    for _ in range(400):
        w = stable_sandwiches(rng, [pattern, pattern, stray], (T, T1), 2)
        calls += assert_same_as_reference(h, w)[1]
    pinched = calls.count("t.forward") + calls.count("t.backward")
    assert pinched > 20 and calls.count("t.member_a") + calls.count("t.member_b") > pinched
    verdicts = [assert_same_as_reference(h, commutator(T, pattern(rng)))[0]
                for _ in range(100)]
    assert verdicts.count(True) > 20 and verdicts.count(False) > 20


@pytest.mark.parametrize("name", sorted(ALL_PROGRAMS))
def test_britton_on_ids_matches_letters_u_structure(name):
    h = u_structure(assemble_u(ALL_PROGRAMS[name]()), 10000)

    def pattern(rng):
        g = encode_w((F(rng.randint(-6, 6), rng.randint(1, 3)),))
        return g if rng.random() < 0.5 else invert(g)

    rng = random.Random(f"u/{name}")
    calls, verdicts = [], []
    for w in [stable_sandwiches(rng, [pattern], (T,), 2) for _ in range(60)] \
            + [commutator(T, pattern(rng)) for _ in range(20)]:
        verdict, names = assert_same_as_reference(h, w)
        verdicts.append(verdict)
        calls += names
    assert calls.count("t.forward") + calls.count("t.backward") > 20
    assert verdicts.count(True) > 5 and verdicts.count(False) > 5


def test_britton_on_ids_propagates_oracle_undefined():
    # bs12's oracles, undefined on segments of odd length
    base = bs12_structure().stable["t"]

    def partial(fn):
        def call(g, idx):
            if len(g) % 2:
                raise OracleUndefined(f"odd segment {g!r}")
            return fn(g, idx)
        return call

    h = HnnStructure(lambda w: len(free_reduce(w)) == 0, {"t": StableKind(
        partial(base.member_a), partial(base.member_b),
        base.forward, base.backward)})
    a_pow = lambda rng: aw(*[rng.choice((1, -1))] * rng.randint(0, 3))
    rng = random.Random(162)
    verdicts = [assert_same_as_reference(h, stable_sandwiches(rng, [a_pow], (T,), 3))[0]
                for _ in range(300)]
    raised = [v for v in verdicts if isinstance(v, tuple)]
    assert len(raised) > 20 and len(raised) < len(verdicts)
