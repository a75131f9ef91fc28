import dataclasses
import hashlib
import json
import random
import tracemalloc
from fractions import Fraction as F
from pathlib import Path

import pytest

from realword import presentations, selftest
from realword.predicates import TRUE, eq, is_nat, ne, solve_unknown, var
from realword.presentations import (ActionRule, ArityMismatch, CertEntry,
                                    Certificate, GenClause, LetterTemplate,
                                    Presentation, RelatorSchema, StableSpec,
                                    WordFamily, amalgamate,
                                    check_generator, check_relator,
                                    enumerate_conjugators, enumerate_relators,
                                    free_product, hnn_extend,
                                    presentation_from_json,
                                    presentation_to_json, verify_certificate,
                                    wp_semidecide)
from realword.sample_groups import (BUILTIN_PRESENTATIONS,
                                    circle_presentation, sl2_presentation,
                                    torus_presentation)
from realword.selftest import _corpus_identities, _corpus_refuted
from realword.words import (_ID_SYMS, EMPTY, GenSym, Word, concat, format_word,
                            intern_parts, invert, parse_word)

GOLDEN = Path(__file__).parent / "golden"


def free_pres(arity=1, label="free"):
    return Presentation(label, arity, (GenClause("x", arity, TRUE),))


def test_check_generator():
    circ = circle_presentation()
    assert check_generator(circ, GenSym("x", (F(2), F(0))))
    assert not check_generator(circ, GenSym("x", (F(0), F(0))))
    assert not check_generator(circ, GenSym("y"))
    with pytest.raises(ArityMismatch):
        check_generator(circ, GenSym("x", (F(1), F(2), F(3))))
    free = free_pres()
    for r in (F(0), F(-7, 3)):
        assert check_generator(free, GenSym("x", (r,)))


def test_check_relator():
    tor = torus_presentation()
    assert check_relator(tor, parse_word("x(1/3) . x(1/4) . x(7/12)^-1"))
    assert not check_relator(tor, parse_word("x(1/3) . x(1/4) . x(1/2)^-1"))
    assert not check_relator(tor, EMPTY)
    # `match` checks every letter's shape before it reads an index: a word
    # that differs from the relator in one letter's family, exponent or
    # index length is no relator
    texts = ["x(1/3)", "x(1/4)", "x(7/12)^-1"]
    variants = [("y(1/3)", "x(1/3)^-1", "x(1,2)"),
                ("y(1/4)", "x(1/4)^-1", "x(1,2)"),
                ("y(7/12)^-1", "x(7/12)", "x(1,2)^-1")]
    for k in range(3):
        for other in variants[k]:
            w = parse_word(" . ".join(texts[:k] + [other] + texts[k + 1:]))
            assert len(w) == 3 and not check_relator(tor, w), format_word(w)


# the letter-based matcher the search used before it matched interned ids,
# kept as the reference for `RelatorSchema.match_prefix`
def _match_prefix_letters(schema: RelatorSchema, letters, start: int):
    """Every (L, params) making template[:L] equal letters[start:start+L]."""
    known = {}
    seen = []
    params = None
    hits = []
    tpl = schema.template
    for L, (t, (gen, exp)) in enumerate(zip(tpl, letters[start:start + len(tpl)]), 1):
        if gen.family != t.family or exp != t.exp or len(gen.index) != len(t.index):
            break
        obs = tuple(zip(t.index, gen.index))
        if params is None:
            seen.extend(obs)
            progress = True
            while progress and len(known) < schema.arity:
                progress = False
                for expr, val in seen:
                    if expr.op == "var":  # a bare variable binds directly
                        if expr.k not in known:
                            known[expr.k] = val
                            progress = True
                    elif len(expr.vars() - known.keys()) == 1:
                        got = solve_unknown(expr, val, known)
                        if got is not None:
                            known[got[0]] = got[1]
                            progress = True
            if len(known) < schema.arity:
                continue
            params = tuple([known[i] if i in known else F(0)
                            for i in range(schema.arity)])
            if not (all(expr.eval(params) == val for expr, val in seen)
                    and schema.constraint.eval(params)):
                return None
        elif any(expr.eval(params) != val for expr, val in obs):
            break
        hits.append((L, params))
    return hits[::-1] or None


# the binding fixpoint `match_prefix` ran at every window before it kept a
# plan per schema, kept as the reference for its planned and fallback runs
def _match_fixpoint(schema: RelatorSchema, window):
    """`match_prefix` without a plan: at each letter, bind and solve until
    nothing changes."""
    known = {}
    seen = []
    params = None
    hits = []
    for L, (t, v) in enumerate(zip(schema.template, window), 1):
        obs = tuple(zip(t.index, _ID_SYMS[abs(v)].index))
        if params is None:
            seen.extend(obs)
            progress = True
            while progress and len(known) < schema.arity:
                progress = False
                for expr, val in seen:
                    if expr.op == "var":  # a bare variable binds directly
                        if expr.k not in known:
                            known[expr.k] = val
                            progress = True
                    elif len(expr.vars() - known.keys()) == 1:
                        got = solve_unknown(expr, val, known)
                        if got is not None:
                            known[got[0]] = got[1]
                            progress = True
            if len(known) < schema.arity:
                continue
            params = tuple([known[i] for i in range(schema.arity)])
            if not (all(expr.eval(params) == val for expr, val in seen)
                    and schema.constraint.eval(params)):
                return None
        elif any(expr.eval(params) != val for expr, val in obs):
            break
        hits.append((L, params))
    return hits[::-1] or None


def _count_fallbacks(monkeypatch) -> list:
    """The windows that `_bind` is run on from now on: those where a
    planned solve met a zero coefficient."""
    fallbacks = []
    bind = RelatorSchema._bind

    def counted(self, window=None):
        if window is not None:
            fallbacks.append(window)
        return bind(self, window)

    monkeypatch.setattr(RelatorSchema, "_bind", counted)
    return fallbacks


def test_match_prefix_returns_every_matching_prefix():
    tor = torus_presentation()
    shift, sum_ = (next(s for s in tor.relators if s.label == name)
                   for name in ("shift", "sum"))
    ids = parse_word("x(1/3) . x(1/4) . x(7/12)^-1").ids
    assert sum_.match_prefix(ids) == [(3, (F(1, 3), F(1, 4))),
                                      (2, (F(1, 3), F(1, 4)))]
    # the shape breaks at the inverse letter before v1 is bound
    assert sum_.match_prefix(ids[1:2]) is None
    # x(5/2) is not x(1/2 + 1): only the one-letter prefix matches
    assert shift.match_prefix(parse_word("x(1/2) . x(5/2)^-1").ids) \
        == [(1, (F(1, 2),))]


def test_empty_arity_zero_schema_matches_the_empty_word():
    p = Presentation("e", 0, (GenClause("y", 0, TRUE),),
                     (RelatorSchema(0, ()),))
    assert p.relators[0].match(EMPTY) == ()
    assert check_relator(p, EMPTY)
    assert not check_relator(p, parse_word("y"))


def test_enumerate_relators():
    tor = torus_presentation()
    words = [enumerate_relators(tor, i) for i in range(30)]
    assert all(check_relator(tor, w) for w in words)
    # deterministic across fresh stream instances
    tor2 = torus_presentation()
    again = [enumerate_relators(tor2, i) for i in range(30)]
    assert words == again
    with pytest.raises(ValueError):
        enumerate_relators(free_pres(), 0)


def test_stream_golden():
    golden = json.loads((GOLDEN / "torus_streams.json").read_text())
    tor = torus_presentation()
    assert [format_word(enumerate_relators(tor, i)) for i in range(20)] \
        == golden["relators"]
    assert [format_word(enumerate_conjugators(tor, i)) for i in range(12)] \
        == golden["conjugators"]


def test_free_product():
    rng = random.Random(20)
    for _ in range(10):
        d1, d2 = rng.randint(1, 3), rng.randint(1, 3)
        p1, p2 = free_pres(d1, "a"), free_pres(d2, "b")
        fp = free_product(p1, p2)
        assert fp.dim == max(d1, d2) + 1
        assert fp.relators == ()
        g1 = GenSym("x", tuple(F(1) for _ in range(d1)) + (F(1),))
        g2 = GenSym("x", tuple(F(1) for _ in range(d2)) + (F(2),))
        bad = GenSym("x", tuple(F(1) for _ in range(d1)) + (F(3),))
        assert check_generator(fp, g1)
        assert check_generator(fp, g2)
        assert not check_generator(fp, bad)
    tp = free_product(torus_presentation(), free_pres())
    inst = tp.relators[0].instantiate((F(1, 3),))
    assert check_relator(tp, inst)
    assert inst.letters[0][0].index[-1] == 1  # factor tag appended


def test_amalgamate_trivial_is_free_product():
    p1, p2 = free_pres(1, "k"), free_pres(1, "l")
    assert amalgamate(p1, p2, None).relators == ()


def test_amalgamate_toy():
    # identify the first factor's letters with squares in the second factor
    p1, p2 = free_pres(1, "k"), free_pres(1, "l")
    fam = WordFamily(1, (LetterTemplate("x", 1, (var(0),)),))
    image = (LetterTemplate("x", 1, (var(0),)), LetterTemplate("x", 1, (var(0),)))
    amal = amalgamate(p1, p2, fam, image=image)
    assert len(amal.relators) == 1
    schema = amal.relators[0]
    # relator shape: image(v) . v^-1 with the factor tags appended
    inst = schema.instantiate((F(5),))
    assert format_word(inst) == "x(5,2) . x(5,2) . x(5,1)^-1"
    assert check_relator(amal, inst)
    cert = wp_semidecide(amal, inst, 1000)
    assert cert is not None and verify_certificate(amal, inst, cert)
    with pytest.raises(ValueError):
        amalgamate(p1, p2, fam)  # a family needs its image templates


def test_hnn_free_stable_letter():
    base = free_pres()
    ext = hnn_extend(base, StableSpec("t", 0), (), label="free-t")
    assert len(ext.generators) == 2
    assert ext.relators == ()
    assert check_generator(ext, GenSym("t"))


def test_hnn_commutation_schemas():
    base = Presentation("g", 2, (GenClause("x", 2, is_nat(var(0))),
                                 GenClause("y", 0, TRUE)))
    rules = (
        ActionRule("x", 2, eq(var(2), var(0)),
                   (LetterTemplate("x", 1, (var(0), var(3) + var(1))),)),
        ActionRule("x", 2, ne(var(2), var(0))),
        ActionRule("y", 0),
    )
    ext = hnn_extend(base, StableSpec("a", 2, is_nat(var(0))), rules)
    # moved letter: a_(i,t) x_(i,s) a^-1 = x_(i,s+t)
    inst = ext.relators[0].instantiate((F(1), F(5), F(1), F(3)))
    assert format_word(inst) == "x(1,8) . a(1,5) . x(1,3)^-1 . a(1,5)^-1"
    assert check_relator(ext, inst)
    # fixed letter for j != i
    inst2 = ext.relators[1].instantiate((F(1), F(5), F(2), F(3)))
    assert format_word(inst2) == "x(2,3) . a(1,5) . x(2,3)^-1 . a(1,5)^-1"
    with pytest.raises(ValueError):
        ext.relators[0].instantiate((F(1), F(5), F(2), F(3)))  # guard j == i


def test_wp_relator_instance_is_one_step():
    tor = torus_presentation()
    w = parse_word("x(1/3) . x(1/4) . x(7/12)^-1")
    cert = wp_semidecide(tor, w, 10_000)
    assert cert is not None and len(cert.entries) == 1
    assert cert.entries[0].conjugator == EMPTY
    assert verify_certificate(tor, w, cert)


def test_wp_two_step_certificate():
    tor = torus_presentation()
    w = parse_word("x(1/3) . x(2/3) . x(0)^-1")
    cert = wp_semidecide(tor, w, 10_000)
    assert cert is not None and len(cert.entries) == 2
    assert verify_certificate(tor, w, cert)


def test_wp_free_group_unknown():
    free = free_pres()
    assert wp_semidecide(free, parse_word("x(1)"), 100_000) is None


def test_wp_rejects_foreign_letters():
    tor = torus_presentation()
    with pytest.raises(ValueError):
        wp_semidecide(tor, parse_word("y"), 10)


def test_wp_monotone_fuel():
    tor = torus_presentation()
    w = parse_word("x(1/3) . x(2/3) . x(0)^-1")
    low = wp_semidecide(tor, w, 400)
    if low is not None:
        assert wp_semidecide(tor, w, 40_000) == low


def test_wp_empty_word():
    tor = torus_presentation()
    cert = wp_semidecide(tor, EMPTY, 1)
    assert cert is not None and cert.entries == ()
    assert verify_certificate(tor, EMPTY, cert)
    assert not verify_certificate(tor, parse_word("x(1/2)"), cert)


# the goal-move generator before the per-search memo, kept as the reference;
# it matches letters with the reference matcher, not the one under test
def _goal_moves_unmemoised(p: Presentation, u: Word) -> list[tuple[CertEntry, Word]]:
    """Certificate steps that strictly shorten u, by schema-prefix matching."""
    out = []
    ids = u.ids
    letters = u.letters
    n = len(letters)
    for i in range(n):
        for si, schema in enumerate(p.relators):
            for L, params in _match_prefix_letters(schema, letters, i) or ():
                tail = tuple(t.instantiate_id(params) for t in schema.template[L:])
                u1 = concat(Word(ids[:i]), invert(Word(tail)), Word(ids[i + L:]))
                if len(u1) < n:
                    # the matched letters are the instance's first L letters
                    entry = CertEntry(Word(ids[:i]), Word(ids[i:i + L] + tail), si, params)
                    out.append((entry, u1))
    return out


def test_goal_moves_equal_the_unmemoised_moves(monkeypatch):
    # every word the searches expand, with the memo as warm as the search
    # left it, gets the same moves as a fresh match at every position
    memoised = presentations._goal_moves
    current = {}
    expanded = 0

    def both(ids, heads, memos):
        nonlocal expanded
        moves = memoised(ids, heads, memos)
        # the search builds a move's entry and child word only when it is kept
        built = [(CertEntry(Word(ids[:i]), rel, si, params), Word(u1))
                 for i, si, params, rel, u1 in moves]
        assert built == _goal_moves_unmemoised(current["p"], Word(ids))
        expanded += 1
        return moves

    monkeypatch.setattr(presentations, "_goal_moves", both)
    rng = random.Random(3)
    for name in ("circle", "torus", "sl2", "rationals-a", "rationals-b"):
        p = current["p"] = BUILTIN_PRESENTATIONS[name]()
        for w in _corpus_identities(name, p, rng, 3):
            assert wp_semidecide(p, w, 100_000) is not None
        for w in _corpus_refuted(name, rng, 2):
            assert wp_semidecide(p, w, 1500) is None
    assert expanded > 1000


def test_match_prefix_equals_the_letter_matcher(monkeypatch):
    # the search matches a schema on the window of ids up to the first letter
    # whose (family, exp, index length) differs from the template's; on every
    # word the searches expand, at every position and schema, that must equal
    # the reference matcher on the letters, which itself must read nothing
    # past the cut, so a window cut at a mismatch means the same as one cut
    # at the end of the word
    expanded = []
    memoised = presentations._goal_moves

    def keep(ids, heads, memos):
        expanded.append(ids)
        return memoised(ids, heads, memos)

    monkeypatch.setattr(presentations, "_goal_moves", keep)
    rng = random.Random(3)
    cuts = {"mismatch": 0, "word end": 0, "template end": 0}
    for name in ("circle", "torus", "sl2", "rationals-a", "rationals-b"):
        p = BUILTIN_PRESENTATIONS[name]()
        expanded.clear()
        for w in _corpus_refuted(name, rng, 3):
            assert wp_semidecide(p, w, 1500) is None
        for ids in dict.fromkeys(expanded):
            letters = Word(ids).letters
            for i in range(len(letters) + 1):
                for schema in p.relators:
                    tpl = schema.template
                    end = min(len(tpl), len(letters) - i)
                    m = 0
                    while m < end and (letters[i + m][0].family, letters[i + m][1],
                                       len(letters[i + m][0].index)) \
                            == (tpl[m].family, tpl[m].exp, len(tpl[m].index)):
                        m += 1
                    cuts["mismatch" if m < end else
                         "template end" if m == len(tpl) else "word end"] += 1
                    ref = _match_prefix_letters(schema, letters, i)
                    assert ref == _match_prefix_letters(schema, letters[:i + m], i)
                    assert schema.match_prefix(ids[i:i + m]) == ref
    assert min(cuts.values()) > 100, cuts


@pytest.mark.parametrize("seed", [7, 11])
def test_planned_match_equals_the_fixpoint(monkeypatch, seed):
    # every window that check 5's searches match at this seed, on every
    # builtin: the planned match equals the fixpoint and the letter matcher
    windows = {}
    window_hits = presentations._window_hits

    def keep(schema, window):
        # the schema rides along, so its id is not reused while it is a key
        windows[id(schema), window] = schema
        return window_hits(schema, window)

    monkeypatch.setattr(presentations, "_window_hits", keep)
    assert selftest.check_certificate_roundtrip(seed).passed
    matched = 0
    for (_, window), schema in windows.items():
        got = schema.match_prefix(window)
        assert got == _match_fixpoint(schema, window)
        assert got == _match_prefix_letters(schema, Word(window).letters, 0)
        matched += got is not None
    assert len(windows) > 5000 and matched > 1000, (len(windows), matched)


def test_failed_planned_solve_falls_back_to_the_fixpoint(monkeypatch):
    # the plan solves v1 from x(v0 * v1) at the second letter; where v0 is 0
    # that solve fails, and the fixpoint binds v1 from the third letter
    schema = RelatorSchema(2, (LetterTemplate("x", 1, (var(0),)),
                               LetterTemplate("x", 1, (var(0) * var(1),)),
                               LetterTemplate("x", -1, (var(1),))))
    fallbacks = _count_fallbacks(monkeypatch)
    fixpoint = _match_fixpoint
    planned = parse_word("x(2) . x(6) . x(3)^-1").ids
    assert schema.match_prefix(planned) == [(3, (F(2), F(3))), (2, (F(2), F(3)))]
    assert fallbacks == []
    window = parse_word("x(0) . x(0) . x(5)^-1").ids
    assert schema.match_prefix(window) == [(3, (F(0), F(5)))]
    assert fallbacks == [window]
    assert fixpoint(schema, window) == [(3, (F(0), F(5)))]
    assert _match_prefix_letters(schema, Word(window).letters, 0) == [(3, (F(0), F(5)))]
    # a variable only in the constraint, or only in v0 * v0, which is not
    # solved for v0: the plan never binds every variable, so no window
    # matches, as in the fixpoint
    window = parse_word("x(4) . x(2)").ids
    for tpl in (((var(0),), (var(0),)), ((var(0) * var(0),), (var(1),))):
        unbound = RelatorSchema(2, tuple(LetterTemplate("x", 1, idx) for idx in tpl),
                                eq(var(1), 0))
        assert unbound.match_prefix(window) is None
        assert fixpoint(unbound, window) is None
    assert fallbacks == [parse_word("x(0) . x(0) . x(5)^-1").ids]


def test_builtin_schemas_fall_back_where_a_planned_solve_meets_zero(monkeypatch):
    # windows of every builtin schema's shapes, their entries drawn from a
    # small set holding 0, so planned solves meet zero coefficients (as
    # rationals-b's rescale does at x(0,q)); planned and fallback runs both
    # equal the fixpoint and the letter matcher
    from realword.reduction import extension_presentation
    fallbacks = _count_fallbacks(monkeypatch)
    rng = random.Random(29)
    values = (F(0), F(0), F(1), F(-1), F(2), F(1, 2))
    windows = matched = rescued = 0
    for p in [mk() for mk in BUILTIN_PRESENTATIONS.values()] + [extension_presentation()]:
        for schema in p.relators:
            for _ in range(40):
                ids = list(schema.instantiate(
                    [rng.choice(values) for _ in range(schema.arity)], check=False).ids)
                if ids and rng.random() < 0.5:
                    # one entry of one letter moved to another small value
                    L = rng.randrange(len(ids))
                    g = _ID_SYMS[abs(ids[L])]
                    if g.index:
                        index = list(g.index)
                        index[rng.randrange(len(index))] = rng.choice(values)
                        gid = intern_parts(g.family, tuple(index))
                        ids[L] = gid if ids[L] > 0 else -gid
                for m in range(len(ids) + 1):
                    window = tuple(ids[:m])
                    before = len(fallbacks)
                    got = schema.match_prefix(window)
                    assert got == _match_fixpoint(schema, window), (schema.label, window)
                    assert got == _match_prefix_letters(schema, Word(window).letters, 0)
                    windows += 1
                    matched += got is not None
                    # the fallback found the match that the plan could not
                    rescued += got is not None and len(fallbacks) > before
    assert windows > 5000 and matched > 1000, (windows, matched)
    assert len(fallbacks) > 100 and rescued > 0, (len(fallbacks), rescued)


def test_match_plan_is_invisible():
    # a matched schema compares, hashes, prints and serialises as a fresh
    # equal one; parsing builds no plan
    for name in ("circle", "torus", "sl2", "rationals-a", "rationals-b"):
        p, fresh = BUILTIN_PRESENTATIONS[name](), BUILTIN_PRESENTATIONS[name]()
        for w in _corpus_identities(name, p, random.Random(4), 2):
            assert wp_semidecide(p, w, 100_000) is not None
        assert any(s._plan is not None for s in p.relators)
        for s, f in zip(p.relators, fresh.relators):
            assert f._plan is None
            assert (s, hash(s), repr(s)) == (f, hash(f), repr(f))
        assert presentation_to_json(p) == presentation_to_json(fresh)
        parsed = presentation_from_json(presentation_to_json(p))
        assert parsed == p and all(s._plan is None for s in parsed.relators)


# sha256 of the search output below, computed before the search's pops were
# made cheaper; any change to search order or certificate bytes changes it
SEARCH_DIGEST = "991056ce2d3d2f8ab6c8e0886525d0960ade59c3f5a2c1812515f3626d8d08aa"


def test_search_output_is_pinned():
    # four relator-built identities at fuel 100000 and four oracle-refuted
    # words at fuel 1500 per builtin: verdicts and certificate JSON
    h = hashlib.sha256()
    rng = random.Random(12)
    for name in ("circle", "torus", "sl2", "rationals-a", "rationals-b"):
        p = BUILTIN_PRESENTATIONS[name]()
        runs = [(w, 100_000) for w in _corpus_identities(name, p, rng, 4)]
        runs += [(w, 1500) for w in _corpus_refuted(name, rng, 4)]
        for w, fuel in runs:
            cert = wp_semidecide(p, w, fuel)
            out = None if cert is None else cert.to_json()
            h.update(json.dumps([name, format_word(w), fuel, out]).encode() + b"\n")
    assert h.hexdigest() == SEARCH_DIGEST


def test_refuted_search_builds_no_certificate_entry(monkeypatch):
    # a chain link keeps the raw move; entries are built only when a proof
    # returns, so a search that spends its fuel builds none
    built = []

    class Counted(CertEntry):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(presentations, "CertEntry", Counted)
    rng = random.Random(8)
    for name in ("circle", "torus", "sl2", "rationals-a", "rationals-b"):
        p = BUILTIN_PRESENTATIONS[name]()
        for w in _corpus_refuted(name, rng, 2):
            assert wp_semidecide(p, w, 1500) is None
        assert built == [], name
        w = _corpus_identities(name, p, rng, 1)[0]
        cert = wp_semidecide(p, w, 100_000)
        assert len(built) == len(cert.entries) > 0
        assert verify_certificate(p, w, cert)
        built.clear()


@pytest.mark.parametrize("name,word", [("torus", "x(1/2) . x(1/3)"),
                                       ("sl2", "x(1/2) . y . x(2)")],
                         ids=["torus", "sl2"])
def test_refuted_search_memory_per_pop_stays_small(name, word):
    # a refuted search spends all of its fuel, so what it keeps per pop
    # decides how far `realword wp --fuel` can go; a table keeping every
    # popped word's goal moves would hold 370-470 bytes per pop here
    p = BUILTIN_PRESENTATIONS[name]()
    w = parse_word(word)
    fuel = 20_000
    tracemalloc.start()
    try:
        assert wp_semidecide(p, w, fuel) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 320 * fuel, peak


def test_stream_memo_equals_fresh_enumeration():
    # the per-search memo of conjugators and relator inverses against fresh
    # streams, and a blind child built from it against `concat`
    rng = random.Random(5)
    for name in ("circle", "torus", "sl2", "rationals-a", "rationals-b"):
        p = BUILTIN_PRESENTATIONS[name]()
        st = presentations._Streams(p)
        # one request scans a bounded stretch of raw indices: 200 relators,
        # or fewer where they are sparse (26 in circle, 64 in rationals-b)
        st.relator(199)
        relators = len(p._relator_record.found)
        for i in range(200):
            c, c_inv = st.conjugator(i)
            assert c == enumerate_conjugators(p, i)
            assert c_inv == invert(c).ids
        for i in range(relators):
            _, _, r, r_inv = st.relator(i)
            assert r == enumerate_relators(p, i)
            assert r_inv == invert(r).ids
        for u in _corpus_refuted(name, rng, 3):
            for i in range(0, 200, 7):
                c, c_inv = st.conjugator(i)
                for j in range(0, relators, 5):
                    r, r_inv = st.relator(j)[2:]
                    assert presentations._reduce_ids(c.ids + r_inv + c_inv + u.ids) \
                        == concat(c, invert(r), invert(c), u).ids
                    # the search's per-search form: c r^-1 c^-1 reduced once,
                    # then joined to the reduced word at one junction
                    q = presentations._reduce_ids(c.ids + r_inv + c_inv)
                    assert presentations._concat_ids(q, u.ids) \
                        == concat(c, invert(r), invert(c), u).ids


@pytest.mark.parametrize("name", ["circle", "rationals-b"])
def test_warm_streams_replay_cold_streams(monkeypatch, name):
    # with a short scan budget, requests on cold streams are cut short; a
    # presentation whose relator record other searches have warmed must
    # answer every request, and so every search, as a fresh one does
    monkeypatch.setattr(presentations, "_SCAN_STEP", 200)
    answers = []  # every request with its answer and the cursor it leaves
    relator = presentations._Streams.relator

    def logged(self, i):
        got = relator(self, i)
        answers.append((i, got, self._rel_raw))
        return got

    monkeypatch.setattr(presentations._Streams, "relator", logged)
    rng = random.Random(4)
    p = BUILTIN_PRESENTATIONS[name]()
    runs = [(w, 100_000) for w in _corpus_identities(name, p, rng, 3)]
    runs += [(w, 1500) for w in _corpus_refuted(name, rng, 4)]
    warm = BUILTIN_PRESENTATIONS[name]()
    for w, fuel in runs:
        wp_semidecide(warm, w, fuel)
    cut = ahead = 0
    for w, fuel in runs:
        cold = BUILTIN_PRESENTATIONS[name]()
        results = []
        for q in (cold, warm):
            answers.clear()
            cert = wp_semidecide(q, w, fuel)
            results.append((None if cert is None else cert.to_json(), list(answers)))
        assert results[0] == results[1]
        cut += sum(got is None for _, got, _ in results[0][1])
        ahead += warm._relator_record.frontier > cold._relator_record.frontier
    assert cut > 0 and ahead > 0


class _ScanFromZero:
    """The relator stream as a search scanned it before the shared record:
    its own list, from raw index 0, at most `_SCAN_STEP` indices a request."""

    def __init__(self, p: Presentation):
        self.p = p
        self.found = []
        self._rel_raw = 0

    def relator(self, i):
        budget = presentations._SCAN_STEP
        while len(self.found) <= i and budget > 0:
            raw = self._rel_raw
            self._rel_raw += 1
            budget -= 1
            if presentations.vector_arity(raw) not in {s.arity for s in self.p.relators}:
                continue
            vec = presentations.enumerate_vectors(raw)
            for si, s in enumerate(self.p.relators):
                if s.arity == len(vec) and s.admits(vec):
                    r = s.instantiate(vec, check=False)
                    self.found.append((si, vec, r, invert(r).ids))
        return self.found[i] if i < len(self.found) else None


def test_relator_answers_do_not_depend_on_the_record(monkeypatch):
    # request sequences on a scan from raw index 0, and on fresh streams over
    # a fresh record and over a record scanned far ahead: the same answer
    # and cursor after every call, including the cut-short requests
    monkeypatch.setattr(presentations, "_SCAN_STEP", 300)
    rng = random.Random(9)
    for name in ("circle", "rationals-b", "sl2"):
        warm = BUILTIN_PRESENTATIONS[name]()
        ahead = presentations._Streams(warm)
        while ahead.relator(90) is None:
            pass
        raws = warm._relator_record.raws
        if name == "circle":  # the same-ray pair: two relators at one raw index
            assert len(set(raws)) < len(raws)
        cut = 0
        for _ in range(6):
            asks = [rng.randrange(80) for _ in range(40)]
            cold = BUILTIN_PRESENTATIONS[name]()
            streams = [_ScanFromZero(cold), presentations._Streams(cold),
                       presentations._Streams(warm)]
            for i in asks:
                got = [(st.relator(i), st._rel_raw) for st in streams]
                assert got[0] == got[1] == got[2]
                cut += got[0][0] is None
            assert cold._relator_record.frontier <= warm._relator_record.frontier
        assert cut > 0, name


def test_goal_move_child_is_sized_before_it_is_built():
    # one-letter schemas x(v0) and x(v0)^-1 match at every position of a word
    # over x(0) and x(1); memos filled beforehand give every match the same
    # inverted tail, so every pair of a reduced word up to length 4 and a
    # reduced tail up to length 3 is tried at every position against the
    # nested join the search made before
    p = Presentation("one-letter", 1, (GenClause("x", 1, TRUE),),
                     (RelatorSchema(1, (LetterTemplate("x", 1, (var(0),)),)),
                      RelatorSchema(1, (LetterTemplate("x", -1, (var(0),)),))))
    gens = [intern_parts("x", (F(k),)) for k in (0, 1)]
    letters = [v for g in gens for v in (g, -g)]
    reduced = [()]
    for w in reduced:
        if len(w) < 4:
            reduced += [w + (v,) for v in letters if not w or w[-1] != -v]
    heads = presentations._Heads(p)
    cases = {"kept": 0, "dropped": 0, "tail cancels whole": 0, "prefix meets suffix": 0}
    for ids in reduced[1:]:
        for inv_tail in (t for t in reduced if len(t) <= 3):
            hit = ((1, (), EMPTY, inv_tail),)
            memos = [{(v,): hit for v in letters if v > 0},
                     {(v,): hit for v in letters if v < 0}]
            moves = presentations._goal_moves(ids, heads, memos)
            expected = []
            for i in range(len(ids)):
                child = presentations._concat_ids(
                    presentations._concat_ids(ids[:i], inv_tail), ids[i + 1:])
                if len(child) >= len(ids):
                    cases["dropped"] += 1
                    continue
                expected.append((i, child))
                cases["kept"] += 1
                pairs = (len(ids) - 1 + len(inv_tail) - len(child)) // 2
                cases["tail cancels whole"] += 0 < len(inv_tail) <= pairs
                cases["prefix meets suffix"] += pairs > len(inv_tail)
            assert [(i, u1) for i, _, _, _, u1 in moves] == expected
    assert min(cases.values()) > 50, cases


def test_relator_record_is_invisible():
    # searches fill a presentation's record, but equality, hash, repr and
    # JSON never see it; presentations made from it start with an empty one
    for name in ("circle", "torus", "sl2", "rationals-a", "rationals-b"):
        p, fresh = BUILTIN_PRESENTATIONS[name](), BUILTIN_PRESENTATIONS[name]()
        before = (repr(p), hash(p), presentation_to_json(p))
        for w in _corpus_refuted(name, random.Random(2), 2):
            assert wp_semidecide(p, w, 300) is None
        assert p._relator_record.found, name
        assert p == fresh and hash(p) == hash(fresh)
        assert (repr(p), hash(p), presentation_to_json(p)) == before
        for q in (dataclasses.replace(p, label="copy"), free_product(p, fresh),
                  amalgamate(p, fresh, None), hnn_extend(p, StableSpec("t", 1), ())):
            record = q._relator_record
            assert (record.found, record.raws, record.frontier) == ([], [], 0)


def test_blind_proof_returns_at_once():
    # no schema matches a prefix of x(0), so the first pop is blind move 0:
    # the empty conjugator with relator 0, which freely reduces to x(0)
    p = BUILTIN_PRESENTATIONS["rationals-a"]()
    w = parse_word("x(0)")
    cert = wp_semidecide(p, w, 1)
    assert cert.to_json() == [{"conjugator": "1", "relator": "x(0) . x(0) . x(0)^-1",
                               "schema": 0, "params": ["0", "0"]}]
    assert verify_certificate(p, w, cert)
    assert wp_semidecide(p, w, 0) is None

def test_verify_rejects_corruption():
    tor = torus_presentation()
    w = parse_word("x(1/3) . x(1/4) . x(7/12)^-1")
    cert = wp_semidecide(tor, w, 10_000)
    e = cert.entries[0]
    bad = Certificate((dataclasses.replace(e, params=(F(1, 3), F(1, 2))),))
    assert not verify_certificate(tor, w, bad)
    bad2 = Certificate((dataclasses.replace(e, schema_index=99),))
    assert not verify_certificate(tor, w, bad2)


def test_verify_takes_only_generator_letters():
    tor = torus_presentation()
    rel = parse_word("x(0) . x(1)^-1")
    # y is not a torus generator: the word is not a torus word at all
    cert = Certificate((CertEntry(parse_word("y"), rel, 0, (F(0),)),))
    with pytest.raises(ValueError, match="outside the generator set"):
        verify_certificate(tor, parse_word("y . x(0) . x(1)^-1 . y^-1"), cert)
    # conjugators that cancel freely still name letters outside the
    # presentation: one not a generator, one past its dimension
    for conj in ("y . y^-1", "x(1,2) . x(1,2)^-1"):
        cert = Certificate((CertEntry(parse_word(conj), rel, 0, (F(0),)),))
        assert not verify_certificate(tor, rel, cert), conj
    cert = Certificate((CertEntry(parse_word("x(5) . x(5)^-1"), rel, 0, (F(0),)),))
    assert verify_certificate(tor, rel, cert)


def test_certificate_json_roundtrip():
    tor = torus_presentation()
    w = parse_word("x(1/3) . x(2/3) . x(0)^-1")
    cert = wp_semidecide(tor, w, 10_000)
    back = Certificate.from_json(json.loads(json.dumps(cert.to_json())))
    assert back == cert
    assert verify_certificate(tor, w, back)


def test_presentation_json_roundtrip(tmp_path):
    for mk in (torus_presentation, circle_presentation, sl2_presentation):
        p = mk()
        back = presentation_from_json(json.loads(json.dumps(presentation_to_json(p))))
        assert back == p


def test_presentation_json_mode_is_read_not_written():
    from realword.reduction import extension_presentation
    for p in [mk() for mk in BUILTIN_PRESENTATIONS.values()] + [extension_presentation()]:
        data = presentation_to_json(p)
        assert all("mode" not in r for r in data["relators"]), p.label
        assert presentation_from_json(json.loads(json.dumps(data))) == p
        # files that still name the only mode load unchanged
        for r in data["relators"]:
            r["mode"] = "decidable"
        assert presentation_from_json(data) == p


def test_dimension_bound_under_constructions():
    rng = random.Random(21)
    for _ in range(10):
        d1, d2 = rng.randint(1, 4), rng.randint(1, 4)
        p1, p2 = free_pres(d1, "a"), free_pres(d2, "b")
        n = max(d1, d2)
        assert free_product(p1, p2).dim <= n + 1
        fam = WordFamily(d1, (LetterTemplate("x", 1,
                                             tuple(var(i) for i in range(d1))),))
        image = (LetterTemplate("x", 1, tuple(var(0) for _ in range(d2))),)
        assert amalgamate(p1, p2, fam, image=image).dim <= n + 1
        assert hnn_extend(p1, StableSpec("t", 0), ()).dim <= d1 + 1


def test_enumerate_relators_on_constructed_presentations():
    # constructor coherence: emitted instances pass the decidable matcher
    tp = free_product(torus_presentation(), free_pres(1, "f"))
    for i in range(15):
        assert check_relator(tp, enumerate_relators(tp, i))
    from realword.reduction import extension_presentation
    ext = extension_presentation()
    for i in range(6):
        assert check_relator(ext, enumerate_relators(ext, i))
