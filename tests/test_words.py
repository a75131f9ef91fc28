import dataclasses
import random
from fractions import Fraction as F

import pytest

from realword.rationals import QUOTE_LIMIT

from realword import words
from realword.britton import commutator
from realword.words import (EMPTY, MAX_EXPONENT, CapExceeded, GenSym, Word,
                            concat, encode_w, encode_w_tagged, format_word,
                            free_reduce, invert, letter, nielsen_decompose,
                            parse_word, pattern_product, span_decide, word)


def rand_word(rng, gens, max_len=40):
    return Word.from_letters(
        (rng.choice(gens), rng.choice((1, -1))) for _ in range(rng.randint(0, max_len)))


GENS = [GenSym("x", (F(k),)) for k in range(1, 8)] + [GenSym("y")]


def test_reduce_is_stack_scan():
    x, y, z = (GenSym("x", (F(k),)) for k in (1, 2, 3))
    assert free_reduce(word((x, 1), (y, 1), (y, -1), (x, -1), (z, 1))) == word((z, 1))
    # concatenation of reduced words cancels across the junction only
    assert concat(word((x, 1), (y, 1)), word((y, -1), (z, 1))) == word((x, 1), (z, 1))
    assert invert(word((x, 1), (y, -1))) == word((y, 1), (x, -1))


def test_free_reduce_examples():
    g = GenSym("x", (F(1), F(2)))
    assert free_reduce(word((g, 1), (g, -1))) == EMPTY
    w = word((g, 1), (GenSym("y"), 1))
    assert free_reduce(w) == w


def test_reduce_invert_property():
    rng = random.Random(2)
    for _ in range(1000):
        w = rand_word(rng, GENS)
        assert free_reduce(concat(w, invert(w))) == EMPTY
        assert free_reduce(concat(invert(w), w)) == EMPTY


def test_concat_identity_and_involution():
    rng = random.Random(3)
    for _ in range(200):
        w = rand_word(rng, GENS)
        assert concat(w, EMPTY) == free_reduce(w)
        r = free_reduce(w)
        assert invert(invert(r)) == r


def test_concat_associative():
    rng = random.Random(4)
    for _ in range(1000):
        u, v, z = (rand_word(rng, GENS, 15) for _ in range(3))
        assert concat(concat(u, v), z) == concat(u, concat(v, z))


def test_concat_reduces_unreduced_operands():
    # the free reduction of the joined letters, whatever the operands' state
    rng = random.Random(5)
    for _ in range(500):
        ws = [rand_word(rng, GENS[:3], 10) for _ in range(rng.randint(0, 4))]
        joined = Word(tuple(v for w in ws for v in w.ids))
        assert concat(*ws) == free_reduce(joined)


def test_not_auto_reduced():
    g = GenSym("x", (F(1),))
    w = word((g, 1), (g, -1))
    assert len(w) == 2 and free_reduce(w) != w


def test_parse_format_roundtrip():
    w = parse_word("x(1,5)^-1 . y . x(1,5)")
    assert format_word(w) == "x(1,5)^-1 . y . x(1,5)"
    assert parse_word(format_word(w)) == w
    assert parse_word("1") == EMPTY
    assert format_word(EMPTY) == "1"
    assert parse_word("x(-1/2)").letters[0][0].index == (F(-1, 2),)
    assert parse_word("x(1)^3") == parse_word("x(1) . x(1) . x(1)")
    assert parse_word("a^-2") == parse_word("a^-1 . a^-1")
    with pytest.raises(ValueError):
        parse_word("x(1)^z")
    with pytest.raises(ValueError):
        parse_word("x(1)^0")


def test_parse_word_exponent_cap():
    assert len(parse_word(f"x(1)^{MAX_EXPONENT}")) == MAX_EXPONENT
    assert len(parse_word(f"x(1)^-{MAX_EXPONENT}")) == MAX_EXPONENT
    for k in (MAX_EXPONENT + 1, -MAX_EXPONENT - 1):
        with pytest.raises(ValueError, match="exceeds"):
            parse_word(f"y . x(1)^{k}")


def test_parse_word_decimal_index():
    # dots split letters only outside parentheses, so a decimal reaches the
    # index parser, which names the letter it is in
    for text in ("x(1.5)", "y . x(1/3, 1.5)^-1 . y"):
        with pytest.raises(ValueError, match=r"bad index in 'x\((1/3, )?1\.5\)"):
            parse_word(text)
    assert parse_word("x(1).y.x(2)") == parse_word("x(1) . y . x(2)")


@pytest.mark.parametrize("text", [
    "x(" + "." * 200_000,                    # unclosed index
    "y . x(1/" + "0" * 200_000 + ")",        # bad index
    "x(1)^" + "1" * 200_000,                 # bad exponent
    "q" * 200_000,                           # unknown family
])
def test_parse_word_error_quotes_an_excerpt(text):
    with pytest.raises(ValueError) as err:
        parse_word(text)
    assert len(str(err.value)) < 4 * QUOTE_LIMIT
    assert f"... ({len(text.split(' . ')[-1])} characters)" in str(err.value)


def test_parse_word_error_quotes_short_letters_whole():
    for text, message in [
            ("x(1", "unclosed index in 'x(1'"),
            ("x(1)^0", "zero exponent in 'x(1)^0'"),
            ("x(1/-2)", "bad index in 'x(1/-2)': denominator must be positive in '1/-2'"),
            ("x(" + "1" * (QUOTE_LIMIT - 2), f"unclosed index in 'x({'1' * (QUOTE_LIMIT - 2)}'")]:
        with pytest.raises(ValueError) as err:
            parse_word(text)
        assert str(err.value) == message


def test_encode_w():
    assert encode_w(()) == word((GenSym("y"), 1))
    got = encode_w((F(5),))
    assert got == parse_word("x(1,5)^-1 . y . x(1,5)")
    assert len(encode_w((F(1), F(2)))) == 5
    tagged = encode_w_tagged(3, (F(5),))
    assert len(tagged) == 5
    assert tagged == parse_word("x(1,5)^-1 . x(0,3)^-1 . y . x(0,3) . x(1,5)")
    assert encode_w_tagged(0, ()) == parse_word("x(0,0)^-1 . y . x(0,0)")


def test_encode_w_reduced_by_construction():
    rng = random.Random(5)
    for _ in range(200):
        vec = tuple(F(rng.randint(-5, 5), rng.randint(1, 4))
                    for _ in range(rng.randint(0, 5)))
        w = encode_w(vec)
        assert free_reduce(w) == w
        assert len(w) == 2 * len(vec) + 1


def test_nielsen_decompose_examples():
    assert nielsen_decompose(encode_w((F(1), F(2)))) == [(1, (F(1), F(2)))]
    w = concat(encode_w((F(1),)), invert(encode_w((F(2),))))
    assert nielsen_decompose(w) == [(1, (F(1),)), (-1, (F(2),))]
    assert nielsen_decompose(parse_word("x(1,1)")) is None
    assert nielsen_decompose(EMPTY) == []
    assert nielsen_decompose(word((GenSym("y"), 1))) == [(1, ())]


def pattern_letters(vec, lo=1):
    # the pattern word's letters, each symbol built by GenSym
    tail = [(GenSym("x", (F(lo + i), F(v))), 1) for i, v in enumerate(vec)]
    return [(g, -1) for g, _ in reversed(tail)] + [(GenSym("y"), 1)] + tail


def test_encoders_intern_like_from_letters():
    rng = random.Random(16)
    # a range no other test draws from, so the first call interns fresh symbols
    fresh = lambda: F(rng.randint(10**6, 2 * 10**6), rng.randint(1, 7))
    for _ in range(50):
        vec = tuple(fresh() for _ in range(rng.randint(0, 4)))
        ints = tuple(rng.randint(-9, 9) for _ in range(rng.randint(0, 4)))
        n = rng.randint(0, 5)
        t = GenSym("t", (fresh(),))
        for k, v in enumerate((vec, ints, vec + ints)):
            before = len(words._ID_SYMS)
            got = (encode_w(v), encode_w_tagged(n, v))
            interned = len(words._ID_SYMS)
            if k == 0 and vec:
                assert interned > before  # fresh symbols were interned
            expect = Word.from_letters(pattern_letters(v))
            assert got == (expect, Word.from_letters(pattern_letters((n, *v), lo=0)))
            assert len(words._ID_SYMS) == interned
            comm = commutator(t, expect)
            assert comm == Word.from_letters(
                [(t, 1)] + list(expect.letters) + [(t, -1)]
                + list(invert(expect).letters))
            # every symbol is interned now: a second call adds none
            interned = len(words._ID_SYMS)
            assert (encode_w(v), encode_w_tagged(n, v)) == got
            assert commutator(t, expect) == comm
            assert len(words._ID_SYMS) == interned


def test_equal_indices_intern_to_one_id():
    # interning keys on each entry's numerator and denominator: equal
    # values, an int and an equal Fraction too, share one id, and no two
    # indices of different values or lengths share a key
    n = 3 * 10**6 + 1  # a range no other test draws from
    a = words.intern_parts("x", (n, F(1, 2)))
    assert words.intern_parts("x", (F(n), F(2, 4))) == a
    assert Word.from_letters([(GenSym("x", (n, F(1, 2))), 1)]).ids == (a,)
    assert parse_word(f"x({n}, 2/4)").ids == (a,)
    assert words._ID_SYMS[a] == GenSym("x", (F(n), F(1, 2)))
    others = [("x", (n, F(1, 3))), ("x", (F(n, 2),)), ("x", (n, 1, 2)),
              ("x", (F(n, 2), 1)), ("y", (n, F(1, 2)))]
    ids = {a} | {words.intern_parts(f, idx) for f, idx in others}
    assert len(ids) == 1 + len(others)


def test_nielsen_decompose_rejects_malformed_letters():
    # each letter of a pattern word is x(i, s) with i an integer >= lo, or y
    assert nielsen_decompose(parse_word("x(3/2,1)^-1 . y . x(3/2,1)")) is None
    assert nielsen_decompose(
        parse_word("x(1,1)^-1 . y . x(1,1) . x(3/2,1)^-1 . y . x(3/2,1)")) is None
    assert nielsen_decompose(parse_word("x(0,1)^-1 . y . x(0,1)")) is None
    assert nielsen_decompose(parse_word("x(0,1)^-1 . y . x(0,1)"), lo=0) \
        == [(1, (F(1),))]
    assert nielsen_decompose(parse_word("x(-1,1)^-1 . y . x(-1,1)"), lo=0) is None
    assert nielsen_decompose(parse_word("x(1)^-1 . y . x(1)")) is None
    assert nielsen_decompose(parse_word("x(1,2,3)^-1 . y . x(1,2,3)")) is None
    # a y inside a conjugator
    assert nielsen_decompose(
        parse_word("x(2,1)^-1 . y . x(1,1)^-1 . y . x(1,1) . x(2,1)")) is None
    assert nielsen_decompose(
        parse_word("x(2,5)^-1 . x(1,3)^-1 . y . x(1,3) . y . x(2,5)")) is None
    # a factor's middle letter is the unindexed y
    assert nielsen_decompose(parse_word("y(5)")) is None
    assert nielsen_decompose(parse_word("x(1,2)^-1 . y(1,2) . x(1,2)")) is None
    assert nielsen_decompose(parse_word("x(0,2)^-1 . y(0) . x(0,2)"), lo=0) is None


def test_nielsen_decompose_junction_cancellation():
    # shared top coordinates cancel across the junction and must be recovered
    w = concat(encode_w((F(1), F(2))), invert(encode_w((F(5), F(2)))))
    assert nielsen_decompose(w) == [(1, (F(1), F(2))), (-1, (F(5), F(2)))]
    sq = concat(encode_w((F(3),)), encode_w((F(3),)))
    assert nielsen_decompose(sq) == [(1, (F(3),)), (1, (F(3),))]


def test_nielsen_freeness():
    rng = random.Random(6)
    for _ in range(500):
        d = rng.randint(1, 4)
        r = tuple(F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(d))
        s = tuple(F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(d))
        if r == s:
            continue
        assert free_reduce(concat(encode_w(r), invert(encode_w(s)))) != EMPTY


# the parser before the single scan over ids, kept as the reference for
# `nielsen_decompose`; it takes any letter of family y as a factor's middle
def _x_parts(gen, lo):
    # an x generator with index (i, s), i an integer >= lo
    if gen.family != "x" or len(gen.index) != 2:
        return None
    i, s = gen.index
    if i.denominator != 1 or i.numerator < lo:
        return None
    return i.numerator, s


def reference_decompose(w, lo=1):
    ids = words._reduce_ids(w.ids)
    if not ids:
        return []
    letters = [(words._ID_SYMS[v], 1) if v > 0 else (words._ID_SYMS[-v], -1) for v in ids]
    y_positions = [p for p, (g, _) in enumerate(letters) if g.family == "y"]
    if not y_positions:
        return None

    # leading segment: the full inverted conjugator of the first factor
    first = []
    expect = None
    for p in range(y_positions[0]):
        gen, exp = letters[p]
        parts = _x_parts(gen, lo)
        if parts is None or exp != -1:
            return None
        i, s = parts
        if expect is None:
            expect = i
        elif i != expect:
            return None
        expect = i - 1
        first.append(s)
    if expect is not None and expect != lo - 1:
        return None
    first.reverse()
    vec = tuple(first)

    out = [(letters[y_positions[0]][1], vec)]
    for m, yp in enumerate(y_positions):
        nxt = y_positions[m + 1] if m + 1 < len(y_positions) else None
        seg = letters[yp + 1:nxt if nxt is not None else len(letters)]
        k = lo + len(vec) - 1

        # ascending run of positive letters matching the current conjugator
        c1 = 0
        while c1 < len(seg) and c1 < len(vec):
            gen, exp = seg[c1]
            parts = _x_parts(gen, lo)
            if exp != 1 or parts is None:
                break
            i, s = parts
            if i != lo + c1 or s != vec[c1]:
                break
            c1 += 1

        if nxt is None:
            # last factor: its conjugator must be fully present, nothing after
            if c1 == len(vec) and len(seg) == c1:
                return out
            return None

        # descending run of negative letters: visible part of the next factor
        neg = []
        pos = c1
        expect = None
        while pos < len(seg):
            gen, exp = seg[pos]
            parts = _x_parts(gen, lo)
            if parts is None or exp != -1:
                return None
            i, s = parts
            if expect is not None and i != expect:
                return None
            expect = i - 1
            neg.append((i, s))
            pos += 1
        if expect is not None and expect != lo - 1:
            return None

        hidden = len(vec) - c1  # letters cancelled across the junction
        if hidden == 0:
            nvec = tuple(s for _, s in reversed(neg))
        else:
            top = neg[0][0] if neg else lo - 1
            if top != lo + c1 - 1:
                return None
            nvec = tuple(s for _, s in reversed(neg)) + vec[c1:]
        vec = nvec
        out.append((letters[nxt][1], vec))
    return out


ENTRIES = (F(0), F(1), F(-1), F(1, 2), F(-3, 2), F(4))


def random_decomp(rng):
    # up to five factors over a few entries: repeated factors, empty
    # vectors, and neighbours sharing top entries, which cancel at the junction
    decomp = []
    for _ in range(rng.randint(1, 5)):
        exp = rng.choice((1, -1))
        pick = rng.random()
        if decomp and pick < 0.15:
            exp, vec = decomp[-1]
        elif decomp and pick < 0.5:
            prev = decomp[-1][1]
            cut = rng.randint(0, len(prev))
            vec = tuple(rng.choice(ENTRIES) for _ in range(cut)) + prev[cut:]
        else:
            vec = tuple(rng.choice(ENTRIES) for _ in range(rng.randint(0, 3)))
        if decomp and decomp[-1] == (-exp, vec):
            continue
        decomp.append((exp, vec))
    return decomp


def mutate(rng, ids, lo):
    # one id deleted, sign-flipped, inserted, or replaced by a stray letter:
    # an x letter off the registers, or an indexed y
    p = rng.randrange(len(ids) + 1)
    what = rng.randrange(4)
    if what == 0 and p < len(ids):
        return ids[:p] + ids[p + 1:]
    if what == 1 and p < len(ids):
        return ids[:p] + (-ids[p],) + ids[p + 1:]
    if what == 2:
        pool = ids + (words.intern_parts("y", ()), words.intern_parts("x", (lo, 1)))
        return ids[:p] + (rng.choice((1, -1)) * abs(rng.choice(pool)),) + ids[p:]
    s = rng.choice(ENTRIES)
    i = lo + rng.randint(0, 3)
    index = rng.choice(((lo - 1, s), (i + F(1, 2), s), (s,), (i, s, 0), (i + 1, s)))
    family = "y" if rng.random() < 0.2 else "x"
    stray = rng.choice((1, -1)) * words.intern_parts(family, index)
    return ids[:p] + (stray,) + ids[p + 1:]


def test_decompose_roundtrip():
    # the single scan equals the reference on every word with no indexed y,
    # and re-multiplying any decomposition gives the reduced word back
    rng = random.Random(7)
    y = words.intern_parts("y", ())
    indexed_y = lambda ids: any(words._ID_SYMS[abs(v)].family == "y" and abs(v) != y
                                for v in ids)
    for lo in (0, 1):
        done = decomposed = 0
        while done < 50_000:
            decomp = random_decomp(rng)
            w = pattern_product(decomp, lo)
            got = nielsen_decompose(w, lo)
            assert got == reference_decompose(w, lo)
            assert got is not None
            assert pattern_product(got, lo) == w
            # one x letter with a non-integer, a too-low or a missing register
            # index makes the word no product of pattern words
            xs = [p for p, (g, _) in enumerate(w.letters) if g.family == "x"]
            if xs and done < 2000:
                p = rng.choice(xs)
                letters = list(w.letters)
                (g, e), (i, s) = letters[p], letters[p][0].index
                for index in ((i + F(1, 2), s), (F(lo - 1), s), (s,)):
                    letters[p] = (GenSym("x", index), e)
                    assert nielsen_decompose(Word.from_letters(letters), lo) is None
            done += 1
            if rng.random() < 0.6:
                m = Word(mutate(rng, w.ids, lo))
                got = nielsen_decompose(m, lo)
                if indexed_y(m.ids):
                    assert got is None
                else:
                    assert got == reference_decompose(m, lo)
                if got is not None:
                    assert pattern_product(got, lo) == free_reduce(m)
                    decomposed += 1
                done += 1
        assert decomposed > 1000


def test_tagged_decompose():
    w = concat(encode_w_tagged(2, (F(1),)), encode_w_tagged(3, (F(1),)))
    got = nielsen_decompose(w, lo=0)
    assert got == [(1, (F(2), F(1))), (1, (F(3), F(1)))]
    assert pattern_product(got, lo=0) == w
    # the builder takes a tag as it stands, natural or not
    for tag in ("5/2", "-1"):
        w = parse_word(f"x(0,{tag})^-1 . y . x(0,{tag})")
        got = nielsen_decompose(w, lo=0)
        assert got == [(1, (F(tag),))]
        assert pattern_product(got, lo=0) == w


def test_span_decide():
    is_pattern = lambda b: (dec := nielsen_decompose(b)) is not None \
        and len(dec) == 1 and dec[0][0] == 1
    assert span_decide(EMPTY, is_pattern)
    assert span_decide(encode_w((F(1, 2),)), is_pattern)
    assert not span_decide(parse_word("x(1,0)"), is_pattern)
    w = concat(encode_w((F(1),)), invert(encode_w((F(2), F(3)))))
    assert span_decide(w, is_pattern)
    with pytest.raises(CapExceeded):
        span_decide(encode_w(tuple(F(k) for k in range(13))), is_pattern,
                    max_letters=24)


def test_span_decide_blockwise_not_subgroup():
    # span membership is about string factorization: a product whose factors
    # cancelled across the junction no longer splits into full blocks
    is_pattern = lambda b: (dec := nielsen_decompose(b)) is not None \
        and len(dec) == 1 and dec[0][0] == 1
    w = concat(encode_w((F(1), F(2))), invert(encode_w((F(5), F(2)))))
    assert nielsen_decompose(w) is not None
    assert not span_decide(w, is_pattern)


def test_gensym_validation():
    with pytest.raises(ValueError):
        GenSym("q", ())
    with pytest.raises(ValueError):
        Word.from_letters([(GenSym("y"), 2)])


# word -> (format_word text, repr of each letter's symbol)
FORMATTED = [
    (EMPTY, "1", []),
    (word(letter("x", (1, F(-3, 2)), -1), letter("y")), "x(1,-3/2)^-1 . y", ["x(1,-3/2)", "y"]),
    (word(letter("x", (F(1, 2), -7, 0, F(22, 7)))), "x(1/2,-7,0,22/7)", ["x(1/2,-7,0,22/7)"]),
    (word(letter("aux", (), -1), letter("m", (2, F(-1, 3))), letter("aux")),
     "aux^-1 . m(2,-1/3) . aux", ["aux", "m(2,-1/3)", "aux"]),
    (encode_w((F(-5, 4), 0)), "x(2,0)^-1 . x(1,-5/4)^-1 . y . x(1,-5/4) . x(2,0)",
     ["x(2,0)", "x(1,-5/4)", "y", "x(1,-5/4)", "x(2,0)"]),
    (invert(encode_w_tagged(3, (F(2, 3),))), "x(1,2/3)^-1 . x(0,3)^-1 . y^-1 . x(0,3) . x(1,2/3)",
     ["x(1,2/3)", "x(0,3)", "y", "x(0,3)", "x(1,2/3)"]),
]


@pytest.mark.parametrize("w, text, syms", FORMATTED, ids=[t for _, t, _ in FORMATTED])
def test_format_word_is_pinned(w, text, syms):
    for _ in range(2):  # the second pass reads the texts the symbols keep
        assert format_word(w) == text
        assert [repr(g) for g, _ in w.letters] == syms
    assert parse_word(text) == w


def test_gensym_text_is_invisible():
    g = GenSym("x", (F(1), F(-3, 2)))
    twin = dataclasses.replace(g)
    assert g._text is None and twin._text is None
    assert repr(g) == "x(1,-3/2)"
    assert g._text == "x(1,-3/2)" and twin._text is None
    assert g == twin and twin == g and hash(g) == hash(twin)
    assert repr(twin) == repr(g)
    assert [f.name for f in dataclasses.fields(GenSym)] == ["family", "index"]
    assert repr(GenSym("y")) == "y" and repr(GenSym("t", ())) == "t"


def test_letters_roundtrip():
    rng = random.Random(8)
    for _ in range(100):
        w = rand_word(rng, GENS, 12)
        assert Word.from_letters(w.letters) == w
