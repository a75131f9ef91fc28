import random
from fractions import Fraction as F

import pytest

from realword.presentations import (check_relator, enumerate_relators,
                                    verify_certificate, wp_semidecide)
from realword.sample_groups import (BUILTIN_PRESENTATIONS, ORACLES,
                                    circle_wp, qgroup_normalize,
                                    qgroup_presentation, rationals_wp_a,
                                    rationals_wp_b, s_word, sl2_eval,
                                    sl2_wp, torus_wp, u_word, v_word)
from realword.words import (EMPTY, GenSym, Word, concat, format_word, invert,
                            parse_word)


def test_circle_oracle():
    assert circle_wp(parse_word("x(2,0) . x(1/2,0) . x(1,0)^-1"))
    assert circle_wp(parse_word("x(0,1) . x(0,1) . x(-1,0)^-1"))
    assert circle_wp(EMPTY)
    assert not circle_wp(parse_word("x(0,1)"))
    assert not circle_wp(parse_word("x(-1,0)"))
    with pytest.raises(ValueError):
        circle_wp(parse_word("x(0,0)"))


def test_circle_group_laws():
    rng = random.Random(50)

    def ray():
        while True:
            r = F(rng.randint(-5, 5), rng.randint(1, 3))
            s = F(rng.randint(-5, 5), rng.randint(1, 3))
            if (r, s) != (0, 0):
                return GenSym("x", (r, s))

    for _ in range(1000):
        u = Word.from_letters([(ray(), rng.choice((1, -1)))
                               for _ in range(rng.randint(0, 5))])
        v = Word.from_letters([(ray(), rng.choice((1, -1)))
                               for _ in range(rng.randint(0, 5))])
        # commutativity and inverses hold in the circle group
        assert circle_wp(concat(u, v, invert(u), invert(v)))
        assert circle_wp(concat(u, invert(u)))


def test_torus_oracle():
    assert torus_wp(parse_word("x(1/3) . x(2/3)"))
    assert not torus_wp(parse_word("x(1/2)"))
    assert torus_wp(EMPTY)
    assert torus_wp(parse_word("x(5)"))
    assert torus_wp(parse_word("x(1/3) . x(1/3)^-1"))


def test_sl2_oracle():
    v4 = Word.from_letters([v_word()] * 4)
    assert sl2_wp(v4)
    assert sl2_wp(parse_word("x(1) . x(2) . x(3)^-1"))
    sl4 = Word.from_letters(
        s_word(2) + [u_word(3)] + s_word(F(1, 2))
        + [(GenSym("x", (F(12),)), -1)])
    assert sl2_wp(sl4)
    assert not sl2_wp(parse_word("x(1)"))
    assert sl2_eval(Word.from_letters([v_word()] * 2)) \
        == ((F(-1), F(0)), (F(0), F(-1)))


def test_sl2_det_one():
    rng = random.Random(51)
    for _ in range(300):
        letters = [u_word(F(rng.randint(-4, 4), rng.randint(1, 3)))
                   if rng.random() < 0.6 else v_word()
                   for _ in range(rng.randint(0, 8))]
        m = sl2_eval(Word.from_letters(letters))
        assert m[0][0] * m[1][1] - m[0][1] * m[1][0] == 1


def test_rationals_oracles():
    assert rationals_wp_a(parse_word("x(1/2) . x(-1/2)"))
    assert not rationals_wp_a(parse_word("x(1/2)"))
    assert rationals_wp_b(parse_word("x(1,2) . x(1,3) . x(5,6)^-1"))
    assert rationals_wp_b(parse_word("x(1,2) . x(2,4)^-1"))
    assert not rationals_wp_b(parse_word("x(1,2)"))
    with pytest.raises(ValueError):
        rationals_wp_b(parse_word("x(1,0)"))
    with pytest.raises(ValueError):
        rationals_wp_b(parse_word("x(1/2,3)"))


def test_qgroup_normalize():
    chain = qgroup_normalize(F(5, 3))
    assert [format_word(w) for w in chain] == ["x(5/3)", "x(5)", "x(0)"]
    assert qgroup_normalize(F(0)) == []
    chain2 = qgroup_normalize(F(-7, 2))
    assert [format_word(w) for w in chain2] == ["x(-7/2)", "x(-7)", "x(0)"]
    chain3 = qgroup_normalize(F(4))
    assert [format_word(w) for w in chain3] == ["x(4)", "x(0)"]


def test_qgroup_chain_steps_are_relators():
    qp = qgroup_presentation()
    for r in (F(5, 3), F(-7, 2), F(4), F(9, 4)):
        chain = qgroup_normalize(r)
        for w1, w2 in zip(chain, chain[1:]):
            step = concat(w1, invert(w2))
            assert check_relator(qp, step) or check_relator(qp, invert(step))


def test_qgroup_wp_chain_steps():
    # each normalization step is one relator instance the search finds directly
    qp = qgroup_presentation()
    for text in ("x(5/3) . x(5)^-1", "x(5) . x(0)^-1"):
        w = parse_word(text)
        cert = wp_semidecide(qp, w, 20_000)
        assert cert is not None and len(cert.entries) == 1
        assert verify_certificate(qp, w, cert)


def test_qgroup_composite_certificate():
    # x(5/3) = x(0) via the intermediate x(5): the two-entry certificate
    # replays even though no single relator window is visible in the composite
    from realword.presentations import CertEntry, Certificate
    qp = qgroup_presentation()
    w = parse_word("x(5/3) . x(0)^-1")
    scale = next(i for i, s in enumerate(qp.relators) if s.label == "nat-rescale")
    shift = next(i for i, s in enumerate(qp.relators) if s.label == "int-shift")
    cert = Certificate((
        CertEntry(EMPTY, qp.relators[scale].instantiate((F(5, 3), F(3))),
                  scale, (F(5, 3), F(3))),
        CertEntry(EMPTY, qp.relators[shift].instantiate((F(0), F(5))),
                  shift, (F(0), F(5))),
    ))
    assert verify_certificate(qp, w, cert)


def test_presentations_are_decidable():
    for name, mk in BUILTIN_PRESENTATIONS.items():
        p = mk()
        # relator membership is decided by matching the letter templates
        for i in range(10):
            assert check_relator(p, enumerate_relators(p, i)), name


def test_oracle_names_cover_presentations():
    assert set(ORACLES) <= set(BUILTIN_PRESENTATIONS)
