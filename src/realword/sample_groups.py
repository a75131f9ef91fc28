"""Example groups as executable presentations with independent oracles.

Each group comes twice: as a Presentation (generator predicate plus relator
schemas, food for the certificate search) and as a closed-form word-problem
oracle that never looks at the schemas.  The pairing is what the oracle
round-trip tests exercise: search hits must verify, oracle-refuted words
must never be proved.

Relator schema lists are inverse-closed (every template also appears
reversed and flipped) so that certificates can insert a rule in either
direction; this only symmetrizes the instance sets, which does not change
the presented group.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .predicates import (TRUE, conj, const, eq, ge, gt, is_int, is_nat, ne,
                         negate, var)
from .presentations import (GenClause, LetterTemplate, Presentation,
                            RelatorSchema)
from .words import GenSym, Letter, Word

Matrix = tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]

IDENTITY: Matrix = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))


def _sym(schemas: Iterable[RelatorSchema]) -> tuple[RelatorSchema, ...]:
    out: list[RelatorSchema] = []
    for s in schemas:
        out.append(s)
        out.append(s.inverse())
    return tuple(out)


def _x(*index, exp=1) -> LetterTemplate:
    return LetterTemplate("x", exp, tuple(index))


def _y(exp=1) -> LetterTemplate:
    return LetterTemplate("y", exp)


# -- circle: rays (r, s) != (0, 0) under complex multiplication -----------------

def circle_presentation() -> Presentation:
    nonzero = lambda i, j: negate(conj(eq(var(i), 0), eq(var(j), 0)))
    gen = GenClause("x", 2, nonzero(0, 1))
    r1 = RelatorSchema(
        4, (_x(var(0), var(1)), _x(var(2), var(3), exp=-1)),
        conj(nonzero(0, 1), nonzero(2, 3),
             eq(var(0) * var(3), var(1) * var(2)),
             gt(var(2) * var(0), 0)),
        label="same-ray")
    r2 = RelatorSchema(
        6, (_x(var(0), var(1)), _x(var(2), var(3)), _x(var(4), var(5), exp=-1)),
        conj(nonzero(0, 1), nonzero(2, 3), nonzero(4, 5),
             eq(var(0) ** 2 + var(1) ** 2, 1),
             eq(var(2) ** 2 + var(3) ** 2, 1),
             eq(var(4), var(0) * var(2) - var(1) * var(3)),
             eq(var(5), var(0) * var(3) + var(1) * var(2))),
        label="complex-mul")
    return Presentation("circle", 2, (gen,), _sym((r1, r2)))


def circle_wp(w: Word) -> bool:
    """Fold ray representatives by exact complex multiplication.

    Inverse letters multiply by the conjugate ray, which represents the
    inverse direction; the word is trivial iff the result is the positive
    real ray (s = 0, r > 0).
    """
    p, q = Fraction(1), Fraction(0)
    for g, exp in w.letters:
        if g.family != "x" or len(g.index) != 2 or g.index == (0, 0):
            raise ValueError(f"not a circle generator: {g!r}")
        a, b = g.index
        if exp < 0:
            b = -b
        p, q = p * a - q * b, p * b + q * a
    return q == 0 and p > 0


# -- torus: x_t with x_t = x_{t+1} and x_t x_s = x_{t+s} ------------------------

def torus_presentation() -> Presentation:
    gen = GenClause("x", 1, TRUE)
    shift = RelatorSchema(1, (_x(var(0)), _x(var(0) + 1, exp=-1)), label="shift")
    sum_ = RelatorSchema(2, (_x(var(0)), _x(var(1)), _x(var(0) + var(1), exp=-1)),
                         label="sum")
    return Presentation("torus", 1, (gen,), _sym((shift, sum_)))


def torus_wp(w: Word) -> bool:
    total = Fraction(0)
    for g, exp in w.letters:
        if g.family != "x" or len(g.index) != 1:
            raise ValueError(f"not a torus generator: {g!r}")
        total += exp * g.index[0]
    return total.denominator == 1


# -- SL2 via the Weil-style presentation ----------------------------------------

def _s_letters(a, ia, exp=1) -> tuple[LetterTemplate, ...]:
    # the scaling word V U(1/a) V U(a) V U(1/a); `a`/`ia` are index expressions
    fwd = (_y(), _x(ia), _y(), _x(a), _y(), _x(ia))
    if exp == 1:
        return fwd
    return tuple(LetterTemplate(t.family, -1, t.index) for t in reversed(fwd))


def sl2_presentation() -> Presentation:
    gens = (GenClause("x", 1, TRUE), GenClause("y", 0, TRUE))
    sl1 = RelatorSchema(2, (_x(var(0)), _x(var(1)), _x(var(0) + var(1), exp=-1)),
                        label="translation-sum")
    sl2 = RelatorSchema(
        6,
        _s_letters(var(0), var(1)) + _s_letters(var(2), var(3))
        + _s_letters(var(4), var(5), exp=-1),
        conj(eq(var(0) * var(1), 1), eq(var(2) * var(3), 1),
             eq(var(4), var(0) * var(2)), eq(var(4) * var(5), 1)),
        label="scaling-product")
    sl3 = RelatorSchema(
        0, (_y(), _y()) + _s_letters(const(-1), const(-1), exp=-1),
        label="v-squared")
    sl4 = RelatorSchema(
        3,
        _s_letters(var(0), var(1)) + (_x(var(2)),) + _s_letters(var(1), var(0))
        + (_x(var(2) * var(0) ** 2, exp=-1),),
        conj(eq(var(0) * var(1), 1)),
        label="scaled-translation")
    return Presentation("sl2", 1, gens, _sym((sl1, sl2, sl3, sl4)))


def _mat_mul(m: Matrix, n: Matrix) -> Matrix:
    (a, b), (c, d) = m
    (p, q), (r, s) = n
    return ((a * p + b * r, a * q + b * s), (c * p + d * r, c * q + d * s))


def _mat_inv(m: Matrix) -> Matrix:
    (a, b), (c, d) = m
    det = a * d - b * c
    if det != 1:
        raise ValueError("matrix is not in the det-1 group")
    return ((d, -b), (-c, a))


def sl2_eval(w: Word) -> Matrix:
    """Image of the word under the natural map into 2x2 det-1 matrices."""
    acc = IDENTITY
    for g, exp in w.letters:
        if g.family == "x" and len(g.index) == 1:
            m: Matrix = ((Fraction(1), g.index[0]), (Fraction(0), Fraction(1)))
        elif g.family == "y" and not g.index:
            m = ((Fraction(0), Fraction(1)), (Fraction(-1), Fraction(0)))
        else:
            raise ValueError(f"not an sl2 generator: {g!r}")
        acc = _mat_mul(acc, m if exp == 1 else _mat_inv(m))
    return acc


def sl2_wp(w: Word) -> bool:
    return sl2_eval(w) == IDENTITY


def u_word(b) -> Letter:
    return (GenSym("x", (Fraction(b),)), 1)


def v_word() -> Letter:
    return (GenSym("y"), 1)


def s_word(a) -> list[Letter]:
    a = Fraction(a)
    if a == 0:
        raise ValueError("scaling word needs a nonzero parameter")
    return [v_word(), u_word(1 / a), v_word(), u_word(a), v_word(), u_word(1 / a)]


# -- the rationals under addition ------------------------------------------------

def rationals_a_presentation() -> Presentation:
    gen = GenClause("x", 1, TRUE)
    sum_ = RelatorSchema(2, (_x(var(0)), _x(var(1)), _x(var(0) + var(1), exp=-1)),
                         label="sum")
    return Presentation("rationals-a", 1, (gen,), _sym((sum_,)))


def rationals_wp_a(w: Word) -> bool:
    total = Fraction(0)
    for g, exp in w.letters:
        if g.family != "x" or len(g.index) != 1:
            raise ValueError(f"not a rationals-a generator: {g!r}")
        total += exp * g.index[0]
    return total == 0


def rationals_b_presentation() -> Presentation:
    gen = GenClause("x", 2, conj(is_int(var(0)), is_int(var(1)), ne(var(1), 0)))
    ints = lambda *vs: conj(*(is_int(var(v)) for v in vs))
    sum_ = RelatorSchema(
        4,
        (_x(var(0), var(1)), _x(var(2), var(3)),
         _x(var(0) * var(3) + var(2) * var(1), var(1) * var(3), exp=-1)),
        conj(ints(0, 1, 2, 3), ne(var(1), 0), ne(var(3), 0)),
        label="fraction-sum")
    scale = RelatorSchema(
        3, (_x(var(0), var(1)), _x(var(2) * var(0), var(2) * var(1), exp=-1)),
        conj(ints(0, 1, 2), ne(var(1), 0), ne(var(2), 0)),
        label="rescale")
    return Presentation("rationals-b", 2, (gen,), _sym((sum_, scale)))


def rationals_wp_b(w: Word) -> bool:
    total = Fraction(0)
    for g, exp in w.letters:
        if (g.family != "x" or len(g.index) != 2
                or g.index[0].denominator != 1 or g.index[1].denominator != 1
                or g.index[1] == 0):
            raise ValueError(f"not a rationals-b generator: {g!r}")
        total += exp * Fraction(g.index[0], g.index[1])
    return total == 0


# -- rational membership group: x_r = x_0 iff r is rational ----------------------

def qgroup_presentation() -> Presentation:
    gen = GenClause("x", 1, TRUE)
    scale = RelatorSchema(
        2, (_x(var(0)), _x(var(0) * var(1), exp=-1)),
        conj(is_nat(var(1)), ge(var(1), 1)),
        label="nat-rescale")
    shift = RelatorSchema(
        2, (_x(var(0) + var(1)), _x(var(0), exp=-1)),
        is_int(var(1)),
        label="int-shift")
    return Presentation("qgroup", 1, (gen,), _sym((scale, shift)))


BUILTIN_PRESENTATIONS = {
    "circle": circle_presentation,
    "torus": torus_presentation,
    "sl2": sl2_presentation,
    "rationals-a": rationals_a_presentation,
    "rationals-b": rationals_b_presentation,
    "qgroup": qgroup_presentation,
}

ORACLES = {
    "circle": circle_wp,
    "torus": torus_wp,
    "sl2": sl2_wp,
    "rationals-a": rationals_wp_a,
    "rationals-b": rationals_wp_b,
}
