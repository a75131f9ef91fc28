"""Decision procedures for HNN extensions and amalgamated products.

An HNN structure couples a base-group word-problem oracle with a family of
stable letters; each stable letter carries associated-subgroup membership
oracles and a realized isomorphism pair.  The convention is

    t^-1 . g . t  =  forward(g)   for g in A   (a "NegPosWithA" pinch)
    t    . g . t^-1 = backward(g) for g in B   (a "PosNegWithB" pinch)

Pinch elimination terminates (every step removes two stable letters) and a
pinch-free word containing stable letters is not the identity; what remains
is settled by the base oracle.  Membership oracles are first-class callables
and may raise OracleUndefined on inputs they cannot settle; the procedures
propagate that rather than guess.

The normal-form check for amalgamated products certifies non-triviality of
an alternating factor sequence when the classical sufficient conditions all
verify; it reports "inconclusive" otherwise, since the conditions are not
necessary for an unnormalized input.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .rationals import RatVec
from .words import (_ID_SYMS, GenSym, Letter, Word, concat, free_reduce,
                    intern_parts, invert, nielsen_decompose)

NEG_POS_WITH_A = "NegPosWithA"
POS_NEG_WITH_B = "PosNegWithB"


class OracleUndefined(Exception):
    """A membership oracle was asked about a word it cannot settle."""


@dataclass(frozen=True)
class StableKind:
    """Oracles and isomorphism realization for one stable-letter family.

    All four callables receive the base-word segment and the stable letter's
    index vector (empty for a single unindexed letter).
    """

    member_a: Callable[[Word, RatVec], bool]
    member_b: Callable[[Word, RatVec], bool]
    forward: Callable[[Word, RatVec], Word]
    backward: Callable[[Word, RatVec], Word]


@dataclass(frozen=True)
class HnnStructure:
    base_is_identity: Callable[[Word], bool]
    stable: dict[str, StableKind]


@dataclass(frozen=True)
class PinchSite:
    start: int  # letter span [start, end) covering t^e . g . t^-e
    end: int
    kind: str
    letter: Letter


def _stable_positions(h: HnnStructure, w: Word) -> list[tuple[int, int]]:
    # (position, signed id) of every stable letter
    stable = h.stable
    return [(k, v) for k, v in enumerate(w.ids) if _ID_SYMS[abs(v)].family in stable]


def find_pinch(h: HnnStructure, w: Word) -> Optional[PinchSite]:
    """Leftmost pinch of a freely reduced word, or None."""
    ids = w.ids
    stables = _stable_positions(h, w)
    for (p1, v1), (p2, v2) in zip(stables, stables[1:]):
        # interning is structural, so this is "same letter, opposite exponents"
        if v1 != -v2:
            continue
        g = _ID_SYMS[abs(v1)]
        seg = Word(ids[p1 + 1:p2])
        kind = h.stable[g.family]
        if v1 < 0:
            if kind.member_a(seg, g.index):
                return PinchSite(p1, p2 + 1, NEG_POS_WITH_A, (g, -1))
        else:
            if kind.member_b(seg, g.index):
                return PinchSite(p1, p2 + 1, POS_NEG_WITH_B, (g, 1))
    return None


def britton_reduce(h: HnnStructure, w: Word) -> Word:
    """Eliminate pinches leftmost-first until none remain."""
    w = free_reduce(w)
    while True:
        site = find_pinch(h, w)
        if site is None:
            return w
        ids = w.ids
        g, _ = site.letter
        seg = Word(ids[site.start + 1:site.end - 1])
        kind = h.stable[g.family]
        image = (kind.forward if site.kind == NEG_POS_WITH_A else kind.backward)(
            seg, g.index)
        w = concat(Word(ids[:site.start]), image, Word(ids[site.end:]))


def hnn_is_identity(h: HnnStructure, w: Word) -> bool:
    """Word problem of the extension, given a decidable base oracle."""
    reduced = britton_reduce(h, w)
    if _stable_positions(h, reduced):
        return False
    return h.base_is_identity(reduced)


def commutator(t: GenSym, g: Word) -> Word:
    """t . g . t^-1 . g^-1, the membership probe for commuting extensions."""
    tw = Word((intern_parts(t.family, t.index),))
    return concat(tw, g, invert(tw), invert(g))


def commuting_structure(base_is_identity: Callable[[Word], bool],
                        family: str,
                        member: Callable[[Word, RatVec], bool]) -> HnnStructure:
    """The extension commuting a stable-letter family with a subgroup (A = B, identity map)."""
    identity = lambda g, idx: g
    return HnnStructure(base_is_identity,
                        {family: StableKind(member, member, identity, identity)})


# -- the doubling extension <a; t | t a t^-1 = a^2> ------------------------------

def _a_power(w: Word) -> Optional[int]:
    r = free_reduce(w)
    total = 0
    for g, e in r.letters:
        if g.family != "a" or g.index:
            return None
        total += e
    return total


def bs12_structure() -> HnnStructure:
    """Base free on one letter a; conjugation by t doubles the exponent.

    A is the even-exponent subgroup, B everything, forward halves and
    backward doubles, so t a^k t^-1 = a^{2k}.
    """
    def member_a(g: Word, idx) -> bool:
        k = _a_power(g)
        return k is not None and k % 2 == 0

    def member_b(g: Word, idx) -> bool:
        return _a_power(g) is not None

    def forward(g: Word, idx) -> Word:
        k = _a_power(g)
        return _a_word(k // 2)

    def backward(g: Word, idx) -> Word:
        k = _a_power(g)
        return _a_word(2 * k)

    return HnnStructure(lambda w: len(free_reduce(w)) == 0,
                        {"t": StableKind(member_a, member_b, forward, backward)})


def halfline_structure() -> HnnStructure:
    """t commutes with the pattern words whose first index entry is >= 0.

    Base free; A = B is the subgroup those pattern words generate, decided
    by Nielsen decomposition, and conjugation by t is the identity on it.
    """
    def member(g: Word, idx: RatVec) -> bool:
        dec = nielsen_decompose(g)
        return dec is not None and all(len(v) >= 1 and v[0] >= 0 for _, v in dec)

    return commuting_structure(lambda w: len(free_reduce(w)) == 0, "t", member)


# largest |k| of a power a^k that the bs12 maps build: each pinch of
# t . a^k . t^-1 doubles k, so t^n . a . t^-n would reduce to 2^n letters
MAX_POWER = 100_000


def _a_word(k: int) -> Word:
    if abs(k) > MAX_POWER:
        raise ValueError(f"bs12: the power a^{k} has more than "
                         f"britton.MAX_POWER ({MAX_POWER:,}) letters")
    gid = intern_parts("a", ())
    return Word((gid if k > 0 else -gid,) * abs(k))


# -- amalgamated products: the normal-form sufficient check ----------------------

@dataclass(frozen=True)
class AmalgamOracles:
    is_identity_g: Callable[[Word], bool]
    is_identity_h: Callable[[Word], bool]
    in_a: Callable[[Word], bool]  # identified subgroup inside the first factor
    in_b: Callable[[Word], bool]  # its image inside the second factor


CERTIFIED = "certified"
INCONCLUSIVE = "inconclusive"


def amalgam_nontrivial(seq: Sequence[tuple[int, Word]],
                       oracles: AmalgamOracles) -> str:
    """Certify that an alternating factor sequence is nonidentity.

    `seq` lists (factor, word) pairs with factor 1 or 2 naming the origin.
    Certifies when the normal-form conditions all hold: nonempty, factors
    alternate, for n = 1 the single element is nonidentity, and for n > 1 no
    element lies in the identified subgroup of its factor.  The conditions
    are sufficient only, so everything else is inconclusive.
    """
    n = len(seq)
    if n == 0:
        return INCONCLUSIVE
    for f, _ in seq:
        if f not in (1, 2):
            raise ValueError(f"factor tag must be 1 or 2, got {f!r}")
    if any(f1 == f2 for (f1, _), (f2, _) in zip(seq, seq[1:])):
        return INCONCLUSIVE
    if n == 1:
        f, c = seq[0]
        ident = oracles.is_identity_g if f == 1 else oracles.is_identity_h
        return CERTIFIED if not ident(c) else INCONCLUSIVE
    for f, c in seq:
        inside = oracles.in_a if f == 1 else oracles.in_b
        if inside(c):
            return INCONCLUSIVE
    return CERTIFIED
