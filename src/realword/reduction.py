"""From machine halting to word triviality, constructively.

The bridge works over the free group on generators y and x_(i,s): the input
(r_1,...,r_d) on which a program halts is encoded as the pattern word
w(r_1..r_d), and for every straight-line path the set of inputs following it
becomes a subgroup membership question.  Each path operation o contributes a
subgroup W_o = < w(r_1..r_D) : row condition > of pattern words over the
full intermediate vector; their intersection, projected back to the input
coordinates through the single-assignment extension, is exactly the path's
input set.

On the extension side, stable letters a_(i,t) (all rational t) act on
pattern coordinates by shifting the i-th entry and m_(i,t) (t nonzero) by
scaling it; per operation row, a base word together with a constrained set
of (paired) stable letters generates a subgroup L_o of the extension whose
intersection with the base free group is W_o again.  Both directions are
checkable here: closed-form pattern membership for W_o, and a coordinatewise
closed-form solve for reachability of a pattern word from the row's base
word under the row's letters (no search is needed: each row's pairings give
a linear or multiplicative system, and the row invariant decides the
negative direction).

The final assembly bundles a fueled membership test for
U = < w(r) : some enumerated path accepts r >: a word belongs at fuel F when
it decomposes into pattern factors and each factor's vector is accepted by
some forced path found within the work budget.  The verdict depends only on
the program, the word and F.  Halting of a program on an input is then
equivalent to triviality of the commutator t.w(r).t^-1.w(r)^-1 in the
extension that commutes the stable letter t with U, which is the
differential check `check_reduction` runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import slp
from .britton import (HnnStructure, commutator, commuting_structure,
                      hnn_is_identity)
from .machine import BssProgram, mult_guard_transform, run
from .predicates import Pred, TRUE, conj, eq, ge, is_nat, lt as plt, ne, var
from .presentations import (ActionRule, GenClause, LetterTemplate,
                            Presentation, StableSpec, hnn_extend)
from .rationals import RatVec
from .slp import Path, PathEnumerator, PathOp
from .words import (GenSym, Word, encode_w, free_reduce,
                    nielsen_decompose)


class ZeroScale(Exception):
    """A scaling letter with factor 0 was requested; those do not exist."""


# -- the operation -> subgroup table ---------------------------------------------

@dataclass(frozen=True)
class OpSubgroupSpec:
    """One table row: operation, pattern-word condition, extension generators.

    `w_pred` is the row condition over (r_1..r_D) (variable i-1 holds r_i).
    `base` is the coordinate vector of the row's base pattern word.  `free`
    registers may be shifted arbitrarily by single a-letters; `shift_pairs`
    and `scale_pairs` list the paired letters as (register, coefficient)
    groups: one group application with parameter s shifts each register by
    coeff*s (resp. scales by s^coeff).  `pos_only` restricts the guard rows
    to positive parameters.
    """

    op: PathOp
    D: int
    row: str
    w_pred: Pred
    base: RatVec
    free: frozenset[int]
    shift_pairs: tuple[tuple[tuple[int, int], ...], ...] = ()
    scale_pairs: tuple[tuple[tuple[int, int], ...], ...] = ()
    pos_only: Optional[int] = None  # register whose letters take s > 0 only


def _rv(i: int):
    # register i (1-based) as a predicate variable
    return var(i - 1)


def build_W(op: PathOp, d: int, D: int) -> OpSubgroupSpec:
    """Table row for one path operation over registers 1..D."""
    kind = op[0]

    def check(*regs, lo=1):
        for r in regs:
            if not (lo <= r <= D):
                raise IndexError(f"register {r} out of range 1..{D} in {op}")

    allr = frozenset(range(1, D + 1))
    if kind == "assign":
        _, i, alpha = op
        check(i)
        if not (d < i):
            raise IndexError(f"assignment target {i} must exceed input dim {d}")
        base = tuple(Fraction(alpha) if r == i else Fraction(0)
                     for r in range(1, D + 1))
        return OpSubgroupSpec(op, D, "const", eq(_rv(i), Fraction(alpha)), base,
                              allr - {i})
    if kind == "copy":
        _, i, j = op
        check(i, j)
        return OpSubgroupSpec(op, D, "copy", eq(_rv(i), _rv(j)),
                              tuple(Fraction(0) for _ in range(D)),
                              allr - {i, j},
                              shift_pairs=(((i, 1), (j, 1)),))
    if kind == "add":
        _, i, j, k = op
        check(i, j, k)
        zero = tuple(Fraction(0) for _ in range(D))
        if j == k:
            return OpSubgroupSpec(op, D, "add", eq(_rv(i), _rv(j) + _rv(j)), zero,
                                  allr - {i, j},
                                  shift_pairs=(((i, 2), (j, 1)),))
        return OpSubgroupSpec(op, D, "add", eq(_rv(i), _rv(j) + _rv(k)), zero,
                              allr - {i, j, k},
                              shift_pairs=(((i, 1), (j, 1)), ((i, 1), (k, 1))))
    if kind == "neg":
        _, i, j = op
        check(i, j)
        return OpSubgroupSpec(op, D, "neg", eq(_rv(i), -_rv(j)),
                              tuple(Fraction(0) for _ in range(D)),
                              allr - {i, j},
                              shift_pairs=(((i, 1), (j, -1)),))
    if kind == "mul":
        _, i, j, k = op
        check(i, j, k)
        marked = {i, j} if j == k else {i, j, k}
        base = tuple(Fraction(1) if r in marked else Fraction(0)
                     for r in range(1, D + 1))
        if j == k:
            return OpSubgroupSpec(op, D, "mul", eq(_rv(i), _rv(j) * _rv(j)), base,
                                  allr - marked,
                                  scale_pairs=(((i, 2), (j, 1)),))
        return OpSubgroupSpec(op, D, "mul", eq(_rv(i), _rv(j) * _rv(k)), base,
                              allr - marked,
                              scale_pairs=(((i, 1), (j, 1)), ((i, 1), (k, 1))))
    if kind == "inv":
        _, i, j = op
        check(i, j)
        base = tuple(Fraction(1) if r in (i, j) else Fraction(0)
                     for r in range(1, D + 1))
        return OpSubgroupSpec(op, D, "inv",
                              conj(eq(_rv(i) * _rv(j), 1), ne(_rv(j), 0)), base,
                              allr - {i, j},
                              scale_pairs=(((i, 1), (j, -1)),))
    if kind == "geq":
        _, j = op
        check(j)
        return OpSubgroupSpec(op, D, "geq", ge(_rv(j), 0),
                              tuple(Fraction(0) for _ in range(D)),
                              allr - {j}, pos_only=j)
    if kind == "lt":
        _, j = op
        check(j)
        base = tuple(Fraction(-1) if r == j else Fraction(0)
                     for r in range(1, D + 1))
        return OpSubgroupSpec(op, D, "lt", plt(_rv(j), 0), base,
                              allr - {j}, pos_only=j)
    raise IndexError(f"unknown path operation {op!r}")


def w_membership(spec: OpSubgroupSpec, w: Word) -> bool:
    """Closed-form membership in <w(r) : row condition>, via pattern factors."""
    decomp = nielsen_decompose(w)
    if decomp is None:
        return False
    for _, vec in decomp:
        if len(vec) != spec.D or not spec.w_pred.eval(vec):
            return False
    return True


def l_reachability_check(spec: OpSubgroupSpec, w: Word) -> bool:
    """Is w in the conjugation orbit of the row's base word under its letters?

    Every row admits a direct coordinatewise solve (the pairings form a
    linear or multiplicative system with one parameter per group), so the
    check needs no search.  The negative answer is decided by the row
    invariant the letters preserve.
    """
    decomp = nielsen_decompose(w)
    if decomp is None or len(decomp) != 1 or decomp[0][0] != 1:
        return False
    vec = decomp[0][1]
    if len(vec) != spec.D:
        return False
    row = spec.row
    get = lambda r: vec[r - 1]
    base = lambda r: spec.base[r - 1]
    if row == "const":
        (i,) = [r for r in range(1, spec.D + 1) if r not in spec.free]
        return get(i) == base(i)
    if row == "copy":
        ((i, _), (j, _)) = spec.shift_pairs[0]
        return get(i) == get(j)
    if row == "add":
        if len(spec.shift_pairs) == 1:  # doubled source
            ((i, ci), (j, _)) = spec.shift_pairs[0]
            return get(i) == ci * get(j)
        ((i, _), (j, _)) = spec.shift_pairs[0]
        ((_, _), (k, _)) = spec.shift_pairs[1]
        return get(i) == get(j) + get(k)
    if row == "neg":
        ((i, _), (j, _)) = spec.shift_pairs[0]
        return get(i) == -get(j)
    if row == "mul":
        if len(spec.scale_pairs) == 1:  # squared source
            ((i, ci), (j, _)) = spec.scale_pairs[0]
            return get(j) != 0 and get(i) == get(j) ** ci
        ((i, _), (j, _)) = spec.scale_pairs[0]
        ((_, _), (k, _)) = spec.scale_pairs[1]
        return get(j) != 0 and get(k) != 0 and get(i) == get(j) * get(k)
    if row == "inv":
        ((i, _), (j, _)) = spec.scale_pairs[0]
        return get(j) != 0 and get(i) * get(j) == 1
    if row == "geq":
        return get(spec.pos_only) >= 0
    if row == "lt":
        return get(spec.pos_only) < 0
    raise AssertionError(row)


# -- the stable-letter conjugation action ------------------------------------------

def stable_conjugate(letter, w: Word) -> Word:
    """Conjugate w by a shift letter a_(i,t) or scale letter m_(i,t).

    Applies the induced base-group automorphism letterwise: the i-th pattern
    coordinate is shifted by t (family a) or scaled by t (family m, t
    nonzero); every other generator is fixed.  Passing (letter, -1) applies
    the inverse action.
    """
    if isinstance(letter, tuple):
        g, exp = letter
    else:
        g, exp = letter, 1
    if g.family not in ("a", "m") or len(g.index) != 2:
        raise ValueError(f"not a stable action letter: {g!r}")
    i, t = g.index
    if g.family == "m" and t == 0:
        raise ZeroScale("scaling letters with factor 0 do not exist")
    out = []
    for gen, e in w.letters:
        if gen.family == "x" and len(gen.index) == 2 and gen.index[0] == i:
            s = gen.index[1]
            if g.family == "a":
                s2 = s + t if exp == 1 else s - t
            else:
                s2 = s * t if exp == 1 else s / t
            out.append((GenSym("x", (i, s2)), e))
        else:
            out.append((gen, e))
    return Word.from_letters(out)


# -- path-set membership through patterns ------------------------------------------

def v_membership(path: Path, vec: Sequence[Fraction]) -> bool:
    """Conjunction of all row conditions of the path at the full vector."""
    if len(vec) != path.D:
        raise ValueError(f"vector has dim {len(vec)}, path needs D={path.D}")
    vec = tuple(Fraction(x) for x in vec)
    return all(build_W(op, path.d, path.D).w_pred.eval(vec) for op in path.ops)


def u_membership(path: Path, w: Word) -> bool:
    """Does w lie in <w(r) : r in the path's input set>?

    Pattern factors must live on the input coordinates 1..d; each factor
    vector must extend through the path (the deterministic single-assignment
    extension exists exactly on the path's input set).
    """
    decomp = nielsen_decompose(w)
    if decomp is None:
        return False
    for _, vec in decomp:
        if len(vec) != path.d or slp.replay(path, vec) is None:
            return False
    return True


# -- uniform assembly over all paths ------------------------------------------------

@dataclass
class UHandle:
    """Fueled membership test for the union-over-paths subgroup.

    Bundles the program's guarded form and that form's frozen path
    enumerator, the untagged and tagged pattern matchers, and work-budgeted
    membership: a word is a member at fuel F when every pattern factor's
    vector is accepted by some forced path found within F units, where a
    unit is one step level, one forced step or one candidate path.  Every
    factor is charged for every level up to its accepting path as a fresh
    walk of that level costs, so the verdict does not depend on earlier
    calls.  The charge is counted from the enumerator, never walked: one
    guarded run per factor finds the only path that can accept, and its
    rank prices its level.  The guard's scratch registers lie below r0,
    where no input loads a value, so one guarded form serves every input
    dimension.
    """

    guarded: BssProgram
    enum: PathEnumerator

    def member_within(self, w: Word, fuel: int) -> bool:
        decomp = nielsen_decompose(w)
        if decomp is None:
            return False
        guarded, enum = self.guarded, self.enum
        left = fuel
        for k, (_, vec) in enumerate(decomp):
            # Replay accepts a forced path exactly when the guarded run on vec
            # takes that path's branch outcomes (`execute` and `_Builder.emit`
            # share semantics), so only the run's own path, at the level of
            # its halting step, can accept.  Every level costs at least one
            # unit, so if the run does not halt within the fuel left, no level
            # the walk below can reach has an accepting path.
            res = run(guarded, vec, left)
            if not res.halted:
                return False
            # Each level costs what a fresh forced walk of it costs: one unit,
            # one per forced step, one per candidate replayed.  A forced walk
            # ignores register values, so the enumerator's counts give a
            # level's forced steps and paths for any d.  Below the halting
            # step, either the fuel left pays for the whole walk, whose
            # `halting(steps)` candidates all fail, or the walk would stop
            # short with the fuel spent, and the test fails whatever its
            # cut-short list holds.
            for steps in range(res.steps):
                left -= 1  # one unit per step level
                walked = enum.walked(steps)
                if left < walked:  # also a level begun with no fuel left
                    return False
                left -= walked + enum.halting(steps)
            # At the halting step a walk lists the run's path once it has
            # taken `reached` forced steps; a walk paid for in full then
            # replays the `before` paths ahead of it in the frozen order and
            # the path itself.  A walk cut short leaves no fuel for a later
            # factor, and neither does this charge, since then left < walked.
            left -= 1
            walked = enum.walked(res.steps)
            if left >= walked and k == len(decomp) - 1:
                return True  # the last factor's charge is never read
            bits = slp.run_path(guarded, vec, res.steps).guard_string
            reached, before = enum.rank(bits, res.steps)
            if left < reached:
                return False
            left -= walked + before + 1
        return True

    def member_tagged(self, w: Word) -> bool:
        """Membership for tag-indexed pattern words; decidable given the tag.

        A factor w(n, r) belongs iff enumeration index n yields a path and
        the path accepts r; the tag pins the path down, so no fuel is
        involved.
        """
        decomp = nielsen_decompose(w, lo=0)
        if decomp is None:
            return False
        for _, vec in decomp:
            if not vec:
                return False
            n = vec[0]
            if n.denominator != 1 or n < 0:
                return False
            path = self.enum.path(int(n))
            if path is None or path.d != len(vec) - 1:
                return False
            if slp.replay(path, vec[1:]) is None:
                return False
        return True


def assemble_u(program: BssProgram) -> UHandle:
    guarded = mult_guard_transform(program)
    return UHandle(guarded, PathEnumerator(guarded))


# -- the reduction map and its differential check -----------------------------------

_T = GenSym("t")  # the stable letter of the commuting extension over U


def reduce_halting(program: BssProgram, vec: Sequence[Fraction]) -> tuple[Word, Word]:
    """Query word and halting commutator for one input.

    The program halts on the input iff the query pattern word lies in U iff
    the commutator of the query with the stable letter t is trivial in the
    commuting extension over U.
    """
    query = encode_w(vec)
    return query, commutator(_T, query)


def u_structure(handle: UHandle, fuel: int) -> HnnStructure:
    """Commuting extension of the free pattern group over U at the given fuel.

    The membership oracle is the fueled under-approximation: the subgroup is
    only semi-decidable, so "not found within fuel" plays the role of a
    negative answer and all downstream agreement checks are conditioned on
    fuel-conclusive outcomes.
    """
    return commuting_structure(
        lambda w: len(free_reduce(w)) == 0, "t",
        lambda g, idx: handle.member_within(g, fuel))


def check_reduction(program: BssProgram, inputs: Sequence[Sequence[Fraction]],
                    fuel: int) -> list[dict]:
    """Per-input agreement report between simulation and the group side."""
    handle = assemble_u(program)
    struct = u_structure(handle, fuel)
    report = []
    for raw in inputs:
        vec = tuple(Fraction(x) for x in raw)
        sim = run(program, vec, fuel)
        query, comm = reduce_halting(program, vec)
        member = hnn_is_identity(struct, comm)
        simulated = "halt" if sim.halted else "inconclusive"
        group = "member" if member else "not-within-fuel"
        report.append({
            "input": vec,
            "simulated": simulated,
            "group": group,
            "agree": sim.halted == member,
            "conclusive": sim.halted or member,
            "query": query,
            "commutator": comm,
        })
    return report


def word_constants(w: Word) -> set[Fraction]:
    """Every rational mentioned by a word's letter indices."""
    out: set[Fraction] = set()
    for g, _ in w.letters:
        out.update(g.index)
    return out


def path_constants(path: Path) -> set[Fraction]:
    return {op[2] for op in path.ops if op[0] == "assign"}


# -- ambient presentations -----------------------------------------------------------

def pattern_group_presentation() -> Presentation:
    """The free group on y and the doubly indexed x letters."""
    return Presentation("pattern-free-group", 2,
                        (GenClause("x", 2, is_nat(var(0))),
                         GenClause("y", 0, TRUE)))


def extension_presentation() -> Presentation:
    """The shift/scale extension of the pattern group, as relator schemas.

    Stable letters a_(i,t) over all rational t and m_(i,t) over t nonzero;
    conjugation shifts resp. scales the i-th pattern coordinate and fixes
    every other generator.
    """
    g = pattern_group_presentation()
    svars = (var(0), var(1))
    a_rules = (
        ActionRule("x", 2, eq(var(2), var(0)),
                   (LetterTemplate("x", 1, (var(0), var(3) + var(1))),)),
        ActionRule("x", 2, ne(var(2), var(0))),
        ActionRule("y", 0),
    )
    c1 = hnn_extend(g, StableSpec("a", 2, is_nat(var(0))), a_rules,
                    label="pattern-shift")
    m_rules = (
        ActionRule("x", 2, eq(var(2), var(0)),
                   (LetterTemplate("x", 1, (var(0), var(3) * var(1))),)),
        ActionRule("x", 2, ne(var(2), var(0))),
        ActionRule("y", 0),
    )
    c2 = hnn_extend(c1, StableSpec("m", 2, conj(is_nat(var(0)), ne(var(1), 0))),
                    m_rules, label="pattern-shift-scale")
    return c2
