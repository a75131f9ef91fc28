"""Presented groups with machine-checkable generator and relator sets.

A presentation couples a decidable generator family (per-family arity and
predicate clauses) with a list of relator schemas.  A template schema is a
fixed letter shape whose index entries are polynomial expressions in the
schema parameters, together with a parameter constraint; instantiating it at
any admissible parameter vector yields one relator word, and membership of a
word in the instance set is decided by matching the shape and solving for
the parameters.

Word triviality is searched as an explicit product of conjugated relator
instances

    w = c_1 r_1 c_1^-1 . c_2 r_2 c_2^-1 ... c_n r_n c_n^-1

and every positive answer carries a certificate of exactly that shape, which
`verify_certificate` replays by free reduction alone, independently of how
the search found it.  The searcher peels relator instances that match
subwords of the goal first (which is how certificates for words built from
relators are found quickly) and falls back to a fair dovetailed enumeration
of (conjugator, relator) pairs, so a proof is found for every trivial word
given enough fuel; relator and conjugator enumeration orders are frozen and
golden-filed.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Optional, Sequence

from .predicates import (Poly, Pred, TRUE, conj, const, eq,
                         shift_pred, solvable, solve_unknown, var)
from .rationals import (RatVec, _nat_tuple, enumerate_vectors, format_rat,
                        parse_rat, quote, unpair, vector_arity)
from .words import (_ID_SYMS, EMPTY, FAMILIES, GenSym, Word, _concat_ids,
                    _reduce_ids, concat, format_word, free_reduce, intern_parts,
                    invert, parse_word)


class ArityMismatch(ValueError):
    """Generator index arity exceeds the presentation dimension."""


@dataclass(frozen=True)
class GenClause:
    family: str
    arity: int
    pred: Pred

    def admits(self, index: RatVec) -> bool:
        return len(index) == self.arity and self.pred.eval(index)


@dataclass(frozen=True)
class LetterTemplate:
    family: str
    exp: int
    index: tuple[Poly, ...] = ()

    def instantiate_id(self, params: Sequence[Fraction]) -> int:
        gid = intern_parts(self.family, tuple(e.eval(params) for e in self.index))
        return gid if self.exp > 0 else -gid

    def shape(self) -> tuple[str, int, int]:
        return (self.family, self.exp, len(self.index))


def _shape(v: int) -> tuple[str, int, int]:
    """The shape (family, exp, index length) of signed generator id v."""
    g = _ID_SYMS[abs(v)]
    return (g.family, 1 if v > 0 else -1, len(g.index))


@dataclass(frozen=True)
class RelatorSchema:
    """Template relator family: fixed letter shape, polynomial index entries."""

    arity: int
    template: tuple[LetterTemplate, ...]
    constraint: Pred = TRUE
    label: str = ""
    # the match plan, built by the first `match_prefix`; not a field, so
    # equality, hash, repr and JSON never see it (as with `Poly._vars`)
    _plan = None

    def admits(self, params: Sequence[Fraction]) -> bool:
        return len(params) == self.arity and self.constraint.eval(params)

    def instantiate(self, params: Sequence[Fraction], check: bool = True) -> Word:
        params = tuple(Fraction(x) for x in params)
        if check and not self.admits(params):
            raise ValueError(f"parameters {params} violate the schema constraint")
        return Word(tuple(lt.instantiate_id(params) for lt in self.template))

    def _bind(self, window: Optional[Sequence[int]] = None) -> tuple:
        """(full, binds, checks): the binding fixpoint, on the template alone
        (window None) or on window's index values.

        At each letter, index entries bind bare variables or are solved one
        unknown at a time until nothing changes.  On the template a solve
        succeeds wherever `solvable` says it can, on a window wherever
        `solve_unknown` returns a value.  `binds` lists, in that order, the
        (letter, entry, variable, expr) that bind a variable, expr None for a
        bare one; `full` is the letter count at which every variable is
        bound, None if that never happens; `checks` holds the (letter,
        entry, expr) of template[:full] that bind nothing.
        """
        tpl = self.template
        if window is not None:
            index = [_ID_SYMS[abs(v)].index for v in window]
            tpl = tpl[:len(window)]
        known: dict[int, Optional[Fraction]] = {}
        seen: list[tuple[int, int, Poly]] = []
        binds = []
        for L, t in enumerate(tpl):
            seen += [(L, j, e) for j, e in enumerate(t.index)]
            progress = True
            while progress and len(known) < self.arity:
                progress = False
                for Lj, j, expr in seen:
                    val = None if window is None else index[Lj][j]
                    if expr.op == "var":  # a bare variable binds directly
                        if expr.k not in known:
                            known[expr.k] = val
                            binds.append((Lj, j, expr.k, None))
                            progress = True
                    elif len(free := expr.vars() - known.keys()) == 1:
                        (uv,) = free
                        if window is None:
                            got = (uv, None) if solvable(expr, uv) else None
                        else:
                            got = solve_unknown(expr, val, known)
                        if got is not None:
                            known[uv] = got[1]
                            binds.append((Lj, j, uv, expr))
                            progress = True
            if len(known) >= self.arity:
                bound = {(Lj, j) for Lj, j, _, _ in binds}
                return (L + 1, tuple(binds),
                        tuple(x for x in seen if x[:2] not in bound))
        return None, (), ()

    def match_prefix(self, window: Sequence[int]) -> Optional[list[tuple[int, RatVec]]]:
        """Every (L, params) making template[:L] the word of window[:L].

        `window` holds signed generator ids whose letters already have the
        shapes of template[:len(window)], so only their indices are read.
        Each binding is forced, so the parameters found once all variables
        are bound are the only candidates for every longer prefix, which
        matches when its entries and the constraint hold at them.  The
        schema's plan is `_bind` on the template, run by the first call.
        Returns the non-empty matches longest first, or None.
        """
        plan = self._plan
        if plan is None:
            plan = self._bind()
            object.__setattr__(self, "_plan", plan)
        return self._run(plan, window)

    def _run(self, plan: tuple, window: Sequence[int]) -> Optional[list[tuple[int, RatVec]]]:
        """`match_prefix` by a `_bind` result: a shorter window than `full`
        has no match, and a longer one runs the binds, checks the entries
        that bound nothing and the constraint once, then each longer
        prefix's entries.  A planned solve that fails (a zero coefficient)
        binds again on the window's own values, where every solve the
        result runs has just succeeded."""
        full, binds, checks = plan
        if full is None or len(window) < full:
            return None
        index = [_ID_SYMS[abs(v)].index for v in window]
        known: dict[int, Fraction] = {}
        for L, j, k, expr in binds:
            if expr is None:
                known[k] = index[L][j]
            else:
                got = solve_unknown(expr, index[L][j], known)
                if got is None:
                    return self._run(self._bind(window), window)
                known[k] = got[1]
        params = tuple([known[i] for i in range(self.arity)])
        for L, j, expr in checks:
            if expr.eval(params) != index[L][j]:
                return None
        if not self.constraint.eval(params):
            return None
        hits = [(full, params)]
        for L in range(full, min(len(window), len(self.template))):
            if any(e.eval(params) != x for e, x in zip(self.template[L].index, index[L])):
                break
            hits.append((L + 1, params))
        return hits[::-1]

    def match(self, w: Word) -> Optional[RatVec]:
        """Parameters of which w is the instance, or None."""
        n = len(self.template)
        if len(w) != n or any(_shape(v) != t.shape() for t, v in zip(self.template, w.ids)):
            return None
        if n == 0:
            return () if self.admits(()) else None
        hits = self.match_prefix(w.ids)
        return hits[0][1] if hits and hits[0][0] == n else None

    def inverse(self) -> "RelatorSchema":
        tpl = tuple(LetterTemplate(t.family, -t.exp, t.index)
                    for t in reversed(self.template))
        return RelatorSchema(self.arity, tpl, self.constraint, self.label + "^-1")


class _RelatorRecord:
    """The relators that searches' streams have found on one presentation.

    `found[k]` is the k-th relator of the frozen stream as (schema index,
    params, relator, ids of the inverted relator), and `raws[k]` the raw
    vector index it was found at; every raw index below `frontier` has been
    scanned.  The frontier grows only as far as some request needs, so the
    record holds the relators some search asked for, plus one integer.
    """

    __slots__ = ("found", "raws", "frontier")

    def __init__(self):
        self.found: list[tuple[int, RatVec, Word, tuple[int, ...]]] = []
        self.raws: list[int] = []
        self.frontier = 0


@dataclass(frozen=True)
class Presentation:
    label: str
    dim: int
    generators: tuple[GenClause, ...]
    relators: tuple[RelatorSchema, ...] = ()
    # shared by every search on this presentation and dies with it; a copy
    # made by `replace` starts a fresh one
    _relator_record: _RelatorRecord = field(default_factory=_RelatorRecord, init=False,
                                            compare=False, repr=False)

    def __post_init__(self):
        for c in self.generators:
            if c.arity > self.dim:
                raise ValueError(f"clause arity {c.arity} exceeds dim {self.dim}")


def check_generator(p: Presentation, g: GenSym) -> bool:
    if len(g.index) > p.dim:
        raise ArityMismatch(
            f"index arity {len(g.index)} exceeds presentation dimension {p.dim}")
    return any(c.family == g.family and c.admits(g.index) for c in p.generators)


def check_word(p: Presentation, w: Word) -> bool:
    """Every letter of w is a generator of p."""
    return all(check_generator(p, g) for g, _ in w.letters)


def check_relator(p: Presentation, w: Word) -> bool:
    """Is w an instance of some relator schema of p (first match wins)?"""
    return any(s.match(w) is not None for s in p.relators)


# -- frozen enumeration streams -------------------------------------------------

_SCAN_STEP = 20_000  # raw indices examined per stream request


class _Streams:
    """Lazily materialized relator and conjugator streams of one search.

    Relators: raw vector index ascending, then schema order, skipping
    parameters of wrong arity or violating the constraint.  Conjugators:
    empty word first, then by (length, letter-index tuple) with each
    generator symbol contributing +1 before -1.  A raw index whose vector
    has no schema's (clause's) arity is skipped without building the vector.

    A request scans at most `_SCAN_STEP` raw indices past the search's
    cursor.  Relators come from the presentation's `_RelatorRecord`, which
    every search shares; a search replays the scan on it with its own
    cursor, below which every relator is visible to it, so its answers are
    those of a scan from raw index 0, however warm the record.  Each
    relator keeps the ids of its inverse.  Letters are signed generator
    ids, interned once; they, and conjugators with the ids of their
    inverses, are kept for the life of the streams.
    """

    def __init__(self, p: Presentation):
        self.p = p
        self._rel_raw = 0  # this search's cursor
        self._rel_arities = {s.arity for s in p.relators}
        self.letters: list[int] = []
        self._let_raw = 0
        self._let_arities = {c.arity for c in p.generators}
        self._conjugators: dict[int, tuple[Word, tuple[int, ...]]] = {0: (EMPTY, ())}

    def relator(self, i: int) -> Optional[tuple[int, RatVec, Word, tuple[int, ...]]]:
        # a request from cursor c reaches relator i iff its raw index R is
        # below c + _SCAN_STEP, and moves the cursor to R + 1 if that is
        # further; the record is scanned only as far as the request needs
        rec = self.p._relator_record
        found = rec.found
        limit = self._rel_raw + _SCAN_STEP
        while len(found) <= i and rec.frontier < limit:
            raw = rec.frontier
            rec.frontier += 1
            if vector_arity(raw) not in self._rel_arities:
                continue
            vec = enumerate_vectors(raw)
            for si, s in enumerate(self.p.relators):
                if s.arity == len(vec) and s.admits(vec):
                    r = s.instantiate(vec, check=False)
                    found.append((si, vec, r, invert(r).ids))
                    rec.raws.append(raw)
        if i < len(found) and rec.raws[i] < limit:
            if rec.raws[i] >= self._rel_raw:
                self._rel_raw = rec.raws[i] + 1
            return found[i]
        self._rel_raw = limit
        return None

    def letter(self, i: int) -> Optional[int]:
        budget = _SCAN_STEP
        while len(self.letters) <= i and budget > 0:
            raw = self._let_raw
            self._let_raw += 1
            budget -= 1
            if vector_arity(raw) not in self._let_arities:
                continue
            vec = enumerate_vectors(raw)
            for c in self.p.generators:
                if c.admits(vec):
                    g = intern_parts(c.family, vec)
                    self.letters += (g, -g)
        return self.letters[i] if i < len(self.letters) else None

    def conjugator(self, i: int) -> Optional[tuple[Word, tuple[int, ...]]]:
        """The i-th conjugator and the ids of its inverse."""
        got = self._conjugators.get(i)
        if got is not None:
            return got
        length1, m = unpair(i - 1)
        ids = []
        for k in _nat_tuple(length1 + 1, m):
            v = self.letter(k)
            if v is None:
                return None
            ids.append(v)
        got = self._conjugators[i] = (Word(tuple(ids)),
                                      tuple([-v for v in reversed(ids)]))
        return got


_MAX_SCAN_CALLS = 500  # ~10^7 raw indices before an index is declared unreachable


def enumerate_relators(p: Presentation, index: int) -> Word:
    """index-th relator instance in the frozen dovetail order."""
    st = _Streams(p)
    for _ in range(_MAX_SCAN_CALLS):
        got = st.relator(index)
        if got is not None:
            return got[2]
        if not p.relators:
            break
    raise ValueError(f"relator index {index} not reachable in {p.label!r}")


def enumerate_conjugators(p: Presentation, index: int) -> Word:
    st = _Streams(p)
    for _ in range(_MAX_SCAN_CALLS):
        got = st.conjugator(index)
        if got is not None:
            return got[0]
    raise ValueError(f"conjugator index {index} not reachable in {p.label!r}")


# -- constructors ----------------------------------------------------------------

def _retag_clause(c: GenClause, tag: int) -> GenClause:
    return GenClause(c.family, c.arity + 1,
                     conj(c.pred, eq(var(c.arity), const(tag))))


def _retag(tpl: Sequence[LetterTemplate], tag: int) -> tuple[LetterTemplate, ...]:
    return tuple(LetterTemplate(t.family, t.exp, t.index + (const(tag),)) for t in tpl)


def free_product(p1: Presentation, p2: Presentation,
                 label: str = "") -> Presentation:
    """Disjointly tagged union: factor generators get a final index 1 or 2."""
    gens = tuple(_retag_clause(c, k) for k, p in ((1, p1), (2, p2)) for c in p.generators)
    rels = tuple(RelatorSchema(s.arity, _retag(s.template, k), s.constraint, s.label)
                 for k, p in ((1, p1), (2, p2)) for s in p.relators)
    return Presentation(label or f"{p1.label}*{p2.label}",
                        max(p1.dim, p2.dim) + 1, gens, rels)


@dataclass(frozen=True)
class WordFamily:
    """A parametric word inside one factor: letter templates plus constraint."""

    arity: int
    letters: tuple[LetterTemplate, ...]
    constraint: Pred = TRUE


def amalgamate(p1: Presentation, p2: Presentation,
               a_family: Optional[WordFamily],
               image: Optional[tuple[LetterTemplate, ...]] = None,
               label: str = "") -> Presentation:
    """Free product of p1 and p2 with the identification image(v) = v.

    `a_family` describes the identified subgroup generators v inside p1 (over
    shared parameters); their images inside p2 are letter templates over the
    same parameters.  With no family at all this is the plain free product.
    """
    base = free_product(p1, p2, label=label)
    if a_family is None:
        return base
    if image is None:
        raise ValueError("amalgamate needs the image letter templates of its family")
    inv_fam = tuple(LetterTemplate(t.family, -t.exp, t.index)
                    for t in reversed(_retag(a_family.letters, 1)))
    schema = RelatorSchema(a_family.arity, _retag(image, 2) + inv_fam,
                           a_family.constraint, "amalgam")
    return replace(base, relators=base.relators + (schema,))


@dataclass(frozen=True)
class StableSpec:
    """A family of stable letters: tag, index arity, index predicate."""

    family: str
    arity: int
    pred: Pred = TRUE


@dataclass(frozen=True)
class ActionRule:
    """How conjugation by the stable letters moves one base letter family.

    Variables 0..stable.arity-1 are the stable-letter index, the following
    `arity` variables the base letter index; `image` letters are templates
    over that combined parameter vector (None means the letter is fixed).
    """

    family: str
    arity: int
    guard: Pred = TRUE
    image: Optional[tuple[LetterTemplate, ...]] = None


def hnn_extend(p: Presentation, stable: StableSpec,
               rules: Sequence[ActionRule], label: str = "") -> Presentation:
    """Add stable letters and the commutation relators image(v) t v^-1 t^-1."""
    gens = p.generators + (GenClause(stable.family, stable.arity, stable.pred),)
    new_rels = []
    sa = stable.arity
    stable_vars = tuple(var(i) for i in range(sa))
    for rule in rules:
        letter_vars = tuple(var(sa + i) for i in range(rule.arity))
        image = rule.image
        if image is None:
            image = (LetterTemplate(rule.family, 1, letter_vars),)
        base_pred = TRUE
        for c in p.generators:
            if c.family == rule.family and c.arity == rule.arity:
                base_pred = shift_pred(c.pred, sa)
                break
        tpl = image + (
            LetterTemplate(stable.family, 1, stable_vars),
            LetterTemplate(rule.family, -1, letter_vars),
            LetterTemplate(stable.family, -1, stable_vars),
        )
        # stable.pred already lives on variables 0..arity-1 of the combined vector
        constraint = conj(stable.pred, rule.guard, base_pred)
        new_rels.append(RelatorSchema(sa + rule.arity, tpl, constraint,
                                      f"hnn-{rule.family}"))
    return Presentation(label or f"{p.label};{stable.family}",
                        max(p.dim, stable.arity), gens,
                        p.relators + tuple(new_rels))


# -- word problem search -----------------------------------------------------------

@dataclass(frozen=True)
class CertEntry:
    conjugator: Word
    relator: Word
    schema_index: int
    params: RatVec


@dataclass(frozen=True)
class Certificate:
    entries: tuple[CertEntry, ...]

    def to_json(self):
        return [{"conjugator": format_word(e.conjugator),
                 "relator": format_word(e.relator),
                 "schema": e.schema_index,
                 "params": [format_rat(x) for x in e.params]}
                for e in self.entries]

    @staticmethod
    def from_json(data) -> "Certificate":
        """Entries as `to_json` writes them; any other shape is a ValueError."""
        if not isinstance(data, list):
            raise ValueError("a certificate is a JSON list of entries")
        entries = []
        for k, e in enumerate(data):
            if not (isinstance(e, dict)
                    and isinstance(e.get("conjugator"), str)
                    and isinstance(e.get("relator"), str)
                    and type(e.get("schema")) is int
                    and isinstance(e.get("params"), list)
                    and all(isinstance(x, str) for x in e["params"])):
                raise ValueError(f"certificate entry {k} needs string conjugator "
                                 "and relator, an integer schema and a list of "
                                 "string params")
            entries.append(CertEntry(parse_word(e["conjugator"]),
                                     parse_word(e["relator"]), e["schema"],
                                     tuple(parse_rat(x) for x in e["params"])))
        return Certificate(tuple(entries))


def verify_certificate(p: Presentation, w: Word, cert: Certificate) -> bool:
    """Replay the certificate by free reduction; independent of the search.

    A word with a letter outside the generator set raises ValueError, as
    `wp_semidecide` does; a conjugator with one rejects the certificate.
    """
    if not check_word(p, w):
        raise ValueError("word contains letters outside the generator set")
    acc = EMPTY
    for e in cert.entries:
        if not (0 <= e.schema_index < len(p.relators)):
            return False
        if not all(len(g.index) <= p.dim and check_generator(p, g)
                   for g, _ in e.conjugator.letters):
            return False
        schema = p.relators[e.schema_index]
        if not schema.admits(e.params):
            return False
        if schema.instantiate(e.params, check=False) != e.relator:
            return False
        acc = concat(acc, e.conjugator, e.relator, invert(e.conjugator))
    return acc == free_reduce(w)


# (L, params, relator, ids of the freely reduced inverse of the tail)
_Hit = tuple[int, RatVec, Word, tuple[int, ...]]
_NO_HITS: tuple[_Hit, ...] = ()
# (position, schema index, params, relator, child ids)
_Move = tuple[int, int, RatVec, Word, tuple[int, ...]]


class _Heads(dict):
    """Signed generator id -> (its letter's shape, the (schema index, schema,
    template shapes) triples, in schema order, of the schemas whose first
    template letter has that shape); a schema can match only at a letter of
    that shape.  Entries are filled by `_shape` on first sight of an id and
    kept for the rest of one search.
    """

    def __init__(self, p: Presentation):
        super().__init__()
        self.by_shape: dict[tuple[str, int, int], list] = {}
        for si, s in enumerate(p.relators):
            if s.template:
                tshapes = tuple(t.shape() for t in s.template)
                self.by_shape.setdefault(tshapes[0], []).append((si, s, tshapes))

    def __missing__(self, v: int) -> tuple[tuple[str, int, int], Sequence[tuple]]:
        shape = _shape(v)
        got = self[v] = (shape, self.by_shape.get(shape, ()))
        return got


def _window_hits(schema: RelatorSchema, window: tuple[int, ...]) -> tuple[_Hit, ...]:
    """Every match of schema on a window, with its relator and inverted tail."""
    found = schema.match_prefix(window)
    if found is None:
        return _NO_HITS
    hits = []
    for L, params in found:
        tail = tuple([t.instantiate_id(params) for t in schema.template[L:]])
        # the matched letters are the instance's first L letters
        hits.append((L, params, Word(window[:L] + tail),
                     _reduce_ids([-v for v in reversed(tail)])))
    return tuple(hits)


def _goal_moves(ids: tuple[int, ...], heads: _Heads,
                memos: list[dict[tuple[int, ...], tuple[_Hit, ...]]]) -> list[_Move]:
    """Certificate steps that strictly shorten a word, by prefix matching.

    `ids` is the word and `heads` the search's `_Heads`, whose entry for
    each letter is read once.  A schema's window at position i ends at the
    first letter whose shape differs from the template's, or at the
    template's or the word's end; `memos[si]` maps a window to
    `_window_hits(schema si, window)`, a function of the window alone, for
    the rest of one search.  A move's child is built only when it is
    shorter than the word, and its certificate entry, built only when a
    proof returns, is `CertEntry(Word(ids[:i]), relator, si, params)`.
    """
    out = []
    n = len(ids)
    hs = [heads[v] for v in ids]
    for i, (_, schemas) in enumerate(hs):
        left = n - i
        for si, schema, tshapes in schemas:
            m = 1
            end = len(tshapes)
            if end > left:
                end = left
            while m < end and hs[i + m][0] == tshapes[m]:
                m += 1
            window = ids[i:i + m]
            memo = memos[si]
            hits = memo.get(window)
            if hits is None:
                hits = memo[window] = _window_hits(schema, window)
            for L, params, relator, inv_tail in hits:
                # the child is ids[:a] + inv_tail[k:e] + ids[b:]: ids and
                # inv_tail are freely reduced, so only the junctions cancel,
                # and once inv_tail cancels whole the prefix meets the suffix
                a = i
                k = 0
                e = len(inv_tail)
                while k < e and a > 0 and ids[a - 1] == -inv_tail[k]:
                    a -= 1
                    k += 1
                b = i + L
                while b < n and e > k and inv_tail[e - 1] == -ids[b]:
                    e -= 1
                    b += 1
                if e == k:
                    while b < n and a > 0 and ids[a - 1] == -ids[b]:
                        a -= 1
                        b += 1
                if a + e - k + n - b < n:
                    out.append((i, si, params, relator, ids[:a] + inv_tail[k:e] + ids[b:]))
    return out


def wp_semidecide(p: Presentation, w: Word, fuel: int) -> Optional[Certificate]:
    """Search for a conjugated-relator-product certificate that w = 1 in p.

    Returns a Certificate (replayable via verify_certificate) or None when
    the node budget is exhausted.  The search is deterministic: goal-directed
    peeling moves first, then the frozen blind (conjugator, relator) dovetail,
    explored in cost order, so a result found at some fuel is returned
    unchanged at any higher fuel.  Every cache it keeps dies with the call,
    except the presentation's relator record, which it replays exactly, and
    each schema's match plan, a function of the schema alone.
    """
    if not check_word(p, w):
        raise ValueError("word contains letters outside the generator set")
    target = free_reduce(w)
    if len(target) == 0:
        return Certificate(())
    # streams with a fresh cursor: they replay the shared relator record as
    # a scan from raw index 0 would find it, so the search is a pure function
    # of (p, w, fuel) and a proof found at some fuel is reproduced verbatim
    # at any higher fuel
    st = _Streams(p)
    has_blind = len(p.relators) > 0

    counter = 0
    # heap entries: (priority, seq, ids, moves, k, chain).  `moves` is None
    # until the word is popped, then the word's goal moves while move k is
    # one of them, and () once they are spent, with k re-based to the blind
    # index; so a move list is freed when its last entry moves on, and no
    # table keeps one per popped word.  `chain` is the certificate so far as
    # linked (c, uids, i, relator, schema index, params, parent chain)
    # moves, None when empty.
    heap: list[tuple] = [(0, 0, target.ids, None, 0, None)]
    heads = _Heads(p)
    window_memos: list[dict] = [{} for _ in p.relators]
    # blind index -> (c, relator, schema index, params, reduced c r^-1 c^-1);
    # only materialized pairs are kept, so a stream short of an index is
    # asked again on the next pop that needs it
    blind: dict[int, tuple[Word, Word, int, RatVec, tuple[int, ...]]] = {}
    best: dict[tuple, int] = {target.ids: 0}

    for _ in range(fuel):
        if not heap:
            return None
        prio, seq, uids, moves, k, chain = heapq.heappop(heap)
        if moves is None:
            moves = _goal_moves(uids, heads, window_memos)
        ucost = best.get(uids, prio)

        # schedule this state's next move
        nk = k + 1
        if nk < len(moves):
            counter += 1
            heapq.heappush(heap, (ucost + 1, counter, uids, moves, nk, chain))
        elif has_blind:
            nk -= len(moves)
            counter += 1
            heapq.heappush(heap, (ucost + 2 + nk, counter, uids, (), nk, chain))

        if k < len(moves):
            i, si, params, rword, ids1 = moves[k]
            c = None
            edge = 1
        else:
            if not has_blind:
                continue
            j = k - len(moves)
            got = blind.get(j)
            if got is None:
                ci, ri = unpair(j)
                rel = st.relator(ri)
                conj = st.conjugator(ci)
                if rel is None or conj is None:
                    continue  # stream not materialized this far yet; fuel spent
                si, params, rword, r_inv = rel
                c, c_inv = conj
                got = blind[j] = (c, rword, si, params,
                                  _reduce_ids(c.ids + r_inv + c_inv))
            c, rword, si, params, q = got
            # concat(c, invert(rword), invert(c), u): both operands reduced
            ids1 = _concat_ids(q, uids)
            i = None
            edge = 2 + j

        # a duplicate is dropped before its chain link is built; the empty
        # word is never in `best`, so it always reaches the return
        ncost = ucost + edge
        old = best.get(ids1)
        if old is not None and old <= ncost:
            continue
        # the link keeps the raw move: its entry, with the conjugator
        # c or Word(uids[:i]), is built only when a proof returns
        chain = (c, uids, i, rword, si, params, chain)
        if not ids1:
            entries = []
            while chain is not None:
                c, uids, i, rword, si, params, chain = chain
                entries.append(CertEntry(c if i is None else Word(uids[:i]),
                                         rword, si, params))
            return Certificate(tuple(reversed(entries)))
        best[ids1] = ncost
        counter += 1
        heapq.heappush(heap, (ncost + 1, counter, ids1, None, 0, chain))
    return None


# -- JSON serialization ------------------------------------------------------------

def presentation_to_json(p: Presentation) -> dict:
    return {
        "label": p.label,
        "dim": p.dim,
        "generators": [{"family": c.family, "arity": c.arity,
                        "pred": c.pred.to_json()} for c in p.generators],
        "relators": [{"arity": s.arity,
                      "label": s.label,
                      "letters": [{"family": t.family, "exp": t.exp,
                                   "index": [e.to_json() for e in t.index]}
                                  for t in s.template],
                      "constraint": s.constraint.to_json()}
                     for s in p.relators],
    }


def _check_vars(used: list, arity: int, what: str):
    """Every variable index in `used` is below `arity`; the error names the
    smallest offender by repr."""
    bad = [v for v in used if not 0 <= v < arity]
    if bad:
        raise ValueError(f"{what} uses variable {quote(min(bad, key=repr))} "
                         f"but has arity {arity}")


_JSON_KINDS = {dict: "an object", list: "a list", str: "a string", int: "an integer"}


def _field(obj, key: str, kind: type, what: str, default=None):
    """obj[key], or default when absent, checked to be of one JSON kind."""
    if type(obj) is not dict:
        raise ValueError(f"{what} must be an object")
    value = obj.get(key, default)
    if type(value) is not kind:
        raise ValueError(f"{what} needs {key!r} as {_JSON_KINDS[kind]}")
    return value


def _nat_field(obj, key: str, what: str) -> int:
    value = _field(obj, key, int, what)
    if value < 0:
        raise ValueError(f"{what} needs {key!r} at least 0, got {quote(value)}")
    return value


def _family(obj, what: str) -> str:
    family = _field(obj, "family", str, what)
    if family not in FAMILIES:
        raise ValueError(f"{what}: unknown generator family {quote(family)}")
    return family


def presentation_from_json(data) -> Presentation:
    """Inverse of `presentation_to_json`; malformed data raises ValueError.

    One walk builds and validates: each clause and schema collects the
    variable indices its nodes use, and equal var and const leaves are
    shared within the call.
    """
    leaves: dict = {}
    gens = []
    for k, g in enumerate(_field(data, "generators", list, "presentation")):
        what = f"generator clause {k}"
        used: list = []
        c = GenClause(_family(g, what), _nat_field(g, "arity", what),
                      Pred.from_json(g["pred"], used, leaves))
        _check_vars(used, c.arity, f"{what} ({quote(c.family)})")
        gens.append(c)
    rels = []
    for k, r in enumerate(_field(data, "relators", list, "presentation")):
        what = f"relator {k} ({quote(_field(r, 'label', str, f'relator {k}', ''))})"
        used = []
        tpl = []
        for t in _field(r, "letters", list, what):
            exp = _field(t, "exp", int, what)
            if exp not in (1, -1):
                raise ValueError(f"{what}: letter exponent must be 1 or -1, "
                                 f"got {quote(exp)}")
            index = _field(t, "index", list, what)
            tpl.append(LetterTemplate(_family(t, what), exp,
                                      tuple([Poly.from_json(e, used, leaves) for e in index])))
        # older files carry a "mode", which was always "decidable"
        if _field(r, "mode", str, what, "decidable") != "decidable":
            raise ValueError(f"{what}: unknown mode {quote(r['mode'])}")
        s = RelatorSchema(_nat_field(r, "arity", what), tuple(tpl),
                          Pred.from_json(r["constraint"], used, leaves), r.get("label", ""))
        _check_vars(used, s.arity, what)
        rels.append(s)
    return Presentation(_field(data, "label", str, "presentation"),
                        _nat_field(data, "dim", "presentation"), tuple(gens), tuple(rels))
