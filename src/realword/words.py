"""Free-group words over generators indexed by rational vectors.

A generator symbol is a (family, index) pair where the family tag comes from
a fixed finite alphabet and the index is a finite rational vector; equality
is structural, so x_(5) and x_(1/5) are unrelated generators (group inversion
is not multiplicative inversion).  Words are stored as tuples of signed
interned ids, which keeps free reduction and concatenation inside a small
integer kernel.

Besides reduction this module houses the conjugate "pattern" words

    w(r_1,...,r_k) = x_(k,r_k)^-1 ... x_(1,r_1)^-1 . y . x_(1,r_1) ... x_(k,r_k)

whose products form free subgroups (they are Nielsen-reduced), the matching
decomposition of such products, and a span decision procedure for decidable
word families.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Callable, Iterable, Optional, Sequence

from .rationals import RatVec, format_rat, parse_rat, quote

# the kernel is plain Python: free reduction is under a tenth of any
# end-to-end workload, so a compiled build would not pay for itself
KERNEL = "pure-python"

FAMILIES = ("x", "y", "a", "m", "t", "s", "r", "aux")


class CapExceeded(Exception):
    """Word longer than the configured cap for an exponential procedure."""


@dataclass(frozen=True)
class GenSym:
    """A generator symbol: family tag plus rational-vector index."""

    family: str
    index: RatVec = ()
    # the symbol's text, kept by its first `repr`; not a field, so equality,
    # hash and repr never see it (as with `Poly._vars`)
    _text = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown generator family {quote(self.family)}")
        idx = self.index
        if not isinstance(idx, tuple) or any(type(x) is not Fraction for x in idx):
            object.__setattr__(self, "index", tuple(Fraction(x) for x in idx))

    def __repr__(self):
        text = self._text
        if text is None:
            text = (f"{self.family}({','.join(format_rat(x) for x in self.index)})"
                    if self.index else self.family)
            object.__setattr__(self, "_text", text)
        return text


Letter = tuple[GenSym, int]  # exponent is -1 or +1

# generator interning: id 0 is reserved so that -id is always meaningful;
# keys are built from (family, index) so hot paths can skip symbol
# construction
_SYM_IDS: dict[tuple, int] = {}
_ID_SYMS: list[Optional[GenSym]] = [None]


def _sym_key(family: str, index) -> tuple:
    """(family, n1, d1, n2, d2, ...): each index entry as its numerator and
    denominator, so a lookup hashes and compares only ints and strings, and
    equal entries, an int and an equal Fraction too, give one key."""
    key = [family]
    for x in index:
        key.append(x.numerator)
        key.append(x.denominator)
    return tuple(key)


def _intern(g: GenSym) -> int:
    key = _sym_key(g.family, g.index)
    gid = _SYM_IDS.get(key)
    if gid is None:
        _ID_SYMS.append(g)
        gid = len(_ID_SYMS) - 1
        _SYM_IDS[key] = gid
    return gid


def intern_parts(family: str, index: tuple) -> int:
    """Generator id for (family, index) without building the symbol eagerly."""
    gid = _SYM_IDS.get(_sym_key(family, index))
    if gid is not None:
        return gid
    return _intern(GenSym(family, index))


class Word:
    """A finite sequence of letters; not necessarily freely reduced."""

    __slots__ = ("_ids",)

    def __init__(self, ids: tuple[int, ...] = ()):
        self._ids = ids

    @staticmethod
    def from_letters(letters: Iterable[Letter]) -> "Word":
        ids = []
        for gen, exp in letters:
            if exp not in (-1, 1):
                raise ValueError(f"letter exponent must be +-1, got {exp}")
            ids.append(exp * _intern(gen))
        return Word(tuple(ids))

    @property
    def letters(self) -> tuple[Letter, ...]:
        return tuple((_ID_SYMS[abs(v)], 1 if v > 0 else -1) for v in self._ids)

    @property
    def ids(self) -> tuple[int, ...]:
        return self._ids

    def is_reduced(self) -> bool:
        ids = self._ids
        return all(ids[i] != -ids[i + 1] for i in range(len(ids) - 1))

    def __len__(self):
        return len(self._ids)

    def __eq__(self, other):
        return isinstance(other, Word) and self._ids == other._ids

    def __hash__(self):
        return hash(self._ids)

    def __repr__(self):
        return f"<{format_word(self)}>"


EMPTY = Word()


def letter(family: str, index: Sequence = (), exp: int = 1) -> Letter:
    return (GenSym(family, tuple(Fraction(x) for x in index)), exp)


def word(*letters: Letter) -> Word:
    return Word.from_letters(letters)


# -- integer kernel: words as tuples of signed ids ------------------------------

def _reduce_ids(ids) -> tuple:
    # one stack scan cancels every adjacent inverse pair
    stack: list[int] = []
    push = stack.append
    pop = stack.pop
    for v in ids:
        if stack and stack[-1] == -v:
            pop()
        else:
            push(v)
    return tuple(stack)


def _concat_ids(a, b) -> tuple:
    # both operands reduced: cancellation happens only across the junction
    i = len(a)
    j = 0
    nb = len(b)
    while i > 0 and j < nb and a[i - 1] == -b[j]:
        i -= 1
        j += 1
    return tuple(a[:i]) + tuple(b[j:])


def free_reduce(w: Word) -> Word:
    """The unique freely reduced word equal to w in the free group."""
    return Word(_reduce_ids(w._ids))


def concat(*ws: Word) -> Word:
    """Freely reduced concatenation: one stack scan over all operands."""
    return Word(_reduce_ids(chain.from_iterable(w._ids for w in ws)))


def invert(w: Word) -> Word:
    return Word(tuple(-v for v in reversed(w._ids)))


# -- text syntax: x(1,5)^-1 . y . x(1,5) -------------------------------------

def format_word(w: Word) -> str:
    if not w._ids:
        return "1"
    syms = _ID_SYMS
    return " . ".join([repr(syms[v]) if v > 0 else repr(syms[-v]) + "^-1" for v in w._ids])


# largest |k| that `parse_word` expands for a `^k` suffix
MAX_EXPONENT = 10_000


def _letter_texts(s: str) -> list[str]:
    """Split on the dots outside parentheses: `x(1.5) . y` gives two texts."""
    texts: list[list[str]] = []
    depth = 0  # "(" minus ")" in the last text so far
    for part in s.split("."):
        if depth > 0:
            texts[-1].append(part)
            depth += part.count("(") - part.count(")")
        else:
            texts.append([part])
            depth = part.count("(") - part.count(")")
    return [".".join(parts) for parts in texts]


def _letter_id(tok: str, chunk: str) -> int:
    """Generator id of a letter text without its exponent, such as `x(1,5)`.

    A symbol is built only for a generator not interned before; an unknown
    family is never interned, so it always reaches GenSym's check.
    """
    if "(" in tok:
        fam, _, rest = tok.partition("(")
        if not rest.endswith(")"):
            raise ValueError(f"unclosed index in {quote(chunk)}")
        body = rest[:-1].strip()
        try:
            idx = tuple([parse_rat(p) for p in body.split(",")]) if body else ()
        except ValueError as exc:
            raise ValueError(f"bad index in {quote(chunk.strip())}: {exc}") from None
    else:
        fam, idx = tok, ()
    return intern_parts(fam.strip(), idx)


def parse_word(text: str) -> Word:
    """Parse dot-separated letters; `^k` repeats (only ^-1 is ever printed).

    |k| above MAX_EXPONENT is rejected before anything is expanded.
    """
    s = text.strip()
    if s in ("", "1"):
        return EMPTY
    ids: list[int] = []
    known: dict[str, int] = {}  # letter text -> generator id, for this call
    for chunk in _letter_texts(s):
        tok = chunk.strip()
        exp = 1
        if "^" in tok:
            tok, _, e = tok.partition("^")
            tok = tok.strip()
            try:
                exp = int(e.strip())
            except ValueError:
                raise ValueError(f"bad exponent {quote(e)} in {quote(chunk)}") from None
            if exp == 0:
                raise ValueError(f"zero exponent in {quote(chunk)}")
            if abs(exp) > MAX_EXPONENT:
                raise ValueError(f"exponent {exp} in {quote(chunk)} exceeds "
                                 f"{MAX_EXPONENT} in absolute value")
        gid = known.get(tok)
        if gid is None:
            gid = known[tok] = _letter_id(tok, chunk)
        ids.extend([gid if exp > 0 else -gid] * abs(exp))
    return Word(tuple(ids))


# -- span membership ----------------------------------------------------------

def span_decide(w: Word, member: Callable[[Word], bool],
                max_letters: int | None = None) -> bool:
    """Does w factor into contiguous blocks, each in the family or its inverses?

    Explores every partition of the word into nonempty blocks (via the
    prefix-block recurrence, which visits the same 2^(k-1) split set
    implicitly).  `member` must be a total decidable predicate on words.
    """
    ids = w._ids
    n = len(ids)
    if max_letters is not None and n > max_letters:
        raise CapExceeded(f"word has {n} letters, cap is {max_letters}")
    ok = [False] * (n + 1)
    ok[0] = True
    for j in range(1, n + 1):
        for i in range(j):
            if not ok[i]:
                continue
            block = Word(ids[i:j])
            if member(block) or member(invert(block)):
                ok[j] = True
                break
    return ok[n]


# -- conjugate pattern words ---------------------------------------------------

def _pattern_ids(vec: Sequence, lo: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    # returns (ids of the conjugator tail x_(lo,v_lo)...x_(hi,v_hi), id of y)
    tail = tuple(intern_parts("x", (Fraction(lo + i),
                                    v if type(v) is Fraction else Fraction(v)))
                 for i, v in enumerate(vec))
    return tail, (intern_parts("y", ()),)


def encode_w(vec: Sequence) -> Word:
    """The pattern word x_(k,r_k)^-1 ... x_(1,r_1)^-1 . y . x_(1,r_1) ... x_(k,r_k)."""
    tail, y = _pattern_ids(vec, 1)
    return Word(tuple(-g for g in reversed(tail)) + y + tail)


def encode_w_tagged(n: int, vec: Sequence) -> Word:
    """Pattern word with the tag x_(0,n) inserted innermost on both sides."""
    if n < 0:
        raise ValueError("tag must be a natural number")
    tail, y = _pattern_ids((n, *vec), 0)
    return Word(tuple(-g for g in reversed(tail)) + y + tail)


def _x_parts(gen: GenSym, lo: int) -> Optional[tuple[int, Fraction]]:
    # an x generator with index (i, s), i an integer >= lo
    if gen.family != "x" or len(gen.index) != 2:
        return None
    i, s = gen.index
    if i.denominator != 1 or i.numerator < lo:
        return None
    return i.numerator, s


def nielsen_decompose(w: Word, lo: int = 1) -> Optional[list[tuple[int, RatVec]]]:
    """Parse w as a reduced product of pattern words; None if it is not one.

    Returns [(exp, vec), ...] with w equal to the product of the
    correspondingly oriented pattern words.  The decomposition is unique
    because the pattern words freely generate their span.  `lo` is the lowest
    register index in the pattern (0 for tagged words).
    """
    ids = _reduce_ids(w._ids)
    if not ids:
        return []
    letters = [(_ID_SYMS[v], 1) if v > 0 else (_ID_SYMS[-v], -1) for v in ids]
    y_positions = [p for p, (g, _) in enumerate(letters) if g.family == "y"]
    if not y_positions:
        return None

    # leading segment: the full inverted conjugator of the first factor
    first: list[Fraction] = []
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

    out: list[tuple[int, RatVec]] = [(letters[y_positions[0]][1], vec)]
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
        neg: list[tuple[int, Fraction]] = []
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


def pattern_product(decomp: Iterable[tuple[int, RatVec]], lo: int = 1) -> Word:
    """Re-multiply a decomposition; inverse of nielsen_decompose."""
    acc = EMPTY
    for exp, vec in decomp:
        if lo == 0:
            n = vec[0]
            piece = encode_w_tagged(int(n), vec[1:])
        else:
            piece = encode_w(vec)
        acc = concat(acc, piece if exp == 1 else invert(piece))
    return acc
