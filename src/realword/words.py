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

def _pattern_word(vec: Sequence, lo: int) -> Word:
    """x_(k,v_k)^-1 ... x_(lo,v_lo)^-1 . y . x_(lo,v_lo) ... x_(k,v_k), the
    entries of vec placed on registers lo, lo + 1, ... in order."""
    tail = tuple(intern_parts("x", (Fraction(lo + i),
                                    v if type(v) is Fraction else Fraction(v)))
                 for i, v in enumerate(vec))
    return Word(tuple(-g for g in reversed(tail)) + (intern_parts("y", ()),) + tail)


def encode_w(vec: Sequence) -> Word:
    """The pattern word x_(k,r_k)^-1 ... x_(1,r_1)^-1 . y . x_(1,r_1) ... x_(k,r_k)."""
    return _pattern_word(vec, 1)


def encode_w_tagged(n: int, vec: Sequence) -> Word:
    """Pattern word with the tag x_(0,n) inserted innermost on both sides."""
    if n < 0:
        raise ValueError("tag must be a natural number")
    return _pattern_word((n, *vec), 0)


def nielsen_decompose(w: Word, lo: int = 1) -> Optional[list[tuple[int, RatVec]]]:
    """Parse w as a reduced product of pattern words; None if it is not one.

    Returns [(exp, vec), ...] with w equal to the product of the
    correspondingly oriented pattern words.  The decomposition is unique
    because the pattern words freely generate their span.  `lo` is the lowest
    register index in the pattern (0 for tagged words).

    One scan over the reduced ids reads each factor as three runs: what
    stands of its inverted conjugator (x letters to the power -1 whose
    register indices fall to lo), its middle letter (the unindexed y or
    y^-1), and what stands of its conjugator (x letters matching its vector
    from the bottom).  Where a junction cancels letters, the factor keeps the
    previous vector's top entries above its own standing run; the first
    factor is read after an empty previous vector.
    """
    ids = _reduce_ids(w._ids)
    y = intern_parts("y", ())
    syms = _ID_SYMS
    n = len(ids)
    out: list[tuple[int, RatVec]] = []
    vec: RatVec = ()
    stood = 0  # letters of the last factor's conjugator that stand
    p = 0
    while p < n:
        run = []  # indices of the standing inverted conjugator
        while p < n and abs(ids[p]) != y:
            g = syms[-ids[p]] if ids[p] < 0 else None
            if g is None or g.family != "x" or len(g.index) != 2:
                return None
            run.append(g.index)
            p += 1
        top = lo + len(run) - 1
        if p == n or any(i != top - j for j, (i, _) in enumerate(run)):
            return None
        if stood < len(vec) and len(run) != stood:
            return None  # the junction cut the conjugator elsewhere
        vec = tuple([s for _, s in reversed(run)]) + vec[stood:]
        out.append((1 if ids[p] == y else -1, vec))
        p += 1
        stood = 0
        while stood < len(vec) and p < n and ids[p] > 0:
            g = syms[ids[p]]
            if g.family != "x" or g.index != (lo + stood, vec[stood]):
                break
            stood += 1
            p += 1
    return out if stood == len(vec) else None


def pattern_product(decomp: Iterable[tuple[int, RatVec]], lo: int = 1) -> Word:
    """Re-multiply a decomposition; inverse of nielsen_decompose at every lo."""
    pieces = []
    for exp, vec in decomp:
        piece = _pattern_word(vec, lo)
        pieces.append(piece if exp == 1 else invert(piece))
    return concat(*pieces)
