"""Exact rational scalars and vectors, plus fair enumerations of both.

All numeric values in this package are `fractions.Fraction` instances, which
gives canonical lowest-terms representation, positive denominators and
arbitrary-precision integer components for free.  Straight-line programs
square values repeatedly, so fixed-width arithmetic is not an option
anywhere.

The enumeration scheme is frozen because search fuel bounds and replayable
certificates reference enumeration indices:

* rationals: index 0 is 0; positive rationals follow the Calkin-Wilf
  sequence (index 2k-1 is the k-th Calkin-Wilf rational, index 2k its
  negative);
* vectors: index 0 is the empty vector, index n >= 1 unpacks through a
  Cantor pairing into (dimension, entry indices).

Both enumerations are bijections with computable inverses; golden prefixes
live in tests/golden/.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import Sequence

RatVec = tuple[Fraction, ...]


class DivisionByZero(ArithmeticError):
    """Division node with zero divisor; the machine level treats it as divergence."""


def rat_op(kind: str, a: Fraction, b: Fraction) -> Fraction:
    """Exact field operation; `div` by zero raises DivisionByZero."""
    if kind == "add":
        return a + b
    if kind == "sub":
        return a - b
    if kind == "mul":
        return a * b
    if kind == "div":
        if b == 0:
            raise DivisionByZero(f"{a} / 0")
        return a / b
    raise ValueError(f"unknown operation {kind!r}")


# longest text an error message quotes in full
QUOTE_LIMIT = 100


def quote(value) -> str:
    """`repr(value)` for an error message, cut to QUOTE_LIMIT characters.

    A longer string, or a value with a longer repr, is cut and marked with
    its full length, so a hostile input cannot make the message as long as
    itself.
    """
    if type(value) is str:
        if len(value) <= QUOTE_LIMIT:
            return repr(value)
        return f"{value[:QUOTE_LIMIT]!r}... ({len(value)} characters)"
    text = repr(value)
    if len(text) <= QUOTE_LIMIT:
        return text
    return f"{text[:QUOTE_LIMIT]}... ({len(text)} characters)"


def format_rat(x: Fraction) -> str:
    """Serialize as "p/q", omitting "/q" when the denominator is 1."""
    return str(x)


def parse_rat(text: str) -> Fraction:
    """Parse "p/q" (optional sign on p; q must be positive) or "p"."""
    s = text.strip()
    if "/" in s:
        num, _, den = s.partition("/")
        p = int(num.strip())
        q = int(den.strip())
        if q <= 0:
            raise ValueError(f"denominator must be positive in {quote(text)}")
        return Fraction(p, q)
    return Fraction(int(s))


def parse_vec(text: str) -> RatVec:
    """Comma-separated rationals; empty string is the empty vector."""
    s = text.strip()
    if not s:
        return ()
    return tuple(parse_rat(part) for part in s.split(","))


def format_vec(v: Sequence[Fraction]) -> str:
    return ",".join(format_rat(x) for x in v)


# -- Cantor pairing ----------------------------------------------------------

def pair(a: int, b: int) -> int:
    s = a + b
    return s * (s + 1) // 2 + b


def unpair(n: int) -> tuple[int, int]:
    s = (isqrt(8 * n + 1) - 1) // 2
    b = n - s * (s + 1) // 2
    return s - b, b


# -- Calkin-Wilf enumeration of the positive rationals -----------------------

def _calkin_wilf(n: int) -> Fraction:
    # n-th positive rational, n >= 1; walks the bits of n below the MSB.
    assert n >= 1
    p, q = 1, 1
    for c in bin(n)[3:]:
        if c == "0":
            q = p + q
        else:
            p = p + q
    return Fraction(p, q)


def _calkin_wilf_index(x: Fraction) -> int:
    assert x > 0
    p, q = x.numerator, x.denominator
    bits: list[str] = []
    while (p, q) != (1, 1):
        if p < q:
            bits.append("0")
            q -= p
        else:
            bits.append("1")
            p -= q
    return int("1" + "".join(reversed(bits)), 2)


def enumerate_rationals(index: int) -> Fraction:
    """Deterministic bijection from the naturals onto the rationals."""
    if index < 0:
        raise ValueError("index must be a natural number")
    if index == 0:
        return Fraction(0)
    if index % 2 == 1:
        return _calkin_wilf((index + 1) // 2)
    return -_calkin_wilf(index // 2)


def rational_index(x: Fraction) -> int:
    """Inverse of enumerate_rationals."""
    if x == 0:
        return 0
    k = _calkin_wilf_index(abs(x))
    return 2 * k - 1 if x > 0 else 2 * k


# -- enumeration of all finite rational vectors ------------------------------

def _nat_tuple(d: int, m: int) -> tuple[int, ...]:
    # m unpairs into (t_1, rest), rest into (t_2, rest'), ..., the last rest is t_d
    out = []
    for _ in range(d - 1):
        a, m = unpair(m)
        out.append(a)
    out.append(m)
    return tuple(out)


def _nat_tuple_index(t: Sequence[int]) -> int:
    # inverse of _nat_tuple: pair(t_1, pair(t_2, ... pair(t_d-1, t_d)))
    m = t[-1]
    for i in range(len(t) - 2, -1, -1):
        m = pair(t[i], m)
    return m


def enumerate_vectors(index: int) -> RatVec:
    """Deterministic bijection from the naturals onto all finite rational vectors."""
    if index < 0:
        raise ValueError("index must be a natural number")
    if index == 0:
        return ()
    d1, m = unpair(index - 1)
    entries = _nat_tuple(d1 + 1, m)
    return tuple(enumerate_rationals(e) for e in entries)


def vector_arity(index: int) -> int:
    """len(enumerate_vectors(index)), without building the vector."""
    return 0 if index == 0 else unpair(index - 1)[0] + 1


def vector_index(v: Sequence[Fraction]) -> int:
    """Inverse of enumerate_vectors."""
    if len(v) == 0:
        return 0
    m = _nat_tuple_index([rational_index(x) for x in v])
    return pair(len(v) - 1, m) + 1
