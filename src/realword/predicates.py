"""Decidable set predicates over rational vectors, and polynomial expressions.

A predicate is an expression tree of polynomial comparisons (=, !=, >=, >),
integrality atoms and boolean connectives over variables v0..v(k-1); its
evaluation on any rational vector of matching arity is total and
deterministic.  Every generator family and relator constraint in this
package lives in this fragment, so presentations serialize to JSON.

Polynomials are kept as expression trees (const / var / add / sub / neg /
mul / pow); besides evaluation they support a small one-unknown solver that
relator-schema matching uses to recover parameters which do not occur as a
bare index entry (for instance the multiplier n in x_(p,q) = x_(np,nq)).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .rationals import format_rat, parse_rat, quote


@dataclass(frozen=True)
class Poly:
    op: str  # const | var | add | sub | mul | neg | pow
    args: tuple["Poly", ...] = ()
    value: Optional[Fraction] = None
    k: int = 0  # var index, or pow exponent
    # the node's variable set, kept by its first `vars()` call; not a field,
    # so equality, hash, repr and `to_json` never see it
    _vars = None

    def __add__(self, other):
        return Poly("add", (self, _poly(other)))

    def __radd__(self, other):
        return Poly("add", (_poly(other), self))

    def __sub__(self, other):
        return Poly("sub", (self, _poly(other)))

    def __rsub__(self, other):
        return Poly("sub", (_poly(other), self))

    def __mul__(self, other):
        return Poly("mul", (self, _poly(other)))

    def __rmul__(self, other):
        return Poly("mul", (_poly(other), self))

    def __neg__(self):
        return Poly("neg", (self,))

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("only natural exponents")
        return Poly("pow", (self,), k=n)

    def eval(self, env: Sequence[Fraction]) -> Fraction:
        op = self.op
        if op == "const":
            return self.value
        if op == "var":
            return env[self.k]
        if op == "add":
            return self.args[0].eval(env) + self.args[1].eval(env)
        if op == "sub":
            return self.args[0].eval(env) - self.args[1].eval(env)
        if op == "mul":
            return self.args[0].eval(env) * self.args[1].eval(env)
        if op == "neg":
            return -self.args[0].eval(env)
        if op == "pow":
            return self.args[0].eval(env) ** self.k
        raise ValueError(f"bad poly op {op!r}")

    def vars(self) -> frozenset[int]:
        got = self._vars
        if got is None:
            got = (frozenset((self.k,)) if self.op == "var"
                   else frozenset().union(*(a.vars() for a in self.args)))
            object.__setattr__(self, "_vars", got)
        return got

    def to_json(self):
        if self.op == "const":
            return {"op": "const", "value": format_rat(self.value)}
        if self.op == "var":
            return {"op": "var", "i": self.k}
        node = {"op": self.op, "args": [a.to_json() for a in self.args]}
        if self.op == "pow":
            node["k"] = self.k
        return node

    @staticmethod
    def from_json(node, used: Optional[list] = None,
                  leaves: Optional[dict] = None) -> "Poly":
        """The polynomial `to_json` wrote; malformed data raises ValueError.

        Every variable index met is appended to `used`.  `leaves` shares
        the var and const leaves of one parse: a var is keyed by its index,
        a const by its text.
        """
        if used is None:
            used = []
        if leaves is None:
            leaves = {}
        if type(node) is not dict:
            raise ValueError(f"polynomial node must be an object, got {type(node).__name__}")
        op = node["op"]
        if op == "const":
            value = node["value"]
            if type(value) is not str:
                raise ValueError(f"const value must be a string, got {quote(value)}")
            got = leaves.get(value)
            if got is None:
                got = leaves[value] = const(parse_rat(value))
            return got
        if op == "var":
            i = node["i"]
            if type(i) is not int:
                raise ValueError(f"var index must be an integer, got {quote(i)}")
            used.append(i)
            got = leaves.get(i)
            if got is None:
                got = leaves[i] = var(i)
            return got
        if type(op) is not str or op not in _POLY_ARITY:  # a list op is unhashable
            raise ValueError(f"unknown polynomial op {quote(op)}")
        # only a pow node carries "k", as `to_json` writes it; elsewhere it is
        # an extra key like any other
        k = node.get("k", 0) if op == "pow" else 0
        if not (type(k) is int and k >= 0):
            raise ValueError(f"pow exponent must be a natural number, got {quote(k)}")
        args = node["args"]
        count = _POLY_ARITY[op]
        if type(args) is not list or len(args) != count:
            raise ValueError(f"{quote(op)} node needs a list of {count} args")
        args = tuple([Poly.from_json(a, used, leaves) for a in args])
        if op == "pow" and k * (inner := _pow_product(args[0])) > MAX_POW_EXPONENT:
            raise ValueError(f"pow exponent {quote(k)} exceeds {MAX_POW_EXPONENT // inner} "
                             f"(nested pow exponents multiply to at most {MAX_POW_EXPONENT})")
        return Poly(op, args, k=k)


_POLY_ARITY = {"add": 2, "sub": 2, "mul": 2, "neg": 1, "pow": 1}

# largest product of the exponents of pow nodes nested in one another that
# JSON input may ask for, so evaluating a parsed polynomial stays small
MAX_POW_EXPONENT = 100


def _pow_product(p: Poly) -> int:
    """Largest product of the exponents along a chain of nested pow nodes."""
    inner = max((_pow_product(a) for a in p.args), default=1)
    return inner * max(p.k, 1) if p.op == "pow" else inner


def const(c) -> Poly:
    return Poly("const", value=Fraction(c))


def var(i: int) -> Poly:
    return Poly("var", k=i)


def _poly(x) -> Poly:
    return x if isinstance(x, Poly) else const(x)


def solve_unknown(expr: Poly, target: Fraction,
                  known: dict[int, Fraction]) -> Optional[tuple[int, Fraction]]:
    """Solve expr(v) == target for the single unknown variable, if possible.

    Handles sums and differences with one unknown branch, products whose
    other factors evaluate to a nonzero rational, negation, and first powers.
    Returns (var index, value) or None when the shape is not solvable,
    which includes the unknown occurring in both operands of a sum,
    difference or product; a returned value always solves the equation.
    """
    unknowns = [v for v in expr.vars() if v not in known]
    if len(unknowns) != 1:
        return None
    val = _solve_rec(expr, target, unknowns[0], known)
    if val is None:
        return None
    return unknowns[0], val


def _solve_rec(e: Poly, t: Fraction, uv: int,
               known: dict[int, Fraction]) -> Optional[Fraction]:
    # value of the unknown uv making e == t; a module-level function, since a
    # self-referencing closure would leave a reference cycle per solve
    if e.op == "var":
        if e.k == uv:
            return t
        return None
    if e.op == "const":
        return None
    if e.op == "neg":
        return _solve_rec(e.args[0], -t, uv, known)
    if e.op in ("add", "sub", "mul") and all(uv in a.vars() for a in e.args):
        return None  # the unknown on both sides: not one-step solvable
    if e.op in ("add", "sub"):
        left, right = e.args
        sign = 1 if e.op == "add" else -1
        if uv in left.vars():
            rv = right.eval(_env(known))
            return _solve_rec(left, t - sign * rv, uv, known)
        lv = left.eval(_env(known))
        return _solve_rec(right, (t - lv) * sign, uv, known)
    if e.op == "mul":
        left, right = e.args
        if uv in left.vars():
            rv = right.eval(_env(known))
            if rv == 0:
                return None
            return _solve_rec(left, t / rv, uv, known)
        lv = left.eval(_env(known))
        if lv == 0:
            return None
        return _solve_rec(right, t / lv, uv, known)
    if e.op == "pow" and e.k == 1:
        return _solve_rec(e.args[0], t, uv, known)
    return None


def _env(known: dict[int, Fraction]) -> list[Fraction]:
    if not known:
        return []
    out = [Fraction(0)] * (max(known) + 1)
    for i, v in known.items():
        out[i] = v
    return out


@dataclass(frozen=True)
class Pred:
    op: str  # true | false | and | or | not | cmp | isint | isnat
    args: tuple["Pred", ...] = ()
    rel: str = ""  # for cmp: = | != | >= | >
    lhs: Optional[Poly] = None
    rhs: Optional[Poly] = None
    _vars = None  # as on Poly

    def eval(self, env: Sequence[Fraction]) -> bool:
        op = self.op
        if op == "true":
            return True
        if op == "false":
            return False
        if op == "and":
            return all(a.eval(env) for a in self.args)
        if op == "or":
            return any(a.eval(env) for a in self.args)
        if op == "not":
            return not self.args[0].eval(env)
        if op == "cmp":
            l = self.lhs.eval(env)
            r = self.rhs.eval(env)
            if self.rel == "=":
                return l == r
            if self.rel == "!=":
                return l != r
            if self.rel == ">=":
                return l >= r
            if self.rel == ">":
                return l > r
            raise ValueError(f"bad relation {self.rel!r}")
        if op == "isint":
            return self.lhs.eval(env).denominator == 1
        if op == "isnat":
            v = self.lhs.eval(env)
            return v.denominator == 1 and v >= 0
        raise ValueError(f"bad predicate op {op!r}")

    def vars(self) -> frozenset[int]:
        got = self._vars
        if got is None:
            sides = [e.vars() for e in (self.lhs, self.rhs) if e is not None]
            got = frozenset().union(*(a.vars() for a in self.args), *sides)
            object.__setattr__(self, "_vars", got)
        return got

    def to_json(self):
        if self.op in ("true", "false"):
            return {"op": self.op}
        if self.op == "cmp":
            return {"op": "cmp", "rel": self.rel,
                    "lhs": self.lhs.to_json(), "rhs": self.rhs.to_json()}
        if self.op in ("isint", "isnat"):
            return {"op": self.op, "arg": self.lhs.to_json()}
        return {"op": self.op, "args": [a.to_json() for a in self.args]}

    @staticmethod
    def from_json(node, used: Optional[list] = None,
                  leaves: Optional[dict] = None) -> "Pred":
        """The predicate `to_json` wrote; `used` and `leaves` as in
        `Poly.from_json`."""
        if used is None:
            used = []
        if leaves is None:
            leaves = {}
        if type(node) is not dict:
            raise ValueError(f"predicate node must be an object, got {type(node).__name__}")
        op = node["op"]
        if op in ("true", "false"):
            return TRUE if op == "true" else FALSE
        if op == "cmp":
            rel = node["rel"]
            if rel not in ("=", "!=", ">=", ">"):
                raise ValueError(f"unknown comparison {quote(rel)}")
            return Pred("cmp", rel=rel, lhs=Poly.from_json(node["lhs"], used, leaves),
                        rhs=Poly.from_json(node["rhs"], used, leaves))
        if op in ("isint", "isnat"):
            return Pred(op, lhs=Poly.from_json(node["arg"], used, leaves))
        if op not in ("and", "or", "not"):
            raise ValueError(f"unknown predicate op {quote(op)}")
        args = node["args"]
        if type(args) is not list or op == "not" and len(args) != 1:
            raise ValueError(f"{quote(op)} node needs a list of "
                             + ("1 args" if op == "not" else "args"))
        return Pred(op, tuple([Pred.from_json(a, used, leaves) for a in args]))


TRUE = Pred("true")
FALSE = Pred("false")


def conj(*ps: Pred) -> Pred:
    ps = tuple(p for p in ps if p.op != "true")
    if not ps:
        return TRUE
    if len(ps) == 1:
        return ps[0]
    return Pred("and", ps)


def disj(*ps: Pred) -> Pred:
    if len(ps) == 1:
        return ps[0]
    return Pred("or", tuple(ps))


def negate(p: Pred) -> Pred:
    return Pred("not", (p,))


def eq(a, b) -> Pred:
    return Pred("cmp", rel="=", lhs=_poly(a), rhs=_poly(b))


def ne(a, b) -> Pred:
    return Pred("cmp", rel="!=", lhs=_poly(a), rhs=_poly(b))


def ge(a, b) -> Pred:
    return Pred("cmp", rel=">=", lhs=_poly(a), rhs=_poly(b))


def gt(a, b) -> Pred:
    return Pred("cmp", rel=">", lhs=_poly(a), rhs=_poly(b))


def lt(a, b) -> Pred:
    return gt(b, a)


def le(a, b) -> Pred:
    return ge(b, a)


def is_int(a) -> Pred:
    return Pred("isint", lhs=_poly(a))


def is_nat(a) -> Pred:
    return Pred("isnat", lhs=_poly(a))


def shift_poly(p: Poly, offset: int) -> Poly:
    if p.op == "var":
        return var(p.k + offset)
    if p.op == "const":
        return p
    return Poly(p.op, tuple(shift_poly(a, offset) for a in p.args), k=p.k)


def shift_pred(p: Pred, offset: int) -> Pred:
    if p.op in ("true", "false"):
        return p
    if p.op == "cmp":
        return Pred("cmp", rel=p.rel, lhs=shift_poly(p.lhs, offset),
                    rhs=shift_poly(p.rhs, offset))
    if p.op in ("isint", "isnat"):
        return Pred(p.op, lhs=shift_poly(p.lhs, offset))
    return Pred(p.op, tuple(shift_pred(a, offset) for a in p.args))
