"""Sparse multivariate polynomials over GF(q) with pluggable monomial
orders: the general engine the tests check the package against.

The package holds every vanishing ideal as pure binomials
(`paramcodes.ideals.BinomialBasis`); this engine, with `groebner`, is the
independent route to the same bases (the paper's elimination), to their
Buchberger criterion and to membership by division.  It also lists every
monomial up to a degree, where the package lists only the standard ones.

Monomials are plain exponent tuples (one non-negative int per ring
variable); polynomials map monomials to nonzero canonical ints of the
ring's field (see `paramcodes.gf`) and do their arithmetic through it.
Three orders are supported: Lex, GrevLex, and the block elimination order
that compares GrevLex on a leading variable block first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Optional, Sequence

from paramcodes.errors import DomainError
from paramcodes.gf import FieldSpec

Monomial = tuple  # exponent tuple, length = ring.num_vars


# -- monomial helpers --------------------------------------------------------

def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


def mono_div(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x - y for x, y in zip(a, b))


def mono_divides(a: Monomial, b: Monomial) -> bool:
    """True when t^a divides t^b."""
    return all(x <= y for x, y in zip(a, b))


def mono_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(max(x, y) for x, y in zip(a, b))


def mono_degree(a: Monomial) -> int:
    return sum(a)


def monomials_of_degree(num_vars: int, degree: int) -> Iterator[Monomial]:
    """The exponent tuples of one total degree in ascending GrevLex order:
    the last exponent descending, ties in the same order on the others."""
    if num_vars == 1:
        yield (degree,)
        return
    for last in range(degree, -1, -1):
        for rest in monomials_of_degree(num_vars - 1, degree - last):
            yield rest + (last,)


def monomials_up_to_degree(num_vars: int, degree: int, lowest: int = 0) -> list[Monomial]:
    """All monomials of total degree lowest .. degree, ascending GrevLex:
    every monomial, where the package evaluates only the standard ones."""
    return [m for d in range(lowest, degree + 1) for m in monomials_of_degree(num_vars, d)]


# -- monomial orders ---------------------------------------------------------

def _grevlex_key(exps: Sequence[int]) -> tuple:
    return (sum(exps), tuple(-e for e in reversed(exps)))


class MonomialOrder:
    """Total multiplicative order with 1 minimal; subclasses supply key()."""

    def key(self, exps: Monomial) -> tuple:
        raise NotImplementedError


@dataclass(frozen=True)
class Lex(MonomialOrder):
    def key(self, exps):
        return tuple(exps)


@dataclass(frozen=True)
class GrevLex(MonomialOrder):
    key = staticmethod(_grevlex_key)


@dataclass(frozen=True)
class BlockElim(MonomialOrder):
    """Eliminates the first block: GrevLex on it, ties by GrevLex on the rest."""

    first_block_size: int

    def key(self, exps):
        n = self.first_block_size
        return (_grevlex_key(exps[:n]), _grevlex_key(exps[n:]))


# -- ring and polynomial -----------------------------------------------------

@dataclass(frozen=True)
class RingContext:
    """A named, ordered list of variables over a fixed field."""

    field: FieldSpec
    names: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.names)) != len(self.names):
            raise DomainError(f"duplicate variable names in {self.names}")

    @property
    def num_vars(self) -> int:
        return len(self.names)

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return self.constant(1)

    def constant(self, c: int) -> "Polynomial":
        """The constant c, an int taken mod q."""
        return Polynomial(self, {(0,) * self.num_vars: c % self.field.order})

    def var(self, i: int) -> "Polynomial":
        exps = [0] * self.num_vars
        exps[i] = 1
        return Polynomial(self, {tuple(exps): 1})

    def monomial(self, exps: Sequence[int], coeff: int = 1) -> "Polynomial":
        """coeff * t^exps, coeff an int taken mod q."""
        if len(exps) != self.num_vars:
            raise DomainError("exponent tuple length does not match ring")
        return Polynomial(self, {tuple(int(e) for e in exps): coeff % self.field.order})

    def with_extra_variable(self, name: str) -> "RingContext":
        return RingContext(self.field, self.names + (name,))

    def drop_first(self, k: int) -> "RingContext":
        return RingContext(self.field, self.names[k:])

    def __str__(self) -> str:
        return f"{self.field}[{','.join(self.names)}]"


class Polynomial:
    """Immutable sparse polynomial: dict from exponent tuple to nonzero
    canonical int."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: RingContext, terms: Mapping[Monomial, int]):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", {m: c for m, c in terms.items() if c})

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    def _check_ring(self, other: "Polynomial"):
        if self.ring != other.ring:
            raise DomainError("polynomials live in different rings")

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_ring(other)
        add = self.ring.field.add
        terms = dict(self.terms)
        for m, c in other.terms.items():
            acc = terms.get(m)
            terms[m] = c if acc is None else add(acc, c)
        return Polynomial(self.ring, terms)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + -other

    def __neg__(self) -> "Polynomial":
        neg = self.ring.field.neg
        return Polynomial(self.ring, {m: neg(c) for m, c in self.terms.items()})

    def __mul__(self, other) -> "Polynomial":
        spec = self.ring.field
        if isinstance(other, int):
            c = other % spec.order
            return Polynomial(self.ring, {m: spec.mul(v, c) for m, v in self.terms.items()})
        self._check_ring(other)
        terms: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                acc = terms.get(m)
                prod = spec.mul(c1, c2)
                terms[m] = prod if acc is None else spec.add(acc, prod)
        return Polynomial(self.ring, terms)

    __rmul__ = __mul__

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.ring.names, frozenset(self.terms.items())))

    # -- structure ----------------------------------------------------------

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def leading_term(self, order: MonomialOrder) -> tuple[Monomial, int]:
        if not self.terms:
            raise DomainError("the zero polynomial has no leading term")
        m = max(self.terms, key=order.key)
        return m, self.terms[m]

    def leading_monomial(self, order: MonomialOrder) -> Monomial:
        return self.leading_term(order)[0]

    def monic(self, order: MonomialOrder) -> "Polynomial":
        if not self.terms:
            return self
        _, lc = self.leading_term(order)
        if lc == 1:
            return self
        return self * self.ring.field.inv(lc)

    def is_homogeneous(self) -> bool:
        degrees = {sum(m) for m in self.terms}
        return len(degrees) <= 1

    def evaluate(self, point: Sequence[int]) -> int:
        """The value at a point given by canonical ints."""
        if len(point) != self.ring.num_vars:
            raise DomainError(
                f"point has {len(point)} coordinates, ring has {self.ring.num_vars}")
        spec = self.ring.field
        total = 0
        for m, c in self.terms.items():
            value = c
            for coord, e in zip(point, m):
                if e:
                    value = spec.mul(value, spec.pow(coord, e))
            total = spec.add(total, value)
        return total

    def sorted_terms(self, order: MonomialOrder, reverse: bool = True):
        key = order.key
        for m in sorted(self.terms, key=key, reverse=reverse):
            yield m, self.terms[m]

    # -- text form ------------------------------------------------------------

    def format(self, order: Optional[MonomialOrder] = None) -> str:
        """Render terms descending by *order*; coefficient -1 prints as a minus."""
        if not self.terms:
            return "0"
        order = order or GrevLex()
        spec = self.ring.field
        minus_one = spec.neg(1)
        parts: list[str] = []
        for m, c in self.sorted_terms(order):
            body = self._format_mono(m)
            if c == minus_one and spec.characteristic > 2:
                sign, mag = "-", body or "1"
            elif c == 1:
                sign, mag = "+", body or "1"
            else:
                sign = "+"
                mag = f"{c}*{body}" if body else str(c)
            if not parts:
                parts.append(mag if sign == "+" else f"-{mag}")
            else:
                parts.append(f"{sign} {mag}")
        return " ".join(parts)

    def _format_mono(self, m: Monomial) -> str:
        pieces = []
        for name, e in zip(self.ring.names, m):
            if e == 1:
                pieces.append(name)
            elif e > 1:
                pieces.append(f"{name}^{e}")
        return "*".join(pieces)

    def __str__(self) -> str:
        return self.format()

    def __repr__(self) -> str:
        return f"Polynomial({self.format()})"


# -- free functions ------------------------------------------------------------

def divide(f: Polynomial, divisors: Sequence[Polynomial], order: MonomialOrder
           ) -> tuple[list[Polynomial], Polynomial]:
    """Multivariate division: f = sum(q_i * g_i) + r.

    No monomial of r is divisible by any divisor's leading monomial, and
    each q_i*g_i has leading monomial <= that of f.  Ties between eligible
    divisors go to the earliest one in the list.
    """
    quotients, remainder = _divide_impl(f, divisors, order, want_quotients=True)
    return quotients, remainder


def reduce_mod(f: Polynomial, divisors: Sequence[Polynomial],
               order: MonomialOrder) -> Polynomial:
    """Remainder of the division of f by the divisor list."""
    return _divide_impl(f, divisors, order, want_quotients=False)[1]


def _divide_impl(f, divisors, order, want_quotients):
    if any(not g for g in divisors):
        raise DomainError("division by the zero polynomial")
    for g in divisors:
        f._check_ring(g)
    ring = f.ring
    if not divisors:
        return ([], f) if want_quotients else (None, f)

    key = order.key
    spec = ring.field
    data = []
    for g in divisors:
        lm, lc = g.leading_term(order)
        data.append((g.terms, lm, spec.inv(lc)))

    work = dict(f.terms)
    rem: dict = {}
    quots: Optional[list[dict]] = [dict() for _ in divisors] if want_quotients else None
    while work:
        m = max(work, key=key)
        c = work[m]
        for i, (gterms, glm, glc_inv) in enumerate(data):
            if mono_divides(glm, m):
                qc = spec.mul(c, glc_inv)
                qm = mono_div(m, glm)
                for gm, gc in gterms.items():
                    mm = mono_mul(gm, qm)
                    acc = work.get(mm)
                    delta = spec.mul(qc, gc)
                    acc = spec.neg(delta) if acc is None else spec.sub(acc, delta)
                    if acc:
                        work[mm] = acc
                    elif mm in work:
                        del work[mm]
                if quots is not None:
                    prev = quots[i].get(qm)
                    quots[i][qm] = qc if prev is None else spec.add(prev, qc)
                break
        else:
            rem[m] = c
            del work[m]
    remainder = Polynomial(ring, rem)
    if want_quotients:
        return [Polynomial(ring, q) for q in quots], remainder
    return None, remainder


def homogenize(f: Polynomial, target_degree: int, hom_var: int) -> Polynomial:
    """Pad every term with hom_var so all terms reach target_degree."""
    deg = f.degree()
    if deg > target_degree:
        raise DomainError(
            f"target degree {target_degree} below polynomial degree {deg}")
    if any(m[hom_var] for m in f.terms):
        raise DomainError("homogenization variable already occurs in the polynomial")
    terms = {}
    for m, c in f.terms.items():
        padded = list(m)
        padded[hom_var] = target_degree - sum(m)
        terms[tuple(padded)] = c
    return Polynomial(f.ring, terms)


def dehomogenize(f: Polynomial, hom_var: int) -> Polynomial:
    """Set hom_var = 1 (exponent dropped, terms merged)."""
    add = f.ring.field.add
    terms: dict = {}
    for m, c in f.terms.items():
        flat = list(m)
        flat[hom_var] = 0
        flat = tuple(flat)
        acc = terms.get(flat)
        terms[flat] = c if acc is None else add(acc, c)
    return Polynomial(f.ring, terms)


def append_variable(f: Polynomial, extended: RingContext) -> Polynomial:
    """Re-tag f into a ring with one extra trailing variable (exponent 0)."""
    if extended.names[:-1] != f.ring.names or extended.field != f.ring.field:
        raise DomainError("extended ring does not extend the polynomial's ring")
    return Polynomial(extended, {m + (0,): c for m, c in f.terms.items()})


def restrict_variables(f: Polynomial, smaller: RingContext, drop_first: int) -> Polynomial:
    """Re-tag f into the subring obtained by dropping the first variables."""
    if smaller.names != f.ring.names[drop_first:] or smaller.field != f.ring.field:
        raise DomainError("target ring is not the expected subring")
    terms = {}
    for m, c in f.terms.items():
        if any(m[:drop_first]):
            raise DomainError("polynomial involves a dropped variable")
        terms[m[drop_first:]] = c
    return Polynomial(smaller, terms)
