"""Exact arithmetic in the finite field GF(q), q = p^k.

An element is its canonical int: the base-p digits of the int are the
element's coefficients over GF(p), constant term first, modulo the monic
irreducible modulus that extension fields (k > 1) need.  Prime fields
therefore use plain residues, 0 and 1 are zero and one, and ascending ints
give the element order used by every enumeration downstream.  Only this
module knows the encoding; there is no element object, so polynomial
coefficients, points and matrix entries are all such ints, and -1 is
`neg(1)`, which is p - 1, not q - 1.  A modulus of degree k is accepted
when it is monic and irreducible, which `_check_irreducible` decides by
trial division: no monic polynomial of degree 1..k/2 divides it.

Each field builds exp/log tables to the base of its smallest primitive
element once, so multiplication, inverses and powers are table reads on
every q.  Addition is % p on prime fields, XOR in characteristic 2, and
an addition table (digit-wise arithmetic above order 1024) on the other
extension fields.  Every arithmetic method takes Python ints, giving ints,
or numpy integer arrays, giving arrays of the same shape.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dataclass_field
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError

#: Fields larger than this are refused: everything in this package
#: enumerates K* or point sets, so huge q is never meaningful.
MAX_FIELD_ORDER = 2**16

#: Odd-characteristic extension fields up to this order get a q x q
#: addition table; larger ones add digit by digit.
MAX_ADD_TABLE_ORDER = 1024


def _factor_prime_power(q: int) -> tuple[int, int]:
    """Split q into (p, k) with q = p^k, or raise.  p is the least divisor
    of q above 1, so it is prime."""
    if q < 2:
        raise DomainError(f"field order must be >= 2, got {q}")
    p = next((d for d in range(2, math.isqrt(q) + 1) if q % d == 0), q)
    k = 0
    m = q
    while m % p == 0:
        m //= p
        k += 1
    if m != 1:
        raise DomainError(f"{q} is not a prime power")
    return p, k


def _check_irreducible(mod: Sequence[int], p: int) -> bool:
    """Whether the monic degree-k polynomial *mod* over GF(p), constant
    term first, is irreducible: whether no monic polynomial of degree
    1..k/2 divides it, since a reducible one has a factor that small."""
    k = len(mod) - 1
    for degree in range(1, k // 2 + 1):
        for low in itertools.product(range(p), repeat=degree):
            # long division by x^degree + low: each step clears the top
            # coefficient, and the remainder is what is left below degree
            rem = list(mod)
            for top in range(k, degree - 1, -1):
                c = rem[top]
                if c:
                    for i, b in enumerate(low, top - degree):
                        rem[i] = (rem[i] - c * b) % p
            if not any(rem[:degree]):
                return False
    return True


class _Tables:
    """The field's tables in one storage: lists for int operands, numpy
    arrays for numpy operands.

    exp holds g^j for 0 <= j < 2(q-1) and zeros from 2(q-1) to 4(q-1);
    log[0] = 2(q-1), so exp[log[a] + log[b]] is a*b with zero included.
    add (flat, index a*q + b) exists only for odd-characteristic extension
    fields up to MAX_ADD_TABLE_ORDER."""

    __slots__ = ("exp", "log", "add")

    def __init__(self, exp, log, add):
        self.exp, self.log, self.add = exp, log, add


def _build_tables(p: int, k: int, mod: Optional[Sequence[int]]
                  ) -> tuple[_Tables, _Tables]:
    q = p**k
    weights = p ** np.arange(k)
    digits = np.arange(q)[:, None] // weights % p
    times_x = None
    if k > 1:
        # x*a: shift the digits up, fold x^k = -(mod_0 + ... + mod_{k-1} x^{k-1})
        shifted = np.zeros_like(digits)
        shifted[:, 1:] = digits[:, :-1]
        times_x = (shifted - digits[:, -1:] * np.array(mod[:k])) % p @ weights
    # the smallest primitive element g: the one whose powers reach q-1 units
    for g in range(2 if q > 2 else 1, q):
        index, acc = np.arange(q), np.zeros_like(digits)
        for i, coeff in enumerate(digits[g]):
            if i:
                index = times_x[index]
            acc += coeff * digits[index]
        times_g = (acc % p @ weights).tolist()
        powers, x = [1], times_g[1]
        while x != 1:
            powers.append(x)
            x = times_g[x]
        if len(powers) == q - 1:
            break
    n = q - 1
    exp = powers * 2 + [0] * (2 * n + 1)
    log = [2 * n] * q
    for j, x in enumerate(powers):
        log[x] = j
    add = None
    if k > 1 and p > 2 and q <= MAX_ADD_TABLE_ORDER:
        add = sum((digits[:, None, i] + digits[None, :, i]) % p * w
                  for i, w in enumerate(weights)).ravel()
    # logs are int64 so that pow's products of logs cannot wrap
    arrays = _Tables(np.array(exp, dtype=np.int32), np.array(log, dtype=np.int64),
                     None if add is None else add.astype(np.int32))
    lists = _Tables(exp, log, None if add is None else add.tolist())
    return lists, arrays


@dataclass(frozen=True)
class FieldSpec:
    """GF(q) = GF(p^k) with its modulus and arithmetic tables.

    Python int operands read the list tables, which are fastest for
    scalars; numpy operands read the array tables."""

    characteristic: int
    extension_degree: int
    modulus: Optional[tuple[int, ...]]
    order: int
    _lists: _Tables = dataclass_field(init=False, repr=False, compare=False)
    _arrays: _Tables = dataclass_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lists, arrays = _build_tables(self.characteristic,
                                      self.extension_degree, self.modulus)
        object.__setattr__(self, "_lists", lists)
        object.__setattr__(self, "_arrays", arrays)

    @classmethod
    def of(cls, q: int, modulus: Optional[Sequence[int]] = None) -> "FieldSpec":
        if q > MAX_FIELD_ORDER:
            raise DomainError(f"field order {q} exceeds the limit {MAX_FIELD_ORDER}")
        p, k = _factor_prime_power(q)
        if k == 1:
            if modulus is not None:
                raise DomainError("modulus only applies to proper prime powers")
            return cls(p, 1, None, q)
        if modulus is None:
            raise DomainError(
                f"GF({q}) = GF({p}^{k}) needs an explicit monic irreducible "
                f"modulus of degree {k} (constant term first)")
        mod = tuple(int(c) % p for c in modulus)
        if len(mod) != k + 1:
            raise DomainError(
                f"modulus must have {k + 1} coefficients, got {len(mod)}")
        if mod[-1] != 1:
            raise DomainError("modulus must be monic")
        if not _check_irreducible(mod, p):
            raise DomainError(f"modulus {list(mod)} is reducible over GF({p})")
        return cls(p, k, mod, q)

    # -- arithmetic on canonical ints or integer arrays ---------------------

    def add(self, a, b):
        p = self.characteristic
        if self.extension_degree == 1:
            return (a + b) % p
        if p == 2:
            return a ^ b
        table = (self._lists if type(a) is int is type(b) else self._arrays).add
        if table is not None:
            return table[a * self.order + b]
        total, w = 0, 1
        for _ in range(self.extension_degree):
            total = total + (a // w + b // w) % p * w
            w *= p
        return total

    def neg(self, a):
        if self.extension_degree == 1:
            return (-a) % self.characteristic
        return self.mul(self.characteristic - 1, a)  # -1 is the int p-1

    def sub(self, a, b):
        if self.extension_degree == 1:
            p, diff = self.characteristic, a - b
            if type(diff) is int:
                return diff % p
            # as in exp, e - (e // p) p; floor division keeps a negative
            # difference's result in [0, p)
            reduced = diff // p
            reduced *= p
            diff -= reduced
            return diff
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        # the hottest scalar operation: try the lists, which arrays cannot index
        t = self._lists
        try:
            return t.exp[t.log[a] + t.log[b]]
        except TypeError:
            t = self._arrays
            return t.exp[t.log[a] + t.log[b]]

    def inv(self, a):
        if type(a) is int:
            t, zero = self._lists, a == 0
        else:
            t, zero = self._arrays, not np.all(a)
        if zero:
            raise ZeroDivisionError("inverse of zero in GF(q)")
        return t.exp[self.order - 1 - t.log[a]]

    def pow(self, a, e: int):
        if e < 0:
            raise DomainError("exponent must be non-negative")
        t = self._lists if type(a) is int else self._arrays
        la, n = t.log[a], self.order - 1
        if e == 0:
            return t.exp[la * 0]  # 1 everywhere, 0^0 included
        # zero's log 2n lands on 2n, the start of the zero tail
        return t.exp[la * (e % n) % n + la // n * n]

    def exp(self, e):
        """g^e for the primitive element g; e any integer or integer array."""
        n = self.order - 1
        if type(e) is int:
            return self._lists.exp[e % n]
        # numpy divides an int array by a constant several times faster than
        # it takes the remainder, so e mod n is e - (e // n) n
        reduced = e // n
        reduced *= n
        np.subtract(e, reduced, out=reduced)
        return self._arrays.exp[reduced]

    def log(self, a):
        """Discrete logarithm to the base g, in [0, q-1); a must be nonzero."""
        return (self._lists if type(a) is int else self._arrays).log[a]

    def __str__(self) -> str:
        return f"GF({self.order})"

