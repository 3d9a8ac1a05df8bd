"""Exact arithmetic in the finite field GF(q), q = p^k.

An element is its canonical int: the base-p digits of the int are the
element's coefficients over GF(p), constant term first, modulo the monic
irreducible modulus that extension fields (k > 1) need.  Prime fields
therefore use plain residues, 0 and 1 are zero and one, and ascending ints
give the element order used by every enumeration downstream.  Only this
module knows the encoding; there is no element object, so polynomial
coefficients, points and matrix entries are all such ints, and -1 is
`neg(1)`, which is p - 1, not q - 1; in characteristic 2 that is 1, so
`neg` returns its argument there.  A modulus of degree k is accepted
when it is monic and irreducible, which `_check_irreducible` decides by
trial division: no monic polynomial of degree 1..k/2 divides it.

Each field builds exp/log tables to the base of its smallest primitive
element once, so multiplication, inverses and powers are table reads on
every q.  Addition reduces mod p on prime fields, is XOR in characteristic
2, and reads an addition table (digit-wise arithmetic above order 1024)
on the other extension fields.  Every arithmetic method takes Python ints,
giving ints, or numpy integer arrays, giving arrays of the same shape.
Arrays are reduced mod n as e - (e // n) n: numpy divides an int array by
a constant several times faster than it takes the remainder, and floor
division leaves [0, n) for a negative e too.

`sub_product`, rows - coeffs . other, is one product over GF(p) on every
field.  GF(p^k) is a k-dimensional space over GF(p), and multiplying by c
is the k x k GF(p) matrix whose column l holds the digits of c x^l, so a
product over GF(p^k) is one over GF(p) with k times the rows and k times
the terms, against the k digit planes of `other`; a prime field's entries
are their own digits.  The product over GF(p) uses delayed modular
reduction (Dumas, Giorgi and Pernet, FFLAS-FFPACK): the sum runs in the
narrowest of int16, int32 and int64 that holds a block of at least
min(T, 8) of its T terms exactly, one integer einsum per block, and is
reduced once after each block.  A GF(13) block holds 227 terms of int16,
a GF(9) one 8191; over GF(181), where int16 holds one term only, the rule
takes int32 rather than one-term blocks.  numpy runs `@` on integers as a
scalar loop, while einsum without `optimize` runs its own vector loop and
never calls BLAS, so the product stays exact, and a narrower type puts
more entries in each vector.  Digit planes are made per slab of rows and
columns whose size is checked against MAX_DIGIT_ENTRIES before they are
made.
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

#: The integer types a product over GF(p) may sum in, narrowest first,
#: each with its bound 2^(bits - 1)
_SUM_TYPES = ((np.int16, 2**15), (np.int32, 2**31), (np.int64, 2**63))

#: Digit-plane entries an extension-field product makes at once: each of
#: its arrays of digits holds at most this many, or one column
MAX_DIGIT_ENTRIES = 2**20


def _mod(e, n: int):
    """e mod n in [0, n), as Python's %: an array as e - (e // n) n in one
    temporary (see the module docstring), an int or numpy scalar by %."""
    if type(e) is int or not e.ndim:
        return e % n
    reduced = e // n
    reduced *= n
    np.subtract(e, reduced, out=reduced)
    return reduced


def _factor_prime_power(q: int) -> tuple[int, int]:
    """Split q into (p, k) with q = p^k, or raise.  p is the least divisor
    of q above 1, so it is prime.  An order above the limit is refused
    before any division."""
    if q < 2:
        raise DomainError(f"field order must be >= 2, got {q}")
    if q > MAX_FIELD_ORDER:
        raise DomainError(f"field order {q} exceeds the limit {MAX_FIELD_ORDER}")
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
    fields up to MAX_ADD_TABLE_ORDER; digits (k x q, int16) and the basis
    x^0..x^(k-1) exist only as arrays of extension fields."""

    __slots__ = ("exp", "log", "add", "digits", "basis")

    def __init__(self, exp, log, add, digits=None, basis=None):
        self.exp, self.log, self.add = exp, log, add
        self.digits, self.basis = digits, basis


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
                     None if add is None else add.astype(np.int32),
                     *((digits.T.astype(np.int16), weights.astype(np.int32))
                       if k > 1 else ()))
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
            return _mod(a + b, p)
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
        # -1 is the int p-1, which is 1 in characteristic 2
        return a if self.characteristic == 2 else self.mul(self.characteristic - 1, a)

    def sub(self, a, b):
        if self.extension_degree == 1:
            return _mod(a - b, self.characteristic)
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
        t = self._lists if type(e) is int else self._arrays
        return t.exp[_mod(e, self.order - 1)]

    def log(self, a):
        """Discrete logarithm to the base g, in [0, q-1); a must be nonzero."""
        return (self._lists if type(a) is int else self._arrays).log[a]

    # -- products over GF(p) -------------------------------------------------

    def sub_product(self, rows: np.ndarray, coeffs: np.ndarray,
                    other: np.ndarray) -> np.ndarray:
        """rows - coeffs . other over GF(q), q = p^k, as a product over GF(p).

        Over GF(p^k) the left side is digit j of coeffs[i, t] x^l at row
        (j, i) and term (l, t), the right side the digit planes of `other`
        stacked as (l, t), and the rows are digit planes (j, i) of `rows`;
        the difference's planes are recombined by `_from_digits`.  On a
        prime field the three are the matrices themselves and nothing is
        built.  An entry in [0, p) minus a block of terms of at most
        (p-1)^2 each stays above -top when block = (top - p) // (p-1)^2, so
        each block is one exact einsum in the first type whose block holds
        min(kP, 8) of the kP terms, and the entries go back to [0, p) after
        it.  The rows go in chunks whose left side holds at most
        MAX_DIGIT_ENTRIES digits, and the columns in slabs whose rows and
        right side hold at most that many together; one chunk and one slab
        when everything fits.
        """
        p, k = self.characteristic, self.extension_degree
        terms = k * len(other)
        dtype, block = next((dtype, (top - p) // (p - 1) ** 2)
                            for dtype, top in _SUM_TYPES
                            if (top - p) // (p - 1) ** 2 >= min(terms, 8))
        block = max(block, 1)  # block 0 has no terms

        def subtract(total, left, right):
            for start in range(0, terms, block):
                total -= np.einsum("ij,jk->ik", left[:, start:start + block],
                                   right[start:start + block])
                total = _mod(total, p)
            return total

        if k == 1:
            return subtract(rows.astype(dtype), coeffs.astype(dtype, copy=False),
                            other.astype(dtype, copy=False))
        # rows per chunk and columns per slab, so that no digit array passes
        # the cap; right keeps the digits' int16, as einsum promotes to left's
        (r, n), height = rows.shape, max(1, MAX_DIGIT_ENTRIES // (k * terms or 1))
        out = np.empty((r, n), dtype=np.int32)
        for i in range(0, r, height):
            h = min(height, r - i)
            left = self._digits(self.mul(coeffs[i:i + h, None],
                                         self._arrays.basis[:, None]))
            left = left.reshape(k * h, terms).astype(dtype, copy=False)
            width = max(1, MAX_DIGIT_ENTRIES // (k * h + terms))
            for s in range(0, n, width):
                w = min(width, n - s)
                total = self._digits(rows[i:i + h, s:s + w]).reshape(k * h, w)
                right = self._digits(other[:, s:s + w]).reshape(terms, w)
                total = subtract(total.astype(dtype, copy=False), left, right)
                out[i:i + h, s:s + w] = self._from_digits(total.reshape(k, h, w))
        return out

    def _digits(self, a: np.ndarray) -> np.ndarray:
        """The k digit planes of an array of an extension field: out[l]
        holds the coefficient of x^l of each entry, in [0, p), as int16."""
        return self._arrays.digits.take(a, axis=1)

    def _from_digits(self, planes: np.ndarray) -> np.ndarray:
        """The elements whose digits in [0, p) run along the first axis of
        *planes*: sum_l planes[l] x^l, the inverse of `_digits`."""
        return np.einsum("l,l...->...", self._arrays.basis, planes)

    def __str__(self) -> str:
        return f"GF({self.order})"

