"""Hilbert function and degree of the projective coordinate ring.

Values come from counting standard monomials: monomials of total degree d
not divisible by any leading monomial of the (homogeneous, graded-order)
basis.  The ring degree is the stabilized value of that count, which for a
vanishing ideal of points equals the number of points.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb
from typing import Iterator, Optional

import numpy as np

from .errors import DomainError, InternalInconsistencyError
from .groebner import GroebnerBasis
from .mpoly import Monomial, mono_degree, mono_divides


@dataclass(frozen=True)
class HilbertProfile:
    """Computed Hilbert values up to (and including) the stabilized tail."""

    values: dict[int, int]
    stabilized_at: int
    degree_of_ring: int


def _minimal_leading_monomials(gb: GroebnerBasis) -> list[Monomial]:
    lms = gb.leading_monomials()
    minimal = []
    for m in sorted(lms, key=mono_degree):
        if not any(mono_divides(g, m) for g in minimal):
            minimal.append(m)
    return minimal


#: Monomials tested per numpy comparison; bounds the memory of one count.
_CHUNK_ROWS = 1 << 16


def _monomial_chunks(num_vars: int, degree: int) -> Iterator[np.ndarray]:
    """Every exponent tuple of the given total degree, one per row, in
    chunks: stars and bars, num_vars - 1 bars among degree + num_vars - 1
    slots."""
    slots = degree + num_vars - 1
    bars = itertools.combinations(range(slots), num_vars - 1)
    total = comb(slots, num_vars - 1)
    for start in range(0, total, _CHUNK_ROWS):
        rows = min(_CHUNK_ROWS, total - start)
        chunk = np.fromiter(itertools.chain.from_iterable(itertools.islice(bars, rows)),
                            dtype=np.int64, count=rows * (num_vars - 1))
        edges = np.hstack([np.full((rows, 1), -1), chunk.reshape(rows, num_vars - 1),
                           np.full((rows, 1), slots)])
        yield np.diff(edges, axis=1) - 1


def _count_standard(lms: list[Monomial], num_vars: int, degree: int) -> int:
    if any(mono_degree(m) == 0 for m in lms):
        return 0  # unit ideal: no standard monomials at all
    count = 0
    for monomials in _monomial_chunks(num_vars, degree):
        standard = np.ones(len(monomials), dtype=bool)
        for lm in lms:
            standard &= ~(monomials >= lm).all(axis=1)
        count += int(standard.sum())
    return count


def hilbert_value(gb_y: GroebnerBasis, d: int) -> int:
    """Dimension of the degree-d graded piece of the quotient ring."""
    if d < 0:
        raise DomainError("degree must be non-negative")
    for g in gb_y.generators:
        if not g.is_homogeneous():
            raise DomainError("basis has a non-homogeneous generator")
    lms = _minimal_leading_monomials(gb_y)
    return _count_standard(lms, gb_y.ring.num_vars, d)


def affine_hilbert_value(gb_x: GroebnerBasis, d: int) -> int:
    """Dimension of the space of degree-<=d polynomials modulo the affine
    ideal: standard monomials of degree up to d."""
    if d < 0:
        raise DomainError("degree must be non-negative")
    lms = _minimal_leading_monomials(gb_x)
    num_vars = gb_x.ring.num_vars
    return sum(_count_standard(lms, num_vars, e) for e in range(d + 1))


def hilbert_profile(gb_y: GroebnerBasis, cap: Optional[int] = None) -> HilbertProfile:
    """Iterate the Hilbert function until two consecutive values agree.

    Monotone-until-constant behaviour is guaranteed for vanishing ideals of
    nonempty point sets, so the first repeat is the degree of the ring.
    """
    field_order = gb_y.ring.field.order
    if cap is None:
        cap = 4 * gb_y.ring.num_vars * field_order
    values: dict[int, int] = {0: hilbert_value(gb_y, 0)}
    previous = values[0]
    for d in range(1, cap + 1):
        current = hilbert_value(gb_y, d)
        values[d] = current
        if current == previous:
            return HilbertProfile(values, stabilized_at=d - 1,
                                  degree_of_ring=current)
        if current < previous:
            raise InternalInconsistencyError(
                f"Hilbert function decreased at degree {d} "
                f"({previous} -> {current}); the basis is not a vanishing ideal")
        previous = current
    raise InternalInconsistencyError(
        f"Hilbert function did not stabilize by degree {cap}; "
        "the basis cannot cut out a finite point set")


def ring_degree(gb_y: GroebnerBasis, cap: Optional[int] = None) -> int:
    """The stabilized Hilbert value (= number of points of the variety)."""
    return hilbert_profile(gb_y, cap).degree_of_ring
