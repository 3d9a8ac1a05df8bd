"""Exact dense linear algebra over GF(q).

Matrices are 2-D numpy arrays of canonical field ints (any sequence of
rows is accepted); each elimination step updates whole rows at once with
the FieldSpec array arithmetic, so one code path covers every field.
`extend_rref` adds rows to an echelon form without reducing the old rows
again; the RREF of a row space is unique, so it equals `rref` of them all.

Its two products, rows - coeffs . other, go through `_subtract_product`.
On a prime field that is one integer einsum and one `% p`; negating the
coefficients (p - c) turns the subtraction into an addition.  The sum is
int32 when it cannot reach 2^31, else int64 (GF(65521), say).  numpy runs
`@` on integers as a scalar loop, while einsum without `optimize` runs its
own vector loop and never calls BLAS, so the product stays exact; in int32
it is about 3x faster than in int64, which AVX2 cannot multiply natively.
The row addition and `% p` run in place on the product, and `extend_rref`
writes the old and new rows straight into their pivot order, so no
temporary of the merged form's size is made besides the form itself.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .gf import FieldSpec


def rref(rows: Sequence[Sequence[int]], spec: FieldSpec) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form.

    Returns (nonzero rows with monic pivots, pivot column indices); the
    number of pivots is the rank.  Pivot rows are taken in column order,
    each from the first row at or below the current one that is nonzero
    in that column; columns zero there are skipped in one step.
    """
    work = np.atleast_2d(np.array(rows, dtype=np.int32))
    pivots: list[int] = []
    pivot_row = col = 0
    while pivot_row < work.shape[0]:
        live = np.flatnonzero(work[pivot_row:, col:].any(axis=0))
        if not live.size:
            break
        col += int(live[0])
        found = pivot_row + np.flatnonzero(work[pivot_row:, col])[0]
        if found != pivot_row:
            work[[pivot_row, found]] = work[[found, pivot_row]]
        lead = int(work[pivot_row, col])
        if lead != 1:
            work[pivot_row] = spec.mul(spec.inv(lead), work[pivot_row])
        # the pivot row is zero left of col, so only columns from col change
        row = work[pivot_row, col:]
        others = np.flatnonzero(work[:, col])
        others = others[others != pivot_row]
        if others.size:
            factors = work[others, col]
            work[others, col:] = spec.sub(work[others, col:],
                                          spec.mul(factors[:, None], row[None, :]))
        pivots.append(col)
        pivot_row += 1
        col += 1
    return work[:pivot_row], pivots


def _subtract_product(rows: np.ndarray, coeffs: np.ndarray, other: np.ndarray,
                      spec: FieldSpec) -> np.ndarray:
    """rows - coeffs . other over GF(q)."""
    if spec.extension_degree == 1:
        p = spec.characteristic
        # len(other) terms of at most (p-1)^2 plus a row entry of at most
        # p-1: below 2^31 under this test, so int32 cannot overflow
        dtype = np.int32 if len(other) * (p - 1) ** 2 < 2**31 - p else np.int64
        negated = (p - coeffs.astype(dtype)) % p
        total = np.einsum("ij,jk->ik", negated, other.astype(dtype, copy=False))
        total += rows
        total %= p
        return total
    total = np.zeros((len(coeffs), other.shape[1]), dtype=other.dtype)
    for column, row in zip(coeffs.T, other):
        total = spec.add(total, spec.mul(column[:, None], row))
    return spec.sub(rows, total)


def extend_rref(echelon: np.ndarray, pivots: list[int], rows: np.ndarray,
                spec: FieldSpec) -> tuple[np.ndarray, list[int]]:
    """rref of a reduced echelon form with its pivots stacked on new rows:
    clear the old pivots from the new rows, reduce what is left, and clear
    the new pivots from the old rows."""
    new = _subtract_product(rows, rows[:, pivots], echelon, spec)
    new, new_pivots = rref(new, spec)
    old = _subtract_product(echelon, echelon[:, new_pivots], new, spec)
    merged = pivots + new_pivots
    # each row goes straight to its place in pivot order
    place = np.argsort(np.argsort(merged))
    out = np.empty((len(merged), echelon.shape[1]), dtype=np.int32)
    out[place[:len(pivots)]] = old
    out[place[len(pivots):]] = new
    return out, sorted(merged)
