"""Exact dense linear algebra over GF(q).

Matrices are 2-D numpy arrays of canonical field ints (any sequence of
rows is accepted); each elimination step updates whole rows at once with
the FieldSpec array arithmetic, so one code path covers every field.
`extend_rref` adds rows to an echelon form without reducing the old rows
again; the RREF of a row space is unique, so it equals `rref` of them all.

Its two products, rows - coeffs . other, go through `_subtract_product`.
On a prime field they use delayed modular reduction (Dumas, Giorgi and
Pernet, FFLAS-FFPACK): the sum runs in the narrowest of int16, int32 and
int64 that holds a block of at least min(P, 8) of the P terms exactly,
one integer einsum per block, and is reduced once after each block.  A
GF(13) block holds 227 terms of int16; over GF(181), where int16 holds
one term only, the rule takes int32 rather than one-term blocks.  numpy
runs `@` on integers as a scalar loop, while einsum without `optimize`
runs its own vector loop and never calls BLAS, so the product stays
exact, and a narrower type puts more entries in each vector.  Each
reduction is e - (e // p) p in place: numpy divides an int array by a
constant several times faster than it takes the remainder, and floor
division leaves [0, p) for a negative e too.  `extend_rref` writes the
old and new rows straight into their pivot order, so no temporary of the
merged form's size is made besides the form itself.
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


#: The integer types a prime-field product may sum in, narrowest first,
#: each with its bound 2^(bits - 1)
_SUM_TYPES = ((np.int16, 2**15), (np.int32, 2**31), (np.int64, 2**63))


def _subtract_product(rows: np.ndarray, coeffs: np.ndarray, other: np.ndarray,
                      spec: FieldSpec) -> np.ndarray:
    """rows - coeffs . other over GF(q).

    On a prime field an entry in [0, p) minus a block of terms of at most
    (p-1)^2 each stays above -top when block = (top - p) // (p-1)^2, so
    each block is one exact einsum in the first type whose block holds
    min(P, 8) of the P terms, and the entries go back to [0, p) after it.
    """
    if spec.extension_degree == 1:
        p, terms = spec.characteristic, len(other)
        dtype, block = next((dtype, (top - p) // (p - 1) ** 2)
                            for dtype, top in _SUM_TYPES
                            if (top - p) // (p - 1) ** 2 >= min(terms, 8))
        coeffs = coeffs.astype(dtype, copy=False)
        other = other.astype(dtype, copy=False)
        total = rows.astype(dtype)
        for start in range(0, terms, max(block, 1)):  # block 0 has no terms
            total -= np.einsum("ij,jk->ik", coeffs[:, start:start + block],
                               other[start:start + block])
            reduced = total // p
            reduced *= p
            total -= reduced
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
