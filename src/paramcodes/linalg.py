"""Exact dense linear algebra over GF(q).

Matrices are 2-D numpy arrays of canonical field ints (any sequence of
rows is accepted); each elimination step updates whole rows at once with
the FieldSpec array arithmetic, so one code path covers every field.
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
    in that column.
    """
    work = np.atleast_2d(np.array(rows, dtype=np.int32))
    pivots: list[int] = []
    pivot_row = 0
    for col in range(work.shape[1]):
        found = np.flatnonzero(work[pivot_row:, col])
        if not found.size:
            continue
        found = pivot_row + found[0]
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
        if pivot_row == work.shape[0]:
            break
    return work[:pivot_row], pivots


def rank(rows: Sequence[Sequence[int]], spec: FieldSpec) -> int:
    return len(rref(rows, spec)[1])


def right_kernel_basis(rows: Sequence[Sequence[int]], spec: FieldSpec) -> list[np.ndarray]:
    """Basis of {v : M v = 0}, one vector per free column."""
    echelon, pivots = rref(rows, spec)
    ncols = echelon.shape[1]
    basis = []
    for free in sorted(set(range(ncols)) - set(pivots)):
        v = np.zeros(ncols, dtype=np.int32)
        v[free] = 1
        v[pivots] = spec.neg(echelon[:, free])
        basis.append(v)
    return basis
