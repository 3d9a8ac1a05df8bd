"""Exact dense linear algebra over GF(q).

Matrices are 2-D numpy arrays of canonical field ints (any sequence of
rows is accepted); each elimination step updates whole rows at once with
the FieldSpec array arithmetic, so one code path covers every field.
`extend_rref` adds rows to an echelon form without reducing the old rows
again; the RREF of a row space is unique, so it equals `rref` of them all.

Its two products, rows - coeffs . other, are `FieldSpec.sub_product`.
`extend_rref` writes the old and new rows straight into their pivot
order, so no temporary of the merged form's size is made besides the form
itself.
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


def extend_rref(echelon: np.ndarray, pivots: list[int], rows: np.ndarray,
                spec: FieldSpec) -> tuple[np.ndarray, list[int]]:
    """rref of a reduced echelon form with its pivots stacked on new rows:
    clear the old pivots from the new rows, reduce what is left, and clear
    the new pivots from the old rows."""
    new = spec.sub_product(rows, rows[:, pivots], echelon)
    new, new_pivots = rref(new, spec)
    old = spec.sub_product(echelon, echelon[:, new_pivots], new)
    merged = pivots + new_pivots
    # each row goes straight to its place in pivot order
    place = np.argsort(np.argsort(merged))
    out = np.empty((len(merged), echelon.shape[1]), dtype=np.int32)
    out[place[:len(pivots)]] = old
    out[place[len(pivots):]] = new
    return out, sorted(merged)
