"""Property tests of the exact linear algebra over prime and extension fields."""

import numpy as np
from hypothesis import given, settings, strategies as st

from paramcodes.linalg import rank, rref, right_kernel_basis

from conftest import field

ORDERS = [2, 3, 5, 7, 4, 8, 9, 16, 25]


@st.composite
def matrices(draw):
    q = draw(st.sampled_from(ORDERS))
    nrows = draw(st.integers(0, 6))
    ncols = draw(st.integers(1, 7))
    rows = draw(st.lists(st.lists(st.integers(0, q - 1), min_size=ncols,
                                  max_size=ncols),
                         min_size=nrows, max_size=nrows))
    return field(q), np.array(rows, dtype=np.int64).reshape(nrows, ncols)


def dot(spec, u, v):
    total = 0
    for a, b in zip(u, v):
        total = spec.add(total, spec.mul(int(a), int(b)))
    return total


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_rref_properties(case):
    spec, rows = case
    ncols = rows.shape[1]
    echelon, pivots = rref(rows, spec)
    # reduced row echelon form
    assert echelon.shape == (len(pivots), ncols)
    assert pivots == sorted(set(pivots))
    for i, (row, col) in enumerate(zip(echelon, pivots)):
        assert not row[:col].any()
        assert row[col] == 1
        assert [int(x) for x in echelon[:, col]] == [int(j == i) for j in range(len(pivots))]
    # row rank equals column rank
    assert len(pivots) == rank(rows.T.tolist(), spec)
    # every input row is the combination of echelon rows its pivot entries give
    for row in rows:
        coeffs = row[pivots]
        assert [dot(spec, coeffs, column) for column in echelon.T] == row.tolist()


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_kernel_vectors_are_annihilated(case):
    spec, rows = case
    basis = right_kernel_basis(rows, spec)
    assert len(basis) == rows.shape[1] - rank(rows, spec)
    for v in basis:
        assert all(dot(spec, v, row) == 0 for row in rows)
