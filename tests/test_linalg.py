"""Property tests of the exact linear algebra over prime and extension fields."""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from paramcodes.linalg import extend_rref, rref

from conftest import field
from oracles import right_kernel_basis

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
    assert len(pivots) == len(rref(rows.T.tolist(), spec)[1])
    # every input row is the combination of echelon rows its pivot entries give
    for row in rows:
        coeffs = row[pivots]
        assert [dot(spec, coeffs, column) for column in echelon.T] == row.tolist()


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_kernel_vectors_are_annihilated(case):
    spec, rows = case
    basis = right_kernel_basis(rows, spec)
    assert len(basis) == rows.shape[1] - len(rref(rows, spec)[1])
    for v in basis:
        assert all(dot(spec, v, row) == 0 for row in rows)


# GF(65521) makes products near 2^32, which an int32 product would overflow
EXTEND_ORDERS = [2, 3, 5, 13, 65521, 4, 8, 9, 16]
cached_field = lru_cache(field)


@st.composite
def stacked_blocks(draw):
    """A block A and new rows B; each row of either is random, zero, or a
    combination of the rows of A drawn before it (so A can have lower rank
    and B can lie in the span of A)."""
    q = draw(st.sampled_from(EXTEND_ORDERS))
    spec = cached_field(q)
    ncols = draw(st.integers(1, 8))
    element = st.integers(0, q - 1)
    rows = []
    nrows_a = draw(st.integers(0, 6))
    for i in range(nrows_a + draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["random", "zero", "span"]))
        if kind == "random":
            row = draw(st.lists(element, min_size=ncols, max_size=ncols))
        elif kind == "zero":
            row = [0] * ncols
        else:
            earlier = np.array(rows[:min(i, nrows_a)], dtype=np.int64).reshape(-1, ncols)
            coeffs = draw(st.lists(element, min_size=len(earlier), max_size=len(earlier)))
            row = [dot(spec, coeffs, column) for column in earlier.T]
        rows.append(row)
    rows = np.array(rows, dtype=np.int64).reshape(-1, ncols)
    return spec, rows[:nrows_a], rows[nrows_a:]


@settings(max_examples=300, deadline=None)
@given(stacked_blocks())
@example((cached_field(9), np.array([[1, 2, 0], [0, 0, 5]]),  # no new rows
          np.zeros((0, 3), dtype=np.int64)))
@example((cached_field(65521), np.array([[65520, 3, 65519]]),
          np.array([[65519, 65520, 7], [65520, 3, 65519]])))
def test_extend_rref_equals_rref_of_the_stack(case):
    spec, a, b = case
    echelon, pivots = extend_rref(*rref(a, spec), b, spec)
    expected, expected_pivots = rref(np.vstack((a, b)), spec)
    assert pivots == expected_pivots
    assert echelon.dtype == expected.dtype
    assert np.array_equal(echelon, expected)


@pytest.mark.parametrize("num_pivots", [1, 2])
def test_extend_rref_at_the_int32_boundary(num_pivots):
    # over GF(46337), (p-1)^2 + p < 2^31 < 2(p-1)^2: a product over one old
    # pivot fits int32 and one over two does not.  Each pivot column of B
    # holds 1, so each negated coefficient is p-1, and it meets p-1 in the
    # last column of A; that column stays free, so a wrapped sum shows.
    p = 46337
    spec = cached_field(p)
    a = np.zeros((num_pivots, num_pivots + 2), dtype=np.int64)
    a[:, :num_pivots] = np.eye(num_pivots)
    a[:, -1] = p - 1
    b = np.array([[1] * (num_pivots + 1) + [p - 1]])
    echelon, pivots = extend_rref(*rref(a, spec), b, spec)
    expected, expected_pivots = rref(np.vstack((a, b)), spec)
    assert pivots == expected_pivots
    assert np.array_equal(echelon, expected)
