"""Property tests of the exact linear algebra over prime and extension fields."""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from paramcodes.linalg import _subtract_product, extend_rref, rref

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


def stacked_on_a_free_column(p, num_pivots, coeff):
    """A = [I | 0 | p-1] and B = [coeff ... coeff | 1 | p-1]: clearing the
    old pivots from B makes num_pivots terms coeff (p-1) in the last
    column, which stays free, so a sum that wraps shows in the result."""
    a = np.zeros((num_pivots, num_pivots + 2), dtype=np.int64)
    a[:, :num_pivots] = np.eye(num_pivots)
    a[:, -1] = p - 1
    b = np.array([[coeff] * num_pivots + [1, p - 1]])
    return a, b


@pytest.mark.parametrize("num_pivots", [1, 2])
def test_extend_rref_at_the_int32_boundary(num_pivots):
    # over GF(46337), (p-1)^2 + p < 2^31 < 2(p-1)^2: a product over one old
    # pivot fits int32 and one over two does not.  Coefficients 1 are p-1
    # once negated and coefficients p-1 subtract (p-1)^2 each, so either way
    # of summing meets its largest terms.
    p = 46337
    spec = cached_field(p)
    for coeff in (1, p - 1):
        a, b = stacked_on_a_free_column(p, num_pivots, coeff)
        echelon, pivots = extend_rref(*rref(a, spec), b, spec)
        expected, expected_pivots = rref(np.vstack((a, b)), spec)
        assert pivots == expected_pivots
        assert np.array_equal(echelon, expected)


@pytest.mark.parametrize("coeff", ["one", "p-1"])
@pytest.mark.parametrize("p, num_pivots", [
    # an int16 block holds 227 GF(13) terms: one block, one block, two, two
    (13, 226), (13, 227), (13, 228), (13, 455),
    # int16 holds one GF(181) term, so the rule takes int32 for any product
    (181, 1), (181, 2), (181, 9),
    # int16 holds no GF(191) term
    (191, 1), (191, 2),
])
def test_extend_rref_at_the_block_boundaries(p, num_pivots, coeff):
    # coefficients 1 are p-1 once negated and p-1 ones subtract (p-1)^2
    # each, so either way of summing meets its largest terms
    spec = cached_field(p)
    a, b = stacked_on_a_free_column(p, num_pivots, 1 if coeff == "one" else p - 1)
    echelon, pivots = extend_rref(*rref(a, spec), b, spec)
    expected, expected_pivots = rref(np.vstack((a, b)), spec)
    assert pivots == expected_pivots
    assert np.array_equal(echelon, expected)


@pytest.mark.parametrize("p, terms, dtype", [
    (2, 600, np.int16), (13, 455, np.int16), (127, 2, np.int16),
    (127, 3, np.int32), (181, 1, np.int16), (181, 2, np.int32),
    (191, 0, np.int16), (191, 1, np.int32), (10007, 8, np.int32),
    (46337, 1, np.int32), (46337, 2, np.int64), (65521, 1, np.int64),
])
def test_products_sum_in_the_narrowest_type_with_a_block_of_eight(p, terms, dtype):
    # the first type whose block (top - p) // (p-1)^2 holds min(P, 8) terms
    spec = cached_field(p)
    total = _subtract_product(np.zeros((1, 2), dtype=np.int32),
                              np.full((1, terms), p - 1, dtype=np.int32),
                              np.full((terms, 2), p - 1, dtype=np.int32), spec)
    assert total.dtype == dtype
    assert total.tolist() == [[-terms * (p - 1) ** 2 % p] * 2]


PRODUCT_PRIMES = [2, 5, 13, 127, 181, 191, 10007, 46337, 65521]


@st.composite
def products(draw):
    """rows, coeffs and other over a prime, up to 500 terms so that GF(13)
    takes two int16 blocks; most entries are a fill of 0, 1 or p-1."""
    p = draw(st.sampled_from(PRODUCT_PRIMES))
    nrows, terms, ncols = draw(st.integers(0, 3)), draw(st.integers(0, 500)), \
        draw(st.integers(1, 4))

    def matrix(shape):
        return draw(arrays(np.int32, shape,
                           elements=st.integers(0, p - 1) | st.just(p - 1),
                           fill=st.sampled_from([0, 1, p - 1])))

    return cached_field(p), matrix((nrows, ncols)), matrix((nrows, terms)), \
        matrix((terms, ncols))


@settings(max_examples=150, deadline=None)
@given(products())
def test_subtract_product_equals_python_ints(case):
    spec, rows, coeffs, other = case
    p = spec.characteristic
    expected = [[(int(rows[i, k]) - sum(int(c) * int(o) for c, o in
                                        zip(coeffs[i], other[:, k]))) % p
                 for k in range(rows.shape[1])] for i in range(len(rows))]
    total = _subtract_product(rows, coeffs, other, spec)
    assert total.shape == rows.shape
    assert total.tolist() == expected
