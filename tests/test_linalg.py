"""Property tests of the exact linear algebra over prime and extension fields."""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from paramcodes import gf
from paramcodes.gf import FieldSpec
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
    total = spec.sub_product(np.zeros((1, 2), dtype=np.int32),
                             np.full((1, terms), p - 1, dtype=np.int32),
                             np.full((terms, 2), p - 1, dtype=np.int32))
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
    total = spec.sub_product(rows, coeffs, other)
    assert total.shape == rows.shape
    assert total.tolist() == expected


# every extension field of the tests, and GF(63001) = GF(251^2), where one
# term, 250^2, overflows int16, so that its sums run in int32
EXTENSION_ORDERS = [4, 8, 9, 16, 25, 27, 32, 251**2]


@lru_cache
def extension_field(q):
    return FieldSpec.of(q, [1, 0, 1]) if q == 251**2 else field(q)


def subtract_product_by_python_ints(spec, rows, coeffs, other):
    """rows - coeffs . other by the scalar field operations on Python ints."""
    return [[spec.sub(int(rows[i, c]), dot(spec, coeffs[i], other[:, c]))
             for c in range(rows.shape[1])] for i in range(len(rows))]


@st.composite
def extension_products(draw):
    """rows, coeffs and other over an extension field, up to 40 terms; most
    entries are a fill of 0, 1, q-1 or the generator of GF(q) over GF(p)."""
    spec = extension_field(draw(st.sampled_from(EXTENSION_ORDERS)))
    q = spec.order
    nrows, terms, ncols = draw(st.integers(0, 3)), draw(st.integers(0, 40)), \
        draw(st.integers(1, 4))

    def matrix(shape):
        return draw(arrays(np.int32, shape, elements=st.integers(0, q - 1),
                           fill=st.sampled_from([0, 1, q - 1, spec.characteristic])))

    return spec, matrix((nrows, ncols)), matrix((nrows, terms)), \
        matrix((terms, ncols))


@settings(max_examples=150, deadline=None)
@given(extension_products())
@example((extension_field(251**2), np.full((1, 2), 63000, dtype=np.int32),
          np.full((1, 3), 63000, dtype=np.int32), np.full((3, 2), 63000, dtype=np.int32)))
def test_subtract_product_on_extension_fields_equals_python_ints(case):
    spec, rows, coeffs, other = case
    total = spec.sub_product(rows, coeffs, other)
    assert total.shape == rows.shape
    assert total.tolist() == subtract_product_by_python_ints(spec, rows, coeffs, other)


@pytest.mark.parametrize("num_pivots, blocks", [(4095, [8190]), (4096, [8191, 1])])
def test_extension_products_at_the_int16_block_boundary(monkeypatch, num_pivots, blocks):
    # an int16 block holds (2^15 - 3) // 4 = 8191 GF(9) terms.  With the
    # modulus x^2 + 1, c = 2 + x has c x^0 and c x^1 both of digit 0 equal
    # to 2, and other = 2 + 2x has both digits 2, so digit 0 of every row
    # meets 2 * num_pivots terms of (p-1)^2 = 4 each
    spec = cached_field(9)
    seen = []
    einsum = np.einsum

    def spy(subscripts, *operands, **kwargs):
        if subscripts == "ij,jk->ik":
            seen.append(operands[0].shape[1])
        return einsum(subscripts, *operands, **kwargs)

    monkeypatch.setattr(np, "einsum", spy)
    rows = np.zeros((2, 3), dtype=np.int32)
    rows[1] = [1, 4, 8]
    coeffs = np.full((2, num_pivots), 5, dtype=np.int32)
    other = np.full((num_pivots, 3), 8, dtype=np.int32)
    total = spec.sub_product(rows, coeffs, other)
    assert seen == blocks
    assert total.tolist() == subtract_product_by_python_ints(spec, rows, coeffs, other)


@pytest.mark.parametrize("q", [9, 16, 251**2])
@pytest.mark.parametrize("cap", ["one", "below one slab", "below one chunk", "default"])
def test_extension_products_in_slabs_equal_one_slab(monkeypatch, q, cap):
    # rows and columns in slabs give the product of one slab, and no digit
    # array made passes the cap
    spec = extension_field(q)
    k = spec.extension_degree
    rng = np.random.default_rng(q)
    rows, coeffs, other = (rng.integers(0, q, shape, dtype=np.int32)
                           for shape in [(5, 11), (5, 7), (7, 11)])
    whole = spec.sub_product(rows, coeffs, other)
    limit = {"one": 1, "below one slab": k * (5 + 7) * 11 - 1,
             "below one chunk": k * k * 5 * 7 - 1, "default": gf.MAX_DIGIT_ENTRIES}[cap]
    monkeypatch.setattr(gf, "MAX_DIGIT_ENTRIES", limit)
    sizes = []
    digits = FieldSpec._digits

    def spy(self, a):
        planes = digits(self, a)
        sizes.append(planes.size)
        return planes

    monkeypatch.setattr(FieldSpec, "_digits", spy)
    total = spec.sub_product(rows, coeffs, other)
    assert np.array_equal(total, whole)
    assert total.tolist() == subtract_product_by_python_ints(spec, rows, coeffs, other)
    # at a cap of one entry each array still holds one row or one column
    assert max(sizes) <= max(limit, k * k * 7, k * 7)
    if cap == "default":
        assert len(sizes) == 3  # one chunk and one slab: left, rows, right
    else:
        assert len(sizes) > 3
    if cap == "one":
        # per row a left side, and per column of it the rows and right side
        assert len(sizes) == 5 * (1 + 2 * 11)
