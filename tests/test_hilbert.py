from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from paramcodes.errors import DomainError, InternalInconsistencyError
from paramcodes.gf import FieldSpec
from paramcodes.hilbert import (
    HilbertProfile,
    hilbert_profile,
    hilbert_value,
    standard_monomials,
)
from paramcodes.ideals import (
    Binomial,
    BinomialBasis,
    ExponentMatrix,
    enumerate_points,
    vanishing_ideal_affine,
    vanishing_ideal_projective,
)

from conftest import field
from mpoly import mono_divides, monomials_of_degree
from oracles import standard_count_by_inclusion_exclusion

F5 = FieldSpec.of(5)


def count_standard(lms, num_vars, degree):
    """Monomials of the given degree that no leading monomial divides, one
    by one."""
    return sum(1 for m in monomials_of_degree(num_vars, degree)
               if not any(mono_divides(lm, m) for lm in lms))


def affine_hilbert_value(gb_x, d):
    """Standard monomials of degree <= d of an affine basis, by the walk."""
    return sum(map(len, standard_monomials(gb_x.leads, len(gb_x.names), top=d)))


def profile_by_enumeration(lms, num_vars, limit):
    """Hilbert values from degree 0 until two consecutive ones agree."""
    values = {0: count_standard(lms, num_vars, 0)}
    for d in range(1, limit + 1):
        values[d] = count_standard(lms, num_vars, d)
        if values[d] == values[d - 1]:
            return HilbertProfile(values, stabilized_at=d - 1,
                                  degree_of_ring=values[d])
    raise AssertionError(f"no repeat by degree {limit}")


def monomial_basis(lms, names):
    """A homogeneous basis with the leads lms, each tail the last variable
    to its lead's degree: the Hilbert functions read only the leads, so
    they see the monomial ideal of lms."""
    gens = tuple(Binomial(m, (0,) * (len(m) - 1) + (sum(m),)) for m in lms)
    return BinomialBasis(gens, tuple(names), F5)


@pytest.fixture(scope="module")
def triangle_bases(triangle_set):
    gb_x = vanishing_ideal_affine(triangle_set)
    gb_y = vanishing_ideal_projective(gb_x)
    return gb_x, gb_y


def test_zero_ideal_counts_all_monomials():
    empty = BinomialBasis((), ("t1", "t2", "t3"), F5)
    for d in range(6):
        assert hilbert_value(empty, d) == comb(2 + d, 2)
        assert affine_hilbert_value(empty, d) == comb(3 + d, 3)


def test_triangle_hilbert_values(triangle_bases):
    _, gb_y = triangle_bases
    assert [hilbert_value(gb_y, d) for d in range(1, 6)] == [4, 10, 20, 29, 32]
    assert hilbert_value(gb_y, 0) == 1


def test_torus11_hilbert_value(torus11_set):
    gb_y = vanishing_ideal_projective(vanishing_ideal_affine(torus11_set))
    assert hilbert_value(gb_y, 10) == 64


def test_ring_degree(triangle_bases, torus11_set):
    _, gb_y = triangle_bases
    assert hilbert_profile(gb_y).degree_of_ring == 32
    torus_y = vanishing_ideal_projective(vanishing_ideal_affine(torus11_set))
    assert hilbert_profile(torus_y).degree_of_ring == 100


def test_ring_degree_single_point():
    pset = enumerate_points(ExponentMatrix.of([[1], [3]]), FieldSpec.of(2))
    gb_y = vanishing_ideal_projective(vanishing_ideal_affine(pset))
    assert hilbert_profile(gb_y).degree_of_ring == 1


def test_affine_equals_projective_from_degree_one(triangle_bases):
    gb_x, gb_y = triangle_bases
    for d in range(1, 8):
        assert affine_hilbert_value(gb_x, d) == hilbert_value(gb_y, d)
    assert affine_hilbert_value(gb_x, 0) == 1


def test_profile_monotone_and_stabilization_bound(triangle_bases, torus11_set):
    _, gb_y = triangle_bases
    profile = hilbert_profile(gb_y)
    seq = [profile.values[d] for d in sorted(profile.values)]
    assert all(a <= b for a, b in zip(seq, seq[1:]))
    assert profile.stabilized_at <= 32 - 1
    assert profile.degree_of_ring == 32

    torus_y = vanishing_ideal_projective(vanishing_ideal_affine(torus11_set))
    profile = hilbert_profile(torus_y)
    assert profile.stabilized_at <= 100 - 1
    assert profile.degree_of_ring == 100


def test_inclusion_exclusion_matches_enumeration(triangle_bases):
    _, gb_y = triangle_bases
    lms = gb_y.leads
    n = len(gb_y.names)
    for d in range(8):
        assert hilbert_value(gb_y, d) == count_standard(lms, n, d) == \
            standard_count_by_inclusion_exclusion(lms, n, d)


@st.composite
def point_sets(draw):
    """An exponent matrix (s <= 3, n <= 3, entries <= 3) over a small prime
    or extension field."""
    q = draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9]))
    n = draw(st.integers(1, 3))
    rows = draw(st.lists(st.lists(st.integers(0, 3), min_size=n, max_size=n),
                         min_size=1, max_size=3))
    return enumerate_points(ExponentMatrix.of(rows), field(q))


@settings(max_examples=40, deadline=None)
@given(point_sets())
def test_walk_matches_enumeration_on_point_sets(pset):
    gb_x = vanishing_ideal_affine(pset)
    gb_y = vanishing_ideal_projective(gb_x)
    n = len(gb_y.names)
    expected = profile_by_enumeration(gb_y.leads, n, len(pset) + 1)
    assert hilbert_profile(gb_y) == expected
    assert expected.degree_of_ring == len(pset)
    affine = [count_standard(gb_x.leads, n - 1, e)
              for e in range(expected.stabilized_at + 2)]
    for d in range(expected.stabilized_at + 2):
        assert hilbert_value(gb_y, d) == expected.values[d]
        assert affine_hilbert_value(gb_x, d) == sum(affine[:d + 1])
    # the walk's levels are the standard monomials themselves
    lms = gb_x.leads
    assert [sorted(map(tuple, level.tolist())) for level in pset.standard_monomials] == [
        [m for m in sorted(monomials_of_degree(n - 1, e))
         if not any(mono_divides(lm, m) for lm in lms)]
        for e in range(expected.stabilized_at + 1)]


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.lists(
    st.lists(st.integers(0, 3), min_size=n, max_size=n).map(tuple),
    max_size=5).map(lambda lms: (n, lms))))
def test_walk_matches_enumeration_on_monomial_ideals(instance):
    # any set of monomials is a Groebner basis of the ideal it generates,
    # redundant ones and the unit ideal included
    n, lms = instance
    names = tuple(f"t{i}" for i in range(1, n + 2))
    gb_x = monomial_basis(lms, names[:-1])
    lms_y = [m + (0,) for m in lms]
    gb_y = monomial_basis(lms_y, names)
    for d in range(6):
        assert hilbert_value(gb_y, d) == count_standard(lms_y, n + 1, d)
        assert affine_hilbert_value(gb_x, d) == \
            sum(count_standard(lms, n, e) for e in range(d + 1))
    # with exponents up to 3, a finite set stops below degree 2n + 1
    if count_standard(lms, n, 2 * n + 1) == 0:
        assert hilbert_profile(gb_y) == profile_by_enumeration(lms_y, n + 1, 2 * n + 2)
    else:
        with pytest.raises(InternalInconsistencyError):
            hilbert_profile(gb_y)


def test_non_homogeneous_generator_rejected():
    gb = BinomialBasis((Binomial((1, 0), (0, 0)),), ("t1", "t2"), F5)
    with pytest.raises(DomainError):
        hilbert_value(gb, 2)


def test_missing_pure_power_rejected():
    # the zero ideal in two variables never stabilizes
    empty = BinomialBasis((), ("t1", "t2"), F5)
    with pytest.raises(InternalInconsistencyError):
        hilbert_profile(empty)
    # t1^2 bounds t1 but no lead is a power of t2
    with pytest.raises(InternalInconsistencyError, match="power of t2"):
        hilbert_profile(monomial_basis([(2, 0, 0), (1, 1, 0)], ("t1", "t2", "t3")))


def test_last_variable_in_a_lead_rejected():
    gb = monomial_basis([(1, 1)], ("t1", "t2"))
    with pytest.raises(DomainError):
        hilbert_value(gb, 2)
    with pytest.raises(DomainError):
        hilbert_profile(gb)


def test_negative_degree_rejected(triangle_bases):
    _, gb_y = triangle_bases
    with pytest.raises(DomainError):
        hilbert_value(gb_y, -1)
