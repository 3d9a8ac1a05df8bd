from math import comb
from unittest import mock

import pytest

from paramcodes import hilbert
from paramcodes.errors import DomainError, InternalInconsistencyError
from paramcodes.gf import FieldSpec
from paramcodes.groebner import GroebnerBasis
from paramcodes.hilbert import (
    affine_hilbert_value,
    hilbert_profile,
    hilbert_value,
    ring_degree,
)
from paramcodes.ideals import (
    ExponentMatrix,
    enumerate_points,
    vanishing_ideal_affine,
    vanishing_ideal_projective,
)
from paramcodes.mpoly import GrevLex, Polynomial, RingContext, mono_divides, monomials_of_degree

from oracles import standard_count_by_inclusion_exclusion

F5 = FieldSpec.of(5)


@pytest.fixture(scope="module")
def triangle_bases(triangle_set):
    gb_x = vanishing_ideal_affine(triangle_set)
    gb_y = vanishing_ideal_projective(gb_x)
    return gb_x, gb_y


def test_zero_ideal_counts_all_monomials():
    ring = RingContext(F5, ("t1", "t2", "t3"))
    empty = GroebnerBasis((), GrevLex(), ring, is_reduced=True)
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
    assert ring_degree(gb_y) == 32
    torus_y = vanishing_ideal_projective(vanishing_ideal_affine(torus11_set))
    assert ring_degree(torus_y) == 100


def test_ring_degree_single_point():
    pset = enumerate_points(ExponentMatrix.of([[1], [3]]), FieldSpec.of(2))
    gb_y = vanishing_ideal_projective(vanishing_ideal_affine(pset))
    assert ring_degree(gb_y) == 1


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
    lms = gb_y.leading_monomials()
    n = gb_y.ring.num_vars
    # chunks of 1 and 7 rows spread each degree over several comparisons
    for chunk_rows in (1, 7, hilbert._CHUNK_ROWS):
        with mock.patch.object(hilbert, "_CHUNK_ROWS", chunk_rows):
            for d in range(8):
                by_loop = sum(1 for m in monomials_of_degree(n, d)
                              if not any(mono_divides(lm, m) for lm in lms))
                assert hilbert_value(gb_y, d) == by_loop == \
                    standard_count_by_inclusion_exclusion(lms, n, d)


def test_non_homogeneous_generator_rejected():
    ring = RingContext(F5, ("t1", "t2"))
    f = Polynomial(ring, {(1, 0): F5.one, (0, 0): F5.element(4)})
    gb = GroebnerBasis((f,), GrevLex(), ring, is_reduced=True)
    with pytest.raises(DomainError):
        hilbert_value(gb, 2)


def test_unbounded_growth_hits_the_cap():
    # the zero ideal in two variables never stabilizes
    ring = RingContext(F5, ("t1", "t2"))
    empty = GroebnerBasis((), GrevLex(), ring, is_reduced=True)
    with pytest.raises(InternalInconsistencyError):
        ring_degree(empty)


def test_negative_degree_rejected(triangle_bases):
    _, gb_y = triangle_bases
    with pytest.raises(DomainError):
        hilbert_value(gb_y, -1)
