import signal
from contextlib import ExitStack, contextmanager
from math import comb
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from paramcodes import codes, hilbert, ideals, linalg
from paramcodes.codes import (
    CodeParameters,
    EvaluationMatrix,
    MinDistance,
    build_evaluation_matrix,
    code_dimension,
    minimum_distance,
    run_pipeline,
    torus_dimension,
    torus_min_distance,
)
from paramcodes.errors import DomainError, InternalInconsistencyError, ResourceLimitError
from paramcodes.gf import FieldSpec
from paramcodes.ideals import (
    Binomial,
    BinomialBasis,
    ExponentMatrix,
    ParameterizedSet,
    enumerate_points,
)

from conftest import field
from mpoly import RingContext
from oracles import brute_min_distance, brute_weight_distribution, evaluation_rows
from test_hilbert import point_sets

F5 = FieldSpec.of(5)


def torus_set(q, s):
    return enumerate_points(ExponentMatrix.torus(s), field(q))


# -- evaluation matrix ---------------------------------------------------------

def test_degree_zero_matrix_is_all_ones(triangle_set):
    E = build_evaluation_matrix(triangle_set, 0)
    assert len(E.rows) == 1
    assert all(c == 1 for c in E.rows[0])


def test_one_dim_torus_matrix_is_vandermonde():
    pset = torus_set(7, 1)
    E = build_evaluation_matrix(pset, 3)
    points = pset.points[:, 0].tolist()
    for e, row in enumerate(E.rows):
        assert list(row) == [pset.field.pow(x, e) for x in points]


def test_matrix_entries_and_rank(triangle_set):
    E = build_evaluation_matrix(triangle_set, 1)
    assert len(E.rows) == 4 and len(E.pset) == 32
    # spot-check: entry = monomial evaluated at the point
    mono = E.monomials[2]
    pt = triangle_set.points[17].tolist()
    value = 1
    for coord, e in zip(pt, mono):
        value = F5.mul(value, F5.pow(coord, e))
    assert E.rows[2][17] == value
    assert code_dimension(E) == 4


def no_exp():
    return mock.patch.object(FieldSpec, "exp",
                             side_effect=AssertionError("matrix evaluated"))


def test_matrix_budget():
    # building the matrix evaluates nothing, so only reading it is refused
    pset = torus_set(11, 2)
    with mock.patch.object(codes, "DEFAULT_MATRIX_BUDGET", 100), no_exp():
        E = build_evaluation_matrix(pset, 5)
        for read in ("rows", "echelon"):
            with pytest.raises(ResourceLimitError, match="21 x 100 entries exceeds "
                                                         "the budget 100"):
                getattr(E, read)


def test_matrix_budget_checked_before_evaluating():
    # the rows are the 8 standard monomials t^a, a in {0, 1}^3, whatever the
    # degree above 2, and the budget admits one entry fewer than 8 x 8; the
    # extension checks its own 8 x 8 before it reads the 4 x 8 form below
    pset = torus_set(3, 3)
    with no_exp(), mock.patch.object(codes, "DEFAULT_MATRIX_BUDGET", 63):
        below = build_evaluation_matrix(pset, 1)
        for E in (build_evaluation_matrix(pset, 26),
                  build_evaluation_matrix(pset, 26, below=below)):
            for read in ("rows", "echelon"):
                with pytest.raises(ResourceLimitError,
                                   match=r"8 x 8 entries exceeds the budget 63"):
                    getattr(E, read)
        assert "echelon" not in vars(below)


@contextmanager
def evaluations():
    """Each call of `codes._evaluate` while open, as its exponent rows and
    the rows it returned."""
    calls, evaluate = [], codes._evaluate

    def record(matrix, exponents):
        rows = evaluate(matrix, exponents)
        calls.append((exponents.tolist(), rows))
        return rows

    with mock.patch.object(codes, "_evaluate", record):
        yield calls


@settings(max_examples=30, deadline=None)
@given(point_sets())
def test_standard_monomial_rows_span_the_all_monomial_code(pset):
    # the rows are Delta<=d alone, yet the echelon form is that of every
    # monomial of degree <= d, one degree past Delta's top included, built
    # alone and extended from the degree below
    top, s = len(pset.standard_monomials) - 1, pset.matrix.s
    ring = RingContext(pset.field, tuple(f"t{i + 1}" for i in range(s)))
    _, everything = evaluation_rows(pset, top + 1, ring)
    below = None
    for d in range(top + 2):
        expected, pivots = linalg.rref(everything[:comb(s + d, d)], pset.field)
        alone = build_evaluation_matrix(pset, d)
        lower = len(below.monomials) if below else 0
        below = build_evaluation_matrix(pset, d, below=below)
        for E in (alone, below):
            assert np.array_equal(E.monomials,
                                  np.concatenate(pset.standard_monomials[:d + 1]))
            assert E.monomials.dtype.kind == "i" and not E.monomials.flags.writeable
            with evaluations() as calls:
                assert E.echelon[1] == pivots
            assert np.array_equal(E.echelon[0], expected)
            # built alone every monomial is evaluated, extended those above
            # the degree below alone
            start = lower if E is below else 0
            assert [m for m, _ in calls] == [E.monomials[start:].tolist()]
    # past the top degree the extension evaluates no monomial
    assert len(below.monomials) == lower == len(pset) and [m for m, _ in calls] == [[]]


def test_torus_past_the_all_monomial_budget():
    # the GF(3) 6-torus at d=17 has C(23, 6) = 100947 monomials but only 64
    # standard ones, so 64 x 64 entries fit the default budget
    pset = torus_set(3, 6)
    (row,) = run_pipeline(pset, [17]).table
    assert (row.length, row.dimension, row.min_distance.value) == (64, 64, 1)
    checks = run_pipeline(pset, range(18), verify=True).checks
    assert {"torus-dimension-formula", "torus-distance-formula"} <= \
        {name for name, _ in checks}


def test_dimension_examples(triangle_set, torus11_set):
    assert code_dimension(build_evaluation_matrix(triangle_set, 4)) == 29
    assert code_dimension(build_evaluation_matrix(torus11_set, 9)) == 55
    # past stabilization the code fills the whole space
    assert code_dimension(build_evaluation_matrix(triangle_set, 6)) == 32


# -- minimum distance ----------------------------------------------------------

def test_triangle_distance_small_degree(triangle_set):
    E = build_evaluation_matrix(triangle_set, 1)
    md = minimum_distance(E)
    assert md.status == "exact" and md.value == 23
    # oracle agreement on the same 5^4-word search
    assert brute_min_distance(E.rep_rows(), F5) == 23


def test_degree_zero_is_repetition_code(triangle_set):
    E = build_evaluation_matrix(triangle_set, 0)
    md = minimum_distance(E)
    assert md.status == "exact" and md.value == 32


def test_min_distance_f3_torus_matches_formula_and_oracle():
    pset = torus_set(3, 2)
    E = build_evaluation_matrix(pset, 1)
    md = minimum_distance(E)
    assert md.value == 2
    assert brute_min_distance(E.rep_rows(), field(3)) == 2
    assert torus_min_distance(3, 2, 1) == 2


@pytest.mark.parametrize("q,s,d", [(3, 2, 2), (5, 2, 1), (4, 2, 1), (7, 1, 2)])
def test_min_distance_oracle_agreement(q, s, d):
    pset = torus_set(q, s)
    E = build_evaluation_matrix(pset, d)
    md = minimum_distance(E)
    assert md.status == "exact"
    assert md.value == brute_min_distance(E.rep_rows(), field(q))


def test_min_distance_extension_field_table_path(f4):
    pset = enumerate_points(ExponentMatrix.of([[1], [2]]), f4)
    E = build_evaluation_matrix(pset, 1)
    md = minimum_distance(E)
    assert md.status == "exact"
    assert md.value == brute_min_distance(E.rep_rows(), f4)


def test_min_distance_extension_field_beyond_order_1024():
    spec = FieldSpec.of(2**11, [1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1])
    pset = enumerate_points(ExponentMatrix.of([[1]]), spec)
    md = minimum_distance(build_evaluation_matrix(pset, 0))
    assert (md.status, md.value) == ("exact", 2047)


def test_min_distance_budget_paths(triangle_set):
    E = build_evaluation_matrix(triangle_set, 2)  # k = 10
    bounded = minimum_distance(E, budget=100)
    assert bounded.status == "bounded" and bounded.method is None
    # the footprint below, the lightest echelon row above
    assert (bounded.lower, bounded.upper) == (8, 14)
    assert str(bounded) == "8..14"
    full = build_evaluation_matrix(triangle_set, 5)  # k = 32, full space
    detected = minimum_distance(full, budget=100)
    assert detected.status == "weight_one" and detected.value == 1
    assert detected.method == "weight-1"
    skipped = minimum_distance(E, budget=0)
    assert skipped.status == "skipped" and skipped.method is None


@pytest.mark.parametrize("budget", [codes.DEFAULT_MD_BUDGET, 100])
@pytest.mark.parametrize("case", ["triangle-gf5-d5", "torus-gf13-s4-d44"])
def test_a_whole_space_row_reads_no_bound(request, case, budget):
    # k = m settles the distance as 1 before the footprint, the product
    # witness or any matrix entry is read; at d = 44 the 4-torus's matrix
    # has 20,736 x 20,736 entries, far past the matrix budget
    pset, d = ((request.getfixturevalue("triangle_set"), 5) if case == "triangle-gf5-d5"
               else (torus_set(13, 4), 44))
    E = build_evaluation_matrix(pset, d)
    assert len(E.monomials) == len(pset)
    targets = [(ParameterizedSet, "footprint"), (ParameterizedSet, "product_witness"),
               (codes, "_evaluate"), (linalg, "extend_rref")]
    with ExitStack() as stack:
        spies = [stack.enter_context(mock.patch.object(
            owner, name, autospec=True, side_effect=getattr(owner, name)))
            for owner, name in targets]
        md = minimum_distance(E, budget=budget)
    assert (md.status, md.value, md.method) == ("weight_one", 1, "weight-1")
    assert [spy.call_count for spy in spies] == [0] * len(targets)


def test_weight_one_detection_is_exact(triangle_set):
    # at degree 4 no codeword has weight 1, so detection must not fire,
    # though brute force is out of budget; the footprint meets a weight-2
    # echelon row instead
    E = build_evaluation_matrix(triangle_set, 4)  # k = 29
    md = minimum_distance(E, budget=100)
    assert (md.status, md.value, md.method) == ("exact", 2, "footprint")


def test_early_stopped_sweep_is_exact(triangle_set):
    # d = 2: footprint 8 and witness 14 differ, and 5^10 codewords fit the
    # default budget; the sweep stops at the first word of weight 8
    E = build_evaluation_matrix(triangle_set, 2)
    with mock.patch.object(codes, "_enumerate_weights",
                           wraps=codes._enumerate_weights) as sweep:
        md = minimum_distance(E)
    assert (md.status, md.value, md.method) == ("exact", 8, "search")
    assert sweep.call_args.kwargs["floor"] == 8
    assert codes._enumerate_weights(E.echelon[0], F5) == 8
    # a weight-8 word lies in the span of the subcode's first 4 rows, so the
    # sweep stops inside its 6-row block; each of those rows takes one
    # product, and the rows after them are never written
    with mock.patch.object(FieldSpec, "mul", autospec=True,
                           side_effect=FieldSpec.mul) as mul:
        assert codes._enumerate_weights(E.echelon[0][1:], F5, floor=8) == 8
    assert mul.call_count <= 4


def test_bounds_meet_at_two():
    # Reed-Solomon over GF(7) at d=4: no weight-1 word and Singleton bound 2
    E = build_evaluation_matrix(torus_set(7, 1), 4)  # k = 5, 7^5 codewords
    md = minimum_distance(E, budget=100)
    assert (md.status, md.value) == ("exact", 2)
    assert torus_min_distance(7, 1, 4) == 2


def test_threads_give_same_answer(triangle_set):
    E = build_evaluation_matrix(triangle_set, 1)
    assert minimum_distance(E, threads=3).value == 23


# -- footprint and witness -------------------------------------------------------

def witness(E: EvaluationMatrix) -> int:
    """Weight of the lightest row of the reduced echelon form."""
    return int(np.count_nonzero(E.echelon[0], axis=1).min())


@settings(max_examples=40, deadline=None)
@given(point_sets())
def test_footprint_and_witness_bracket_the_distance(pset):
    spec, m = pset.field, len(pset)
    # the code is the whole space from the top degree of Delta on
    for d in range(len(pset.standard_monomials)):
        E = build_evaluation_matrix(pset, d)
        k = code_dimension(E)
        if d == 0 and m >= 2:
            # the one row below k = m with k = 1: the footprint |Delta| = m
            # meets the empty product's weight m before any sweep
            with mock.patch.object(codes, "_enumerate_weights",
                                   side_effect=AssertionError("swept")):
                md = minimum_distance(E)
            assert (md.status, md.value, md.method) == ("exact", m, "footprint")
        lower, upper = pset.footprint(d), witness(E)
        product = pset.product_witness(d)
        assert 1 <= lower <= upper <= m - k + 1 and lower <= product
        words = spec.order ** k
        if words * m <= 20_000:
            distance = brute_min_distance(E.rows, spec)
            assert lower <= distance <= min(upper, product)
            # a unit vector lies in the code exactly when every character does
            assert (distance == 1) == (k == m)
            # the translations of X* put a lightest codeword in the subcode
            # zero at the first pivot's point
            if k >= 2:
                assert codes._enumerate_weights(E.echelon[0][1:], spec) == distance
        md = minimum_distance(E, budget=100)
        if md.status == "bounded":
            assert (md.lower, md.upper) == (max(lower, 2), min(upper, product))
        elif words > 100:  # settled without a sweep
            assert md.value == min(upper, product)
            assert md.method in ("footprint", "weight-1")


@settings(max_examples=30, deadline=None)
@given(point_sets())
def test_product_witness_is_a_codeword_of_its_weight(pset):
    # evaluated point by point with scalar field arithmetic, the product of
    # at most d factors lies in the degree-d code and is nonzero on as many
    # points as product_witness claims; --verify's recount agrees
    spec, points = pset.field, pset.points.tolist()
    top = len(pset.standard_monomials) - 1
    for d in range(top + 1):
        factors = pset.product_factors(d)
        assert len(factors) <= d
        values = [1] * len(points)
        for i, c in factors:
            values = [spec.mul(v, spec.sub(p[i], c)) for v, p in zip(values, points)]
        assert sum(map(bool, values)) == pset.product_witness(d)
        E = build_evaluation_matrix(pset, d)
        assert len(linalg.rref(np.vstack([E.rows, values]), spec)[1]) == len(E.monomials)
    run_pipeline(pset, range(top + 1), md_budget=100, verify=True)


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9, 11, 13])
@pytest.mark.parametrize("rows", [[[1, 0], [0, 1]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                                  [[2, 0], [0, 3]], [[2, 0, 0], [0, 1, 0], [0, 0, 3]]],
                         ids=["torus-2", "torus-3", "diagonal-2", "diagonal-3"])
def test_product_witness_meets_the_footprint_on_tori(q, rows):
    # a diagonal torus is a product of cyclic groups, an affine cartesian
    # set, whose extremal codewords are products of factors t_i - c: below
    # Delta's top degree every row is settled with no echelon form
    pset = enumerate_points(ExponentMatrix.of(rows), field(q))
    top = len(pset.standard_monomials) - 1
    assert [pset.product_witness(d) for d in range(1, top)] == \
        [pset.footprint(d) for d in range(1, top)]


def test_verify_recounts_the_product_witness():
    # on the GF(5) torus at d = 1 the product t1 - c is nonzero on 12
    # points, which the footprint meets.  A witness claiming 11 sends the
    # row to the sweep, which finds 12; verify's recount refuses the claim
    pset = torus_set(5, 2)
    assert (pset.product_witness(1), pset.footprint(1)) == (12, 12)
    with mock.patch.object(ParameterizedSet, "product_witness", return_value=11):
        (row,) = run_pipeline(pset, [1]).table
        assert (row.min_distance.value, row.min_distance.method) == (12, "search")
        with pytest.raises(InternalInconsistencyError,
                           match="degree 1 claims weight 11 but is nonzero on 12 points"):
            run_pipeline(pset, [1], verify=True)
    # two factors of t1, whose product has the weight 8 it claims, are no
    # codeword of degree 1
    factors = ParameterizedSet.product_factors
    with mock.patch.object(ParameterizedSet, "product_factors",
                           lambda self, d: factors(self, d + 1)):
        assert pset.product_witness(1) == 8
        with pytest.raises(InternalInconsistencyError,
                           match="witness at degree 1 lies outside the code"):
            run_pipeline(pset, [1], verify=True)


@pytest.mark.parametrize("q,s", [(3, 1), (3, 3), (4, 2), (5, 2), (7, 1),
                                 (8, 2), (9, 2), (11, 2), (7, 3)])
def test_footprint_equals_torus_distance(q, s):
    pset = torus_set(q, s)
    for d in range(1, (q - 2) * s + 2):
        assert pset.footprint(d) == torus_min_distance(q, s, d)


def test_no_unit_vector_lifts_the_footprint_to_two():
    # the curve (x, x^3) over GF(5) at d=1: a standard monomial of degree 1
    # divides no other (footprint 1), but no echelon row is a unit vector,
    # so the distance is at least 2, which the witness attains
    pset = enumerate_points(ExponentMatrix.of([[1], [3]]), F5)
    E = build_evaluation_matrix(pset, 1)  # k = 3, m = 4
    assert pset.footprint(1) == 1 and witness(E) == 2
    md = minimum_distance(E, budget=100)
    assert (md.status, md.value, md.method) == ("exact", 2, "footprint")


def test_methods_along_the_triangle(triangle_set):
    methods = [minimum_distance(build_evaluation_matrix(triangle_set, d)).method
               for d in range(7)]
    assert methods == ["footprint", "search", "search", "footprint",
                       "footprint", "weight-1", "weight-1"]


def test_pipeline_walks_delta_once(triangle_matrix, f5):
    pset = enumerate_points(triangle_matrix, f5)
    with mock.patch("paramcodes.ideals.class_walk",
                    wraps=ideals.class_walk) as from_pset, \
            mock.patch("paramcodes.hilbert.standard_monomials",
                       wraps=hilbert.standard_monomials) as from_profile:
        run = run_pipeline(pset, range(1, 6))
    assert from_pset.call_count + from_profile.call_count == 1
    assert [p.min_distance.value for p in run.table[2:]] == [4, 2, 1]


def test_table_builds_no_projective_basis_and_no_profile(triangle_set):
    # the table reads each Hilbert value off the class walk's levels; the
    # homogenized basis exists only for the certificate under verify.  Every
    # Hilbert function of a projective basis reads its leads through
    # _affine_leads, however it is called
    with mock.patch.object(codes, "vanishing_ideal_projective",
                           wraps=ideals.vanishing_ideal_projective) as homogenize, \
            mock.patch.object(hilbert, "hilbert_profile") as profile, \
            mock.patch.object(hilbert, "_affine_leads") as leads, \
            mock.patch.object(ParameterizedSet, "certify", autospec=True,
                              side_effect=ParameterizedSet.certify) as certify:
        run_pipeline(triangle_set, range(1, 4), md_budget=700)
        assert (homogenize.call_count, certify.call_count) == (0, 0)
        run_pipeline(triangle_set, range(1, 4), md_budget=700, verify=True)
    assert (homogenize.call_count, certify.call_count) == (1, 1)
    assert certify.call_args.args[1] == \
        ideals.vanishing_ideal_projective(triangle_set.affine_basis)
    assert (profile.call_count, leads.call_count) == (0, 0)


def test_verify_sweeps_rows_the_footprint_settled(triangle_set):
    # a footprint claiming the witness weight 14 at d = 2, where the true
    # distance is 8: the pipeline trusts it, the verifying sweep does not
    with mock.patch.object(ParameterizedSet, "footprint", return_value=14):
        run = run_pipeline(triangle_set, [2])
        assert run.table[0].min_distance.value == 14
        with pytest.raises(InternalInconsistencyError, match="sweep's 8"):
            run_pipeline(triangle_set, [2], verify=True)


def test_verify_sweeps_the_whole_code_behind_a_searched_row(triangle_set):
    # at d = 1 the distance is 23, but the last two echelon rows alone reach
    # only 24: a sweep two rows short, not one, passes the pipeline and
    # fails the whole-code sweep that verify adds
    sweep = codes._enumerate_weights

    def two_rows_short(basis, spec, floor=1, **kwargs):
        # minimum_distance sweeps with the footprint as floor, verify with 1
        return sweep(basis[1:] if floor > 1 else basis, spec, floor=floor, **kwargs)

    with mock.patch.object(codes, "_enumerate_weights", two_rows_short):
        run = run_pipeline(triangle_set, [1])
        assert (run.table[0].min_distance.value, run.table[0].min_distance.method) == \
            (24, "search")
        with pytest.raises(InternalInconsistencyError,
                           match="search distance 24 at degree 1 differs from the sweep's 23"):
            run_pipeline(triangle_set, [1], verify=True)


def test_one_row_codes_are_settled_before_the_sweep(triangle_set):
    # the rows after the first span the zero code when k = 1, so a sweep of
    # them would report m + 1; none runs.  The degree-0 repetition code's
    # footprint |Delta| = m meets the empty product's weight m, and a
    # one-point set has k = m at every degree
    point = enumerate_points(ExponentMatrix.of([[4, 0], [0, 4]]), F5)
    assert len(point) == 1
    with mock.patch.object(codes, "_enumerate_weights",
                           side_effect=AssertionError("a one-row code was swept")):
        md = minimum_distance(build_evaluation_matrix(triangle_set, 0))
        assert (md.status, md.value, md.method) == ("exact", 32, "footprint")
        for d in range(3):
            md = minimum_distance(build_evaluation_matrix(point, d))
            assert (md.status, md.value, md.method) == ("exact", 1, "weight-1")


def test_certificate_catches_a_wrong_basis(triangle_matrix, f5):
    # no elimination backs the class walk, so --verify must reject a basis
    # walked over the wrong classes on its own: over the torus, as if L held
    # nothing, the torus relations alone leave 64 standard monomials for 32
    # points
    walk = ideals.class_walk

    def walk_over(rows):
        return mock.patch.object(ideals, "class_walk", lambda matrix, q:
                                 walk(ExponentMatrix.of(rows), q))

    with walk_over([[1, 0, 0], [0, 1, 0], [0, 0, 1]]):
        pset = enumerate_points(triangle_matrix, f5)
        assert sum(map(len, pset.standard_monomials)) == 64
        with pytest.raises(InternalInconsistencyError, match="ring degree 64"):
            run_pipeline(pset, [1], verify=True)
    # with the first row zero, t1 joins the class of 1 although (1, 0, 0)
    # lies outside L: t1 - 1 does not vanish on X*
    with walk_over([[0, 0, 0], [0, 1, 1], [1, 0, 1]]):
        pset = enumerate_points(triangle_matrix, f5)
        with pytest.raises(InternalInconsistencyError, match="does not vanish"):
            run_pipeline(pset, [1], verify=True)


def test_certificate_needs_a_pure_power_of_every_variable():
    # t2^4 - 1 alone is a Groebner basis that vanishes on the GF(5) torus,
    # but no lead bounds t1, so its standard monomials t1^k never end: the
    # certificate refuses it before walking them
    pset = torus_set(5, 2)
    broken = BinomialBasis((Binomial((0, 4), (0, 0)),), ("t1", "t2"), F5)

    def endless(signum, frame):
        raise AssertionError("certify is still walking after 5 s")

    previous = signal.signal(signal.SIGALRM, endless)
    signal.alarm(5)
    try:
        with mock.patch.object(ParameterizedSet, "affine_basis", broken):
            with pytest.raises(InternalInconsistencyError, match="power of t1"):
                pset.certify(ideals.vanishing_ideal_projective(broken))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_certificate_needs_each_lead_above_its_tail():
    # t1^6 - 1 written tail first vanishes on X* all the same, but 1 is no
    # leading monomial of it
    pset = enumerate_points(ExponentMatrix.of([[1]]), FieldSpec.of(7))
    swapped = BinomialBasis((Binomial((0,), (6,)),), ("t1",), pset.field)
    with mock.patch.object(ParameterizedSet, "affine_basis", swapped):
        with pytest.raises(InternalInconsistencyError,
                           match="affine generator 1 - t1\\^6 has a lead not above"):
            pset.certify(ideals.vanishing_ideal_projective(swapped))


def test_certificate_compares_the_class_walks_levels(triangle_matrix, f5):
    # the footprints read the class walk's levels, not the basis, so a walk
    # with the right basis and as many standard monomials, but not the right
    # ones, passes the pipeline and fails verify
    walk = ideals.class_walk

    def shifted(matrix, q):
        pairs, levels = walk(matrix, q)
        return pairs, levels[:-1] + [levels[-1] + [1, 0, 0]]

    with mock.patch.object(ideals, "class_walk", shifted):
        pset = enumerate_points(triangle_matrix, f5)
        run_pipeline(pset, [1])
        with pytest.raises(InternalInconsistencyError, match="standard monomials differ"):
            run_pipeline(pset, [1], verify=True)


TRIANGLE_ROWS = [[1, 1, 0], [0, 1, 1], [1, 0, 1]]
FOUR_CYCLE_ROWS = [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [1, 0, 0, 1]]


@pytest.mark.parametrize("rows,q", [(TRIANGLE_ROWS, 5), (TRIANGLE_ROWS, 9),
                                    (FOUR_CYCLE_ROWS, 7)],
                         ids=["triangle-gf5", "triangle-gf9", "four-cycle-gf7"])
def test_pipeline_extends_only_a_lower_degree(rows, q):
    pset = enumerate_points(ExponentMatrix.of(rows), field(q))
    # footprints kept per degree answer calls in any order, repeats included
    delta = [m for level in pset.standard_monomials for m in level.tolist()]

    def multiples(lead):
        return sum(all(a <= b for a, b in zip(lead, n)) for n in delta)

    order = [5, 0, 3, 5, 1]
    assert [pset.footprint(d) for d in order] == [
        min(multiples(lead) for lead in delta if sum(lead) <= d) for d in order]
    degrees = [3, 1, 3, 0]
    with mock.patch.object(codes, "build_evaluation_matrix",
                           wraps=build_evaluation_matrix) as build:
        run = run_pipeline(pset, degrees)
    below = [call.kwargs["below"] for call in build.call_args_list]
    assert [b and b.degree for b in below] == [None, None, 1, None]
    assert run.table == tuple(run_pipeline(pset, [d]).table[0] for d in degrees)
    if rows == FOUR_CYCLE_ROWS:
        # its bounded rows, d = 3 given twice, take their upper end from
        # the lightest echelon row, below the product witness, so the table
        # reads each echelon form
        assert [(p.d, p.min_distance.upper < pset.product_witness(p.d))
                for p in run.table if p.min_distance.status == "bounded"] == \
            [(3, True), (3, True)]
    with pytest.raises(DomainError, match="lower degree"):
        build_evaluation_matrix(pset, 1, below=build_evaluation_matrix(pset, 1))


@pytest.mark.parametrize("rows,q,lower,d", [
    ([[1, 1, 0], [0, 1, 1], [1, 0, 1]], 5, 2, 3),
    ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 9, 2, 3),
    ([[1, 1, 0], [0, 1, 1], [1, 0, 1]], 5, 1, 4),
], ids=["triangle-gf5", "torus-gf9", "jump-1-to-4"])
def test_evaluation_matrix_extends_the_rows_below(rows, q, lower, d):
    pset = enumerate_points(ExponentMatrix.of(rows), field(q))
    alone = build_evaluation_matrix(pset, d)
    extended = build_evaluation_matrix(pset, d, below=build_evaluation_matrix(pset, lower))
    assert np.array_equal(extended.monomials, alone.monomials)
    assert extended.rows.dtype == alone.rows.dtype
    assert np.array_equal(extended.rows, alone.rows)
    assert not extended.rows.flags.writeable


@pytest.mark.parametrize("q", [5, 9], ids=["triangle-gf5", "triangle-gf9"])
def test_every_delta_is_a_view_of_one_array(triangle_matrix, q):
    # the set holds Delta once; each level, each matrix's Delta<=d, built
    # alone or extended, and the footprints read that array, copying none
    pset = enumerate_points(triangle_matrix, field(q))
    delta = pset.delta
    assert not delta.flags.writeable and len(delta) == len(pset)
    assert np.array_equal(delta, np.concatenate(pset.standard_monomials))
    assert all(np.shares_memory(level, delta) for level in pset.standard_monomials)
    below = None
    for d in range(len(pset.standard_monomials) + 1):
        for E in (build_evaluation_matrix(pset, d),
                  build_evaluation_matrix(pset, d, below=below)):
            assert np.shares_memory(E.monomials, delta)
            assert not E.monomials.flags.writeable
        below = E
    with mock.patch.object(ParameterizedSet, "delta", new_callable=mock.PropertyMock,
                           return_value=delta) as read, \
            mock.patch.object(np, "concatenate", side_effect=AssertionError("copied")):
        footprints = pset._footprints
    read.assert_called_once()
    assert footprints == enumerate_points(triangle_matrix, field(q))._footprints


@settings(max_examples=30, deadline=None)
@given(point_sets())
def test_each_degree_evaluates_delta_directly(pset):
    # built alone or extended, the degree-d rows are Delta<=d evaluated by
    # products of powers of the coordinates; an extension evaluates only
    # the monomials above the degree below
    top, s = len(pset.standard_monomials) - 1, pset.matrix.s
    ring = RingContext(pset.field, tuple(f"t{i + 1}" for i in range(s)))
    monos, direct = evaluation_rows(pset, top, ring)
    row_of = dict(zip(map(tuple, monos), direct.tolist()))
    below = None
    for d in range(top + 2):
        alone = build_evaluation_matrix(pset, d)
        extended = build_evaluation_matrix(pset, d, below=below)
        expected = [row_of[m] for m in map(tuple, alone.monomials.tolist())]
        start = len(below.monomials) if below else 0
        with evaluations() as calls:
            for E in (alone, extended):
                E.echelon
        assert [m for m, _ in calls] == [alone.monomials.tolist(),
                                         alone.monomials[start:].tolist()]
        assert [r.tolist() for _, r in calls] == [expected, expected[start:]]
        assert not any(r.flags.writeable for _, r in calls)
        for E in (alone, extended):
            assert np.array_equal(E.monomials, alone.monomials)
            assert E.rows.tolist() == expected
            assert not E.rows.flags.writeable
            with pytest.raises(ValueError):
                E.rows[..., :1] = 0
        below = extended


def test_evaluation_sums_in_int64_past_the_int32_rule():
    # over GF(46337) with s = 2, s (q-2)^2 reaches 2^31, so the sums are int64
    pset = enumerate_points(ExponentMatrix.of([[1], [215]]), FieldSpec.of(46337))
    E = build_evaluation_matrix(pset, 3)
    monos, direct = evaluation_rows(pset, 3, RingContext(pset.field, ("t1", "t2")))
    row_of = dict(zip(map(tuple, monos), direct.tolist()))
    assert E.rows.tolist() == [row_of[m] for m in map(tuple, E.monomials.tolist())]


@settings(max_examples=40, deadline=None)
@given(point_sets(), st.data())
def test_footprint_counts_the_multiples_of_delta(pset, data):
    # every degree's bound from one pass, asked for in any order and past
    # Delta's top degree
    delta = [m for level in pset.standard_monomials for m in level.tolist()]

    def multiples(lead):
        return sum(all(a <= b for a, b in zip(lead, n)) for n in delta)

    top = len(pset.standard_monomials) - 1
    order = data.draw(st.permutations(range(top + 2)))
    assert [pset.footprint(d) for d in order] == [
        min(multiples(lead) for lead in delta if sum(lead) <= d) for d in order]


def test_footprint_takes_the_least_count_up_to_the_degree():
    # a standard monomial of degree 1 divides only itself, while each one of
    # degree 2 divides at least two, so the bound at d = 2 stays 1
    pset = enumerate_points(ExponentMatrix.of([[1, 3], [2, 0], [3, 3]]), F5)
    assert [pset.footprint(d) for d in range(5)] == [8, 1, 1, 1, 1]


def test_footprint_box_checked_before_allocating(triangle_matrix, f5):
    # the triangle's 32 standard monomials lie in a box of 4 x 4 x 4; one
    # entry over the cap, the counts run on Delta's rows and no box is made
    pset = enumerate_points(triangle_matrix, f5)
    size = int(np.prod(np.concatenate(pset.standard_monomials).max(axis=0) + 1))
    with mock.patch.object(ideals, "_FOOTPRINT_BOX_ENTRIES", size - 1), \
            mock.patch.object(np, "zeros", side_effect=AssertionError("box allocated")):
        assert pset.footprint(1) == 20  # below the distance 23
    boxed = enumerate_points(triangle_matrix, f5)
    boxed.standard_monomials
    with mock.patch.object(ideals, "_FOOTPRINT_BOX_ENTRIES", size), \
            mock.patch.object(np, "zeros", wraps=np.zeros) as zeros:
        assert boxed.footprint(1) == 20
    zeros.assert_called_once()
    # 30 standard monomials, 1 and t1 .. t29, span a box of 2^29 entries
    # that the cap refuses; 1 divides all of them and each t_i only itself
    curve = enumerate_points(ExponentMatrix.of([[i] for i in range(1, 30)]),
                             FieldSpec.of(31))
    assert [curve.footprint(d) for d in range(3)] == [30, 1, 1]


@st.composite
def wide_point_sets(draw):
    """An exponent matrix with up to 5 coordinates over a small field, so
    that Delta reaches along several variables."""
    q = draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9]))
    n = draw(st.integers(1, 2))
    rows = draw(st.lists(st.lists(st.integers(0, 4), min_size=n, max_size=n),
                         min_size=1, max_size=5))
    return enumerate_points(ExponentMatrix.of(rows), field(q))


@settings(max_examples=60, deadline=None)
@given(st.one_of(point_sets(), wide_point_sets()))
def test_footprint_counted_without_the_box_equals_the_box(pset):
    boxed = pset._footprints
    rows_only = ParameterizedSet(pset.matrix, pset.field, pset.points)
    rows_only.standard_monomials
    with mock.patch.object(ideals, "_FOOTPRINT_BOX_ENTRIES", 0), \
            mock.patch.object(np, "zeros", side_effect=AssertionError("box allocated")):
        assert rows_only._footprints == boxed


def test_verify_sweep_capped_by_codewords_times_points(triangle_set):
    # at d = 2 the verifying sweep covers (5^10 - 1)/4 = 2441406 codewords
    # of 32 points: 78125000 entries, the largest any CI verify sweeps
    entries = 2441406 * 32
    with mock.patch.object(codes, "VERIFY_SWEEP_ENTRIES", entries - 1), \
            mock.patch.object(codes, "_enumerate_weights",
                              wraps=codes._enumerate_weights) as sweep:
        with pytest.raises(ResourceLimitError,
                           match=f"2441406 codewords x 32 points = {entries} "
                                 f"entries, above the cap {entries - 1}"):
            run_pipeline(triangle_set, [2], verify=True)
    # only the subcode sweep that found the distance ran
    assert sweep.call_count == 1
    assert entries <= codes.VERIFY_SWEEP_ENTRIES
    with mock.patch.object(codes, "VERIFY_SWEEP_ENTRIES", entries):
        (row,) = run_pipeline(triangle_set, [2], verify=True).table
    assert (row.min_distance.value, row.min_distance.method) == (8, "search")


def test_verify_recomputes_every_echelon_form(triangle_set):
    # an extension that leaves the new pivot columns in the old rows still
    # spans the code, so the table stands; only the reduction from scratch
    # that verify adds notices, at degree 1, whose form extends that of
    # degree 0 by one level
    def no_back_substitution(echelon, pivots, rows, spec):
        new = spec.sub_product(rows, rows[:, pivots], echelon)
        new, new_pivots = linalg.rref(new, spec)
        merged = pivots + new_pivots
        return (np.concatenate((echelon, new), dtype=np.int32)[np.argsort(merged)],
                sorted(merged))

    with mock.patch.object(linalg, "extend_rref", no_back_substitution):
        run = run_pipeline(triangle_set, [1, 2, 3], md_budget=700)
        assert [p.dimension for p in run.table] == [4, 10, 20]
        with pytest.raises(InternalInconsistencyError,
                           match="degree 1 differs from a reduction from scratch"):
            run_pipeline(triangle_set, [1, 2, 3], md_budget=700, verify=True)


def test_every_echelon_form_built_checks_its_rank(triangle_set):
    # an extension that loses its last row, once per level of Delta: a
    # form built alone at d = 1 from levels 0 and 1 keeps 4 - 2 rows.
    # Wherever an echelon form is built on a point set its rank must be
    # |Delta<=d|.  The GF(5) torus row at d = 1 builds none, so only
    # verify, which builds every form, checks its rank
    extend = linalg.extend_rref

    def lossy(echelon, pivots, rows, spec):
        form, pivots = extend(echelon, pivots, rows, spec)
        return form[:-1], pivots[:-1]

    with mock.patch.object(linalg, "extend_rref", lossy):
        with pytest.raises(InternalInconsistencyError, match="rank 2 of the evaluation "
                           "matrix at degree 1 differs from the Hilbert value 4"):
            code_dimension(build_evaluation_matrix(triangle_set, 1))
        (row,) = run_pipeline(torus_set(5, 2), [1]).table
        assert (row.dimension, row.min_distance.value) == (3, 12)
        with pytest.raises(InternalInconsistencyError, match="rank 1 of the evaluation "
                           "matrix at degree 1 differs from the Hilbert value 3"):
            run_pipeline(torus_set(5, 2), [1], verify=True)


@pytest.mark.parametrize("q", [5, 9], ids=["triangle-gf5", "triangle-gf9"])
def test_each_echelon_form_is_extended_one_level_at_a_time(triangle_matrix, q):
    # built alone from the empty form, or extended across a gap from d = 1,
    # the degree-4 form takes one extension per level of Delta, so no
    # reduction sees more rows than one level holds
    pset = enumerate_points(triangle_matrix, field(q))
    sizes = [len(level) for level in pset.standard_monomials]
    below = build_evaluation_matrix(pset, 1)
    below.echelon
    for E, first in ((build_evaluation_matrix(pset, 4), 0),
                     (build_evaluation_matrix(pset, 4, below=below), 2)):
        with mock.patch.object(linalg, "extend_rref", wraps=linalg.extend_rref) as extend, \
                mock.patch.object(linalg, "rref", wraps=linalg.rref) as rref:
            E.echelon
        assert [len(call.args[2]) for call in extend.call_args_list] == sizes[first:5]
        assert [len(call.args[0]) for call in rref.call_args_list] == sizes[first:5]
        expected, pivots = linalg.rref(E.rows, pset.field)
        assert E.echelon[1] == pivots and np.array_equal(E.echelon[0], expected)


# -- the projective sweep against brute force ----------------------------------

def sweep(spec, rows) -> int:
    """The minimum distance of the code of the given rows, by a sweep of
    their reduced echelon form."""
    return codes._enumerate_weights(linalg.rref(rows, spec)[0], spec)


def check_sweep(spec, rows):
    """The sweep's distance equals brute force."""
    assert sweep(spec, rows) == brute_min_distance(rows, spec)


# GF(257) stores the block in uint16 and sums its prime-field words in
# uint32; brute force keeps it to k <= 2
SWEEP_ORDERS = [2, 3, 4, 5, 7, 8, 9, 16, 257]


@st.composite
def full_rank_codes(draw):
    q = draw(st.sampled_from(SWEEP_ORDERS))
    k = draw(st.integers(1, 2 if q > 256 else 4))
    m = draw(st.integers(k, 8))
    rows = draw(st.lists(st.lists(st.integers(0, q - 1), min_size=m, max_size=m),
                         min_size=k, max_size=k))
    spec = field(q)
    assume(len(linalg.rref(rows, spec)[1]) == k)
    return spec, rows


# block targets 1 and 4 put every row, or all but one or two, in the high
# part, and so do block caps of 1 and 24 entries on m <= 8 points; write
# sizes 1 and 16 build the block one scalar, or a few, at a time
@settings(max_examples=80, deadline=None)
@given(full_rank_codes(), st.sampled_from([1, 4, codes._BLOCK_ROWS_TARGET]),
       st.sampled_from([1, 24, codes._BLOCK_ENTRIES]),
       st.sampled_from([1, 16, codes._BLOCK_WRITE_ENTRIES]))
@example((field(257), [[1, 0, 128, 256, 200, 3, 1, 7], [0, 1, 128, 255, 100, 9, 2, 5]]),
         codes._BLOCK_ROWS_TARGET, codes._BLOCK_ENTRIES, codes._BLOCK_WRITE_ENTRIES)
def test_sweep_matches_brute_force(code, block_rows_target, block_entries,
                                   write_entries):
    with mock.patch.object(codes, "_BLOCK_ROWS_TARGET", block_rows_target), \
            mock.patch.object(codes, "_BLOCK_ENTRIES", block_entries), \
            mock.patch.object(codes, "_BLOCK_WRITE_ENTRIES", write_entries):
        check_sweep(*code)


# every floor from 1 to the minimum is a lower bound, so the sweep may stop
# at any block row or high word that reaches it and still report the minimum
@settings(max_examples=60, deadline=None)
@given(full_rank_codes(), st.sampled_from([1, 4, codes._BLOCK_ROWS_TARGET]))
def test_early_stop_reports_the_minimum(code, block_rows_target):
    spec, rows = code
    expected = brute_min_distance(rows, spec)
    basis = linalg.rref(rows, spec)[0]
    with mock.patch.object(codes, "_BLOCK_ROWS_TARGET", block_rows_target):
        for floor in range(1, expected + 1):
            assert codes._enumerate_weights(basis, spec, floor=floor) == expected


def test_sweep_single_row_code():
    spec = field(9)
    rows = [[0, 3, 1, 0, 8, 5, 0, 2]]
    check_sweep(spec, rows)
    assert sweep(spec, rows) == 5


def test_sweep_two_row_code():
    check_sweep(field(4), [[1, 0, 1, 2, 3, 1], [0, 1, 3, 3, 1, 2]])


def test_sweep_single_high_row_and_zero_high_minimum():
    # GF(5), k = 3: the block holds the first two echelon rows and the last
    # row is the only high row.  The unique weight-1 words are the multiples
    # of the first row, which only the zero-high sweep visits.
    rows = [[1, 0, 0, 0, 0, 0, 0, 0],
            [0, 1, 0, 1, 2, 3, 4, 1],
            [0, 0, 1, 1, 1, 1, 1, 1]]
    assert np.array_equal(linalg.rref(rows, F5)[0], rows)
    check_sweep(F5, rows)
    assert brute_weight_distribution(rows, F5)[1] == 4


@pytest.mark.parametrize("q", [131, 257])
def test_prime_block_sums_past_the_stored_type(q):
    # the block's second row adds 128 to 128.  GF(131) stores the block in
    # uint8, where that sum wraps to a false 0 for the field's 256 - 131 =
    # 125; GF(257) stores it in uint16, which its entry 256 needs.  The
    # [5, 3] code [I | A] with A = [[128, 1], [128, -1], [1, 1]] is MDS, of
    # distance 3: A's entries and its 2 x 2 minors -256, 127 and 129 are
    # nonzero mod q.  The block word of the first two rows,
    # (1, 1, 0, 256, 0), has weight 3, and 2 with a false 0
    spec = FieldSpec.of(q)
    rows = [[1, 0, 0, 128, 1], [0, 1, 0, 128, q - 1], [0, 0, 1, 1, 1]]
    assert np.array_equal(linalg.rref(rows, spec)[0], rows)
    with mock.patch.object(codes, "_BLOCK_ROWS_TARGET", q ** 2):
        assert sweep(spec, rows) == 3


# -- closed forms ----------------------------------------------------------------

def test_torus_min_distance_golden_values():
    assert torus_min_distance(11, 2, 1) == 90
    assert torus_min_distance(11, 2, 13) == 6
    assert [torus_min_distance(11, 2, d) for d in range(1, 14)] == \
        [90, 80, 70, 60, 50, 40, 30, 20, 10, 9, 8, 7, 6]
    # floor at 1 from (q-2)s on
    assert torus_min_distance(11, 2, 18) == 1
    assert torus_min_distance(11, 2, 30) == 1


def test_reed_solomon_ladder():
    for q in (5, 7):
        for d in range(1, q + 2):
            expect = q - 1 - d if d <= q - 3 else 1
            assert torus_min_distance(q, 1, d) == expect


def test_torus_min_distance_domain():
    with pytest.raises(DomainError):
        torus_min_distance(2, 1, 1)
    with pytest.raises(DomainError):
        torus_min_distance(5, 1, 0)


def test_torus_dimension_values():
    assert torus_dimension(11, 2, 10) == 64
    assert torus_dimension(11, 2, 3) == 10
    for d in range(0, 10):  # below q-1 only the j=0 term contributes
        assert torus_dimension(11, 2, d) == comb(2 + d, 2)
    assert torus_dimension(3, 2, 50) == 4  # saturates at (q-1)^s


def test_torus_dimension_sums_no_term_past_s():
    # C(s, j) = 0 for j > s, so a huge degree costs s + 1 terms, not d/(q-1)
    def endless(signum, frame):
        raise AssertionError("torus_dimension is still summing after 5 s")

    previous = signal.signal(signal.SIGALRM, endless)
    signal.alarm(5)
    try:
        assert torus_dimension(3, 1, 10**12) == 2
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


# -- MDS -------------------------------------------------------------------------

def test_is_mds_reed_solomon():
    pset = torus_set(7, 1)
    E = build_evaluation_matrix(pset, 2)
    dim = code_dimension(E)
    md = minimum_distance(E)
    params = CodeParameters(2, len(pset), dim, md)
    assert (len(pset), dim, md.value) == (6, 3, 4)
    assert md.value == brute_min_distance(E.rep_rows(), field(7))
    assert params.mds is True


def test_is_mds_repetition_and_triangle(triangle_set):
    E0 = build_evaluation_matrix(triangle_set, 0)
    p0 = CodeParameters(0, 32, code_dimension(E0), minimum_distance(E0))
    assert p0.mds is True
    E1 = build_evaluation_matrix(triangle_set, 1)
    p1 = CodeParameters(1, 32, 4, minimum_distance(E1))
    assert p1.min_distance.value == 23 and p1.mds is False
    # an inexact distance leaves the question open
    assert CodeParameters(3, 32, 20, MinDistance.bounded(1, 13)).mds is None


# -- weight-preserving column scaling (affine/projective bridge) -----------------

def scaled_rows(E: EvaluationMatrix, d: int) -> list[list[int]]:
    """Divide column j by (first coordinate of P_j)^d.  The scaled rows are
    no characters of X*, so their distance comes from their own echelon
    form and sweep."""
    spec = E.field
    factors = [spec.inv(spec.pow(x, d)) for x in E.pset.points[:, 0].tolist()]
    return [[spec.mul(int(c), f) for c, f in zip(row, factors)]
             for row in E.rows]


@pytest.mark.parametrize("maker,d", [
    (lambda: torus_set(5, 2), 1),
    (lambda: torus_set(7, 1), 2),
    (lambda: torus_set(4, 2), 1),
])
def test_weight_distribution_invariant_under_scaling(maker, d):
    pset = maker()
    E = build_evaluation_matrix(pset, d)
    scaled = scaled_rows(E, d)
    assert brute_weight_distribution(E.rows, pset.field) == \
        brute_weight_distribution(scaled, pset.field)
    assert minimum_distance(E).value == sweep(pset.field, scaled)


def test_triangle_weight_scaling(triangle_set):
    E = build_evaluation_matrix(triangle_set, 1)  # 5^4 codewords
    scaled = scaled_rows(E, 1)
    assert brute_weight_distribution(E.rows, triangle_set.field) == \
        brute_weight_distribution(scaled, triangle_set.field)
    assert minimum_distance(E).value == sweep(triangle_set.field, scaled)


# -- pipeline ---------------------------------------------------------------------

def test_parameter_table_triangle(triangle_set):
    table = run_pipeline(triangle_set, range(1, 6), md_budget=700).table
    assert [p.dimension for p in table] == [4, 10, 20, 29, 32]
    assert all(p.length == 32 for p in table)
    assert table[0].min_distance.value == 23
    assert table[4].min_distance.status == "weight_one"
    dims = [p.dimension for p in table]
    assert dims == sorted(dims)
    for p in table:
        v = p.min_distance.value
        if v is not None:
            assert 1 <= v <= p.singleton_bound


def test_parameter_table_empty_range(triangle_set):
    assert run_pipeline(triangle_set, []).table == ()


def test_run_pipeline_consistency(torus11_set):
    run = run_pipeline(torus11_set, [1, 2, 3], md_budget=0)
    assert sum(map(len, torus11_set.standard_monomials)) == 100
    assert [p.dimension for p in run.table] == [3, 6, 10]
    assert all(p.min_distance.status == "skipped" for p in run.table)


def test_verify_records_the_checks_it_ran(triangle_set):
    # the exact distances are compared in the order of the degree, not of
    # the list: 23 at d=1 above 4 at d=3
    checks = run_pipeline(triangle_set, [3, 1], md_budget=700, verify=True).checks
    assert [name for name, _ in checks] == ["pipeline", "distance-monotone",
                                           "singleton-bound"]
    assert run_pipeline(triangle_set, [1, 2], md_budget=700).checks == ()


def test_verify_checks_the_torus_closed_forms():
    pset = torus_set(5, 2)
    checks = run_pipeline(pset, [1, 2, 3], md_budget=20000, verify=True).checks
    assert [name for name, _ in checks][-2:] == ["torus-dimension-formula",
                                                "torus-distance-formula"]
