"""Acceptance suite: one test per criterion, exact equalities throughout.

Each test prints a single PASS/FAIL line (run pytest with -s or check the
captured output).  Expected values are either golden integers or are
recomputed in-test by the independent oracles in oracles.py.
"""

import contextlib
import itertools
import random
import time

import pytest

from paramcodes.codes import (
    build_evaluation_matrix,
    code_dimension,
    minimum_distance,
    run_pipeline,
    torus_dimension,
    torus_min_distance,
)
from paramcodes.gf import FieldSpec
from paramcodes.hilbert import hilbert_profile, hilbert_value
from paramcodes.ideals import (
    ExponentMatrix,
    enumerate_points,
    vanishing_ideal_affine,
    vanishing_ideal_projective,
)

from conftest import field
from mpoly import Polynomial, RingContext
from oracles import brute_min_distance, brute_weight_distribution, polynomial_basis
from test_codes import scaled_rows, sweep
from test_hilbert import affine_hilbert_value

TRIANGLE = ExponentMatrix.of([[1, 1, 0], [0, 1, 1], [1, 0, 1]])


@contextlib.contextmanager
def criterion(label):
    ok = False
    start = time.time()
    try:
        yield
        ok = True
    finally:
        verdict = "PASS" if ok else "FAIL"
        print(f"ACCEPTANCE {label}: {verdict} ({time.time() - start:.1f}s)")


def test_criterion_1_triangle_golden():
    with criterion("1 (q=5 triangle-set golden data)"):
        pset = enumerate_points(TRIANGLE, FieldSpec.of(5))
        assert len(pset) == 32

        gb_x = vanishing_ideal_affine(pset)
        assert sorted(gb_x.format(g) for g in gb_x.generators) == sorted([
            "t3^4 - 1", "t2^2*t3^2 - t1^2", "t1^2*t3^2 - t2^2",
            "t2^4 - 1", "t1^2*t2^2 - t3^2", "t1^4 - 1"])
        gb_y = vanishing_ideal_projective(gb_x)
        assert sorted(gb_y.format(g) for g in gb_y.generators) == sorted([
            "t3^4 - t4^4", "t2^2*t3^2 - t1^2*t4^2", "t1^2*t3^2 - t2^2*t4^2",
            "t2^4 - t4^4", "t1^2*t2^2 - t3^2*t4^2", "t1^4 - t4^4"])

        table = run_pipeline(pset, range(1, 6)).table
        assert [p.length for p in table] == [32] * 5
        assert [p.dimension for p in table] == [4, 10, 20, 29, 32]

        by_d = {p.d: p.min_distance for p in table}
        assert by_d[1].status == "exact" and by_d[1].value == 23
        assert by_d[2].status == "exact" and by_d[2].value == 8
        assert by_d[5].status == "weight_one" and by_d[5].value == 1


def test_criterion_2_torus_f11():
    with criterion("2 (q=11 torus golden table)"):
        q, s = 11, 2
        dims = [torus_dimension(q, s, d) for d in range(1, 14)]
        deltas = [torus_min_distance(q, s, d) for d in range(1, 14)]
        assert dims == [3, 6, 10, 15, 21, 28, 36, 45, 55, 64, 72, 79, 85]
        assert deltas == [90, 80, 70, 60, 50, 40, 30, 20, 10, 9, 8, 7, 6]

        pset = enumerate_points(ExponentMatrix.torus(s), FieldSpec.of(q))
        assert len(pset) == 100
        table = run_pipeline(pset, range(1, 14), md_budget=1400).table
        assert [p.length for p in table] == [100] * 13
        assert [p.dimension for p in table] == dims

        # brute-force distance cross-check at d = 1 (11^3 - 1 codewords)
        assert table[0].min_distance.status == "exact"
        assert table[0].min_distance.value == 90
        E1 = build_evaluation_matrix(pset, 1)
        assert brute_min_distance(E1.rep_rows(), pset.field) == 90


@pytest.mark.parametrize("q", [5, 7])
def test_criterion_3_reed_solomon(q):
    with criterion(f"3 (Reed-Solomon ladder, q={q})"):
        pset = enumerate_points(ExponentMatrix.torus(1), FieldSpec.of(q))
        degrees = list(range(1, q + 2))
        table = run_pipeline(pset, degrees).table
        for p in table:
            expect = q - 1 - p.d if p.d <= q - 3 else 1
            assert torus_min_distance(q, 1, p.d) == expect
            assert p.min_distance.status in ("exact", "weight_one")
            assert p.min_distance.value == expect
            # MDS whenever the distance is exact
            assert p.mds is True
            # independent oracle as a second route
            E = build_evaluation_matrix(pset, p.d)
            assert brute_min_distance(E.rep_rows(), pset.field) == expect


def _instance_zoo():
    yield "triangle-q5", enumerate_points(TRIANGLE, FieldSpec.of(5)), range(1, 6)
    yield "torus-q11-s2", enumerate_points(ExponentMatrix.torus(2),
                                           FieldSpec.of(11)), range(1, 14)
    yield "torus-q5-s1", enumerate_points(ExponentMatrix.torus(1),
                                          FieldSpec.of(5)), range(1, 7)
    yield "torus-q7-s1", enumerate_points(ExponentMatrix.torus(1),
                                          FieldSpec.of(7)), range(1, 9)
    yield "torus-q3-s2", enumerate_points(ExponentMatrix.torus(2),
                                          FieldSpec.of(3)), range(1, 6)
    yield "gf4-powers", enumerate_points(ExponentMatrix.of([[1], [2]]),
                                         field(4)), range(1, 4)
    yield "skew-q7", enumerate_points(ExponentMatrix.of([[2, 1], [1, 3]]),
                                      FieldSpec.of(7)), range(1, 5)


def test_criterion_4_bridge_invariants():
    with criterion("4 (rank = Hilbert = affine Hilbert; degree = |X*|)"):
        for name, pset, degrees in _instance_zoo():
            gb_x = vanishing_ideal_affine(pset)
            gb_y = vanishing_ideal_projective(gb_x)
            assert hilbert_profile(gb_y).degree_of_ring == len(pset), name
            for d in degrees:
                E = build_evaluation_matrix(pset, d)
                r = code_dimension(E)
                assert r == hilbert_value(gb_y, d), (name, d)
                assert r == affine_hilbert_value(gb_x, d), (name, d)


def test_criterion_5a_buchberger_postcondition():
    with criterion("5a (S-polynomials of every output reduce to zero)"):
        for name, pset, _ in _instance_zoo():
            gb_x = vanishing_ideal_affine(pset)
            gb_y = vanishing_ideal_projective(gb_x)
            assert polynomial_basis(gb_x).check_buchberger_criterion(), name
            assert polynomial_basis(gb_y).check_buchberger_criterion(), name


def test_criterion_5b_random_matrices_vanishing():
    with criterion("5b (20 random exponent matrices, generators vanish)"):
        rng = random.Random(20260810)
        checked = 0
        while checked < 20:
            q = rng.choice([2, 3, 4, 5, 7])
            n, s = rng.randint(1, 3), rng.randint(1, 3)
            rows = [[rng.randrange(max(q - 1, 2)) for _ in range(n)]
                    for _ in range(s)]
            pset = enumerate_points(ExponentMatrix.of(rows), field(q))
            gb = polynomial_basis(vanishing_ideal_affine(pset))
            assert gb.check_buchberger_criterion()
            for g in gb.generators:
                assert len(g.terms) == 2, (q, rows, str(g))
                for pt in pset.points.tolist():
                    assert not g.evaluate(pt), (q, rows, str(g))
            checked += 1
        assert checked == 20


def test_criterion_5c_singleton_and_monotonicity():
    with criterion("5c (Singleton bound and the two monotone laws)"):
        budgets = {"torus-q11-s2": 1400}
        for name, pset, degrees in _instance_zoo():
            table = run_pipeline(pset, degrees,
                                 md_budget=budgets.get(name, 20_000_000)).table
            dims = [p.dimension for p in table]
            assert dims == sorted(dims), name
            assert all(p.dimension <= p.length for p in table), name
            exact = [p.min_distance.value for p in table
                     if p.min_distance.value is not None]
            assert exact == sorted(exact, reverse=True), name
            for p in table:
                v = p.min_distance.value
                if v is not None:
                    assert 1 <= v <= p.length - p.dimension + 1, (name, p.d)


def test_criterion_5d_low_degree_vanishing_lemma():
    with criterion("5d (nonzero low-degree polynomials have nonzero values)"):
        samples = 0
        for q, n in [(3, 1), (3, 2), (4, 2), (5, 1), (5, 2)]:
            spec = field(q)
            units = range(1, q)
            ring = RingContext(spec, tuple(f"y{i+1}" for i in range(n)))
            rng = random.Random(1000 * q + n)
            exps = list(itertools.product(range(q - 1), repeat=n))
            points = list(itertools.product(units, repeat=n))
            for _ in range(220):
                terms = {rng.choice(exps): rng.randrange(1, q)
                         for _ in range(rng.randrange(1, 5))}
                f = Polynomial(ring, terms)
                if not f:
                    continue
                samples += 1
                assert any(f.evaluate(pt) for pt in points), str(f)
        assert samples >= 1000


def test_criterion_5e_weight_distribution_scaling():
    with criterion("5e (weight distribution invariant under column scaling)"):
        cases = [
            (enumerate_points(TRIANGLE, FieldSpec.of(5)), 1),        # 5^4
            (enumerate_points(ExponentMatrix.torus(2), FieldSpec.of(5)), 1),
            (enumerate_points(ExponentMatrix.torus(1), FieldSpec.of(7)), 3),
            (enumerate_points(ExponentMatrix.torus(2), field(4)), 1),
            (enumerate_points(ExponentMatrix.torus(2), FieldSpec.of(3)), 2),
        ]
        for pset, d in cases:
            E = build_evaluation_matrix(pset, d)
            k = code_dimension(E)
            assert pset.field.order ** k <= 100_000
            scaled = scaled_rows(E, d)
            assert brute_weight_distribution(E.rows, pset.field) == \
                brute_weight_distribution(scaled, pset.field)
            assert minimum_distance(E).value == sweep(pset.field, scaled)
