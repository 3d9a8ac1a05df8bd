import itertools
import random
from unittest import mock

import numpy as np
import pytest

from paramcodes import ideals
from paramcodes.cli import main
from paramcodes.errors import DomainError, ResourceLimitError
from paramcodes.gf import FieldSpec
from paramcodes.ideals import (
    ExponentMatrix,
    class_walk,
    enumerate_points,
    vanishing_ideal_affine,
    vanishing_ideal_projective,
)
from paramcodes.linalg import rref

from conftest import field
from groebner import normal_form
from mpoly import GrevLex, Polynomial, RingContext
from oracles import evaluation_rows, point_interpolation_ideal, polynomial_basis

F5 = FieldSpec.of(5)


def test_matrix_validation():
    with pytest.raises(DomainError):
        ExponentMatrix.of([])
    with pytest.raises(DomainError, match="row 2"):
        ExponentMatrix.of([[1, 0], [1]])
    with pytest.raises(DomainError, match="row 1"):
        ExponentMatrix.of([[-1, 0]])
    m = ExponentMatrix.of([[1, 1, 0], [0, 1, 1]])
    assert (m.s, m.n) == (2, 3)


def test_enumerate_triangle_set(triangle_set):
    assert len(triangle_set) == 32
    # one read-only int array; all coordinates are units; points
    # deduplicated and sorted
    points = triangle_set.points
    assert points.shape == (32, 3) and not points.flags.writeable
    assert points.all()
    rows = points.tolist()
    assert rows == sorted(rows)
    assert len(set(map(tuple, rows))) == 32
    # projective lift is bijective
    projective = [tuple(pt) + (1,) for pt in rows]
    assert len(set(projective)) == 32


@pytest.mark.parametrize("q,s", [(5, 2), (3, 3), (11, 2)])
def test_enumerate_torus_full_size(q, s):
    pset = enumerate_points(ExponentMatrix.torus(s), field(q))
    assert len(pset) == (q - 1) ** s


def test_enumerate_binary_field_single_point():
    pset = enumerate_points(ExponentMatrix.of([[1, 1], [1, 0]]), FieldSpec.of(2))
    assert len(pset) == 1
    assert pset.points.tolist() == [[1, 1]]


def test_enumeration_budget():
    with mock.patch.object(ideals, "DEFAULT_ENUMERATION_BUDGET", 1000), \
            pytest.raises(ResourceLimitError, match="enumeration budget 1000"):
        enumerate_points(ExponentMatrix.of([[1, 1, 1]]), FieldSpec.of(101))


@pytest.mark.parametrize("q, rows", [
    (13, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
    (9, [[2, 2], [3, 0], [0, 0]]),
    (257, [[2 * i] for i in range(1, 9)]),  # 257^8 > 2^63: codes as Python ints
], ids=["torus-gf13", "repeats-gf9", "wide-codes-gf257"])
def test_enumeration_sorts_and_dedupes(q, rows):
    spec = field(q)
    pset = enumerate_points(ExponentMatrix.of(rows), spec)
    expected = set()
    for x in itertools.product(range(1, q), repeat=len(rows[0])):
        point = []
        for row in rows:
            value = 1
            for xj, e in zip(x, row):
                value = spec.mul(value, spec.pow(xj, e))
            point.append(value)
        expected.add(tuple(point))
    assert pset.points.tolist() == sorted(map(list, expected))
    assert pset.points.dtype == np.int64 and not pset.points.flags.writeable


def test_class_table_budget():
    # the table holds (q-1)^n entries and is checked before anything is
    # allocated: 65536^4 = 2^64 entries could not be allocated at all
    with mock.patch.object(np, "full", side_effect=AssertionError("allocated")), \
            pytest.raises(ResourceLimitError, match="class table budget"):
        class_walk(ExponentMatrix.of([[1, 1, 1, 1]]), 65537)
    torus = ExponentMatrix.torus(2)
    with mock.patch.object(ideals, "DEFAULT_ENUMERATION_BUDGET", 143), \
            pytest.raises(ResourceLimitError, match="144 exponent classes"):
        class_walk(torus, 13)
    with mock.patch.object(ideals, "DEFAULT_ENUMERATION_BUDGET", 144):
        assert sum(map(len, class_walk(torus, 13)[1])) == 144
        # a set walks under the limit that admitted its enumeration
        pset = enumerate_points(torus, field(13))
        with mock.patch.object(ideals, "class_walk", wraps=ideals.class_walk) as walk:
            assert len(pset.affine_basis.generators) == 2
    walk.assert_called_once_with(torus, 13)


def test_affine_ideal_golden(triangle_set):
    gb = vanishing_ideal_affine(triangle_set)
    printed = sorted(gb.format(g) for g in gb.generators)
    assert printed == sorted([
        "t3^4 - 1",
        "t2^2*t3^2 - t1^2",
        "t1^2*t3^2 - t2^2",
        "t2^4 - 1",
        "t1^2*t2^2 - t3^2",
        "t1^4 - 1",
    ])


CYCLE_GF7 = ["--q", "7", "--matrix", "1 1 0 0; 0 1 1 0; 0 0 1 1; 1 0 0 1"]


def test_cycle_ideal_golden(capsys):
    # recorded from the general Buchberger elimination
    assert main(["ideal", "xstar", *CYCLE_GF7]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "t1*t3 - t2*t4",
        "t4^6 - 1",
        "t3^6 - 1",
        "t2*t3^5 - t1*t4^5",
        "t2^2*t3^4 - t1^2*t4^4",
        "t2^3*t3^3 - t1^3*t4^3",
        "t2^4*t3^2 - t1^4*t4^2",
        "t2^5*t3 - t1^5*t4",
        "t2^6 - 1",
        "t1*t2^5 - t3^5*t4",
        "t1^2*t2^4 - t3^4*t4^2",
        "t1^3*t2^3 - t3^3*t4^3",
        "t1^4*t2^2 - t3^2*t4^4",
        "t1^5*t2 - t3*t4^5",
        "t1^6 - 1",
    ]
    assert main(["ideal", "y", *CYCLE_GF7]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "t1*t3 - t2*t4",
        "t4^6 - t5^6",
        "t3^6 - t5^6",
        "t2*t3^5 - t1*t4^5",
        "t2^2*t3^4 - t1^2*t4^4",
        "t2^3*t3^3 - t1^3*t4^3",
        "t2^4*t3^2 - t1^4*t4^2",
        "t2^5*t3 - t1^5*t4",
        "t2^6 - t5^6",
        "t1*t2^5 - t3^5*t4",
        "t1^2*t2^4 - t3^4*t4^2",
        "t1^3*t2^3 - t3^3*t4^3",
        "t1^4*t2^2 - t3^2*t4^4",
        "t1^5*t2 - t3*t4^5",
        "t1^6 - t5^6",
    ]


def test_affine_ideal_torus_one_dim():
    for q in (3, 5, 7):
        pset = enumerate_points(ExponentMatrix.of([[1]]), FieldSpec.of(q))
        gb = vanishing_ideal_affine(pset)
        assert [gb.format(g) for g in gb.generators] == [f"t1^{q-1} - 1"]


def test_affine_generators_vanish_everywhere(triangle_set):
    gb = polynomial_basis(vanishing_ideal_affine(triangle_set))
    for g in gb.generators:
        for pt in triangle_set.points.tolist():
            assert not g.evaluate(pt)


def test_projective_ideal_golden(triangle_set):
    gb_x = vanishing_ideal_affine(triangle_set)
    gb_y = vanishing_ideal_projective(gb_x)
    printed = sorted(gb_y.format(g) for g in gb_y.generators)
    assert printed == sorted([
        "t3^4 - t4^4",
        "t2^2*t3^2 - t1^2*t4^2",
        "t1^2*t3^2 - t2^2*t4^2",
        "t2^4 - t4^4",
        "t1^2*t2^2 - t3^2*t4^2",
        "t1^4 - t4^4",
    ])
    for g in polynomial_basis(gb_y).generators:
        for pt in triangle_set.points.tolist():
            assert not g.evaluate(pt + [1])


def test_projective_ideal_torus():
    pset = enumerate_points(ExponentMatrix.of([[1]]), FieldSpec.of(7))
    gb_y = vanishing_ideal_projective(vanishing_ideal_affine(pset))
    assert [gb_y.format(g) for g in gb_y.generators] == ["t1^6 - t2^6"]


def test_interpolation_oracle_single_point():
    pset = enumerate_points(ExponentMatrix.of([[1, 1], [2, 2]]), FieldSpec.of(2))
    assert len(pset) == 1  # the all-ones point
    polys = point_interpolation_ideal(pset, 1)
    lin = {f.format(GrevLex()) for f in polys if f.degree() == 1}
    # degree-1 vanishing polynomials include t1 - 1 and t2 - 1 (char 2: "+")
    assert "t1 + 1" in lin and "t2 + 1" in lin


def test_interpolation_kernel_dimension_matches_hilbert(triangle_set):
    # kernel dim of the degree-<=4 evaluation pairing = C(7,3) - H_Y(4)
    from paramcodes.hilbert import hilbert_value

    gb_y = vanishing_ideal_projective(vanishing_ideal_affine(triangle_set))
    ring = RingContext(F5, ("t1", "t2", "t3"))
    monos, rows = evaluation_rows(triangle_set, 4, ring)
    assert len(monos) == 35
    eval_rank = len(rref(rows, F5)[1])
    polys = point_interpolation_ideal(triangle_set, 4)
    assert len(polys) == 35 - eval_rank
    assert len(polys) == 35 - hilbert_value(gb_y, 4)


def test_interpolation_oracle_torus_q3():
    pset = enumerate_points(ExponentMatrix.torus(2), FieldSpec.of(3))
    assert len(pset) == 4
    polys = point_interpolation_ideal(pset, 2)
    for f in polys:
        for pt in pset.points.tolist():
            assert not f.evaluate(pt)
    # t1^2 - 1 and t2^2 - 1 vanish and must lie in the oracle's span
    spec = pset.field
    ring = polys[0].ring
    monos, _ = evaluation_rows(pset, 2, ring)
    index = {m: i for i, m in enumerate(monos)}
    kernel_rows = []
    for f in polys:
        row = [0] * len(monos)
        for m, c in f.terms.items():
            row[index[m]] = c
        kernel_rows.append(row)
    kernel_rank = len(rref(kernel_rows, spec)[1])
    for target in ({(2, 0): 1, (0, 0): -1}, {(0, 2): 1, (0, 0): -1}):
        vec = [0] * len(monos)
        for m, c in target.items():
            vec[index[m]] = c % spec.order
        # in the row space iff adjoining it leaves the rank unchanged
        assert len(rref(kernel_rows + [vec], spec)[1]) == kernel_rank


def test_zero_membership_both_directions():
    # forward: normal form zero -> vanishes; backward: vanishes -> nf zero
    pset = enumerate_points(ExponentMatrix.of([[1, 1]]), F5)
    gb = polynomial_basis(vanishing_ideal_affine(pset))
    rng = random.Random(5)
    ring = gb.ring
    for _ in range(40):
        terms = {(rng.randrange(6),): rng.randrange(5)
                 for _ in range(rng.randrange(1, 4))}
        f = Polynomial(ring, terms)
        vanishes = all(not f.evaluate(pt) for pt in pset.points.tolist())
        assert (not normal_form(f, gb)) == vanishes
    # backward direction on oracle-built members
    for g in point_interpolation_ideal(pset, 5):
        assert not normal_form(g, gb)


@pytest.mark.parametrize("q,n", [(3, 1), (3, 2), (4, 2), (5, 1), (5, 2)])
def test_low_degree_vanishing_forces_zero(q, n):
    # a nonzero polynomial with every per-variable degree < q-1 cannot
    # vanish on the whole unit torus: exhaustive over >= 250 samples each
    spec = field(q)
    units = range(1, q)
    ring = RingContext(spec, tuple(f"y{i+1}" for i in range(n)))
    rng = random.Random(q * 100 + n)
    exps = list(itertools.product(range(q - 1), repeat=n))
    for _ in range(250):
        terms = {}
        for _ in range(rng.randrange(1, 5)):
            m = rng.choice(exps)
            c = rng.randrange(1, q)
            terms[m] = c
        f = Polynomial(ring, terms)
        if not f:
            continue
        assert any(f.evaluate(pt) for pt in itertools.product(units, repeat=n))
