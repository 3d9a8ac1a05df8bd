import random

import pytest
from hypothesis import given, settings, strategies as st

from paramcodes.errors import DomainError
from paramcodes.gf import FieldSpec
from paramcodes.hilbert import standard_monomials
from paramcodes.ideals import (
    ExponentMatrix,
    enumerate_points,
    vanishing_ideal_affine,
    vanishing_ideal_projective,
)

from conftest import field
from groebner import (
    GroebnerBasis,
    buchberger,
    eliminate,
    homogenize_basis,
    normal_form,
    s_polynomial,
)
from mpoly import GrevLex, Lex, Polynomial, RingContext, append_variable, divide, reduce_mod
from oracles import (
    binomial_basis,
    lattice_basis,
    lattice_generators,
    lattice_relations,
    paper_elimination,
    polynomial_basis,
    relation_ideal_generators,
    relation_ring,
)

F5 = FieldSpec.of(5)


def ring(names, spec=F5):
    return RingContext(spec, tuple(names.split()))


def poly(r, termdict):
    return Polynomial(r, {m: c % r.field.order for m, c in termdict.items()})


def triangle_relations():
    matrix = ExponentMatrix.of([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    big = relation_ring(matrix, F5)
    return matrix, big, relation_ideal_generators(matrix, F5, big)


def golden_affine_basis(r):
    """The six binomials of the q=5 triangle-set vanishing ideal."""
    return {
        poly(r, {(0, 0, 4): 1, (0, 0, 0): -1}),
        poly(r, {(0, 2, 2): 1, (2, 0, 0): -1}),
        poly(r, {(2, 0, 2): 1, (0, 2, 0): -1}),
        poly(r, {(0, 4, 0): 1, (0, 0, 0): -1}),
        poly(r, {(2, 2, 0): 1, (0, 0, 2): -1}),
        poly(r, {(4, 0, 0): 1, (0, 0, 0): -1}),
    }


def golden_projective_basis(r):
    return {
        poly(r, {(0, 0, 4, 0): 1, (0, 0, 0, 4): -1}),
        poly(r, {(0, 2, 2, 0): 1, (2, 0, 0, 2): -1}),
        poly(r, {(2, 0, 2, 0): 1, (0, 2, 0, 2): -1}),
        poly(r, {(0, 4, 0, 0): 1, (0, 0, 0, 4): -1}),
        poly(r, {(2, 2, 0, 0): 1, (0, 0, 2, 2): -1}),
        poly(r, {(4, 0, 0, 0): 1, (0, 0, 0, 4): -1}),
    }


def test_s_polynomial_identical_and_coprime():
    r = ring("t1 t2")
    f = poly(r, {(2, 0): 1, (0, 1): -1})
    assert not s_polynomial(f, f, Lex())
    # coprime leading monomials: S-polynomial reduces to zero mod {f, g}
    g = poly(r, {(0, 3): 1, (0, 0): 2})
    s = s_polynomial(f, g, Lex())
    assert not reduce_mod(s, [f, g], Lex())
    with pytest.raises(DomainError):
        s_polynomial(f, r.zero(), Lex())


def test_s_polynomial_hand_example():
    # f = t1^2 - t2, g = t1 t2 - 1 under lex: S = t1 - t2^2
    r = ring("t1 t2")
    f = poly(r, {(2, 0): 1, (0, 1): -1})
    g = poly(r, {(1, 1): 1, (0, 0): -1})
    s = s_polynomial(f, g, Lex())
    assert s == poly(r, {(1, 0): 1, (0, 2): -1})
    # cross-check via division: t2*f - t1*g reproduces the same combination
    lhs = poly(r, {(0, 1): 1}) * f - poly(r, {(1, 0): 1}) * g
    assert s == lhs


def test_buchberger_idempotent_on_reduced_basis():
    r = ring("t1 t2")
    g1 = poly(r, {(1, 0): 1, (0, 1): -1})
    g2 = poly(r, {(0, 2): 1, (0, 0): -1})
    gb = buchberger([g1, g2], Lex())
    assert set(gb.generators) == {g1, g2}
    again = buchberger(list(gb.generators), Lex())
    assert again.generators == gb.generators


def test_buchberger_unit_ideal():
    r = ring("t1")
    gb = buchberger([poly(r, {(1,): 1, (0,): -1}), r.var(0)], Lex())
    assert gb.generators == (r.one(),)


def test_buchberger_zero_ideal():
    r = ring("t1")
    gb = buchberger([r.zero(), r.zero()], Lex())
    assert gb.generators == ()
    assert normal_form(r.var(0), gb) == r.var(0)


def test_buchberger_permutation_independence():
    matrix, big, gens = triangle_relations()
    base = eliminate(gens, big, matrix.n)
    for seed in (1, 2, 3):
        rng = random.Random(seed)
        shuffled = list(gens)
        rng.shuffle(shuffled)
        other = eliminate(shuffled, big, matrix.n)
        assert other.generators == base.generators


def test_elimination_golden_triangle():
    matrix, big, gens = triangle_relations()
    gb = eliminate(gens, big, matrix.n)
    assert set(gb.generators) == golden_affine_basis(gb.ring)
    assert gb.ring.names == ("t1", "t2", "t3")
    assert gb.check_buchberger_criterion()
    # binomials throughout
    assert all(len(g.terms) == 2 for g in gb.generators)


def test_eliminate_contract():
    r = ring("y1 t1")
    gens = [poly(r, {(1, 0): 1, (0, 1): -1})]
    with pytest.raises(DomainError):
        eliminate(gens, r, 2)
    full = eliminate(gens, r, 0)
    assert full.ring == r and len(full) == 1
    # generators independent of the eliminated block survive in the subring
    g = poly(r, {(0, 2): 1, (0, 0): -1})
    sub = eliminate([g], r, 1)
    assert sub.ring.names == ("t1",)
    assert [p.format(GrevLex()) for p in sub.generators] == ["t1^2 - 1"]


def test_normal_form_membership(triangle_set):
    gb = polynomial_basis(vanishing_ideal_affine(triangle_set))
    for g in gb.generators:
        assert not normal_form(g, gb)
    assert normal_form(gb.ring.one(), gb) == gb.ring.one()
    # product of members stays inside the ideal
    member = poly(gb.ring, {(0, 2, 2): 1, (2, 0, 0): -1})
    multiplier = poly(gb.ring, {(0, 0, 2): 1})
    assert not normal_form(member * multiplier, gb)


def test_homogenize_basis_golden(triangle_set):
    gb_x = vanishing_ideal_affine(triangle_set)
    gb_y = polynomial_basis(vanishing_ideal_projective(gb_x))
    assert set(gb_y.generators) == golden_projective_basis(gb_y.ring)
    assert all(g.is_homogeneous() for g in gb_y.generators)


def test_homogenize_basis_fixed_points():
    # an already-homogeneous generator (no occurrence of u) is unchanged
    r3 = ring("t1 t2 u")
    f = poly(r3, {(2, 0, 0): 1, (1, 1, 0): -1})
    gb = GroebnerBasis((f,), GrevLex(), r3, is_reduced=True)
    assert homogenize_basis(gb, 2).generators == (f,)
    # t1 - 1 becomes t1 - u
    r = ring("t1 u")
    g = poly(r, {(1, 0): 1, (0, 0): -1})
    gb = GroebnerBasis((g,), GrevLex(), r, is_reduced=True)
    out = homogenize_basis(gb, 1)
    assert out.generators == (poly(r, {(1, 0): 1, (0, 1): -1}),)


def test_homogenize_basis_rejects_used_variable():
    r = ring("t1 u")
    f = poly(r, {(1, 1): 1, (0, 0): -1})
    gb = GroebnerBasis((f,), GrevLex(), r, is_reduced=True)
    with pytest.raises(DomainError):
        homogenize_basis(gb, 1)


def test_buchberger_criterion_random_small_ideals():
    rng = random.Random(99)
    r = ring("t1 t2 t3")
    for _ in range(8):
        gens = []
        for _ in range(rng.randrange(2, 4)):
            terms = {tuple(rng.randrange(3) for _ in range(3)):
                     rng.randrange(1, 5)
                     for _ in range(rng.randrange(1, 4))}
            gens.append(poly(r, terms))
        gb = buchberger(gens, GrevLex())
        assert gb.check_buchberger_criterion()
        for g in gens:
            assert not normal_form(g, gb)


def test_buchberger_matches_sympy_groebner():
    # the chain criterion prunes pairs; the reduced basis must still be
    # sympy's, generator for generator
    import sympy

    _, big, gens = triangle_relations()
    gb = buchberger(gens, GrevLex())
    assert gb.check_buchberger_criterion()
    symbols = sympy.symbols(big.names)
    exprs = [sum(c * sympy.prod(v**e for v, e in zip(symbols, m))
                 for m, c in g.terms.items()) for g in gens]
    reference = sympy.groebner(exprs, *symbols, modulus=5, order="grevlex")
    expected = {frozenset((m, int(c) % 5) for m, c in f.terms())
                for f in reference.polys}
    got = {frozenset(g.terms.items())
           for g in gb.generators}
    assert len(gb) == len(reference.polys)
    assert got == expected


def test_division_consistency_of_normal_form():
    # normal form agrees with the raw division remainder for a known basis
    r = ring("t1 t2")
    g1 = poly(r, {(1, 0): 1, (0, 1): -1})
    g2 = poly(r, {(0, 2): 1, (0, 0): -1})
    gb = buchberger([g1, g2], Lex())
    f = poly(r, {(3, 2): 2, (1, 0): 1, (0, 0): 4})
    _, rem = divide(f, list(gb.generators), Lex())
    assert normal_form(f, gb) == rem


@st.composite
def relation_instances(draw):
    """An exponent matrix (s <= 4, n <= 3, entries <= 3), often with a zero
    row or a repeated row, over a small prime or extension field."""
    q = draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9]))
    n = draw(st.integers(1, 3))
    rows = draw(st.lists(st.lists(st.integers(0, 3), min_size=n, max_size=n),
                         min_size=1, max_size=4))
    if len(rows) < 4 and draw(st.booleans()):
        rows.append([0] * n)
    if len(rows) < 4 and draw(st.booleans()):
        rows.append(list(draw(st.sampled_from(rows))))
    order = draw(st.permutations(range(len(rows))))
    return q, [rows[i] for i in order]


@settings(max_examples=60, deadline=None)
@given(relation_instances())
def test_lattice_basis_matches_paper_elimination(instance):
    # prime and extension fields, q = 2, zero and repeated rows, s > n; the
    # class walk's basis is the lattice route's and the paper's elimination's
    q, rows = instance
    matrix, spec = ExponentMatrix.of(rows), field(q)
    for a in lattice_generators(matrix, q):
        assert any(a) and all(0 <= x < q - 1 for x in a)
        assert all(sum(x * v for x, v in zip(a, col)) % (q - 1) == 0
                   for col in zip(*rows))
    pset = enumerate_points(matrix, spec)
    expected = paper_elimination(matrix, spec)
    for got in (lattice_basis(matrix, spec), polynomial_basis(pset.affine_basis)):
        assert got.generators == expected.generators
        assert (got.ring, got.order, got.is_reduced) == (expected.ring, expected.order, True)
    # Delta of the walk is the basis's, level by level
    walked = standard_monomials(pset.affine_basis.leads, matrix.s)
    assert [set(map(tuple, level.tolist())) for level in pset.standard_monomials] == \
        [set(map(tuple, level.tolist())) for level in walked]
    assert sum(map(len, walked)) == len(pset)


@settings(max_examples=60, deadline=None)
@given(relation_instances())
def test_binomial_bases_print_and_homogenize_like_the_engine(instance):
    # the package formats and homogenizes its (lead, tail) pairs itself: the
    # lines must be the engine's for the paper's elimination and for its
    # homogenization, which meets the Buchberger criterion
    q, rows = instance
    matrix, spec = ExponentMatrix.of(rows), field(q)
    gb_x = enumerate_points(matrix, spec).affine_basis
    gb_y = vanishing_ideal_projective(gb_x)
    expected = paper_elimination(matrix, spec)
    assert [gb_x.format(g) for g in gb_x] == [g.format(GrevLex()) for g in expected]
    ring = expected.ring.with_extra_variable(f"t{matrix.s + 1}")
    lifted = GroebnerBasis(tuple(append_variable(g, ring) for g in expected),
                           GrevLex(), ring)
    homogenized = homogenize_basis(lifted, matrix.s)
    assert [gb_y.format(g) for g in gb_y] == [g.format(GrevLex()) for g in homogenized]
    assert polynomial_basis(gb_y).generators == homogenized.generators
    assert polynomial_basis(gb_y).check_buchberger_criterion()


@settings(max_examples=60, deadline=None)
@given(relation_instances(), st.data())
def test_binomial_basis_matches_eliminate(instance, data):
    q, rows = instance
    matrix, spec = ExponentMatrix.of(rows), field(q)
    # the lattice ideal in t, or the relation ideal in y and t
    if data.draw(st.booleans(), label="relation ideal"):
        r = relation_ring(matrix, spec)
        gens = relation_ideal_generators(matrix, spec, r)
    else:
        r, gens = lattice_relations(matrix, spec)
    expected = eliminate(gens, r, 0)
    # generator order and the sign of each binomial do not matter
    shuffled = data.draw(st.permutations(gens), label="order")
    signs = data.draw(st.lists(st.booleans(), min_size=len(gens),
                               max_size=len(gens)), label="negate")
    got = binomial_basis([-g if flip else g for g, flip in zip(shuffled, signs)], r)
    assert got.generators == expected.generators
    assert (got.ring, got.order, got.is_reduced) == (r, GrevLex(), True)


def test_binomial_basis_contract():
    r = ring("y1 t1")
    for terms in ({(0, 1): 1},                          # a monomial
                  {(1, 0): 1, (0, 1): -1, (0, 0): 1},   # three terms
                  {(1, 0): 2, (0, 1): -2},              # x^a - x^b times 2
                  {(1, 0): 1, (0, 1): 1},               # a sum, not a difference
                  {(1, 0): 1, (0, 1): -2}):
        with pytest.raises(DomainError):
            binomial_basis([poly(r, terms)], r)
    g = poly(r, {(1, 0): 1, (0, 1): -1})
    with pytest.raises(DomainError):
        binomial_basis([g], ring("y1 t2"))
    # zero generators are skipped
    assert binomial_basis([r.zero()], r).generators == ()
    assert binomial_basis([r.zero(), g], r).generators == eliminate([g], r, 0).generators
    # in characteristic 2, x^a + x^b is x^a - x^b
    r2 = ring("y1 t1", FieldSpec.of(2))
    gens = [poly(r2, {(1, 0): 1, (0, 1): 1}), poly(r2, {(1, 0): 1, (0, 0): 1})]
    assert binomial_basis(gens, r2).generators == eliminate(gens, r2, 0).generators
    assert [p.format() for p in binomial_basis(gens, r2)] == ["t1 + 1", "y1 + 1"]
