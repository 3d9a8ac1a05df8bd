import itertools
import random

import pytest

from paramcodes.errors import DomainError
from paramcodes.gf import FieldSpec

from conftest import field
from mpoly import (
    BlockElim,
    GrevLex,
    Lex,
    Polynomial,
    RingContext,
    dehomogenize,
    divide,
    homogenize,
    mono_mul,
    monomials_of_degree,
    monomials_up_to_degree,
    reduce_mod,
)

F5 = FieldSpec.of(5)


def ring(names, spec=F5):
    return RingContext(spec, tuple(names.split()))


def poly(r, termdict):
    return Polynomial(r, {m: c % r.field.order for m, c in termdict.items()})


def test_add_cancellation():
    r = ring("t1 t2")
    f = poly(r, {(1, 0): 1, (0, 1): 1})
    g = poly(r, {(0, 1): -1})
    assert f + g == r.var(0)


def test_product_difference_of_squares():
    r = ring("t1")
    f = poly(r, {(1,): 1, (0,): -1})
    g = poly(r, {(1,): 1, (0,): 1})
    assert f * g == poly(r, {(2,): 1, (0,): -1})


def test_mul_by_zero_annihilates():
    r = ring("t1 t2")
    f = poly(r, {(2, 1): 3, (0, 0): 4})
    assert f * r.zero() == r.zero()
    assert not f * 0


def test_ring_mismatch_rejected():
    r1, r2 = ring("t1"), ring("u1")
    with pytest.raises(DomainError):
        r1.var(0) + r2.var(0)
    with pytest.raises(DomainError):
        r1.var(0) * ring("t1", FieldSpec.of(7)).var(0)


def test_leading_term_by_order():
    r = ring("t1 t2")
    f = poly(r, {(2, 1): 1, (0, 3): 1})
    assert f.leading_monomial(Lex()) == (2, 1)
    assert f.leading_monomial(GrevLex()) == (2, 1)  # same degree, t1^2t2 wins
    c = poly(r, {(0, 0): 3})
    assert c.leading_term(GrevLex()) == ((0, 0), 3)
    assert r.constant(8) == c == r.monomial((0, 0), -2)  # ints taken mod q
    r4 = ring("t1 t2 t3 t4")
    f = poly(r4, {(0, 0, 4, 0): 1, (0, 0, 0, 4): -1})
    assert f.leading_monomial(GrevLex()) == (0, 0, 4, 0)
    with pytest.raises(DomainError):
        r.zero().leading_term(GrevLex())


def test_divide_drops_high_y_degree():
    # dividing by y^(q-1) - 1 leaves a remainder of per-variable degree < q-1
    q = 5
    r = ring("y1")
    relation = poly(r, {(q - 1,): 1, (0,): -1})
    f = poly(r, {(13,): 2, (7,): 1, (2,): 3})
    quotients, rem = divide(f, [relation], Lex())
    assert all(m[0] < q - 1 for m in rem.terms)
    assert quotients[0] * relation + rem == f


def test_divide_groebner_member_has_zero_remainder():
    r = ring("t1 t2")
    # {t1 - t2, t2^2 - 1} is a lex Groebner basis (coprime leading monomials)
    g1 = poly(r, {(1, 0): 1, (0, 1): -1})
    g2 = poly(r, {(0, 2): 1, (0, 0): -1})
    member = g1 * poly(r, {(1, 1): 2}) + g2 * poly(r, {(0, 3): 1})
    _, rem = divide(member, [g1, g2], Lex())
    assert not rem


def test_divide_unrelated_divisor():
    r = ring("t1 t2")
    quotients, rem = divide(r.var(0), [r.var(1)], Lex())
    assert not quotients[0]
    assert rem == r.var(0)


def test_divide_empty_list_and_zero_divisor():
    r = ring("t1")
    quotients, rem = divide(r.var(0), [], Lex())
    assert quotients == [] and rem == r.var(0)
    with pytest.raises(DomainError):
        divide(r.var(0), [r.zero()], Lex())


def test_divide_reassembly_random():
    rng = random.Random(7)
    r = ring("t1 t2 t3")
    order = GrevLex()
    for _ in range(25):
        def rand_poly(maxterms):
            return poly(r, {
                tuple(rng.randrange(4) for _ in range(3)): rng.randrange(1, 5)
                for _ in range(rng.randrange(1, maxterms + 1))})
        f = rand_poly(6)
        divisors = [rand_poly(3) for _ in range(rng.randrange(1, 4))]
        divisors = [g for g in divisors if g]
        if not divisors:
            continue
        quotients, rem = divide(f, divisors, order)
        acc = rem
        for qi, gi in zip(quotients, divisors):
            acc = acc + qi * gi
        assert acc == f
        lms = [g.leading_monomial(order) for g in divisors]
        assert all(not any(
            all(x <= y for x, y in zip(lm, m)) for lm in lms)
            for m in rem.terms)


def test_homogenize_golden_values():
    r = ring("t1 t2 t3 t4")
    f = poly(r, {(0, 2, 2, 0): 1, (2, 0, 0, 0): -1})
    h = homogenize(f, 4, 3)
    assert h == poly(r, {(0, 2, 2, 0): 1, (2, 0, 0, 2): -1})
    g = poly(r, {(4, 0, 0, 0): 1, (0, 0, 0, 0): -1})
    assert homogenize(g, 4, 3) == poly(r, {(4, 0, 0, 0): 1, (0, 0, 0, 4): -1})
    c = poly(r, {(0, 0, 0, 0): 2})
    assert homogenize(c, 3, 3) == poly(r, {(0, 0, 0, 3): 2})


def test_homogenize_contract():
    r = ring("t1 u")
    f = poly(r, {(3, 0): 1, (1, 0): 1})
    with pytest.raises(DomainError):
        homogenize(f, 2, 1)  # target below degree
    with pytest.raises(DomainError):
        homogenize(poly(r, {(0, 1): 1}), 2, 1)  # u already present
    h = homogenize(f, 3, 1)
    assert h.is_homogeneous()
    assert dehomogenize(h, 1) == f


def test_evaluate():
    r = ring("t1 t2")
    f = poly(r, {(1, 1): 1, (0, 0): -1})
    assert not f.evaluate([2, 3])
    g = poly(r, {(2, 0): 3, (1, 1): 1, (0, 0): 2})
    assert g.evaluate([1, 1]) == (3 + 1 + 2) % 5
    with pytest.raises(DomainError):
        f.evaluate([1])


def test_evaluate_vanishing_on_parameterized_points(f5):
    # t3^4 - 1 vanishes on every point of the q=5 triangle set: exhaustive
    r = ring("t1 t2 t3")
    f = poly(r, {(0, 0, 4): 1, (0, 0, 0): -1})
    for x1, x2, x3 in itertools.product(range(1, 5), repeat=3):
        pt = [f5.mul(x1, x2), f5.mul(x2, x3), f5.mul(x1, x3)]
        assert not f.evaluate(pt)


ORDERS = [Lex(), GrevLex(), BlockElim(3)]


@pytest.mark.parametrize("order", ORDERS, ids=lambda o: type(o).__name__)
def test_order_laws_random(order):
    rng = random.Random(42)
    nvars = 8
    one = (0,) * nvars
    for _ in range(300):
        a, b, c = (tuple(rng.randrange(21) for _ in range(nvars))
                   for _ in range(3))
        ka, kb = order.key(a), order.key(b)
        # totality with equality only for equal tuples
        assert (ka > kb) + (ka < kb) + (a == b) == 1
        # multiplicative: a > b implies a+c > b+c
        if ka > kb:
            assert order.key(mono_mul(a, c)) > order.key(mono_mul(b, c))
        # 1 is minimal
        if a != one:
            assert order.key(a) > order.key(one)


def test_grevlex_tie_break():
    # same degree: the smaller final exponents win
    g = GrevLex()
    assert g.key((2, 0)) > g.key((1, 1))
    assert g.key((1, 1)) > g.key((0, 2))


def test_block_elim_dominates_on_first_block():
    order = BlockElim(2)
    inside = (0, 1, 0, 0)      # involves the eliminated block
    outside = (0, 0, 7, 9)     # free of it
    assert order.key(inside) > order.key(outside)


def test_monomial_enumeration():
    assert len(list(monomials_of_degree(3, 4))) == 15  # C(4+2, 2)
    ups = monomials_up_to_degree(2, 3)
    assert len(ups) == 10  # C(3+2, 2)
    keys = [GrevLex().key(m) for m in ups]
    assert keys == sorted(keys)
    # listed in GrevLex order without sorting: the engine's order on four
    # variables, from a degree above zero
    ups = monomials_up_to_degree(4, 5, lowest=2)
    assert ups == sorted(set(ups), key=GrevLex().key)
    assert len(ups) == 10 + 20 + 35 + 56  # C(d+3, 3) for d = 2..5


def test_format():
    r = ring("t1 t2 t3 t4")
    f = poly(r, {(0, 0, 4, 0): 1, (0, 0, 0, 4): -1})
    assert f.format(GrevLex()) == "t3^4 - t4^4"
    g = poly(r, {(2, 1, 0, 0): 3, (0, 0, 0, 0): 1})
    assert g.format(GrevLex()) == "3*t1^2*t2 + 1"
    assert r.zero().format() == "0"


def test_monic_and_normalization():
    r = ring("t1")
    f = poly(r, {(2,): 3, (0,): 1})
    m = f.monic(GrevLex())
    assert m.leading_term(GrevLex())[1] == 1
    assert m == poly(r, {(2,): 1, (0,): 2})  # 3^-1 = 2 in GF(5)
    assert reduce_mod(f, [m], GrevLex()) == r.zero()
