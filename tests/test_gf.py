import itertools
import random

import numpy as np
import pytest

from paramcodes.errors import DomainError
from paramcodes.gf import (
    MAX_ADD_TABLE_ORDER,
    MAX_FIELD_ORDER,
    FieldSpec,
    _check_irreducible,
    _factor_prime_power,
)

from conftest import MODULI, field

SMALL_ORDERS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 31, 32]


def test_prime_field_arithmetic():
    f5 = FieldSpec.of(5)
    assert f5.add(3, 4) == 2
    assert f5.mul(2, 3) == 1
    assert f5.sub(1, 3) == 3
    assert f5.neg(2) == 3


def test_extension_field_mul():
    # GF(4) = GF(2)[x]/(x^2+x+1): x * x = x + 1; x has the digits (0, 1),
    # so it is the int 2, and x + 1 is 3
    f4 = field(4)
    assert f4.mul(2, 2) == 3


def test_inverses():
    f11 = FieldSpec.of(11)
    assert f11.inv(2) == 6
    f5 = FieldSpec.of(5)
    assert f5.inv(4) == 4
    assert f5.inv(1) == 1
    with pytest.raises(ZeroDivisionError):
        f5.inv(0)


def test_pow():
    f5 = FieldSpec.of(5)
    assert f5.pow(2, 4) == 1
    assert f5.pow(3, 3) == 2
    assert f5.pow(0, 0) == 1
    f11 = FieldSpec.of(11)
    assert f11.pow(3, 0) == 1
    with pytest.raises(DomainError):
        f5.pow(2, -1)
    # ints and arrays agree with Python's pow, products of logs included
    big = FieldSpec.of(65521)
    bases = [0, 1, 2, 3, 65520]
    want = [pow(b, 60000, 65521) for b in bases]
    assert big.pow(np.array(bases), 60000).tolist() == want
    assert [big.pow(b, 60000) for b in bases] == want


def test_units_listing():
    # the powers of the primitive element list the units 1..q-1
    assert sorted(FieldSpec.of(5).exp(j) for j in range(4)) == [1, 2, 3, 4]
    assert [FieldSpec.of(2).exp(j) for j in range(1)] == [1]
    assert len({FieldSpec.of(11).exp(j) for j in range(10)}) == 10


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_exp_reduces_arrays_like_ints(dtype):
    # negative and large exponents reduce mod q-1 as Python's % does
    spec = FieldSpec.of(13)
    exponents = [-25, -12, -1, 0, 1, 11, 12, 300, 2**30]
    got = spec.exp(np.array(exponents, dtype=dtype).reshape(3, 3))
    assert got.tolist() == np.array([spec.exp(e) for e in exponents]).reshape(3, 3).tolist()
    # and so do numpy scalars
    assert [spec.exp(dtype(e)) for e in exponents] == [spec.exp(e) for e in exponents]


@pytest.mark.parametrize("p, types", [
    (13, (np.int16, np.int16)), (13, (np.int32, np.int32)), (13, (np.int64, np.int64)),
    (46337, (np.int32, np.int32)), (46337, (np.int64, np.int64)),
    # the sweep's words against its uint8 block
    (13, (np.int32, np.uint8)),
])
def test_add_and_sub_reduce_arrays_like_ints(p, types):
    # every pair of residues, a sum up to 2p - 2 and a difference down to
    # 1 - p, as Python's % gives them, in the operands' common type
    spec = FieldSpec.of(p)
    values = [0, 1, 2, p // 2, p - 2, p - 1]
    a, b = (np.array(values, dtype=t) for t in types)
    for op, want in ((spec.add, lambda x, y: (x + y) % p),
                     (spec.sub, lambda x, y: (x - y) % p)):
        got = op(a[:, None], b[None, :])
        assert got.dtype == np.result_type(*types)
        assert got.tolist() == [[want(x, y) for y in values] for x in values]
        for x in values:
            for y in values:
                scalar = op(types[0](x), types[1](y))
                assert type(scalar) is not int and scalar == want(x, y)


@pytest.mark.parametrize("q", SMALL_ORDERS)
def test_unit_group_exhaustive(q):
    spec = field(q)
    units = range(1, q)
    assert sorted(spec.exp(j) for j in range(q - 1)) == list(units)
    for a in units:
        # Fermat: a^(q-1) = 1
        assert spec.pow(a, q - 1) == 1
        # closure under multiplication, double inverse
        assert spec.inv(spec.inv(a)) == a
        for b in units:
            assert spec.mul(a, b) in units


@pytest.mark.parametrize("q", [4, 9, 27])
def test_field_axioms_sampled(q):
    spec = field(q)
    elems = range(q)
    for a in elems:
        for b in elems:
            assert spec.add(a, b) == spec.add(b, a)
            assert spec.mul(a, b) == spec.mul(b, a)
            for c in elems[:3]:
                assert spec.mul(spec.add(a, b), c) == \
                    spec.add(spec.mul(a, c), spec.mul(b, c))


def test_spec_validation():
    with pytest.raises(DomainError):
        FieldSpec.of(12)            # not a prime power
    with pytest.raises(DomainError):
        FieldSpec.of(1)
    with pytest.raises(DomainError):
        FieldSpec.of(9)             # missing modulus
    with pytest.raises(DomainError):
        FieldSpec.of(9, [1, 0, 2])  # not monic
    with pytest.raises(DomainError):
        FieldSpec.of(25, [1, 0, 1])  # x^2+1 = (x-2)(x+2) over GF(5)
    with pytest.raises(DomainError):
        FieldSpec.of(5, [1, 1])     # modulus on a prime field
    with pytest.raises(DomainError):
        FieldSpec.of(2 * MAX_FIELD_ORDER)
    # degree-4 reducible without roots: (x^2+x+1)^2 over GF(2)
    with pytest.raises(DomainError):
        FieldSpec.of(16, [1, 0, 1, 0, 1])


def test_specs_are_equal_exactly_when_order_and_modulus_are():
    a, b = FieldSpec.of(9, [1, 0, 1]), FieldSpec.of(9, [1, 0, 1])
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != FieldSpec.of(9, [2, 2, 1]) and a != FieldSpec.of(3)


def mobius(n):
    result, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            result = -result
        d += 1
    return -result if n > 1 else result


@pytest.mark.parametrize("p, k", [(2, k) for k in range(1, 11)]
                         + [(3, k) for k in range(1, 7)]
                         + [(5, k) for k in range(1, 5)]
                         + [(7, 1), (7, 2), (7, 3), (11, 2), (13, 2)])
def test_irreducible_monics_match_gauss_count(p, k):
    # Gauss: GF(p) has (1/k) sum_{e | k} mu(e) p^(k/e) monic irreducibles of
    # degree k, a count that depends on neither the test nor its algorithm
    want = sum(mobius(e) * p ** (k // e) for e in range(1, k + 1) if k % e == 0) // k
    got = sum(_check_irreducible(low + (1,), p)
              for low in itertools.product(range(p), repeat=k))
    assert got == want


def test_factor_prime_power_against_a_sieve():
    limit = MAX_FIELD_ORDER
    sieve = np.ones(limit + 1, dtype=bool)
    sieve[:2] = False
    for d in range(2, int(limit ** 0.5) + 1):
        if sieve[d]:
            sieve[d * d::d] = False
    powers = {p ** k: (p, k) for p in np.flatnonzero(sieve).tolist()
              for k in range(1, 17) if p ** k <= limit}

    def factor(q):
        try:
            return _factor_prime_power(q)
        except DomainError as exc:
            return str(exc)

    orders = range(2, limit + 1)
    assert [factor(q) for q in orders] == \
        [powers.get(q, f"{q} is not a prime power") for q in orders]


def test_order_and_structure():
    for q in SMALL_ORDERS:
        spec = field(q)
        assert spec.order == q
        assert spec.characteristic ** spec.extension_degree == q
        # log is a bijection from the units 1..q-1 onto [0, q-1)
        logs = sorted(spec.log(a) for a in range(1, q))
        assert logs == list(range(q - 1))


# -- full tables against schoolbook polynomial arithmetic ----------------------

def digits_of(value, p, k):
    return [value // p**i % p for i in range(k)]


def value_of(digits, p):
    return sum(d * p**i for i, d in enumerate(digits))


def schoolbook_add(a, b, p):
    return [(x + y) % p for x, y in zip(a, b)]


def schoolbook_mul(a, b, mod, p):
    """Product of two coefficient lists modulo the monic modulus."""
    k = len(mod) - 1
    prod = [0] * (2 * k - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] = (prod[i + j] + x * y) % p
    for top in range(2 * k - 2, k - 1, -1):
        c = prod[top]
        for i, m in enumerate(mod):
            prod[top - k + i] = (prod[top - k + i] - c * m) % p
    return prod[:k]


@pytest.mark.parametrize("q", sorted(MODULI))
def test_full_tables_match_schoolbook_arithmetic(q):
    spec, mod = field(q), MODULI[q]
    p, k = spec.characteristic, len(mod) - 1
    digits = [digits_of(v, p, k) for v in range(q)]
    elems = np.arange(q)
    add = spec.add(elems[:, None], elems[None, :])
    mul = spec.mul(elems[:, None], elems[None, :])
    for a in range(q):
        for b in range(q):
            want_add = value_of(schoolbook_add(digits[a], digits[b], p), p)
            want_mul = value_of(schoolbook_mul(digits[a], digits[b], mod, p), p)
            assert add[a, b] == want_add == spec.add(a, b)
            assert mul[a, b] == want_mul == spec.mul(a, b)
            assert spec.sub(want_add, b) == a
        if a:
            assert spec.mul(a, spec.inv(a)) == 1
    assert (spec.sub(add, elems[None, :]) == elems[:, None]).all()


def test_digitwise_addition_above_table_limit():
    mod = [1, 0, 2, 0, 0, 0, 0, 1]  # x^7 + 2x^2 + 1 over GF(3)
    spec = FieldSpec.of(3**7, mod)
    assert spec.order > MAX_ADD_TABLE_ORDER
    rng = random.Random(7)
    pairs = [(rng.randrange(spec.order), rng.randrange(spec.order))
             for _ in range(300)]
    a, b = (np.array(col) for col in zip(*pairs))
    for x, y, s, d, m in zip(a.tolist(), b.tolist(), spec.add(a, b),
                             spec.sub(a, b), spec.mul(a, b)):
        dx, dy = digits_of(x, 3, 7), digits_of(y, 3, 7)
        assert s == value_of(schoolbook_add(dx, dy, 3), 3) == spec.add(x, y)
        assert spec.add(d, y) == x == spec.sub(s, y)
        assert m == value_of(schoolbook_mul(dx, dy, mod, 3), 3)


DIGIT_FIELDS = [(q, MODULI[q]) for q in sorted(MODULI)] + [(251**2, [1, 0, 1])]


@pytest.mark.parametrize("q, mod", DIGIT_FIELDS)
def test_digit_planes_round_trip(q, mod):
    # sum_j d_j p^j = a on every element, and x^l has digit plane l only
    spec = FieldSpec.of(q, mod)
    p, k = spec.characteristic, spec.extension_degree
    elems = np.arange(q).reshape(-1, 1)
    planes = spec._digits(elems)
    assert planes.shape == (k, q, 1) and planes.dtype == np.int16
    assert ((planes >= 0) & (planes < p)).all()
    assert (sum(planes[j].astype(np.int64) * p**j for j in range(k)) == elems).all()
    assert np.array_equal(spec._from_digits(planes), elems)
    for value in random.Random(q).sample(range(q), min(q, 50)):
        assert spec._digits(np.array([value]))[:, 0].tolist() == digits_of(value, p, k)
    assert np.array_equal(spec._digits(spec._arrays.basis), np.eye(k, dtype=np.int16))
    # c x^l read through the basis is c times x, l times over
    c = np.arange(q)
    times_x = c
    for x_l in spec._arrays.basis.tolist():
        assert np.array_equal(spec.mul(c, x_l), times_x)
        times_x = spec.mul(times_x, spec._arrays.basis[1])


@pytest.mark.parametrize("q", [4, 8, 16, 32])
def test_neg_and_sub_in_characteristic_two_equal_the_table_route(q):
    # -1 is 1 there, so neg(a) must equal mul(1, a) and sub(a, b) add(a, mul(1, b))
    spec = field(q)
    for a in range(q):
        assert spec.neg(a) == spec.mul(1, a) == a
        for b in range(q):
            assert spec.sub(a, b) == spec.add(a, spec.mul(1, b))
    elems = np.arange(q)
    a, b = elems[:, None], elems[None, :]
    assert np.array_equal(spec.neg(elems), spec.mul(1, elems))
    assert np.array_equal(spec.sub(a, b), spec.add(a, spec.mul(1, b)))
    assert np.array_equal(spec.sub(a, b), [[spec.sub(x, y) for y in range(q)]
                                           for x in range(q)])
