import random

import numpy as np
import pytest

from paramcodes.errors import DomainError
from paramcodes.gf import MAX_ADD_TABLE_ORDER, MAX_FIELD_ORDER, FieldSpec

from conftest import MODULI, field

SMALL_ORDERS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 31, 32]


def test_prime_field_arithmetic():
    f5 = FieldSpec.of(5)
    assert f5.element(3) + f5.element(4) == f5.element(2)
    assert f5.element(2) * f5.element(3) == f5.element(1)
    assert f5.element(1) - f5.element(3) == f5.element(3)
    assert -f5.element(2) == f5.element(3)


def test_extension_field_mul():
    # GF(4) = GF(2)[x]/(x^2+x+1): x * x = x + 1
    f4 = field(4)
    x = f4.element([0, 1])
    assert x * x == f4.element([1, 1])
    assert (x * x).lift() == 3


def test_inverses():
    f11 = FieldSpec.of(11)
    assert f11.element(2).inv() == f11.element(6)
    f5 = FieldSpec.of(5)
    assert f5.element(4).inv() == f5.element(4)
    assert f5.element(1).inv() == f5.element(1)
    with pytest.raises(ZeroDivisionError):
        f5.element(0).inv()


def test_pow():
    f5 = FieldSpec.of(5)
    assert f5.element(2) ** 4 == f5.one
    assert f5.element(3) ** 3 == f5.element(2)
    assert f5.element(0) ** 0 == f5.one
    f11 = FieldSpec.of(11)
    assert f11.element(3) ** 0 == f11.one
    with pytest.raises(DomainError):
        f5.element(2) ** -1
    # ints and arrays agree with Python's pow, products of logs included
    big = FieldSpec.of(65521)
    bases = [0, 1, 2, 3, 65520]
    want = [pow(b, 60000, 65521) for b in bases]
    assert big.pow(np.array(bases), 60000).tolist() == want
    assert [big.pow(b, 60000) for b in bases] == want


def test_units_listing():
    assert [u.lift() for u in FieldSpec.of(5).units()] == [1, 2, 3, 4]
    assert [u.lift() for u in FieldSpec.of(2).units()] == [1]
    assert len(FieldSpec.of(11).units()) == 10


@pytest.mark.parametrize("q", SMALL_ORDERS)
def test_unit_group_exhaustive(q):
    spec = field(q)
    units = spec.units()
    assert len(units) == q - 1
    assert len(set(units)) == q - 1
    unit_set = set(units)
    for a in units:
        # Fermat: a^(q-1) = 1
        assert a ** (q - 1) == spec.one
        # closure under multiplication, double inverse
        assert a.inv().inv() == a
        for b in units:
            assert a * b in unit_set


@pytest.mark.parametrize("q", [4, 9, 27])
def test_field_axioms_sampled(q):
    spec = field(q)
    elems = spec.elements()
    for a in elems:
        for b in elems:
            assert a + b == b + a
            assert a * b == b * a
            for c in elems[:3]:
                assert (a + b) * c == a * c + b * c


def test_mixed_field_operands_rejected():
    a = FieldSpec.of(5).element(2)
    b = FieldSpec.of(7).element(2)
    with pytest.raises(DomainError):
        a + b
    with pytest.raises(DomainError):
        a * b


def test_element_canonical_equality():
    f5 = FieldSpec.of(5)
    assert f5.element(7) == f5.element(2)
    assert f5.element(2) == 2
    assert hash(f5.element(7)) == hash(f5.element(2))
    f9 = field(9)
    assert f9.element(5) == f9.element([2, 1])
    assert f9.element(5).lift() == 5


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


def test_order_and_structure():
    for q in SMALL_ORDERS:
        spec = field(q)
        assert spec.order == q
        assert spec.characteristic ** spec.extension_degree == q
        lifts = [e.lift() for e in spec.elements()]
        assert lifts == list(range(q))


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
