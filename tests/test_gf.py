"""Finite-field arithmetic: exhaustive axiom checks for every order in use."""

import pytest

from garland.errors import InvalidDegree, NonPrimeCharacteristic
from garland.gf import FieldSpec, field_for_order, make_field

from fields import (
    DivisionByZero,
    enumerate_field,
    field_add,
    field_code,
    field_element,
    field_inv,
    field_mul,
    field_neg,
    field_one,
    field_zero,
)

ORDERS = [2, 3, 4, 5, 7, 8, 9]


@pytest.mark.parametrize("q", ORDERS)
def test_enumeration_is_the_code_order(q):
    f = field_for_order(q)
    elems = enumerate_field(f)
    assert len(elems) == q
    assert [field_code(f, a) for a in elems] == list(range(q))
    assert elems[0] == field_zero(f)
    assert elems[1] == field_one(f)


@pytest.mark.parametrize("q", ORDERS)
def test_field_axioms_exhaustive(q):
    f = field_for_order(q)
    elems = enumerate_field(f)
    zero, one = field_zero(f), field_one(f)
    for a in elems:
        assert field_add(a, zero) == a
        assert field_mul(a, one) == a
        assert field_mul(a, zero) == zero
        assert field_add(a, field_neg(a)) == zero
        if a != zero:
            assert field_mul(a, field_inv(a)) == one
        for b in elems:
            assert field_add(a, b) == field_add(b, a)
            assert field_mul(a, b) == field_mul(b, a)
            for c in elems:
                assert field_add(field_add(a, b), c) == field_add(a, field_add(b, c))
                assert field_mul(field_mul(a, b), c) == field_mul(a, field_mul(b, c))
                assert field_mul(a, field_add(b, c)) == field_add(
                    field_mul(a, b), field_mul(a, c)
                )


@pytest.mark.parametrize("q", ORDERS)
def test_multiplicative_group_order(q):
    # a^(q-1) = 1 for every nonzero a
    f = field_for_order(q)
    for a in enumerate_field(f)[1:]:
        power = field_one(f)
        for _ in range(q - 1):
            power = field_mul(power, a)
        assert power == field_one(f)


def test_pinned_moduli():
    # moduli are pinned so (p, k) reproduces the same field everywhere
    assert make_field(2, 1).modulus == (0, 1)
    assert make_field(2, 2).modulus == (1, 1, 1)
    assert make_field(3, 2).modulus == (1, 0, 1)
    assert make_field(2, 3).modulus == (1, 0, 1, 1)


def test_field_for_order_factors():
    assert field_for_order(4) == make_field(2, 2)
    assert field_for_order(9) == make_field(3, 2)
    assert field_for_order(8) == make_field(2, 3)
    assert field_for_order(7) == make_field(7, 1)


def test_element_code_round_trip():
    f = make_field(3, 2)
    for code in range(9):
        assert field_code(f, field_element(f, code)) == code


def test_invalid_constructions():
    with pytest.raises(NonPrimeCharacteristic):
        make_field(4, 1)
    with pytest.raises(NonPrimeCharacteristic):
        make_field(1, 1)
    with pytest.raises(InvalidDegree):
        make_field(2, 0)
    with pytest.raises(NonPrimeCharacteristic):
        field_for_order(6)
    with pytest.raises(NonPrimeCharacteristic):
        field_for_order(1)


def test_inverse_of_zero():
    f = make_field(5, 1)
    with pytest.raises(DivisionByZero):
        field_inv(field_zero(f))
    # the dedicated error still reads as the stdlib one
    with pytest.raises(ZeroDivisionError):
        field_inv(field_zero(f))


def test_specs_compare_by_parameters():
    a = make_field(2, 2)
    b = make_field(2, 2)
    assert a == b and hash(a) == hash(b)
    assert a != make_field(2, 3)
    assert isinstance(a, FieldSpec)
