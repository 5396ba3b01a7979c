"""Finite-field arithmetic: exhaustive axiom checks for every order in use."""

import random
from itertools import islice, product

import numpy as np
import pytest
import sympy

from garland.errors import InvalidDegree, NonPrimeCharacteristic
from garland.gf import (
    FieldSpec,
    descending_primes,
    field_for_order,
    is_prime,
    make_field,
    prime_power,
)

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


PRIME_POWERS = [q for q in range(2, 130) if len(sympy.factorint(q)) == 1]
X = sympy.Symbol("x")


def _poly(coeffs, p):
    """A polynomial over Z_p from its coefficients, low to high."""
    return sympy.Poly(list(reversed(coeffs)), X, modulus=p)


@pytest.mark.parametrize("q", PRIME_POWERS)
def test_the_modulus_is_the_first_irreducible(q):
    # the first monic m, coefficients in lexicographic order low to high,
    # that sympy finds irreducible
    p, k = prime_power(q)
    first = next((*low, 1) for low in product(range(p), repeat=k)
                 if _poly((*low, 1), p).is_irreducible)
    assert make_field(p, k).modulus == first


@pytest.mark.parametrize("q", PRIME_POWERS)
def test_tables_are_the_arithmetic_modulo_the_modulus(q):
    # addition and negation act on the base-p digits of the codes, and
    # multiplication is commutative, associative, distributive over the
    # addition, has 1 as identity and multiplies by x as sympy does
    # modulo m; the powers x^j (j < k) then span, so the table is
    # multiplication in Z_p[x]/(m)
    f = field_for_order(q)
    p, k = f.p, f.k
    add, neg, mul = (np.array(t) for t in (f.add_table, f.neg_table, f.mul_table))
    digits = np.array([[c // p**j % p for j in range(k)] for c in range(q)])
    assert np.array_equal(digits[add], (digits[:, None] + digits) % p)
    assert np.array_equal(digits[neg], -digits % p)
    assert np.array_equal(mul, mul.T)
    assert mul[1].tolist() == list(range(q))
    m = _poly(f.modulus, p)
    x = 0 if k == 1 else p  # the code of x mod m: 0 when m = x, else x itself
    times_x = [(_poly(d, p) * _poly((0, 1), p)).rem(m).all_coeffs()[::-1]
               for d in digits.tolist()]
    assert digits[mul[x]].tolist() == [[c % p for c in d] + [0] * (k - len(d))
                                       for d in times_x]
    for a in range(q):
        assert np.array_equal(mul[mul[a]], mul[a][mul])  # (ab)c = a(bc)
        assert np.array_equal(mul[a][add], add[mul[a][:, None], mul[a]])


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


def strong_probable_prime(n: int, bases) -> bool:
    """Miller-Rabin on odd n > 37 with the given bases: False proves n composite."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in bases:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


TWELVE = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# the bounds of the sized base sets, each a strong pseudoprime to its set
BOUNDARIES = [(3_215_031_751, TWELVE[:4]), (3_825_123_056_546_413_051, TWELVE[:9])]


@pytest.mark.parametrize("n, bases", BOUNDARIES)
def test_sized_bases_stop_below_their_strong_pseudoprime(n, bases):
    assert strong_probable_prime(n, bases)
    assert not strong_probable_prime(n, TWELVE)
    assert not sympy.isprime(n) and not is_prime(n)


def test_sized_bases_give_the_same_primes():
    # every odd n near each boundary and at random in each range, against
    # all twelve bases and against sympy
    rng = random.Random(41)
    odd = []
    for n, _ in BOUNDARIES:
        odd += range(n - 401, n + 400, 2)
    for lo, hi in ((41, 10**4), (10**4, 2**31), (2**31, 2**62), (2**62, 2**64)):
        odd += [rng.randrange(lo, hi) | 1 for _ in range(400)]
    for n in odd:
        assert is_prime(n) is strong_probable_prime(n, TWELVE) is sympy.isprime(n), n
    assert [n for n in range(40) if is_prime(n)] == list(sympy.primerange(40))


@pytest.mark.parametrize("cap", [2**30 - 1, 2**31 - 1, 2**40, 2**61, 2**63 - 1])
def test_descending_primes_are_the_primes_below_the_cap(cap):
    want, p = [], cap + 1
    for _ in range(5):
        p = sympy.prevprime(p)
        want.append(p)
    assert list(islice(descending_primes(cap), 5)) == want
    assert list(descending_primes(12)) == [11, 7, 5, 3]
