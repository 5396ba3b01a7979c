"""Arithmetic in GF(p^k) for small prime powers.

Elements are coefficient vectors over Z_p (low-to-high degree) modulo a
fixed monic irreducible polynomial; the package handles them by their
codes only: the integer whose base-p digits, least significant first,
are the coefficients.  Codes double as the canonical enumeration order.

Fields here are tiny (the intended range is q <= 49), so FieldSpec
precomputes full addition, negation and multiplication tables on codes,
straight from the digits of every code at once.  The modulus is pinned
to the first monic m of degree k, coefficient tuples in lexicographic
order low-to-high, whose multiplication table has no zero product of
two nonzero elements, so a field is reproducible from (p, k) alone:

    GF(2)  -> x
    GF(4)  -> x^2 + x + 1
    GF(9)  -> x^2 + 1

A finite commutative ring is a field exactly when it has no zero
divisors, and Z_p[x]/(m) is a field exactly when m is irreducible, so
that table proves the modulus irreducible with no polynomial division.
The subspace enumeration in `building` runs on these tables; the
element objects and their arithmetic, which check the tables against
the field axioms, are test oracles.

`descending_primes` is the package's one prime source: the Krylov and
certification primes both come from it.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from .errors import InvalidDegree, NonPrimeCharacteristic


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin with bases sized to n (OEIS A014233).

    Bases 2..7 decide n < 3,215,031,751 (every Krylov prime),
    2..23 decide n < 3,825,123,056,546,413,051, and all twelve, 2..37,
    decide n < 3.1 * 10**23, so every int64 modulus.  Each bound is a
    strong pseudoprime to the smaller set.
    """
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    k = 4 if n < 3_215_031_751 else 9 if n < 3_825_123_056_546_413_051 else 12
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES[:k]:
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


def descending_primes(cap: int):
    """The odd primes p <= cap, descending."""
    p = cap if cap % 2 else cap - 1
    while p > 2:
        if is_prime(p):
            yield p
        p -= 2


def digits(q: int, width: int) -> np.ndarray:
    """The rows of product(range(q), repeat=width), in that order: shape (q**width, width)."""
    return np.arange(q**width)[:, None] // q ** np.arange(width - 1, -1, -1) % q


def _digit_table(p: int, k: int) -> np.ndarray:
    """(q, k): the base-p digits of every code, least significant first."""
    return digits(p, k)[:, ::-1]


def _codes(digits: np.ndarray, p: int) -> np.ndarray:
    """The codes of digit vectors along the last axis: the inverse of `_digit_table`."""
    return (digits * p ** np.arange(digits.shape[-1])).sum(axis=-1)


def _products(digits: np.ndarray, p: int, modulus: tuple[int, ...]) -> np.ndarray:
    """(q, q): the code of a * b mod the monic `modulus` m, for all codes a, b.

    Row j of the shift stack is x^j * b for every b: multiplying by x
    moves each digit up one place and folds the carried x^k back as
    -(m_0 + ... + m_{k-1} x^{k-1}).  Then a * b = sum_j a_j (x^j b).
    """
    low = np.asarray(modulus[:-1])
    shifts = [digits]
    for _ in range(1, len(low)):
        b = shifts[-1]
        up = np.zeros_like(b)
        up[:, 1:] = b[:, :-1]
        shifts.append((up - b[:, -1:] * low) % p)
    stack = np.stack(shifts)  # (j, b, digit)
    return _codes((digits[:, :, None, None] * stack).sum(axis=1) % p, p)


class FieldSpec:
    """GF(p^k) with the pinned canonical modulus and full operation tables on codes."""

    def __init__(self, p: int, k: int, modulus: tuple[int, ...]):
        self.p = p
        self.k = k
        self.q = p**k
        self.modulus = modulus
        digits = _digit_table(p, k)
        self.add_table = _codes((digits[:, None] + digits) % p, p).tolist()
        self.neg_table = _codes(-digits % p, p).tolist()
        self.mul_table = _products(digits, p, modulus).tolist()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldSpec)
            and (self.p, self.k, self.modulus) == (other.p, other.k, other.modulus)
        )

    def __hash__(self) -> int:
        return hash((self.p, self.k, self.modulus))

    def __repr__(self) -> str:
        return f"FieldSpec(p={self.p}, k={self.k}, modulus={self.modulus})"


def make_field(p: int, k: int) -> FieldSpec:
    """Construct GF(p^k) with the canonical modulus.

    The modulus is the first monic m of degree k over Z_p, coefficient
    tuples in lexicographic order low-to-high, whose multiplication
    table has no zero product of two nonzero codes.  A finite
    commutative ring without zero divisors is a field, and Z_p[x]/(m)
    is a field exactly when m is irreducible, so the table is the
    irreducibility proof.  For k > 1 a candidate with m_0 = 0 is
    divisible by x and skipped.
    """
    if not is_prime(p):
        raise NonPrimeCharacteristic(f"characteristic {p} is not prime")
    if k < 1:
        raise InvalidDegree(f"extension degree must be >= 1, got {k}")
    digits = _digit_table(p, k)
    for low in product(range(p), repeat=k):
        if k > 1 and low[0] == 0:
            continue
        if (_products(digits, p, (*low, 1))[1:, 1:] != 0).all():
            return FieldSpec(p, k, (*low, 1))
    raise AssertionError("unreachable: irreducibles of every degree exist")


def prime_power(q: int) -> tuple[int, int]:
    """(p, k) with q = p^k; NonPrimeCharacteristic unless q is a prime power."""
    if q < 2:
        raise NonPrimeCharacteristic(f"field order must be >= 2, got {q}")
    p = q
    for cand in range(2, q + 1):
        if cand * cand > q:
            break
        if q % cand == 0:
            p = cand
            break
    k, rest = 0, q
    while rest % p == 0:
        rest //= p
        k += 1
    if rest != 1:
        raise NonPrimeCharacteristic(f"{q} is not a prime power")
    return p, k


def field_for_order(q: int) -> FieldSpec:
    """GF(q) for a prime power q, splitting q into p^k automatically."""
    return make_field(*prime_power(q))
