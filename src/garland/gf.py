"""Arithmetic in GF(p^k) for small prime powers.

Elements are dense coefficient vectors over Z_p (low-to-high degree) modulo
a fixed monic irreducible polynomial; the package handles them by their
codes only.  The modulus is pinned to the lexicographically smallest
monic irreducible of degree k, coefficients compared low-to-high, so a
field is reproducible from (p, k) alone:

    GF(2)  -> x
    GF(4)  -> x^2 + x + 1
    GF(9)  -> x^2 + 1

Fields here are tiny (the intended range is q <= 49), so FieldSpec
precomputes full addition, negation and multiplication tables indexed by
the element's code: the integer whose base-p digits, least significant
first, are the coefficients.  Codes double as the canonical enumeration
order.  The subspace enumeration in `building` runs on these tables; the
element objects and their arithmetic, which check the tables against the
field axioms, are test oracles.

The dense Z_p polynomial arithmetic and the primality test below are
also the ones the modular Krylov code in `spectra` runs on.
"""

from __future__ import annotations

from itertools import product

from .errors import InvalidDegree, NonPrimeCharacteristic


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Miller-Rabin over the first twelve prime bases: exact below 3.3 * 10**24."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
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


# -- polynomials over Z_p: dense lists, low-to-high, trimmed (zero is []) ----

def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _monic(a: list[int], p: int) -> list[int]:
    inv = pow(a[-1], -1, p)
    return [x * inv % p for x in a]


def poly_mul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _trim(out)


def poly_divmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by a nonzero trimmed b."""
    r = [x % p for x in a]
    db = len(b) - 1
    inv = pow(b[db], -1, p)
    q = [0] * max(0, len(r) - db)
    for k in range(len(r) - 1 - db, -1, -1):
        f = r[k + db] * inv % p
        if f:
            q[k] = f
            for j in range(db + 1):
                r[k + j] = (r[k + j] - f * b[j]) % p
    return _trim(q), _trim(r)


def poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd of a and b, not both zero."""
    a, b = _trim([x % p for x in a]), _trim([x % p for x in b])
    while b:
        a, b = b, poly_divmod(a, b, p)[1]
    return _monic(a, p)


def poly_lcm(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic lcm of nonzero a and b."""
    return _monic(poly_mul(poly_divmod(a, poly_gcd(a, b, p), p)[0], b, p), p)


def _is_irreducible(m: list[int], p: int) -> bool:
    """Trial division by every monic polynomial of degree 1..deg(m)//2."""
    deg = len(m) - 1
    if m[0] == 0:  # divisible by x
        return deg == 1
    for d in range(1, deg // 2 + 1):
        for low in product(range(p), repeat=d):
            div = list(low) + [1]
            if not poly_divmod(m, div, p)[1]:
                return False
    return True


class FieldSpec:
    """GF(p^k) with the pinned canonical modulus and full operation tables on codes."""

    def __init__(self, p: int, k: int, modulus: tuple[int, ...]):
        self.p = p
        self.k = k
        self.q = p**k
        self.modulus = modulus
        self._build_tables()

    def _build_tables(self) -> None:
        p, k, q = self.p, self.k, self.q
        mod = list(self.modulus)
        coeffs = [self._decode(c) for c in range(q)]
        self.add_table = [
            [self._encode(tuple((x + y) % p for x, y in zip(a, b))) for b in coeffs]
            for a in coeffs
        ]
        self.neg_table = [self._encode(tuple((-x) % p for x in a)) for a in coeffs]
        self.mul_table = []
        for a in coeffs:
            row = []
            for b in coeffs:
                prod_ = poly_divmod(poly_mul(_trim(list(a)), _trim(list(b)), p), mod, p)[1]
                prod_ += [0] * (k - len(prod_))
                row.append(self._encode(tuple(prod_)))
            self.mul_table.append(row)

    def _decode(self, code: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.k):
            out.append(code % self.p)
            code //= self.p
        return tuple(out)

    def _encode(self, coeffs: tuple[int, ...]) -> int:
        code = 0
        for c in reversed(coeffs):
            code = code * self.p + c
        return code

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

    The modulus is the lexicographically smallest monic irreducible of
    degree k over Z_p, coefficient tuples compared low-to-high, found by
    exhaustive trial division.
    """
    if not is_prime(p):
        raise NonPrimeCharacteristic(f"characteristic {p} is not prime")
    if k < 1:
        raise InvalidDegree(f"extension degree must be >= 1, got {k}")
    for low in product(range(p), repeat=k):
        candidate = list(low) + [1]
        if _is_irreducible(candidate, p):
            return FieldSpec(p, k, tuple(candidate))
    raise AssertionError("unreachable: irreducibles of every degree exist")


def field_for_order(q: int) -> FieldSpec:
    """GF(q) for a prime power q, splitting q into p^k automatically."""
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
    return make_field(p, k)
