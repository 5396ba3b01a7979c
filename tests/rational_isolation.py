"""Sturm isolation in rational arithmetic: the oracle for `garland.polyq`.

This is the isolator the package used before its integer rewrite, with
three changes: `cases` records the branches a call takes, the returned
polynomial multiplies back only the deflated roots, and rational roots
are certified as the package certifies them.  The old code also
multiplied in the roots it certified without deflating, which p still
has, so it returned their squares and a chain that miscounts at them.
It isolates the roots of a monic p whose rational roots lie in (1/L)Z,
as those of p(x) = L^-d q(L x) do for a monic integer q
(`integer_form` gives q): intervals stop at min(width, 1/L), and each
is tested at its one lattice point floor(L hi) / L.  The chain is p,
p', -rem(p, p'), ... with every member scaled to coprime integers by
`primitive`, and every value is a `Fraction` evaluated with
`RatPolynomial.__call__`.  `garland.polyq` must give the same
polynomial, roots, chain, counts and refinements on every input.

The rational polynomial arithmetic this needs beyond what
`RatPolynomial` ships (evaluation and products) lives here too, as
functions: negation, division with remainder (`poly_divmod`, `poly_div`,
`poly_mod`), `monic`, derivative, primitive part, gcd, lcm and
divisibility.  The package's integer isolator has no use for any of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import floor, gcd, lcm

from garland.errors import NotSquarefree
from garland.polyq import RatPolynomial, RootInterval, poly_product
from garland.rationals import QQ, QQ0, QQ1


def integer_form(p: RatPolynomial, L: int | None = None) -> tuple[tuple[int, ...], int]:
    """(q, L) with q = L^d monic(p)(x / L), the input `garland.polyq` takes for p.

    L defaults to the lcm D of the denominators of monic(p), which makes
    q integral; a given L must as well.
    """
    p = monic(p)
    if L is None:
        L = lcm(*(int(c.denominator) for c in p.coeffs))
    q = [c * L ** (p.degree - k) for k, c in enumerate(p.coeffs)]
    assert all(c.denominator == 1 for c in q), f"L = {L} leaves {p!r} fractional"
    return tuple(int(c) for c in q), L


def neg(p: RatPolynomial) -> RatPolynomial:
    return RatPolynomial(tuple(-c for c in p.coeffs))


def poly_divmod(a: RatPolynomial, b: RatPolynomial) -> tuple[RatPolynomial, RatPolynomial]:
    """Quotient and remainder: a = q b + r with deg r < deg b."""
    if b.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a.coeffs)
    dq = len(rem) - len(b.coeffs)
    if dq < 0:
        return RatPolynomial(()), a
    quo = [QQ0] * (dq + 1)
    lead = b.coeffs[-1]
    for shift in range(dq, -1, -1):
        c = rem[shift + b.degree] / lead
        quo[shift] = c
        if c != 0:
            for j, y in enumerate(b.coeffs):
                rem[shift + j] = rem[shift + j] - c * y
    return RatPolynomial(tuple(quo)), RatPolynomial(tuple(rem))


def poly_div(a: RatPolynomial, b: RatPolynomial) -> RatPolynomial:
    return poly_divmod(a, b)[0]


def poly_mod(a: RatPolynomial, b: RatPolynomial) -> RatPolynomial:
    return poly_divmod(a, b)[1]


def monic(p: RatPolynomial) -> RatPolynomial:
    if p.is_zero:
        return p
    lead = p.coeffs[-1]
    return RatPolynomial(tuple(c / lead for c in p.coeffs))


def derivative(p: RatPolynomial) -> RatPolynomial:
    return RatPolynomial(tuple(QQ(i) * c for i, c in enumerate(p.coeffs) if i))


def primitive(p: RatPolynomial) -> RatPolynomial:
    """Positive rational multiple with coprime integer coefficients.

    Scaling is by a positive factor, so signs of values are
    preserved; remainder sequences are renormalized through this to
    keep coefficient sizes polynomial instead of doubling per step.
    """
    if p.is_zero:
        return p
    den = 1
    for c in p.coeffs:
        den = lcm(den, int(c.denominator))
    nums = [int(c * den) for c in p.coeffs]
    g = 0
    for x in nums:
        g = gcd(g, x)
    return RatPolynomial(tuple(QQ(x // g) for x in nums))


def poly_gcd(a: RatPolynomial, b: RatPolynomial) -> RatPolynomial:
    while not b.is_zero:
        a, b = b, primitive(poly_mod(a, b))
    return monic(a)


def poly_lcm(a: RatPolynomial, b: RatPolynomial) -> RatPolynomial:
    if a.is_zero or b.is_zero:
        return RatPolynomial(())
    return monic(poly_div(a * b, poly_gcd(a, b)))


def divides(a: RatPolynomial, b: RatPolynomial) -> bool:
    """Whether a divides b."""
    if a.is_zero:
        return b.is_zero
    return poly_mod(b, a).is_zero


def is_squarefree(p: RatPolynomial) -> bool:
    if p.degree <= 1:
        return not p.is_zero
    return poly_gcd(p, derivative(p)).degree == 0


def sturm_chain(p: RatPolynomial) -> list[RatPolynomial]:
    chain = [primitive(p), primitive(derivative(p))]
    while not chain[-1].is_zero:
        chain.append(primitive(neg(poly_mod(chain[-2], chain[-1]))))
    chain.pop()
    return chain


def _variations(chain: list[RatPolynomial], x) -> int:
    signs = []
    for poly in chain:
        v = poly(x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_roots_halfopen(chain: list[RatPolynomial], a, b) -> int:
    return _variations(chain, QQ(a)) - _variations(chain, QQ(b))


def root_magnitude_bound(p: RatPolynomial):
    lead = p.coeffs[-1]
    return QQ1 + max((abs(c / lead) for c in p.coeffs[:-1]), default=QQ0)


@dataclass
class OracleIsolation:
    poly: RatPolynomial
    roots: list[RootInterval]
    chain: list[RatPolynomial]

    def count_in_halfopen(self, a, b) -> int:
        return count_roots_halfopen(self.chain, a, b)

    def refine(self, width) -> "OracleIsolation":
        width = QQ(width)
        out = []
        for r in self.roots:
            if r.value is not None:
                out.append(r)
                continue
            lo, hi = r.lo, r.hi
            while hi - lo > width:
                mid = (lo + hi) / 2
                if count_roots_halfopen(self.chain, lo, mid) == 1:
                    hi = mid
                else:
                    lo = mid
            out.append(RootInterval(lo, hi))
        return OracleIsolation(self.poly, out, self.chain)


def isolate_real_roots(p: RatPolynomial, width="1/1000000", L: int = 1,
                       cases: set | None = None):
    """The rational isolator; `cases` collects the names of the branches taken.

    The rational roots of p must lie in (1/L)Z.  The names are
    "midpoint-split" (a root at a midpoint of a split), "midpoint-narrow"
    (a root at a midpoint of sign bisection), "hi" (a root at a finished
    interval's right end), "lattice" (a root at a finished interval's
    lattice point), "lattice root below" (a finished interval without a
    lattice point, while p has a root at floor(L hi) / L <= lo),
    "irrational", "shrink" (an interval narrowed off a deflated root) and
    "gap" (a chain member more than one degree below the one before it).
    """
    cases = set() if cases is None else cases
    if p.is_zero or not is_squarefree(p):
        raise NotSquarefree(f"root isolation requires a squarefree polynomial, got {p!r}")
    width = QQ(width)
    p = monic(p)
    target = min(width, QQ(1, L))

    exact: list = []
    deflated: list = []
    while True:
        restart = False
        if p.degree <= 0:
            intervals: list[tuple] = []
            chain = sturm_chain(p) if p.degree >= 0 else [p]
            break
        chain = sturm_chain(p)
        bound = root_magnitude_bound(p)
        work = [(-bound, bound, count_roots_halfopen(chain, -bound, bound))]
        done: list[tuple] = []
        while work:
            lo, hi, count = work.pop()
            if count == 0:
                continue
            if count == 1:
                sign_lo = 1 if p(lo) > 0 else -1
                while hi - lo > target:
                    mid = (lo + hi) / 2
                    v = p(mid)
                    if v == 0:
                        cases.add("midpoint-narrow")
                        exact.append(mid)
                        deflated.append(mid)
                        p = monic(poly_div(p, RatPolynomial((-mid, QQ1))))
                        restart = True
                        break
                    if (1 if v > 0 else -1) == sign_lo:
                        lo = mid
                    else:
                        hi = mid
                if restart:
                    break
                done.append((lo, hi))
                continue
            mid = (lo + hi) / 2
            if p(mid) == 0:
                cases.add("midpoint-split")
                exact.append(mid)
                deflated.append(mid)
                p = monic(poly_div(p, RatPolynomial((-mid, QQ1))))
                restart = True
                break
            left = count_roots_halfopen(chain, lo, mid)
            work.append((lo, mid, left))
            work.append((mid, hi, count - left))
        if restart:
            continue
        intervals = []
        for lo, hi in done:
            if p(hi) == 0:
                cases.add("hi")
                exact.append(hi)
                continue
            # the one point of (1/L)Z that (lo, hi] can hold
            s = QQ(floor(hi * L), L)
            if s > lo and p(s) == 0:
                cases.add("lattice")
                exact.append(s)
            else:
                if p(s) == 0:
                    cases.add("lattice root below")
                cases.add("irrational")
                intervals.append((lo, hi))
        break

    cleaned = []
    for lo, hi in intervals:
        while any(lo < v <= hi for v in exact):
            cases.add("shrink")
            mid = (lo + hi) / 2
            if count_roots_halfopen(chain, lo, mid) == 1:
                hi = mid
            else:
                lo = mid
        cleaned.append((lo, hi))
    intervals = cleaned

    roots = [RootInterval(v, v, v) for v in exact]
    roots.extend(RootInterval(lo, hi) for lo, hi in intervals)
    roots.sort(key=lambda r: (r.lo, r.hi))
    original = poly_product([RatPolynomial((-v, QQ1)) for v in deflated] + [p])
    full_chain = sturm_chain(original)
    if any(a.degree - b.degree > 1 for a, b in zip(full_chain, full_chain[1:])):
        cases.add("gap")
    return OracleIsolation(original, roots, full_chain)
