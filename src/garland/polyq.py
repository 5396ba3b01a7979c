"""Exact univariate polynomials over Q and certified real-root isolation.

Coefficient vectors are stored low-to-high, which is also the serialized
form: "c0/d0 c1/d1 ..." with every coefficient written as an explicit
fraction.  The zero polynomial serializes as "0/1" and reports degree -1.

`RatPolynomial` carries a result, it is not a ring.  It holds min_A for
the text form that reports and cache entries use, built by `from_scaled`
from the certified integer min_B = q and the scale L of A = B / L, and
the recorded reference factors, which `poly_product` multiplies out.
Evaluation at a rational is the one other operation it ships; sum,
difference, scaling, division and `monic` have no caller here, and the
tests' rational oracle defines the division it needs.

Root isolation is Sturm-chain bisection with exact rational endpoints,
and every sign it reads is computed in Python integers (after Collins and
Loos, "Real zeros of polynomials", 1982).

The chain.  For squarefree p the rational Sturm chain is p0 = p, p1 = p',
p(k+1) = -rem(p(k-1), p(k)), ending in a nonzero constant.  The integer
chain starts from c0 and c1, the coprime integer positive multiples of p
and p', and continues with c(k+1) = -prem(c(k-1), c(k)) divided by its
content, where prem(a, b) is the pseudo-remainder with the positive
multiplier |lc(b)|^(delta+1), delta = deg a - deg b:

    |lc(b)|^(delta+1) a = q b + prem(a, b),   deg prem(a, b) < deg b.

If c(k-1) = s p(k-1) and c(k) = t p(k) with s, t > 0, then rem(c(k-1),
c(k)) = s rem(p(k-1), p(k)), so prem(c(k-1), c(k)) is a positive multiple
of rem(p(k-1), p(k)), and c(k+1) is a positive multiple of p(k+1).  By
induction every member of the integer chain is a positive multiple of the
rational member; a degree gap (delta > 1) only raises the exponent.  So
at every x both chains have the same sign member by member and the same
number of sign variations, and c(k+1) is the coprime integer positive
multiple of p(k+1) (the tests' rational oracle builds exactly that
chain).  The last member is
gcd(p, p') up to a positive factor: p is squarefree exactly when the
chain ends in a constant.

Signs.  For x = u / v with v > 0 and c of degree d, v^d c(x) is the
integer sum of c_j u^j v^(d-j) and has the sign of c(x).  Bisection runs
in the coordinate y = x b / a, where a / b is the Cauchy bound of p: each
member becomes the integer polynomial b^d c(a y / b), a positive multiple
of c(x), and every endpoint is y = n / 2^k, where the sum of
q_j n^j 2^(k (d-j)) is a Horner loop of multiplications by n and shifts.
A `Fraction` is built only for what is handed back, the endpoints
a n / (b 2^k), which are the rationals that halving (-a/b, a/b] gives.

Rational roots.  Isolation takes min_B = q, monic with integer
coefficients, and the scale L >= 1, and isolates the roots of
p(x) = L^-d q(L x), whose chain starts at P = primitive(c_k L^k), the
coprime positive integer multiple of p.  A monic integer polynomial has
only integer rational roots, so every rational root of p lies in the
lattice (1/L)Z, and no factorization is needed to find them.  Intervals
are narrowed to at most min(width, 1/L), and a half-open (lo, hi] that
narrow holds at most one lattice point, floor(L hi) / L when that
exceeds lo.  One integer sign of the current (deflated) member there
decides rationality exactly: zero certifies the root, and a nonzero
sign or no lattice point certifies irrationality.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

from .errors import InvalidWidth, NotSquarefree
from .rationals import QQ, QQ0, QQ1, parse_qstr, qstr

DEFAULT_WIDTH = "1/1000000"  # of every isolation whose caller names none


@dataclass(frozen=True)
class RatPolynomial:
    """Dense rational polynomial; coeffs low-to-high with no trailing zeros."""

    coeffs: tuple

    def __post_init__(self):
        cs = [QQ(c) for c in self.coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    # -- basic structure ----------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __call__(self, x):
        acc = QQ0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    # -- product and the pullback from B to A -------------------------------

    def __mul__(self, other: "RatPolynomial") -> "RatPolynomial":
        if self.is_zero or other.is_zero:
            return RatPolynomial(())
        out = [QQ0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return RatPolynomial(tuple(out))

    @classmethod
    def from_scaled(cls, q, L: int) -> "RatPolynomial":
        """L^-d q(L x) for integer q of degree d (low to high): q's roots over L."""
        d = len(q) - 1
        return cls(tuple(QQ(c, L ** (d - k)) for k, c in enumerate(q)))

    # -- serialization --------------------------------------------------------

    def serialize(self) -> str:
        if self.is_zero:
            return qstr(QQ0)
        return " ".join(qstr(c) for c in self.coeffs)

    @classmethod
    def parse(cls, text: str) -> "RatPolynomial":
        return cls(tuple(parse_qstr(tok) for tok in text.split()))

    def __repr__(self) -> str:
        return f"RatPolynomial({self.serialize()!r})"


def poly_product(factors) -> RatPolynomial:
    out = RatPolynomial((QQ1,))
    for f in factors:
        out = out * (f if isinstance(f, RatPolynomial) else RatPolynomial(tuple(f)))
    return out


def is_squarefree(c) -> bool:
    """gcd(c, c') is constant for integer coefficients c (low to high):
    c's Sturm chain ends in a constant."""
    return len(sturm_chain(c)[-1]) == 1


# -- integer Sturm machinery ----------------------------------------------------


def _primitive(cs) -> tuple[int, ...]:
    """Integer coefficients over their positive content, high zeros stripped."""
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    g = gcd(*cs)
    return tuple(c // g for c in cs) if g > 1 else tuple(cs)


def _next_member(a: tuple, b: tuple) -> tuple[int, ...]:
    """-prem(a, b) over its positive content.

    prem(a, b) = |lc(b)|^(delta+1) (a mod b) with delta = deg a - deg b,
    so any degree gap only raises the exponent.
    """
    r = list(a)
    db = len(b) - 1
    m = abs(b[-1])
    neg = b[-1] < 0
    low = b[:-1]
    for i in range(len(r) - 1, db - 1, -1):
        # r <- m r - sign(lc b) r_i x^(i - db) b clears r_i
        f = -r[i] if neg else r[i]
        r[:i] = [m * x for x in r[:i]]
        for j, y in enumerate(low, i - db):
            r[j] -= f * y
    return _primitive(-x for x in r[:db])


def sturm_chain(c) -> list[tuple[int, ...]]:
    """Sturm chain of integer coefficients c as coprime integer tuples, low to high.

    Member k is the positive multiple of the k-th rational member p, p',
    -rem(p, p'), ... of p = c (module docstring); the last is gcd(p, p')
    up to a positive factor.
    """
    chain = [_primitive(c)]
    nxt = _primitive(j * x for j, x in enumerate(chain[0]) if j)
    while nxt:
        chain.append(nxt)
        nxt = _next_member(chain[-2], nxt)
    return chain


def _scaled(c: tuple, a: int, b: int) -> list[int]:
    """Coefficients c_j a^j b^(d-j) of b^d c(a y / b), d = deg c."""
    out = list(c)
    w = 1
    for j in range(len(out) - 2, -1, -1):
        w *= b
        out[j] *= w
    w = 1
    for j in range(1, len(out)):
        w *= a
        out[j] *= w
    return out


def _sign_at(c: tuple, u: int, v: int) -> int:
    """Sign of c at u / v for v > 0, from the integer v^d c(u / v)."""
    s = sum(_scaled(c, u, v))
    return (s > 0) - (s < 0)


def _sign_dyadic(q, n: int, k: int) -> int:
    """Sign of q at n / 2**k: Horner on sum q_j n^j 2^(k (d-j)) with shifts."""
    it = reversed(q)
    acc = next(it)
    s = 0
    for x in it:
        s += k
        acc = acc * n + (x << s)
    return (acc > 0) - (acc < 0)


def _variations(signs) -> int:
    count = last = 0
    for s in signs:
        if s:
            if s == -last:
                count += 1
            last = s
    return count


def _cauchy_bound(c: tuple) -> tuple[int, int]:
    """Cauchy bound 1 + max |c_j / c_d| of a nonconstant c as a reduced a / b."""
    lead = abs(c[-1])
    a = lead + max(abs(x) for x in c[:-1])
    g = gcd(a, lead)
    return a // g, lead // g


class _Frame:
    """A chain in the coordinate y = x b / a (a, b > 0), read at y = n / 2**k.

    Each member c becomes b^d c(a y / b) over its content, a positive
    multiple, so the signs are those of c at x = a n / (b 2^k).
    """

    __slots__ = ("a", "b", "members")

    def __init__(self, chain: list[tuple], a: int, b: int):
        self.a, self.b = a, b
        self.members = [_primitive(_scaled(c, a, b)) for c in chain]

    def signs(self, n: int, k: int) -> list[int]:
        return [_sign_dyadic(q, n, k) for q in self.members]

    def sign(self, n: int, k: int) -> int:
        """Sign of the first member."""
        return _sign_dyadic(self.members[0], n, k)

    def point(self, n: int, k: int) -> QQ:
        return QQ(self.a * n, self.b << k)


def _bisect(frame: _Frame, n: int, k: int, delta: int, done) -> tuple[int, int, bool]:
    """Halve (n, n + delta] / 2**k around its one root until done(n, k).

    The frame's first member must have exactly one root in the interval,
    a simple one, and none at the right end.  The root lies in the left
    half (2n, 2n + delta] of level k + 1 exactly when the midpoint has
    the sign of the right end, which is the choice the Sturm count of
    each half makes.  Returns (n, k, False) once done(n, k), or
    (m, k, True) when the midpoint m / 2**k is the root.
    """
    if done(n, k):
        return n, k, False
    s_hi = frame.sign(n + delta, k)
    while True:
        mid = 2 * n + delta
        k += 1
        s = frame.sign(mid, k)
        if s == 0:
            return mid, k, True
        n = 2 * n if s == s_hi else mid
        if done(n, k):
            return n, k, False


@dataclass(frozen=True)
class RootInterval:
    """One isolated real root: exact rational value (lo = hi = value), or an open-ish (lo, hi]."""

    lo: QQ
    hi: QQ
    value: object = None  # exact rational when known

    @property
    def is_rational(self) -> bool:
        return self.value is not None

    @property
    def is_zero(self) -> bool:
        return self.value is not None and self.value == 0

    def to_json_dict(self) -> dict:
        out = {"lo": qstr(self.lo), "hi": qstr(self.hi), "is_rational": self.is_rational,
               "is_zero": self.is_zero}
        if self.value is not None:
            out["value"] = qstr(self.value)
        return out


@dataclass
class RootIsolation:
    """All real roots of a squarefree polynomial p, isolated and sorted.

    `p` is the first member of p's Sturm chain, a positive multiple with
    coprime integer coefficients, low to high.  The interval (lo, hi] of
    an irrational root holds no other root of p, and hi is none, so p is
    nonzero at hi and at every rational inside and changes sign once.
    `cut` and `refine` read that sign change, never the sign at lo,
    which can be an exact root deflated during isolation.
    """

    roots: list[RootInterval]
    p: tuple[int, ...]

    def cut(self, r: RootInterval, x) -> RootInterval:
        """r's interval split at the rational x: (lo, x] when p(x) has the
        sign of p(hi), else (x, hi], if r is irrational and lo < x < hi;
        r itself otherwise.  Afterwards r <= x exactly when its hi <= x.
        """
        x = QQ(x)
        if r.value is not None or not r.lo < x < r.hi:
            return r
        s_hi = _sign_at(self.p, int(r.hi.numerator), int(r.hi.denominator))
        if _sign_at(self.p, int(x.numerator), int(x.denominator)) == s_hi:
            return RootInterval(r.lo, x)
        return RootInterval(x, r.hi)

    def refine(self, width) -> "RootIsolation":
        """Bisect each irrational interval until it is at most `width` wide (> 0).

        No midpoint is a root, since the one root inside is irrational.
        """
        width = parse_width(width)
        wn, wd = int(width.numerator), int(width.denominator)
        out = []
        for r in self.roots:
            if r.value is not None:
                out.append(r)
                continue
            # (lo, hi] = (n, n + delta] / den holds one root of p
            den = lcm(int(r.lo.denominator), int(r.hi.denominator))
            n = int(r.lo.numerator) * (den // int(r.lo.denominator))
            delta = int(r.hi.numerator) * (den // int(r.hi.denominator)) - n
            frame = _Frame([self.p], 1, den)
            kstop = _halvings(delta, den, wn, wd)
            n, k, _ = _bisect(frame, n, 0, delta, lambda n, k: k >= kstop)
            out.append(RootInterval(frame.point(n, k), frame.point(n + delta, k)))
        return RootIsolation(out, self.p)


def _deflate(c: tuple, u: int, v: int) -> tuple[int, ...]:
    """c / (v x - u) for a root u / v of c (v > 0), over its content.

    By Gauss's lemma the quotient of the primitive c is integral.
    """
    q = [0] * (len(c) - 1)
    acc = 0
    for j in range(len(c) - 1, 0, -1):
        acc = (c[j] + u * acc) // v
        q[j - 1] = acc
    return _primitive(q)


def parse_width(width) -> QQ:
    """`width` as a positive rational; raises InvalidWidth for anything else.

    Bisection halves an interval until it is at most `width` wide, which
    never happens for a width <= 0.
    """
    try:
        w = QQ(width)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        raise InvalidWidth(f"width {width!r} is not a rational number") from None
    if w <= 0:
        raise InvalidWidth(f"width must be positive, got {width!r}")
    return w


def _halvings(span_num: int, span_den: int, tn: int, td: int) -> int:
    """Fewest k >= 0 with span / 2**k <= tn / td (tn, td > 0)."""
    k = 0
    while span_num * td > (tn * span_den) << k:
        k += 1
    return k


def isolate_real_roots(q, L: int = 1, width=DEFAULT_WIDTH) -> RootIsolation:
    """Isolate every real root of p(x) = L^-d q(L x) into disjoint intervals.

    `q` holds the integer coefficients of a monic polynomial, low to high
    (ValueError otherwise), and L >= 1 is the scale: for min_B and
    A = B / L, p is min_A.  Intervals come out no wider than `width`,
    which must be a positive rational (InvalidWidth otherwise), and every
    rational root is detected exactly (see module docstring for the
    certificate).  Raises NotSquarefree unless q is nonzero and
    squarefree; that test reads the chain the isolation needs anyway.
    The returned `RootIsolation` carries the chain's first member, p.
    """
    if q and q[-1] != 1:
        raise ValueError(f"root isolation requires a monic integer polynomial, got {q!r}")
    width = parse_width(width)
    # stop at min(width, 1 / L) as tn / td: (1/L)Z holds every rational root
    tn, td = (width.numerator, width.denominator) if width * L <= 1 else (1, L)
    chain = sturm_chain(x * L**k for k, x in enumerate(q))
    c = chain[0]
    if len(chain[-1]) != 1:
        raise NotSquarefree(f"root isolation requires a squarefree polynomial, got {q!r}")

    exact: list[tuple[int, int]] = []  # reduced (u, v) of each root u / v
    current = chain

    # Rational roots surface through deflate-and-restart: every bisection
    # point is zero-tested before it becomes an endpoint, and once an
    # interval is narrow enough its one lattice point settles
    # rationality, so no up-front root scan is needed.
    while True:
        frame, done = None, []
        if len(c) <= 1:
            break
        a, b = _cauchy_bound(c)
        frame = _Frame(current, a, b)
        # the interval (n, n + 2] / 2**k in y = x b / a is 2 a / (b 2^k) wide in x
        kstop = _halvings(2 * a, b, tn, td)
        work = [(-1, 0, _variations(frame.signs(-1, 0)), _variations(frame.signs(1, 0)))]
        root = None
        while work and root is None:
            n, k, v_lo, v_hi = work.pop()
            count = v_lo - v_hi
            if count == 0:
                continue
            if count == 1:
                # endpoints are never roots (outer bounds are strict,
                # interior endpoints were zero-tested as midpoints), so
                # the lone simple root flips the sign of p and plain sign
                # bisection narrows the interval without the chain
                n, k, hit = _bisect(frame, n, k, 2, lambda n, k: k >= kstop)
                if hit:
                    root = (n, k)
                else:
                    done.append((n, k))
                continue
            mid = 2 * n + 2
            signs = frame.signs(mid, k + 1)
            if signs[0] == 0:
                # exact root hit mid-bisection: deflate and redo isolation
                root = (mid, k + 1)
                break
            v_mid = _variations(signs)
            work.append((2 * n, k + 1, v_lo, v_mid))
            work.append((mid, k + 1, v_mid, v_hi))
        if root is None:
            break
        u, v = a * root[0], b << root[1]
        g = gcd(u, v)
        exact.append((u // g, v // g))
        c = _deflate(c, u // g, v // g)
        current = sturm_chain(c)

    intervals = []
    for n, k in done:
        # at most 1 / L wide, (lo, hi] holds at most the lattice point
        # u / L with u = floor(L hi), a root exactly when c vanishes there
        # (module docstring); hi is the strict bound or a midpoint tested
        # above, never a root
        w = frame.b << k
        u = L * frame.a * (n + 2) // w
        if u * w > L * frame.a * n and _sign_at(c, u, L) == 0:
            g = gcd(u, L)
            exact.append((u // g, L // g))
        else:
            intervals.append((n, k))

    # shrink intervals until no previously deflated exact root sits inside,
    # so each interval isolates exactly one root of the input polynomial;
    # the one root of c inside is irrational, so no midpoint is a root
    def clear(n, k):
        # no u / v with lo < u / v <= hi
        lo, hi = frame.a * n, frame.a * (n + 2)
        w = frame.b << k
        return not any(lo * v < u * w <= hi * v for u, v in exact)

    intervals = [_bisect(frame, n, k, 2, clear)[:2] for n, k in intervals]
    roots = [RootInterval(x, x, x) for x in (QQ(u, v) for u, v in exact)]
    roots.extend(RootInterval(frame.point(n, k), frame.point(n + 2, k)) for n, k in intervals)
    roots.sort(key=lambda r: (r.lo, r.hi))
    return RootIsolation(roots, chain[0])
