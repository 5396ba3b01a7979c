"""The integer isolator against the rational one it replaced.

`rational_isolation` holds the isolator that evaluated every sign with
`Fraction` arithmetic.  Each case is a rational p and a scale L (None for
the lcm D of the denominators of monic p); the package isolates the
monic integer q = L^d p(x / L) with L, the oracle p with L.  On every
case both must give the same monic polynomial, the same roots (compared
as JSON), the same chain and the same refinement to 1e-9, and the roots
above each probe x, counted on the package's cuts at x, must match the
oracle's Sturm count.  The fixed list reaches each branch of the
isolator; the seeded random ones add bulk.
"""

import os
import random

import pytest

import rational_isolation as oracle
from garland.errors import NotSquarefree
from garland.polyq import (
    RatPolynomial,
    is_squarefree,
    isolate_real_roots,
    poly_product,
    sturm_chain,
)
from garland.rationals import QQ

EXTENDED = os.environ.get("GARLAND_EXTENDED") == "1"


def P(*coeffs):
    return RatPolynomial(tuple(QQ(c) for c in coeffs))


def roots_of(*values):
    return poly_product((-QQ(v), 1) for v in values)


X = P(0, 1)

# (polynomial, width, L)
FIXED = [
    # Heawood factor times x (x - 2): 0 at the first midpoint, deflation
    (X * P(-2, 1) * P(QQ(7, 9), -2, 1), "1/1000000", None),
    (X * P(-2, 1) * P(QQ(7, 9), -2, 1), "1/1000000", 9),
    # 1/3 and 5 are no bisection points: certified at their lattice points
    (roots_of(QQ(1, 3), 5), "1/1000000", None),
    (roots_of(-5, 0, QQ(1, 3), QQ(7, 2)), "1/1000000", None),
    # a root met while sign bisection narrows a one-root interval
    (roots_of(QQ(3, 8)) * P(-2, 0, 1), "1/1000000", None),
    # -1 is certified and 1 - sqrt(6) shares an interval with it at width 1
    (roots_of(-1) * P(-5, -2, 1), "1", 1),
    (P(1, 0, 1), "1/1000000", None),  # no real roots
    (P(1, 0, 1) * P(QQ(1, 2), 1, 1), "1/8", 2),  # no real roots, degree 4
    (P(7), "1/1000000", None),  # degree 0
    (P(QQ(-3, 2)), "1", 1),
    (P(QQ(5, 7), QQ(3, 2)), "1/1000000", None),  # degree 1, rational root
    (P(-2, 3), "1", 3),
    (P(-1, -3, 0, 2, 1), "1/100000", None),  # irrational roots only
    (P(-2, 0, 1) * P(-3, 0, 1), "1/4096", None),
    # x^5 + 2x^2 - 2: a chain member of negative leading coefficient
    # followed by a degree gap of 2, so |lc|^(delta+1) has an odd power
    (P(-2, 0, 2, 0, 0, 1), "1/1000000", None),
    (P(4, 0, 0, 0, 2, 1), "1/1000", None),
    # at width 1 the interval of 1 + sqrt(2) holds no lattice point, and
    # floor(hi) = 2, below it, is a root of p: the test must not read it
    (roots_of(2) * P(-1, -2, 1), "1", 1),
    # non-monic input with a negative leading coefficient
    (P(6, 0, -3), "1/1000000", None),
    (P(QQ(-14, 9), QQ(43, 9), -4, 1), "1/1000000", None),
]


def random_polynomial(rng: random.Random) -> RatPolynomial:
    kind = rng.randrange(3)
    out = P(rng.choice([1, -2, 3, QQ(1, 2)]))
    if kind == 0:
        for _ in range(rng.randint(0, 5)):
            out = out * P(QQ(-rng.randint(-20, 20), rng.randint(1, 6)), 1)
    elif kind == 1:
        for _ in range(rng.randint(0, 3)):
            out = out * P(*(QQ(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(3)), 1)
    else:
        d = rng.randint(0, 7)
        out = out * P(*(QQ(rng.randint(-30, 30), rng.randint(1, 5)) for _ in range(d)),
                      rng.choice([-3, -1, 1, 2, 5]))
        if rng.random() < 0.5:
            out = out * P(QQ(-rng.randint(-8, 8), rng.randint(1, 3)), 1)
    return out


def random_cases(seed: int, count: int):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        p = random_polynomial(rng)
        if not p.is_zero and is_squarefree(oracle.integer_form(p)[0]):
            # L = None or a multiple of D, as an operator's L is of min_A's
            width, m = rng.choice(["1/1000000", "1/8", "1", "1/3"]), \
                rng.choice([None, None, 1, 2, 6, 12])
            out.append((p, width, m and m * oracle.integer_form(p)[1]))
    return out


PROBES = [-100, -3, QQ(-1, 7), 0, QQ(1, 3), 1, 2, QQ(22, 7), QQ(7, 2), 100]


def probes(roots) -> list:
    """PROBES and, for each irrational interval, its ends and two points inside."""
    out = list(PROBES)
    for r in roots:
        if r.value is None:
            out += [r.lo, r.hi, (r.lo + r.hi) / 2, (2 * r.lo + r.hi) / 3]
    return out


def compare(p, width, L) -> set:
    """Assert the two isolators agree on p; return the branch names reached."""
    cases = {"L default" if L is None else "L given"}
    q, L = oracle.integer_form(p, L)
    # chains first: a wrong chain can make the isolator count forever
    chain = sturm_chain(c * L**k for k, c in enumerate(q))
    assert [RatPolynomial(c) for c in chain] == oracle.sturm_chain(oracle.monic(p))
    old = oracle.isolate_real_roots(p, width, L, cases)
    new = isolate_real_roots(q, L, width)
    assert new.p == chain[0]
    assert [r.to_json_dict() for r in new.roots] == [r.to_json_dict() for r in old.roots]
    # the roots above x, read on the cuts at x, against the Sturm count
    # over (x, bound], every root lying below the Cauchy bound
    bound = oracle.root_magnitude_bound(p)
    for x in probes(new.roots):
        cuts = [new.cut(r, x) for r in new.roots]
        assert sum(c.hi > x for c in cuts) == old.count_in_halfopen(x, bound)
        for r, c in zip(new.roots, cuts):
            if c != r:
                cases.add("cut")
                assert x in (c.lo, c.hi) and r.lo <= c.lo < c.hi <= r.hi
    fine_new, fine_old = new.refine(QQ(1, 10**9)), old.refine(QQ(1, 10**9))
    assert [r.to_json_dict() for r in fine_new.roots] == \
        [r.to_json_dict() for r in fine_old.roots]

    cases.add(f"degree {min(p.degree, 2)}")
    if not new.roots:
        cases.add("no real roots")
    den = bound.denominator
    if p.degree > 0 and den & (den - 1):
        cases.add("non-dyadic bound")
    for a, b in zip(chain, chain[1:]):
        if b[-1] < 0 and (len(a) - len(b)) % 2 == 0:
            cases.add("negative lc, odd power")
    return cases


@pytest.mark.parametrize("p,width,L", FIXED)
def test_fixed_polynomials_match_the_rational_isolator(p, width, L):
    compare(p, width, L)


def test_every_branch_is_reached():
    reached = set()
    for p, width, L in FIXED:
        reached |= compare(p, width, L)
    assert reached >= {
        "midpoint-split", "midpoint-narrow", "lattice", "lattice root below", "irrational",
        "shrink", "gap", "L default", "L given", "no real roots", "degree 0", "degree 1",
        "non-dyadic bound", "negative lc, odd power", "cut",
    }
    # a finished interval's right end is never a root: it is the strict
    # Cauchy bound or a midpoint already tested nonzero in the same pass,
    # so the integer isolator has no such branch
    assert "hi" not in reached


def test_seeded_random_polynomials_match_the_rational_isolator():
    reached = set()
    for p, width, L in random_cases(20261018, 150):
        reached |= compare(p, width, L)
    assert "hi" not in reached
    assert {"midpoint-split", "lattice", "irrational", "gap", "cut"} <= reached


# minimal polynomials of B / L and the scale L their reports isolate
# with, for the building instances (ell, q, i), as recorded in the cache of
# `garland report --grid extended`
BUILDING_MINPOLYS = {
    (2, 2, 1): (3, (
        '0/1 -4480/243 114064/729 -130300/243 723680/729 -3325/3 21091/27 -350/1 '
        '290/3 -15/1 1/1'
    )),
    (2, 3, 1): (4, (
        '0/1 -5655/256 90287/512 -148395/256 533845/512 -73035/64 50787/64 '
        '-705/2 775/8 -15/1 1/1'
    )),
    (3, 2, 1): (21, (
        '0/1 -16842967909666750791680/7148520419229 '
        '591303438268479087976448/21445561257687 '
        '-3280034464513291682615296/21445561257687 '
        '11489830855039458739257856/21445561257687 '
        '-3173459231051024560720384/2382840139743 '
        '5962593461247961387600448/2382840139743 '
        '-8805782227984436052724672/2382840139743 '
        '31478739026596235648712992/7148520419229 '
        '-30823656301844110788311824/7148520419229 '
        '75384257935350896427483676/21445561257687 '
        '-51642784660074863443915760/21445561257687 '
        '29922536281492624481975708/21445561257687 '
        '-233724614949663407839508/340405734249 '
        '685219237234669618547099/2382840139743 '
        '-34901747071573118216156/340405734249 '
        '10576605229140629069714/340405734249 -43083527409845859400/5403265623 '
        '9307738281149010301/5403265623 -26635110050724296/85766121 '
        '3957322708442144/85766121 -1079508773380/194481 102500171611/194481 '
        '-342092/9 862730/441 -64/1 1/1'
    )),
    (3, 2, 2): (3, (
        '0/1 620936861941760/1162261467 -35011632623638528/3486784401 '
        '299602797269426176/3486784401 -1566373876896308096/3486784401 '
        '5650330873047567680/3486784401 -556753979814420704/129140163 '
        '1138945983027332752/129140163 -68244261702909992/4782969 '
        '801475168853168788/43046721 -31687781099597248/1594323 '
        '27951812069822800/1594323 -6838605805368274/531441 '
        '4194608526619229/531441 -26598926240980/6561 11439193791286/6561 '
        '-4109263546870/6561 1227015243499/6561 -11191135432/243 2246382140/243 '
        '-40150474/27 15145475/81 -53084/3 3554/3 -50/1 1/1'
    )),
}


def test_building_polynomials_match_the_rational_isolator():
    # GARLAND_EXTENDED=1 adds the degree-26 and degree-25 polynomials of
    # the (3,2) building, where the rational isolator takes seconds
    instances = [(2, 2, 1), (2, 3, 1)] + ([(3, 2, 1), (3, 2, 2)] if EXTENDED else [])
    for key in instances:
        L, text = BUILDING_MINPOLYS[key]
        compare(RatPolynomial.parse(text), "1/1000000", L)


def test_squarefree_test_matches_the_gcd_test():
    rng = random.Random(7)
    samples = [random_polynomial(rng) for _ in range(200)]
    samples += [roots_of(1, 1, 2), roots_of(QQ(1, 3), QQ(1, 3)) * P(1, 0, 1),
                P(1, 0, 1) * P(1, 0, 1)]
    for p in samples:
        if p.is_zero:
            continue
        q, L = oracle.integer_form(p)
        assert is_squarefree(q) == oracle.is_squarefree(p)
        if not is_squarefree(q):
            with pytest.raises(NotSquarefree):
                isolate_real_roots(q, L)
