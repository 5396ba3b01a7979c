"""Rational polynomials and certified real-root isolation."""

import pytest
import sympy

from garland.errors import InvalidWidth, NotSquarefree
from garland.polyq import (
    RatPolynomial,
    RootInterval,
    is_squarefree,
    isolate_real_roots,
    poly_product,
    sturm_chain,
)
from garland.rationals import QQ, QQ1

import rational_isolation as oracle
from rational_isolation import (
    derivative,
    divides,
    integer_form,
    monic,
    neg,
    poly_div,
    poly_divmod,
    poly_gcd,
    poly_lcm,
    poly_mod,
    primitive,
)


def P(*coeffs):
    return RatPolynomial(tuple(QQ(c) for c in coeffs))


X = P(0, 1)
ZERO = P()


# -- arithmetic ---------------------------------------------------------------


def test_trailing_zeros_are_stripped():
    assert P(1, 2, 0, 0).coeffs == (QQ(1), QQ(2))
    assert ZERO.degree == -1
    assert ZERO.is_zero
    assert P(0).is_zero


def test_ring_operations():
    # the product and evaluation are all RatPolynomial ships
    f = P(-1, 0, 1)  # x^2 - 1
    assert f == P(1, 1) * P(-1, 1)
    assert f * ZERO == ZERO
    assert neg(f) == P(1, 0, -1)
    assert f(QQ(2)) == 3
    assert f(QQ(-1)) == 0


def test_divmod_identity():
    f = P(2, -3, 0, 1, 5)
    g = P(1, 0, 7)
    q, r = poly_divmod(f, g)
    # both sides have degree <= 4, so agreeing at 5 points makes q g + r = f
    assert all((q * g)(x) + r(x) == f(x) for x in map(QQ, range(5)))
    assert r.degree < g.degree
    assert poly_div(f, g) == q
    assert poly_mod(f, g) == r
    with pytest.raises(ZeroDivisionError):
        poly_divmod(f, ZERO)


def test_monic_and_derivative():
    f = P(2, 0, 4)
    assert monic(f) == P(QQ(1, 2), 0, 1)
    assert derivative(f) == P(0, 8)
    assert derivative(ZERO) == ZERO


def test_primitive_scales_to_coprime_integers():
    assert primitive(P(QQ(4), QQ(-2), QQ(6))) == P(2, -1, 3)
    assert primitive(P(QQ(1, 2), QQ(1, 3))) == P(3, 2)
    # scaling is by a positive factor, so signs survive
    assert primitive(P(0, -2, -4)) == P(0, -1, -2)


def test_gcd_lcm_divides():
    a = P(-1, 1) * P(-2, 1)
    b = P(-2, 1) * P(-3, 1)
    assert poly_gcd(a, b) == P(-2, 1)
    assert poly_lcm(a, b) == monic(P(-1, 1) * P(-2, 1) * P(-3, 1))
    assert divides(P(-2, 1), a)
    assert not divides(P(-3, 1), a)
    assert divides(ZERO, ZERO)


def test_scale_roots_multiplies_roots():
    # from_scaled multiplies q's roots by 1/L: q = x^2 - 36, roots +-6,
    # with L = 3 gives x^2 - 4, roots +-2
    assert RatPolynomial.from_scaled((-36, 0, 1), 3) == P(-4, 0, 1)
    # monic stays monic, and L = 1 changes nothing
    assert RatPolynomial.from_scaled((0, -14, 43, -4, 1), 1) == P(0, -14, 43, -4, 1)
    assert RatPolynomial.from_scaled((0, -14, 43, -12, 1), 3) == \
        P(0, QQ(-14, 27), QQ(43, 9), -4, 1)
    assert RatPolynomial.from_scaled((1,), 5) == P(1)


def test_product_of_linear_factors():
    # factors may be given as coefficient tuples
    f = poly_product((-QQ(r), 1) for r in (1, -2, QQ(1, 3)))
    assert f.degree == 3 and f.coeffs[-1] == 1
    for r in (1, -2, QQ(1, 3)):
        assert f(QQ(r)) == 0
    assert poly_product([P(1, 1), P(-1, 1), P(2)]) == P(-2, 0, 2)
    assert poly_product([]) == P(1)


def test_serialize_parse_round_trip():
    for f in (ZERO, X, P(QQ(-14, 9), QQ(43, 9), -4, 1), P(5)):
        assert RatPolynomial.parse(f.serialize()) == f
    assert ZERO.serialize() == "0/1"
    assert P(QQ(1, 2), 1).serialize() == "1/2 1/1"


# -- Sturm chains -------------------------------------------------------------


def test_sturm_chain_is_primitive_and_signed():
    f = P(-5, 3, -2, 1)  # x^3 - 2x^2 + 3x - 5
    chain = [RatPolynomial(c) for c in sturm_chain((-5, 3, -2, 1))]
    assert chain[0] == primitive(f)
    assert chain[1] == primitive(derivative(f))
    # signed-remainder property up to the positive primitive scaling
    for k in range(2, len(chain)):
        rem = poly_mod(chain[k - 2], chain[k - 1])
        assert primitive(neg(rem)) == chain[k]
        assert primitive(chain[k]) == chain[k]
    assert chain[-1].degree == 0  # squarefree input ends in a constant


def test_is_squarefree():
    assert is_squarefree((-1, 0, 1))
    assert not is_squarefree((1, -2, 1))  # (x - 1)^2
    assert is_squarefree((7,))


# -- root isolation -----------------------------------------------------------


def test_isolation_rational_and_irrational_mix():
    # x (x - 2) (x^2 - 2x + 7/9): rational 0, 2 and irrational 1 +- sqrt(2)/3
    f = X * P(-2, 1) * P(QQ(7, 9), -2, 1)
    iso = isolate_real_roots(*integer_form(f), width="1/1000000")
    assert len(iso.roots) == 4
    rational = [r for r in iso.roots if r.is_rational]
    assert [r.value for r in rational] == [0, 2]
    assert rational[0].is_zero and not rational[1].is_zero
    irrational = [r for r in iso.roots if not r.is_rational]
    assert len(irrational) == 2
    exact = [sympy.Rational(1) - sympy.sqrt(2) / 3, sympy.Rational(1) + sympy.sqrt(2) / 3]
    for r, t in zip(irrational, exact):
        assert r.hi - r.lo <= QQ(1, 10**6)
        assert sympy.Rational(str(r.lo)) < t < sympy.Rational(str(r.hi))


def test_isolation_matches_sympy_intervals():
    f = P(-1, -3, 0, 2, 1)  # x^4 + 2x^3 - 3x - 1, irrational roots only
    iso = isolate_real_roots(*integer_form(f), width="1/100000")
    x = sympy.Symbol("x")
    sf = sympy.Poly(x**4 + 2 * x**3 - 3 * x - 1, x)
    sroots = sf.real_roots()
    assert len(iso.roots) == len(sroots)
    for r, s in zip(iso.roots, sroots):
        assert not r.is_rational
        assert sympy.Rational(str(r.lo)) < s < sympy.Rational(str(r.hi))


def test_isolation_all_rational():
    f = poly_product((-QQ(r), 1) for r in (-5, 0, QQ(1, 3), QQ(7, 2)))
    iso = isolate_real_roots(*integer_form(f))
    assert [r.value for r in iso.roots] == [-5, 0, QQ(1, 3), QQ(7, 2)]
    assert all(r.is_rational for r in iso.roots)


def test_isolation_no_real_roots():
    iso = isolate_real_roots((1, 0, 1))
    assert len(iso.roots) == 0


def test_isolation_den_bound_enables_coarse_width():
    # the scale L certifies rational roots even at width 1: q = (x - 3)(x - 1)
    # with L = 3 is (x - 1)(x - 1/3), whose roots lie on (1/3)Z
    iso = isolate_real_roots((3, -4, 1), 3, width="1")
    assert [r.value for r in iso.roots] == [QQ(1, 3), 1]
    # the stop width is min(width, 1/L) = 1/3
    assert all(r.hi - r.lo <= QQ(1, 3) for r in isolate_real_roots((-2, 0, 1), 3, "1").roots)
    with pytest.raises(ValueError):
        isolate_real_roots((1, -4, 3), 3)  # not monic


def test_isolation_intervals_certify_irrationality():
    # endpoints are non-roots and each interval holds exactly one root
    f = P(-2, 0, 1) * P(-3, 0, 1)
    iso = isolate_real_roots(*integer_form(f), width="1/4096")
    assert len(iso.roots) == 4
    for r in iso.roots:
        assert not r.is_rational
        assert f(r.lo) != 0 and f(r.hi) != 0
        assert oracle.count_roots_halfopen(oracle.sturm_chain(f), r.lo, r.hi) == 1


def test_isolation_rejects_repeated_roots():
    with pytest.raises(NotSquarefree):
        isolate_real_roots((1, -2, 1))
    with pytest.raises(NotSquarefree):
        isolate_real_roots(())


@pytest.mark.parametrize("width", [0, "0", "-1/2", QQ(-1), "abc", "1/0", None])
def test_isolation_and_refine_reject_a_width_that_is_not_positive(width):
    # bisection toward a width <= 0 never ends, so it is refused up front
    f = (-2, 0, 1)
    with pytest.raises(InvalidWidth):
        isolate_real_roots(f, width=width)
    with pytest.raises(InvalidWidth):
        isolate_real_roots(f).refine(width)


def test_refine_narrows_without_reclassifying():
    iso = isolate_real_roots((-2, 0, 1), width="1/8")
    fine = iso.refine(QQ(1, 10**9))
    assert len(fine.roots) == 2
    for old, new in zip(iso.roots, fine.roots):
        assert old.lo <= new.lo <= new.hi <= old.hi
        assert new.hi - new.lo <= QQ(1, 10**9)
        assert new.is_rational == old.is_rational


def test_isolation_returns_the_input_and_its_chain():
    # 0 is met at a midpoint and deflated, 1 and 3 are certified at their
    # lattice points and stay in p: the result is still p, not p times
    # the squares of (x - 1) (x - 3)
    q = (0, 3, -4, 1)  # x (x - 1) (x - 3)
    iso = isolate_real_roots(q)
    assert [r.value for r in iso.roots] == [0, 1, 3]
    assert iso.p == sturm_chain(q)[0]
    chain = oracle.sturm_chain(RatPolynomial(iso.p))
    assert oracle.count_roots_halfopen(chain, 1, 10) == 1
    assert oracle.count_roots_halfopen(chain, 0, 3) == 2


def test_isolation_runs_without_rational_polynomial_arithmetic(monkeypatch):
    # signs, chain and deflation are integer work: evaluating a
    # RatPolynomial anywhere on the isolation path fails this test, and
    # the class cannot divide at all
    f = X * P(-2, 1) * P(QQ(7, 9), -2, 1)
    assert not any(hasattr(RatPolynomial, name)
                   for name in ("__divmod__", "__floordiv__", "__mod__", "monic"))

    def forbidden(*args):
        raise AssertionError("rational polynomial arithmetic on the isolation path")

    monkeypatch.setattr(RatPolynomial, "__call__", forbidden)
    iso = isolate_real_roots(*integer_form(f))
    assert [r.value for r in iso.roots if r.is_rational] == [0, 2]
    # the cuts at a rational read integer signs too
    def above(x):
        return sum(iso.cut(r, x).hi > x for r in iso.roots)

    assert above(QQ(1, 2)) - above(2) == 3  # 1 -+ sqrt(2)/3 and 2
    assert above(-1) - above(0) == 1
    fine = iso.refine(QQ(1, 10**9))
    assert all(r.hi - r.lo <= QQ(1, 10**9) for r in fine.roots)
    with pytest.raises(AssertionError):
        f(QQ(1))


def test_root_interval_json():
    assert RootInterval(QQ(2), QQ(2), QQ(2)).to_json_dict() == {
        "lo": "2/1",
        "hi": "2/1",
        "is_rational": True,
        "is_zero": False,
        "value": "2/1",
    }
    d = RootInterval(QQ(1, 4), QQ(1, 2)).to_json_dict()
    assert d == {"lo": "1/4", "hi": "1/2", "is_rational": False, "is_zero": False}
