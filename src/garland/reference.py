"""Recorded reference factorizations of minimal polynomials.

For small rank and field size the minimal polynomial of the weighted
Laplacian on the flag complex is known in closed form as a product of
low-degree factors with coefficients rational in q.  This module stores
those factorizations exactly and expands them on demand, so computed
spectra can be compared against the recorded values with exact
arithmetic.  Degree here means the cochain degree i of the Laplacian.

Keys follow the (ell, q, i) instance naming used across the package:
ell+1 is the dimension of the flag complex on F_q^(ell+2).  Formulas
parametric in q cover (1, q, 0), (2, q, 0) and (2, q, 1) for every
prime power q; the isolated records are (3, 2, 0), (3, 3, 0) and
(4, 2, 0).
"""

from __future__ import annotations

from .errors import UnknownReferenceInstance
from .polyq import RatPolynomial, poly_product
from .rationals import QQ, QQ1


def _linear(root) -> RatPolynomial:
    return RatPolynomial((-QQ(root), QQ1))


def _poly(*coeffs) -> RatPolynomial:
    """Coefficients high-to-low, as the factors are usually written."""
    return RatPolynomial(tuple(QQ(c) for c in reversed(coeffs)))


def _factors_1_0(q: int) -> list[RatPolynomial]:
    s = (q + 1) ** 2
    return [
        _linear(0),
        _linear(2),
        _poly(1, -2, QQ(q * q + q + 1, s)),
    ]


def _factors_2_0(q: int) -> list[RatPolynomial]:
    d = q * q + q + 1
    return [
        _linear(0),
        _linear(2),
        _linear(3),
        _linear(QQ(2 * q * q + 3 * q + 2, d)),
        _poly(1, QQ(-(4 * q * q + 3 * q + 4), d), QQ(4 * q * q + 4, d)),
    ]


def _factors_2_1(q: int) -> list[RatPolynomial]:
    s = (q + 1) ** 2
    return [
        _linear(0),
        _linear(1),
        _linear(2),
        _linear(3),
        _poly(1, -2, QQ(q * q + 1, s)),
        _poly(1, -3, QQ(2 * q * q + 2 * q + 2, s)),
        _poly(1, -4, QQ(4 * q * q + 6 * q + 4, s)),
    ]


_ISOLATED: dict[tuple[int, int, int], tuple[tuple, ...]] = {
    (3, 2, 0): (
        (1, 0),
        (1, -4),
        (1, QQ(-23, 7)),
        (1, QQ(-19, 7)),
        (1, -12, QQ(581528, 11025), QQ(-220232, 2205), QQ(6734719, 99225)),
    ),
    (3, 3, 0): (
        (1, 0),
        (1, -4),
        (1, QQ(-42, 13)),
        (1, QQ(-36, 13)),
        (1, -12, QQ(14350977, 270400), QQ(-2760633, 27040), QQ(309843369, 4326400)),
    ),
    (4, 2, 0): (
        (1, 0),
        (1, -4),
        (1, -5),
        (1, QQ(-144, 35)),
        (1, QQ(-1322, 155), QQ(2798, 155)),
        (1, QQ(-276, 35), QQ(536, 35)),
        (1, QQ(-1778, 155), QQ(1306, 31), QQ(-7512, 155)),
    ),
}


def reference_factors(ell: int, q: int, i: int) -> list[RatPolynomial]:
    """Recorded factors, low degree first as written."""
    if i == 0 and ell == 1:
        return _factors_1_0(q)
    if i == 0 and ell == 2:
        return _factors_2_0(q)
    if i == 1 and ell == 2:
        return _factors_2_1(q)
    if (ell, q, i) in _ISOLATED:
        return [_poly(*f) for f in _ISOLATED[(ell, q, i)]]
    raise UnknownReferenceInstance(
        f"no recorded minimal polynomial for (ell, q, i) = ({ell}, {q}, {i})"
    )


def reference_minimal_polynomial(ell: int, q: int, i: int) -> RatPolynomial:
    """Exact expansion of the recorded factorization."""
    return poly_product(reference_factors(ell, q, i))

