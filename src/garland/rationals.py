"""Exact rational scalars.

Matrix entries, polynomial coefficients and root endpoints in this
package are `fractions.Fraction`, exported as QQ; there is one backend.
The hot paths (Krylov, certification, Sturm isolation, rank) run on
machine or Python integers and make a rational only for what they hand
back.  Rationals are written and read only as qstr/parse_qstr text.
"""

from __future__ import annotations

from fractions import Fraction as QQ

QQ0 = QQ(0)
QQ1 = QQ(1)


def qstr(x) -> str:
    """Serialize a rational as 'numerator/denominator' (canonical, always has a slash)."""
    x = QQ(x)
    return f"{x.numerator}/{x.denominator}"


def parse_qstr(s: str):
    num, _, den = s.partition("/")
    return QQ(int(num), int(den)) if den else QQ(int(num))


def floor_q(x) -> int:
    return x.numerator // x.denominator
