"""Exact rational scalars.

All matrix entries, polynomial coefficients and root endpoints in this
package are exact rationals.  gmpy2.mpq is used when available (it is a
drop-in replacement for fractions.Fraction, several times faster on the
sizes that occur in Krylov iterations); otherwise Fraction.  The rest of
the package makes rationals only with the QQ constructor and writes and
reads them only as qstr/parse_qstr text, so the two backends are
interchangeable.
"""

from __future__ import annotations

try:
    from gmpy2 import mpq as QQ  # type: ignore[import-untyped]
except ImportError:  # pragma: no cover - exercised only without gmpy2
    from fractions import Fraction as QQ  # type: ignore[assignment]

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

