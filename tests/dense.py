"""Dense exact rational matrices for the tests: entry dicts to rows, and kernel bases.

`kernel_basis` back-substitutes rationally over the fraction-free
echelon form that `garland.exactla.rank` computes; the package needs
only the rank, the tests recover exact eigencochains from the kernel.
`garland.exactla` takes integer rows only, so rational rows go through
`cleared_int_rows` first.
"""

from __future__ import annotations

from math import lcm

from garland.exactla import _bareiss_echelon
from garland.rationals import QQ, QQ0, QQ1


def cleared_int_rows(rows) -> list[list[int]]:
    """Each rational row times the lcm of its denominators: same rank, same kernel."""
    out = []
    for row in rows:
        scale = lcm(*(int(QQ(x).denominator) for x in row)) if row else 1
        out.append([int(QQ(x) * scale) for x in row])
    return out


def dense_from_entries(nrows: int, ncols: int, entries: dict) -> list[list]:
    rows = [[QQ0] * ncols for _ in range(nrows)]
    for (r, c), v in entries.items():
        rows[r][c] = QQ(v)
    return rows


def kernel_basis(rows, ncols: int | None = None) -> list[list]:
    """Basis of the right kernel {x : A x = 0}, one vector per free column.

    Deterministic normalization: vector k has 1 in the k-th free column
    and 0 in the others.
    """
    if not rows:
        n = ncols if ncols is not None else 0
        return [[QQ1 if i == j else QQ0 for i in range(n)] for j in range(n)]
    n = len(rows[0])
    echelon, pivots = _bareiss_echelon(cleared_int_rows(rows))
    free = [c for c in range(n) if c not in set(pivots)]
    basis = []
    for f in free:
        x = [QQ0] * n
        x[f] = QQ1
        for k in range(len(pivots) - 1, -1, -1):
            pc = pivots[k]
            acc = QQ0
            row = echelon[k]
            for j in range(pc + 1, n):
                if row[j] and x[j]:
                    acc += QQ(row[j]) * x[j]
            x[pc] = -acc / QQ(row[pc])
        basis.append(x)
    return basis
