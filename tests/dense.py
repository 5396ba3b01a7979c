"""Dense exact rational matrices for the tests: entry dicts to rows, ranks and kernel bases.

`rational_entries` reads an assembled operator B = L * Delta back as
Delta's entry dict, each stored entry of B over L.

`bareiss_echelon` is fraction-free (Bareiss) elimination in Python ints,
so no entry can overflow and no rational is made.  Its ranks of the +-1
coboundaries of `laplace.coboundary_pattern`, which `pattern_rows`
writes out densely, are the tests' reference for reduced cohomology,
which `garland.spectra` reads from the kernel dimensions of certified
Laplacians instead.  `kernel_basis` clears the
denominators of rational rows (`cleared_int_rows`) and back-substitutes
rationally over the echelon form to recover exact eigencochains.
"""

from __future__ import annotations

from math import lcm

from garland.rationals import QQ, QQ0, QQ1


def bareiss_echelon(m: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Fraction-free row echelon; returns (echelon rows, pivot columns)."""
    rows = [list(r) for r in m]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    prev = 1
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pivot = rows[r][c]
        for i in range(r + 1, nrows):
            mic = rows[i][c]
            ri, rr = rows[i], rows[r]
            # the Bareiss minor identity keeps every division exact, also when mic == 0
            for j in range(c, ncols):
                ri[j] = (pivot * ri[j] - mic * rr[j]) // prev
        prev = pivot
        pivots.append(c)
        r += 1
    return rows[: len(pivots)], pivots


def reference_rank(int_rows) -> int:
    """Rank over Q of integer rows (an int64 array or int lists), by Bareiss."""
    rows = [[int(x) for x in row] for row in int_rows]
    return len(bareiss_echelon(rows)[1])


def pattern_rows(cols, signs, ncols: int) -> list[list[int]]:
    """The dense integer rows of a coboundary pattern: signs[j] at column cols[r][j]."""
    out = []
    for row_cols in cols:
        row = [0] * ncols
        for c, s in zip(row_cols, signs):
            row[int(c)] = int(s)
        out.append(row)
    return out


def cleared_int_rows(rows) -> list[list[int]]:
    """Each rational row times the lcm of its denominators: same rank, same kernel."""
    out = []
    for row in rows:
        scale = lcm(*(int(QQ(x).denominator) for x in row)) if row else 1
        out.append([int(QQ(x) * scale) for x in row])
    return out


def rational_entries(op) -> dict:
    """Delta of a `LinearOperatorHandle` as {(row, col): rational}, over its stored entries."""
    ptr, cols, data = op.indptr.tolist(), op.indices.tolist(), op.data.tolist()
    return {(r, cols[k]): QQ(data[k], op.L)
            for r in range(op.dim) for k in range(ptr[r], ptr[r + 1])}


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
    echelon, pivots = bareiss_echelon(cleared_int_rows(rows))
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
