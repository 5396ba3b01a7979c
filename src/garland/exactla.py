"""Exact dense rank of integer matrices, over Q and over F_p.

Both functions take integer rows: an int64 array (the coboundaries of
vertex links that `spectra` builds, which are small, so dense rows are
fine) or a list of int lists.  `rank` runs fraction-free (Bareiss)
elimination in Python ints, so no entry can overflow and no rational is
made.  rank_mod_p is the one-sided shortcut used for
cohomology-vanishing certificates: a mod-p rank never exceeds the
rational rank.
"""

from __future__ import annotations

import numpy as np


def _bareiss_echelon(m: list[list[int]]) -> tuple[list[list[int]], list[int]]:
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


def rank(int_rows) -> int:
    """Exact rank of an integer matrix, over Q."""
    # object dtype turns int64 entries into Python ints, which Bareiss needs
    rows = np.asarray(int_rows, dtype=object)
    if rows.size == 0:
        return 0
    return len(_bareiss_echelon(rows.tolist())[1])


def rank_mod_p(int_rows, p: int) -> int:
    """Rank over F_p (p < 2**31) of an integer matrix; lower bound for the rational rank."""
    a = np.asarray(int_rows, dtype=np.int64) % p
    if a.size == 0:
        return 0
    nrows, ncols = a.shape
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
        inv = pow(int(a[r, c]), p - 2, p)
        a[r] = (a[r] * inv) % p
        below = a[r + 1 :, c].nonzero()[0]
        if below.size:
            rows_idx = below + r + 1
            a[rows_idx] = (a[rows_idx] - np.outer(a[rows_idx, c], a[r])) % p
        r += 1
    return r
