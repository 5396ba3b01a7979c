"""Exact dense rank of integer matrices, over Q and over F_p.

Both functions take integer rows: an int64 array (the coboundaries of
vertex links that `spectra` builds, which are small, so dense rows are
fine) or a list of int lists.  The one elimination is `rank_mod_p`, in
int64; entries outside int64 are reduced mod p as Python ints first.

`rank` certifies the rank over Q from ranks mod descending primes
p < 2**31 of `gf.descending_primes`, keeping r, the largest seen.  Mod-p
ranks never exceed the rational rank.  If rank_Q > r, some (r+1)-minor
D is nonzero and every prime drawn divides it; by Hadamard, D^2 is at
most the product H of the r+1 largest squared row norms.  So rank_Q = r
once the product P of the primes has P^2 > H, or once r = min(m, n).
"""

from __future__ import annotations

from math import prod

import numpy as np

from .gf import descending_primes

# the elimination multiplies two residues: their product stays below 2**62
PRIME_CEILING = (1 << 31) - 1


def _as_int_rows(int_rows) -> np.ndarray:
    """int64 rows as given, anything else as Python ints in an object array."""
    if isinstance(int_rows, np.ndarray) and int_rows.dtype == np.int64:
        return int_rows
    return np.array(int_rows, dtype=object)


def rank(int_rows) -> int:
    """Exact rank of an integer matrix, over Q (module docstring)."""
    a = _as_int_rows(int_rows)
    if a.size == 0:
        return 0
    r, primes, norms = -1, 1, None
    for p in descending_primes(PRIME_CEILING):
        r = max(r, rank_mod_p(a, p))
        if r == min(a.shape):
            return r
        if norms is None:  # exact squared row norms, largest first
            norms = sorted((sum(x * x for x in row) for row in a.tolist()), reverse=True)
        primes *= p
        if primes * primes > prod(norms[: r + 1]):
            return r
    raise AssertionError("unreachable: the primes below 2**31 pass any Hadamard bound")


def rank_mod_p(int_rows, p: int) -> int:
    """Rank over F_p (p < 2**31) of an integer matrix; lower bound for the rational rank."""
    a = (_as_int_rows(int_rows) % p).astype(np.int64, copy=False)
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
