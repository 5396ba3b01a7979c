"""Exact dense rank of integer matrices, over Q and over F_p.

The functions take integer rows: an int64 array (the coboundaries of
vertex links that `spectra` builds, which are small, so dense rows are
fine) or a list of int lists.  The one elimination is `rank_mod_p`, in
int64; entries outside int64 are reduced mod p as Python ints first.

Every rational rank is read from one stream, `rank_bounds`: per prime
p < 2**31 of `gf.descending_primes`, r, the largest mod-p rank so far
(mod-p ranks never exceed rank_Q), and whether r = rank_Q is certified.
If rank_Q > r, some (r+1)-minor D is nonzero and every prime drawn
divides it; by Hadamard, D^2 is at most the product H of the r+1 largest
squared row norms.  So the stream ends, certified, once r = min(m, n) or
the product P of the primes has P^2 > H.  `rank` walks it to the end;
`spectra`'s vanishing test stops as soon as it may.
"""

from __future__ import annotations

from collections.abc import Iterator
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


def _squared_row_norms(a: np.ndarray) -> list[int]:
    """Exact squared row norms, largest first: in int64 when no sum can pass it."""
    if a.dtype == np.int64 and max(-int(a.min()), int(a.max())) ** 2 * a.shape[1] < 2**63:
        return sorted((a * a).sum(axis=1).tolist(), reverse=True)
    return sorted((sum(x * x for x in row) for row in a.tolist()), reverse=True)


def rank_bounds(int_rows) -> Iterator[tuple[int, bool]]:
    """(lower bound r on the rank over Q, whether r is certified), one pair
    a prime, ending with the first certified one (module docstring)."""
    a = _as_int_rows(int_rows)
    full = min(a.shape)  # 0 for an empty matrix, certified at the first prime
    r, primes, norms = -1, 1, None
    for p in descending_primes(PRIME_CEILING):
        r = max(r, rank_mod_p(a, p))
        primes *= p
        if r < full and norms is None:
            norms = _squared_row_norms(a)
        certified = r == full or primes * primes > prod(norms[: r + 1])
        yield r, certified
        if certified:
            return
    raise AssertionError("unreachable: the primes below 2**31 pass any Hadamard bound")


def rank(int_rows) -> int:
    """Exact rank of an integer matrix, over Q: the last bound of `rank_bounds`."""
    return list(rank_bounds(int_rows))[-1][0]


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
