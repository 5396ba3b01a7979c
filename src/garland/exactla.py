"""Exact rank of +-1 coboundary patterns, over Q and over F_p.

A pattern is the form `laplace.coboundary_pattern` returns: `cols`, an
(m, k) integer array, and `signs`, k values +-1, so that row r has the
entry signs[j] at column cols[r, j]; the k columns of a row are
distinct.  `rank_bounds` and `rank` also take the column count.  The
augmentation of reduced cohomology is the pattern with k = 1 and every
column 0.  The one elimination is `rank_mod_p`, on sparse rows.

Every rational rank is read from one stream, `rank_bounds`: per prime
p < 2**31 of `gf.descending_primes`, r, the largest mod-p rank so far
(mod-p ranks never exceed rank_Q), and whether r = rank_Q is certified.
If rank_Q > r, some (r+1)-minor D is nonzero and every prime drawn
divides it; by Hadamard, D^2 is at most the product of the squared norms
of its rows, and each is at most k.  So the stream ends, certified, once
r = min(m, ncols) or the product P of the primes has P^2 > k^(r+1).
`rank` walks it to the end; `spectra`'s vanishing test stops as soon as
it may.
"""

from __future__ import annotations

from collections.abc import Iterator

from .gf import descending_primes

# the rank primes descend from here; 2**31 - 1 is itself prime
PRIME_CEILING = (1 << 31) - 1


def rank_bounds(cols, signs, ncols: int) -> Iterator[tuple[int, bool]]:
    """(lower bound r on the rank over Q, whether r is certified), one pair
    a prime, ending with the first certified one (module docstring)."""
    m, k = cols.shape
    full = min(m, ncols)  # 0 for an empty matrix, certified at the first prime
    r, primes = -1, 1
    for p in descending_primes(PRIME_CEILING):
        r = max(r, rank_mod_p(cols, signs, p))
        primes *= p
        certified = r == full or primes * primes > k ** (r + 1)
        yield r, certified
        if certified:
            return
    raise AssertionError("unreachable: the primes below 2**31 pass any Hadamard bound")


def rank(cols, signs, ncols: int) -> int:
    """Exact rank of a pattern, over Q: the last bound of `rank_bounds`."""
    return list(rank_bounds(cols, signs, ncols))[-1][0]


def rank_mod_p(cols, signs, p: int) -> int:
    """Rank over F_p (p prime) of a pattern; lower bound for the rational rank.

    The echelon grows one row at a time: a row, as a {column: residue}
    dict, is reduced by the echelon row whose pivot is its largest
    column until it vanishes or its largest column is no pivot, and then
    joins the echelon with that pivot, scaled to 1.
    """
    residues = [s % p for s in signs.tolist()]
    echelon: dict[int, dict[int, int]] = {}
    for row_cols in cols.tolist():
        row = dict(zip(row_cols, residues))
        while row:
            top = max(row)
            pivot_row = echelon.get(top)
            if pivot_row is None:
                inv = pow(row[top], -1, p)
                echelon[top] = {c: x * inv % p for c, x in row.items()}
                break
            f = row[top]
            for c, x in pivot_row.items():
                y = (row.get(c, 0) - f * x) % p
                if y:
                    row[c] = y
                else:
                    del row[c]
    return len(echelon)
