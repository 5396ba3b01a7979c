"""Exact linear algebra: pattern ranks, rational kernels, modular consistency."""

import itertools
import random

import numpy as np
import pytest

from garland import exactla
from garland.exactla import rank, rank_mod_p
from garland.gf import descending_primes
from garland.rationals import QQ

from dense import cleared_int_rows, dense_from_entries, kernel_basis, pattern_rows, reference_rank


def pattern(rows, signs):
    return np.array(rows, dtype=np.int64).reshape(len(rows), len(signs)), np.array(signs)


def random_pattern(rng, k, nrows, ncols):
    """nrows rows of k distinct columns below ncols in random order, with
    one +-1 sign per position; a repeated row makes some rank-deficient."""
    rows = [rng.sample(range(ncols), k) for _ in range(nrows)]
    if nrows > 2 and rng.random() < 0.6:
        rows[-1] = rows[0]
    return pattern(rows, [rng.choice((1, -1)) for _ in range(k)])


def spy_primes(monkeypatch) -> list[int]:
    """Record the prime of every `rank_mod_p` call, in order."""
    seen = []
    real = exactla.rank_mod_p

    def spy(cols, signs, p):
        seen.append(p)
        return real(cols, signs, p)

    monkeypatch.setattr(exactla, "rank_mod_p", spy)
    return seen


def test_rank_frozen_cases():
    assert rank(*pattern([[0, 1], [0, 1]], [1, -1]), 2) == 1
    assert rank(*pattern([[0, 1], [1, 0]], [1, -1]), 2) == 1  # the second row is minus the first
    assert rank(*pattern([[0, 1], [1, 0]], [1, 1]), 2) == 1
    assert rank(*pattern([[0], [1]], [1]), 2) == 2
    assert rank(*pattern([], [1, -1]), 3) == 0
    # the augmentation: a column of ones
    assert rank(*pattern([[0]] * 4, [1]), 1) == 1


def test_rank_takes_int64_arrays_without_overflow():
    # d_0 of a 70-cycle has rank 69 < 70, so the Hadamard bound 2**70
    # decides: it passes int64 and must be a Python int
    for dtype in (np.int32, np.int64):
        cols = np.array([[(v + 1) % 70, v] for v in range(70)], dtype=dtype)
        signs = np.array([1, -1], dtype=dtype)
        assert rank(cols, signs, 70) == 69 == reference_rank(pattern_rows(cols, signs, 70))
        assert rank_mod_p(cols, signs, 1_000_003) == 69


def test_kernel_basis_annihilates():
    rows = [[QQ(1), QQ(2), QQ(3)], [QQ(2), QQ(4), QQ(6)], [QQ(1), QQ(0), QQ(1)]]
    kb = kernel_basis(rows)
    assert len(kb) == 3 - reference_rank(cleared_int_rows(rows))
    for vec in kb:
        for row in rows:
            assert sum(a * x for a, x in zip(row, vec)) == 0


def test_kernel_of_full_rank_is_trivial():
    assert kernel_basis([[QQ(1), QQ(0)], [QQ(1), QQ(1)]]) == []


def test_kernel_needs_ncols_when_rows_empty():
    kb = kernel_basis([], ncols=3)
    assert len(kb) == 3
    for k, vec in enumerate(kb):
        assert vec[k] != 0


def test_dense_from_entries():
    m = dense_from_entries(2, 3, {(0, 0): QQ(5), (1, 2): QQ(-1, 2)})
    assert m == [[QQ(5), QQ(0), QQ(0)], [QQ(0), QQ(0), QQ(-1, 2)]]


def test_rank_matches_modular_rank():
    # no more than 8 rows of k <= 3 entries +-1: every minor is at most
    # 3**4 = 81 by Hadamard, so no prime above it divides a nonzero one
    # and the rank mod p is the rank over Q; mod 3 it can only drop
    rng = random.Random(23)
    for _ in range(200):
        k = rng.randrange(1, 4)
        ncols = rng.randrange(k, 9)
        cols, signs = random_pattern(rng, k, rng.randrange(0, 9), ncols)
        want = reference_rank(pattern_rows(cols, signs, ncols))
        assert rank(cols, signs, ncols) == want
        for p in (83, 1_000_003, exactla.PRIME_CEILING):
            assert rank_mod_p(cols, signs, p) == want
        assert rank_mod_p(cols, signs, 3) <= want


def test_kernel_dimension_plus_rank_is_ncols():
    rng = random.Random(29)
    for _ in range(25):
        nr, nc = rng.randrange(1, 6), rng.randrange(1, 6)
        rows = [[QQ(rng.randrange(-3, 4)) for _ in range(nc)] for _ in range(nr)]
        assert reference_rank(cleared_int_rows(rows)) + len(kernel_basis(rows)) == nc


def test_rank_needs_a_second_prime_when_the_first_divides_a_minor(monkeypatch):
    # a 5 x 5 pattern of determinant 3: with 3 as the first prime its rank
    # there is 4, below the full 5, and 3**2 does not pass the Hadamard
    # bound 3**5, so a second prime is drawn and shows rank 5
    cols, signs = pattern([[0, 1, 2], [0, 1, 4], [0, 3, 4], [1, 2, 3], [2, 3, 4]], [1, -1, 1])
    assert rank_mod_p(cols, signs, 3) == 4
    monkeypatch.setattr(exactla, "descending_primes",
                        lambda cap: itertools.chain([3], descending_primes(cap)))
    seen = spy_primes(monkeypatch)
    assert rank(cols, signs, 5) == 5
    assert seen == [3, exactla.PRIME_CEILING]


def test_rank_bound_covers_the_next_minor(monkeypatch):
    # rows (1, 1, -1) and (-1, 1, 1) have rank 2 over Q and 1 mod 2.  A
    # 2-minor can be as large as the Hadamard bound 3**2, so after 2
    # alone (2**2 <= 3**2) rank 1 is not certified, though 2**2 > 3**1
    cols, signs = pattern([[0, 1, 2], [2, 1, 0]], [1, 1, -1])
    assert rank_mod_p(cols, signs, 2) == 1
    monkeypatch.setattr(exactla, "descending_primes",
                        lambda cap: itertools.chain([2], descending_primes(cap)))
    seen = spy_primes(monkeypatch)
    assert rank(cols, signs, 3) == 2
    assert seen == [2, exactla.PRIME_CEILING]


def test_rank_stops_at_the_hadamard_bound(monkeypatch):
    # rank 1 with rows of squared norm 2: the first prime squared passes
    # the bound 2 * 2 on any 2-minor, so one prime certifies rank 1
    seen = spy_primes(monkeypatch)
    assert rank(*pattern([[0, 1], [0, 1], [1, 0]], [1, 1]), 2) == 1
    assert len(seen) == 1
    # a full-rank matrix stops at min(m, n)
    seen.clear()
    assert rank(*pattern([[0], [1], [2]], [1]), 3) == 3
    assert seen == [exactla.PRIME_CEILING]  # 2**31 - 1 is prime: the first rank prime


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_rank_matches_the_reference_on_random_matrices(k):
    # k entries +-1 a row, the shape of d_{k-2}; up to 12 rows and 10
    # columns, where rank deficiency is common
    rng = random.Random(k)
    for _ in range(40):
        ncols = rng.randrange(k, 11)
        cols, signs = random_pattern(rng, k, rng.randrange(0, 13), ncols)
        assert rank(cols, signs, ncols) == reference_rank(pattern_rows(cols, signs, ncols))
