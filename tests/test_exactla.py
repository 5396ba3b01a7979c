"""Exact linear algebra: integer rank, rational kernels, modular consistency."""

import random
from itertools import islice

import numpy as np
import pytest

from garland import exactla
from garland.exactla import rank, rank_mod_p
from garland.gf import descending_primes
from garland.rationals import QQ

from dense import cleared_int_rows, dense_from_entries, kernel_basis, reference_rank


def spy_primes(monkeypatch) -> list[int]:
    """Record the prime of every `rank_mod_p` call, in order."""
    seen = []
    real = exactla.rank_mod_p

    def spy(rows, p):
        seen.append(p)
        return real(rows, p)

    monkeypatch.setattr(exactla, "rank_mod_p", spy)
    return seen


def test_rank_frozen_cases():
    assert rank([[1, 2], [2, 4]]) == 1
    assert rank([[1, 0], [0, 1]]) == 2
    assert rank([[0, 0]]) == 0
    assert rank([]) == 0
    assert rank(cleared_int_rows([[QQ(1, 2), QQ(1, 3)], [QQ(3), QQ(2)]])) == 1


def test_rank_takes_int64_arrays_without_overflow():
    # squared row norms of 2**80 pass int64: the Hadamard bound must be
    # summed in Python ints
    a = np.array([[2**40, 1, 0], [1, 2**40, 1], [2**40 + 1, 2**40 + 1, 1]], dtype=np.int64)
    assert rank(a) == 2
    assert rank(np.zeros((0, 3), dtype=np.int64)) == 0
    assert rank_mod_p(a, 1_000_003) == 2
    assert rank_mod_p(np.zeros((2, 0), dtype=np.int64), 1_000_003) == 0


def test_kernel_basis_annihilates():
    rows = [[QQ(1), QQ(2), QQ(3)], [QQ(2), QQ(4), QQ(6)], [QQ(1), QQ(0), QQ(1)]]
    kb = kernel_basis(rows)
    assert len(kb) == 3 - rank(cleared_int_rows(rows))
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
    rng = random.Random(23)
    for _ in range(25):
        nr, nc = rng.randrange(1, 6), rng.randrange(1, 6)
        rows = [
            [QQ(rng.randrange(-4, 5), rng.choice((1, 1, 2, 3))) for _ in range(nc)]
            for _ in range(nr)
        ]
        # clear denominators; row scaling does not change rank
        int_rows = []
        for row in rows:
            den = 1
            for c in row:
                den *= int(c.denominator)
            int_rows.append([int(c * den) for c in row])
        r = rank(int_rows)
        assert r == rank(cleared_int_rows(rows))
        # rank can only drop modulo p, and does not drop for almost all p
        drops = 0
        for p in (1_000_003, 999_983, 2_147_483_647):
            rp = rank_mod_p(np.array(int_rows, dtype=np.int64), p)
            assert rp == rank_mod_p(int_rows, p)
            assert rp <= r
            drops += r - rp
        assert drops == 0


def test_kernel_dimension_plus_rank_is_ncols():
    rng = random.Random(29)
    for _ in range(25):
        nr, nc = rng.randrange(1, 6), rng.randrange(1, 6)
        rows = [[QQ(rng.randrange(-3, 4)) for _ in range(nc)] for _ in range(nr)]
        assert rank(cleared_int_rows(rows)) + len(kernel_basis(rows)) == nc


def test_rank_needs_a_second_prime_when_the_first_divides_a_minor(monkeypatch):
    # the determinant is the first prime itself: rank 1 mod that prime,
    # and only a second prime shows rank 2
    first, second = islice(descending_primes(exactla.PRIME_CEILING), 2)
    assert first == 2**31 - 1
    a = [[2**31 - 1, 0], [0, 1]]
    assert rank_mod_p(a, first) == 1
    seen = spy_primes(monkeypatch)
    assert rank(a) == 2
    assert seen == [first, second]


def test_rank_stops_at_the_hadamard_bound(monkeypatch):
    # rank 1 with rows of squared norm 2: the first prime squared passes
    # the bound 2 * 2 on any 2-minor, so one prime certifies rank 1
    seen = spy_primes(monkeypatch)
    assert rank([[1, 1], [1, 1], [-1, -1]]) == 1
    assert len(seen) == 1
    # a full-rank matrix stops at min(m, n) without any norm
    seen.clear()
    assert rank(np.eye(3, dtype=np.int64)) == 3
    assert len(seen) == 1


@pytest.mark.parametrize("big", [5, 2**33, 2**40, 2**70])
def test_rank_matches_the_reference_on_random_matrices(big):
    # entries up to `big`, in matrices built rank-deficient by repeated
    # and combined rows; 2**70 passes int64 and is reduced as Python ints
    rng = random.Random(big)
    for _ in range(40):
        nr, nc = rng.randrange(1, 8), rng.randrange(1, 8)
        rows = [[rng.randrange(-big, big + 1) for _ in range(nc)] for _ in range(nr)]
        if nr > 2 and rng.random() < 0.6:
            i, j, k = rng.sample(range(nr), 3)
            rows[k] = [rng.randrange(-3, 4) * x + rng.randrange(-3, 4) * y
                       for x, y in zip(rows[i], rows[j])]
        want = reference_rank(rows)
        assert rank(rows) == want
        if all(abs(x) < 2**62 for row in rows for x in row):
            assert rank(np.array(rows, dtype=np.int64)) == want
