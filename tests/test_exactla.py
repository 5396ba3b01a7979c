"""Exact linear algebra: integer rank, rational kernels, modular consistency."""

import random

import numpy as np

from garland.exactla import rank, rank_mod_p
from garland.rationals import QQ

from dense import cleared_int_rows, dense_from_entries, kernel_basis


def test_rank_frozen_cases():
    assert rank([[1, 2], [2, 4]]) == 1
    assert rank([[1, 0], [0, 1]]) == 2
    assert rank([[0, 0]]) == 0
    assert rank([]) == 0
    assert rank(cleared_int_rows([[QQ(1, 2), QQ(1, 3)], [QQ(3), QQ(2)]])) == 1


def test_rank_takes_int64_arrays_without_overflow():
    # Bareiss forms 2**40 * 2**40: the elimination must run in Python ints
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
