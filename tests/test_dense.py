"""The tests' dense exact linear algebra: entry dicts to rows, and rational kernels."""

import random

from garland.rationals import QQ

from dense import cleared_int_rows, dense_from_entries, kernel_basis, reference_rank


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


def test_kernel_dimension_plus_rank_is_ncols():
    rng = random.Random(29)
    for _ in range(25):
        nr, nc = rng.randrange(1, 6), rng.randrange(1, 6)
        rows = [[QQ(rng.randrange(-3, 4)) for _ in range(nc)] for _ in range(nr)]
        assert reference_rank(cleared_int_rows(rows)) + len(kernel_basis(rows)) == nc
