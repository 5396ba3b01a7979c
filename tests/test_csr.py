"""The CSR kernels against exact dense oracles, their input checks, and start-up.

Dense oracles use object arrays of Python ints, which cannot overflow.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from garland import csr, spectra
from garland.complexes import from_maximal_simplices
from garland.errors import MalformedMatrix
from garland.gf import descending_primes
from garland.laplace import LinearOperatorHandle, coboundary_pattern

OCTAHEDRON = from_maximal_simplices(
    [(a, b, c) for a in (0, 1) for b in (2, 3) for c in (4, 5)]
)


def random_csr(rng, n, density):
    """indptr, indices of an n x n pattern with ascending columns; row 0 is empty when n > 1."""
    rows = [np.flatnonzero(rng.random(n) < density) for _ in range(n)]
    if n > 1:
        rows[0] = rows[0][:0]
    indptr = np.cumsum([0] + [len(r) for r in rows]).astype(np.int64)
    indices = np.concatenate(rows).astype(np.int64) if n else np.zeros(0, np.int64)
    return indptr, indices


def dense(n, indptr, indices, data, cols=None):
    a = np.zeros((n, n if cols is None else cols), dtype=object)
    for r in range(n):
        for k in range(indptr[r], indptr[r + 1]):
            a[r, indices[k]] += int(data[k])
    return a


# (n, density, saturated): saturated puts p - 1 in every entry and every
# vector coordinate, so a full row sums to max_nnz * (p - 1)^2, just under
# 2**62: data reduced mod p, at the largest prime for those rows
CASES = [(1, 0.0, False), (1, 1.0, True), (4, 0.0, False), (6, 0.5, False),
         (9, 0.8, True), (12, 1.0, True), (30, 0.2, False)]


@pytest.mark.parametrize("n, density, saturated", CASES)
def test_matvec_and_matvecs_match_the_dense_product(n, density, saturated):
    rng = np.random.default_rng(n)
    indptr, indices = random_csr(rng, n, density)
    max_nnz = int(np.diff(indptr).max(initial=0))
    p = next(descending_primes(spectra._reduced_cap(max_nnz)))
    assert max_nnz * (p - 1) ** 2 < 2**62
    nnz = len(indices)
    if saturated:
        data = np.full(nnz, p - 1, dtype=np.int64)
        x = np.full(n, p - 1, dtype=np.int64)
        block = np.full((n, 3), p - 1, dtype=np.int64)
        block[:, 1] = rng.integers(0, p, n)
    else:
        data = rng.integers(0, p, nnz)
        data[::3] = p - 1
        x = rng.integers(0, p, n)
        block = rng.integers(0, p, (n, 3))
    indptr, indices = csr.check((n, n), indptr, indices, data)
    a = dense(n, indptr, indices, data)
    got = csr.matvec(indptr, indices, data, x) % p
    assert got.tolist() == [int(v) % p for v in a.dot(x.astype(object))]
    got = csr.matvecs(indptr, indices, data, block) % p
    assert got.tolist() == (a.dot(block.astype(object)) % p).tolist()


@pytest.mark.parametrize("binf", [1, 3120, 26040, 2**33])
def test_unreduced_rows_at_the_norm_cap_match_the_dense_product(binf):
    # unreduced int64 data against vectors in [0, p), at the largest prime
    # with (binf + 1)(p - 1) < 2**63: a row of 5 entries of sum binf in
    # absolute value, all positive, all negative or mixed, times p - 1,
    # plus one coefficient p - 1, reaches (binf + 1)(p - 1) and fits
    n = 5
    cap, reduce = spectra._prime_cap(np.zeros(0, dtype=np.int64), n, binf)
    p = next(descending_primes(cap))
    assert not reduce and (binf + 1) * (p - 1) < 2**63
    split = np.full(n, binf // n, dtype=np.int64)
    split[0] += binf - split.sum()
    signs = np.array([1, -1, 1, -1, 1])
    data = np.concatenate([split, -split, split * signs, split, -split])
    indptr = np.arange(0, n * n + 1, n, dtype=np.int64)
    indices = np.tile(np.arange(n, dtype=np.int64), n)
    indptr, indices = csr.check((n, n), indptr, indices, data)
    a = dense(n, indptr, indices, data)
    x = np.full(n, p - 1, dtype=np.int64)
    block = np.full((n, 2), p - 1, dtype=np.int64)
    block[1::2, 1] = 0
    got = csr.matvec(indptr, indices, data, x) + (p - 1)
    want = a.dot(x.astype(object)) + (p - 1)
    assert max(abs(v) for v in want) == (binf + 1) * (p - 1)
    # exact, not only mod p: no row wrapped
    assert got.tolist() == want.tolist()
    got = csr.matvecs(indptr, indices, data, block) + (p - 1)
    assert got.tolist() == (a.dot(block.astype(object)) + (p - 1)).tolist()


@pytest.mark.parametrize("i", [0, 1])
def test_gram_is_the_weighted_coboundary_square(i):
    # X = d^T diag(w_{i+1}) d, the numerator matrix of the Laplacian
    c = OCTAHEDRON
    n = c.num_simplices(i)
    cols, signs = coboundary_pattern(c, i)
    m = len(cols)
    d = np.zeros((m, n), dtype=object)
    for r in range(m):
        for j in range(i + 2):
            d[r, cols[r, j]] = int(signs[j])
    w = np.diag([int(v) for v in c.counts[i + 1]]).astype(object)
    want = d.T.dot(w).dot(d)
    tiled = np.tile(signs, m)
    rowptr = np.arange(0, m * (i + 2) + 1, i + 2, dtype=np.int64)
    weighted = tiled * np.repeat(c.counts[i + 1], i + 2)
    indptr, indices, data = csr.gram(n, rowptr, cols.ravel(), tiled, weighted)
    for r in range(n):
        row = indices[indptr[r]:indptr[r + 1]]
        assert np.all(row[1:] > row[:-1])  # ascending, no duplicates
    assert np.all(data != 0)
    assert (dense(n, indptr, indices, data) == want).all()


def test_gram_index_width_follows_its_bound(monkeypatch):
    # X^T Y has at most max_r nnz_r * nnz(X) entries; int32 below 2**31 - 1
    top = 2**31 - 1
    assert csr.gram_index_dtype(top - 1, top - 1, 1, top - 1) == np.int32
    for m, n, row_nnz, nnz in [(top, 1, 1, 1), (1, top, 1, 1), (1, 1, 2, top // 2 + 1)]:
        assert csr.gram_index_dtype(m, n, row_nnz, nnz) == np.int64
    # either width, and int32 or int64 input, gives one int64 result
    cols, signs = coboundary_pattern(OCTAHEDRON, 1)
    m, n = len(cols), OCTAHEDRON.num_simplices(1)
    tiled = np.tile(signs, m)
    weighted = tiled * np.repeat(OCTAHEDRON.counts[2], 3)
    results = []
    for width in (np.int32, np.int64):
        monkeypatch.setattr(csr, "gram_index_dtype", lambda *bound: width)
        for given in (np.int32, np.int64):
            rowptr = np.arange(0, 3 * m + 1, 3, dtype=given)
            got = csr.gram(n, rowptr, cols.ravel().astype(given), tiled, weighted)
            assert [a.dtype for a in got] == [np.int64] * 3
            results.append([a.tolist() for a in got])
    assert all(r == results[0] for r in results)


VALID = ([0, 2, 3, 4], [0, 2, 1, 2], [1, 2, 3, 4])
MALFORMED = {
    "index equal to n": ([0, 2, 3, 4], [0, 3, 1, 2], [1, 2, 3, 4]),
    "negative index": ([0, 2, 3, 4], [0, -1, 1, 2], [1, 2, 3, 4]),
    "decreasing indptr": ([0, 3, 2, 4], [0, 2, 1, 2], [1, 2, 3, 4]),
    "indptr not from 0": ([1, 2, 3, 4], [0, 2, 1, 2], [1, 2, 3, 4]),
    "indptr end past indices": ([0, 2, 3, 5], [0, 2, 1, 2], [1, 2, 3, 4]),
    "data shorter than indices": ([0, 2, 3, 4], [0, 2, 1, 2], [1, 2, 3]),
}


class NoKernels:
    def __getattr__(self, name):
        raise AssertionError(f"kernel {name} ran on a malformed matrix")


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_arrays_raise_before_any_kernel(case, monkeypatch):
    indptr, indices, data = (np.array(a, dtype=np.int64) for a in MALFORMED[case])
    monkeypatch.setattr(csr, "_kernels", NoKernels())
    with pytest.raises(MalformedMatrix):
        spectra.certify_annihilates(3, indptr, indices, data, [0, 1])
    with pytest.raises(MalformedMatrix):
        spectra.minimal_polynomial(LinearOperatorHandle(0, indptr, indices, data, 1))
    with pytest.raises(MalformedMatrix):
        csr.gram(3, indptr, indices, data, data)


def test_a_wrong_row_count_is_malformed():
    indptr, indices, data = VALID
    with pytest.raises(MalformedMatrix):
        csr.check((4, 4), indptr, indices, data)
    got = csr.check((3, 3), indptr, indices, data)
    assert [a.dtype for a in got] == [np.int64, np.int64]


def test_start_up_loads_no_scipy_sparse_and_calls_load_no_numpy_module():
    # scipy.sparse's package init was about 0.2 s of every start-up; and
    # a module the call loads lazily (numpy.random, numpy.ma) moves that
    # cost from start-up into the computation.  Every module is diffed:
    # the one known load inside the calls is `locale`, which gettext
    # imports when argparse first translates a message
    script = """if True:
        import contextlib, io, json, sys
        import garland.cli
        before = set(sys.modules)
        with contextlib.redirect_stdout(io.StringIO()):
            garland.cli.main(["verify", "--ell", "1", "--q", "2", "--i", "0", "--json"])
            garland.cli.main(["report", "--grid", "default"])
        print(json.dumps({
            "scipy": sorted(m for m in before if m.startswith("scipy")),
            "new": sorted(set(sys.modules) - before),
            "known": sorted({"_locale", "locale"} - before),
        }))
    """
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["scipy"] == ["scipy.sparse._sparsetools"]
    assert got["new"] == got["known"]
