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
from garland.laplace import LinearOperatorHandle, assemble_matrix, coboundary_pattern

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
    # X = d^T diag(w_{i+1}) d, the numerator matrix of the Laplacian, from
    # the coboundary's columns and signs and the weights as stored; the
    # operands are only read
    c = OCTAHEDRON
    n = c.num_simplices(i)
    cols, signs = coboundary_pattern(c, i)
    weights = c.counts[i + 1]
    m = len(cols)
    d = np.zeros((m, n), dtype=object)
    for r in range(m):
        for j in range(i + 2):
            d[r, cols[r, j]] = int(signs[j])
    w = np.diag([int(v) for v in weights]).astype(object)
    want = d.T.dot(w).dot(d)
    given = [a.copy() for a in (cols, signs, weights)]
    indptr, indices, data = csr.gram(n, cols, signs, weights)
    assert all(np.array_equal(a, b) for a, b in zip((cols, signs, weights), given))
    for r in range(n):
        row = indices[indptr[r]:indptr[r + 1]]
        assert np.all(row[1:] > row[:-1])  # ascending, no duplicates
    assert np.all(data != 0)
    assert (dense(n, indptr, indices, data) == want).all()


def test_gram_index_width_follows_its_bound(monkeypatch):
    # X^T diag(w) X has at most max_r nnz_r * nnz(X) entries; int32 below
    # 2**31 - 1
    top = 2**31 - 1
    assert csr.gram_index_dtype(top - 1, top - 1, 1, top - 1) == np.int32
    for m, n, row_nnz, nnz in [(top, 1, 1, 1), (1, top, 1, 1), (1, 1, 2, top // 2 + 1)]:
        assert csr.gram_index_dtype(m, n, row_nnz, nnz) == np.int64
    # either width, from int32 or int64 columns, gives one result, whose
    # indptr and indices are in the width the rule gives and whose values
    # are in the weights' width
    cols, signs = coboundary_pattern(OCTAHEDRON, 1)
    n = OCTAHEDRON.num_simplices(1)
    weights = OCTAHEDRON.counts[2]
    results = []
    for width in (np.int32, np.int64):
        monkeypatch.setattr(csr, "gram_index_dtype", lambda *bound: width)
        for given in (np.int32, np.int64):
            got = csr.gram(n, cols.astype(given), signs, weights)
            assert [a.dtype for a in got] == [width, width, weights.dtype]
            results.append([a.tolist() for a in got])
    assert all(r == results[0] for r in results)


def test_gram_value_width_follows_its_bound():
    # every entry and partial sum at most the bound: int32 up to 2**31 - 1
    assert csr.gram_value_dtype(2**31 - 1) == np.int32
    assert csr.gram_value_dtype(2**31) == np.int64
    # at each edge, one column of two rows whose Gram entry is the bound,
    # computed exactly in the width the rule gives
    for bound in (2**31 - 1, 2**31):
        value = csr.gram_value_dtype(bound)
        weights = np.array([2**30, bound - 2**30], dtype=value)
        got = csr.gram(1, [[0], [0]], [1], weights)
        assert got[2].dtype == value and got[2].tolist() == [bound]
    # int32 and int64 weights give one product, in their own width, and
    # weights of any other width are taken as int64; the indptr and
    # indices are in the index width of the pattern's bound
    cols, signs = coboundary_pattern(OCTAHEDRON, 1)
    m, n = len(cols), OCTAHEDRON.num_simplices(1)
    index = csr.gram_index_dtype(m, n, 3, 3 * m)
    results = []
    for given, value in ((np.int32, np.int32), (np.int64, np.int64), (np.int16, np.int64)):
        got = csr.gram(n, cols, signs, OCTAHEDRON.counts[2].astype(given))
        assert [a.dtype for a in got] == [index, index, value]
        results.append([a.tolist() for a in got])
    assert all(r == results[0] for r in results)


def test_int32_and_int64_forms_of_one_operator_agree(b22):
    # the (2,2) building's degree-1 operator comes out of assembly with an
    # int32 pattern, which `check` keeps; its int64 copy gives the same
    # products, certificates and minimal polynomial
    op = assemble_matrix(b22.complex, 1)
    n = op.dim
    narrow = csr.check((n, n), op.indptr, op.indices, op.data)
    wide = tuple(a.astype(np.int64) for a in narrow)
    assert [a.dtype for a in narrow] == [np.int32, np.int32]
    assert all(a is b for a, b in zip(narrow, (op.indptr, op.indices)))
    rng = np.random.default_rng(221)
    x = rng.integers(-1000, 1000, n)
    block = rng.integers(-1000, 1000, (n, 3))
    a = dense(n, op.indptr, op.indices, op.data)
    for indptr, indices in (narrow, wide):
        assert csr.matvec(indptr, indices, op.data, x).tolist() == a.dot(x.astype(object)).tolist()
        got = csr.matvecs(indptr, indices, op.data, block)
        assert got.tolist() == a.dot(block.astype(object)).tolist()
    forms = [LinearOperatorHandle(1, *pattern, op.data, op.L) for pattern in (narrow, wide)]
    got = [spectra.minimal_polynomial(form) for form in forms]
    assert got[0] == got[1] and got[0].degree > 1
    # the minimal polynomial q kills every column, and q(B) + B does not
    wrong = list(got[0].q)
    wrong[1] += 1
    for indptr, indices in (narrow, wide):
        assert spectra.certify_annihilates(n, indptr, indices, op.data, list(got[0].q))
        assert not spectra.certify_annihilates(n, indptr, indices, op.data, wrong)


def test_check_keeps_int32_and_widens_anything_else():
    # one index width per kernel call: a pattern of two int32 arrays is
    # kept as it is, and every other pattern becomes two int64 arrays
    indptr, indices, data = VALID
    i32 = [np.array(a, dtype=np.int32) for a in (indptr, indices)]
    got = csr.check((3, 3), *i32, data)
    assert all(a is b for a, b in zip(got, i32))
    i64 = [np.array(a, dtype=np.int64) for a in (indptr, indices)]
    for given in [(indptr, indices),
                  [np.array(a, dtype=np.int16) for a in (indptr, indices)],
                  [np.array(a, dtype=np.uint32) for a in (indptr, indices)],
                  (i32[0], i64[1]), (i64[0], i32[1])]:
        got = csr.check((3, 3), *given, data)
        assert [a.dtype for a in got] == [np.int64, np.int64]
        assert all(a.flags.c_contiguous for a in got)
        assert [a.tolist() for a in got] == [indptr, indices]


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


# (columns, signs, weights) that are no Gram operands for n = 3
MALFORMED_GRAM = {
    "index equal to n": ([[0, 3], [1, 2]], [1, -1], [1, 1]),
    "negative index": ([[0, -1], [1, 2]], [1, -1], [1, 1]),
    "fewer signs than columns": ([[0, 1], [1, 2]], [1], [1, 1]),
    "a weight short": ([[0, 1], [1, 2]], [1, -1], [1]),
    "columns not 2-D": ([0, 1, 1, 2], [1, -1], [1, 1]),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_GRAM))
def test_malformed_gram_operands_raise_before_any_kernel(case, monkeypatch):
    monkeypatch.setattr(csr, "_kernels", NoKernels())
    with pytest.raises(MalformedMatrix):
        csr.gram(3, *MALFORMED_GRAM[case])


def test_a_wrong_row_count_is_malformed():
    indptr, indices, data = VALID
    with pytest.raises(MalformedMatrix):
        csr.check((4, 4), indptr, indices, data)
    got = csr.check((3, 3), indptr, indices, data)
    assert [a.dtype for a in got] == [np.int64, np.int64]


def test_start_up_loads_no_scipy_sparse_and_calls_load_no_numpy_module():
    # scipy.sparse's package init was about 0.2 s of every start-up; and
    # a module the call loads lazily (numpy.ma, say) moves that cost from
    # start-up into the computation.  Every module is diffed:
    # the one known load inside the calls is `locale`, which gettext
    # imports when argparse first translates a message.  Nor does start-up
    # load numpy.random (nine extension modules, and OpenSSL through
    # `secrets`: the Krylov seeds are SplitMix64 in plain numpy) or
    # hashlib (only a complex is hashed, for its label).  numpy 1.x
    # imports both in `import numpy` itself, so only garland's own
    # additions to that are counted
    script = """if True:
        import contextlib, io, json, sys
        import numpy
        with_numpy = set(sys.modules)
        import garland.cli
        before = set(sys.modules)
        with contextlib.redirect_stdout(io.StringIO()):
            garland.cli.main(["verify", "--ell", "1", "--q", "2", "--i", "0", "--json"])
            garland.cli.main(["report", "--grid", "default"])
        print(json.dumps({
            "scipy": sorted(m for m in before if m.startswith("scipy")),
            "new": sorted(set(sys.modules) - before),
            "known": sorted({"_locale", "locale"} - before),
            "random_or_hash": sorted(m for m in before - with_numpy
                                     if m.startswith("numpy.random")
                                     or m in ("hashlib", "_hashlib")),
        }))
    """
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["scipy"] == ["scipy.sparse._sparsetools"]
    assert got["new"] == got["known"]
    assert got["random_or_hash"] == []
