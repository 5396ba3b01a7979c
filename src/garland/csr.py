"""Integer CSR products on scipy's compiled kernels, without scipy.sparse.

garland needs five C++ kernels of scipy's `scipy/sparse/_sparsetools`
extension: csr_matvec, csr_matvecs, csr_tocsc, csr_matmat (with
csr_matmat_maxnnz) and csr_sort_indices.  Importing `scipy.sparse` to
reach them would run its package init, which loads numpy.testing,
numpy.f2py, numpy.ma and more, about 0.2 s of every start-up.  So the
extension is loaded straight from its file: `find_spec("scipy")` finds
the package without executing `scipy/__init__`, and the module is
registered under its own name, so a later `import scipy.sparse` reuses
it (and one made earlier is reused here).

The kernel contract, which the functions below keep:
  - outputs are accumulated into (y += A x), so they start zeroed;
  - every index array of one kernel call has one width, int64 except
    inside `gram`, which works in int32 where a bound proves it fits
    (`gram_index_dtype`) and returns int64; blocks of vectors are
    C-contiguous (n, k) int64 arrays;
  - the kernels do no bounds checks: a stray index reads or writes out
    of bounds.  `check` validates the arrays of a matrix, and callers run
    it once per call on their input, not once per product.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys

import numpy as np

from .errors import MalformedMatrix

_NAME = "scipy.sparse._sparsetools"


def _load():
    if _NAME in sys.modules:
        return sys.modules[_NAME]
    scipy = importlib.util.find_spec("scipy")
    if scipy is None:
        raise ImportError("garland needs scipy for its CSR kernels; scipy is not installed")
    stems = [os.path.join(d, "sparse", "_sparsetools") for d in scipy.submodule_search_locations]
    for stem in stems:
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            if os.path.exists(stem + suffix):
                spec = importlib.util.spec_from_file_location(_NAME, stem + suffix)
                module = importlib.util.module_from_spec(spec)
                spec.loader.exec_module(module)
                sys.modules[_NAME] = module
                return module
    raise ImportError(f"scipy's CSR kernels are missing: no {' or '.join(stems)} "
                      f"with a suffix in {importlib.machinery.EXTENSION_SUFFIXES}")


_kernels = _load()


def _validated(shape, indptr, indices, *data):
    """(indptr, indices) as arrays, int32 kept and anything else as int64,
    once they form a valid CSR pattern.

    Raises MalformedMatrix unless indptr has rows + 1 entries, starts at
    0 and never decreases, indptr[-1] equals the length of indices and
    of every data array, and every index lies in [0, cols).
    """
    rows, cols = shape
    indptr, indices = (a if isinstance(a, np.ndarray) and a.dtype == np.int32
                       else np.asarray(a, dtype=np.int64) for a in (indptr, indices))
    if len(indptr) != rows + 1 or indptr[0] != 0 or np.any(indptr[1:] < indptr[:-1]):
        raise MalformedMatrix(f"indptr is not a nondecreasing array 0..nnz of length {rows + 1}")
    if any(len(a) != indptr[-1] for a in (indices, *data)):
        raise MalformedMatrix(f"indptr ends at {indptr[-1]}, but indices and data "
                              f"have lengths {[len(a) for a in (indices, *data)]}")
    if len(indices) and not (0 <= indices.min() and indices.max() < cols):
        raise MalformedMatrix(f"a column index lies outside 0..{cols - 1}")
    return indptr, indices


def check(shape, indptr, indices, *data):
    """(indptr, indices) as contiguous int64 arrays, once they form a valid
    CSR pattern (`_validated` lists the conditions; MalformedMatrix otherwise)."""
    return tuple(np.ascontiguousarray(a, dtype=np.int64)
                 for a in _validated(shape, indptr, indices, *data))


def _rows_of(indptr, x) -> int:
    """n for the checked CSR arrays of an n x n matrix, when x has n rows."""
    n = len(indptr) - 1
    if len(x) != n:
        raise MalformedMatrix(f"a {n} x {n} matrix times {len(x)} rows")
    return n


def matvec(indptr, indices, data, x) -> np.ndarray:
    """B x for checked CSR arrays of an n x n int64 matrix B and an int64 n-vector x."""
    n = _rows_of(indptr, x)
    y = np.zeros(n, dtype=np.int64)
    _kernels.csr_matvec(n, n, indptr, indices, data, x, y)
    return y


def matvecs(indptr, indices, data, x) -> np.ndarray:
    """B X for checked CSR arrays of an n x n int64 matrix B and a C-contiguous
    (n, k) int64 block X."""
    n = _rows_of(indptr, x)
    y = np.zeros((n, x.shape[1]), dtype=np.int64)
    _kernels.csr_matvecs(n, n, x.shape[1], indptr, indices, data, x, y)
    return y


def gram_index_dtype(m, n, row_nnz, nnz):
    """The index width `gram` works in for an m x n pattern with nnz
    entries, at most row_nnz in a row (`gram` states the bound)."""
    return np.int32 if max(m, n, row_nnz * nnz) < 2**31 - 1 else np.int64


def gram(n, indptr, indices, x, y):
    """X^T Y as n x n CSR (indptr, indices, data) with ascending columns.

    X and Y are m x n int64 CSR matrices with the one pattern (indptr,
    indices) and the values x and y.  Exact zero sums are left out.

    The transposition and the product run on int32 index arrays when
    they provably fit: X^T Y has at most sum_r nnz_r^2 <= max_r nnz_r *
    nnz(X) entries (row r of X meets row r of Y in nnz_r^2 products), so
    int32 is taken when m, n and that bound are all below 2**31 - 1, and
    int64 otherwise (`gram_index_dtype`).  int32 inputs of that width are
    used without a copy.  The returned indptr and indices are int64
    either way.
    """
    indptr, indices = _validated((len(indptr) - 1, n), indptr, indices, x, y)
    m = len(indptr) - 1
    index = gram_index_dtype(m, n, int((indptr[1:] - indptr[:-1]).max(initial=0)), len(indices))
    indptr, indices = (np.ascontiguousarray(a, dtype=index) for a in (indptr, indices))
    tp = np.empty(n + 1, dtype=index)
    tj = np.empty(len(indices), dtype=index)
    tx = np.empty(len(x), dtype=np.int64)
    _kernels.csr_tocsc(m, n, indptr, indices, x, tp, tj, tx)
    nnz = _kernels.csr_matmat_maxnnz(n, n, tp, tj, indptr, indices)
    cp = np.empty(n + 1, dtype=index)
    cj = np.empty(nnz, dtype=index)
    cx = np.empty(nnz, dtype=np.int64)
    _kernels.csr_matmat(n, n, tp, tj, tx, indptr, indices, y, cp, cj, cx)
    del tp, tj, tx, indptr, indices
    cj, cx = cj[:cp[-1]], cx[:cp[-1]]
    _kernels.csr_sort_indices(n, cp, cj, cx)
    return cp.astype(np.int64), cj.astype(np.int64), cx
