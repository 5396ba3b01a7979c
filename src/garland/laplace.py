"""Garland's weighted Laplacian on C^i as an exact integer matrix.

With weights w(s) = number of top simplices containing s, the pairing
on C^i is (f, g) = sum_s w(s) f(s) g(s) over canonical i-simplices, d
is the usual alternating coboundary, delta is its adjoint under the
pairing, and the Laplacian is Delta = delta d on degrees 0..n-1; degree
n is out of domain and rejected.

assemble_matrix builds Delta on C^i in integer arrays, never as
rationals, from the column gather of the coboundary
(`coboundary_pattern`, one `Complex.facets` call) and one Gram product
d^T (diag(w) d) on scipy's compiled CSR kernels (`csr.gram`).  The
coboundary of m (i+1)-simplices has i + 2 entries a row, so the product
has at most m (i+2)^2 entries; while m, n and that bound are below
2**31 - 1, the pattern goes to the Gram product as int32 index arrays,
which it transposes and multiplies without widening them, and only B's
returned indptr and indices are int64.  It returns the square matrix
B = L * Delta as CSR and the scale L (the lcm of the entry denominators
of Delta), which is what the certified spectral code consumes; the
assembly time therefore includes the integer scaling.  B's entries are
one ndarray, int64 when every entry fits and an object array of Python
ints otherwise; assemble_matrix is the only code that makes that
choice.  `dump_matrix_text` writes Delta's entries as exact rationals,
and `LinearOperatorHandle.entries` rebuilds them as a dict (the
benchmark's nnz count reads it).  The exact-rational cochain calculus
that this matrix must agree with lives in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import lcm

import numpy as np

from . import csr
from .complexes import Complex
from .errors import DegreeOutOfRange
from .rationals import QQ, qstr


@dataclass
class LinearOperatorHandle:
    """Delta on C^i as the exact square integer CSR matrix B = L * Delta.

    Row r of B has the ascending columns indices[indptr[r]:indptr[r+1]]
    (int64 arrays) with the values at the same positions of `data`, one
    ndarray: int64 when every entry fits, else an object array of Python
    ints.  L >= 1 is the lcm of the denominators of the entries of Delta,
    a Python int that may exceed 2**63.
    """

    domain_degree: int
    indptr: np.ndarray = field(repr=False)
    indices: np.ndarray = field(repr=False)
    data: np.ndarray = field(repr=False)
    L: int

    @property
    def dim(self) -> int:
        return len(self.indptr) - 1

    def _triples(self):
        """(row, col, Delta[row, col]) over the stored entries in row-major order."""
        rows = np.repeat(np.arange(self.dim), np.diff(self.indptr)).tolist()
        for r, col, x in zip(rows, self.indices.tolist(), self.data.tolist()):
            yield r, col, QQ(x, self.L)

    @property
    def entries(self) -> dict:
        """Delta as a fresh {(row, col): rational} dict, derived from the CSR arrays."""
        return {(r, col): v for r, col, v in self._triples()}


def coboundary_pattern(c: Complex, i: int) -> tuple[np.ndarray, np.ndarray]:
    """Columns and signs of the +-1 coboundary d: C^i -> C^{i+1}.

    Row r of d has the entry signs[j] = (-1)^j at column cols[r, j], the
    face of (i+1)-simplex r without its vertex j (`Complex.facets`).
    """
    if not 0 <= i <= c.dim - 1:
        raise DegreeOutOfRange(f"coboundary entries need 0 <= i < {c.dim}")
    return c.facets(i + 1), (-1) ** np.arange(i + 2, dtype=np.int64)


def _fits_int64(num: np.ndarray, den: np.ndarray, L: int) -> bool:
    """Whether every product num * (L // den) fits int64 (den > 0)."""
    top = max(int(num.max(initial=0)), -int(num.min(initial=0)))
    return L < 2**63 and top * (L // int(den.min(initial=1))) < 2**63


def assemble_matrix(c: Complex, i: int, coboundary=None) -> LinearOperatorHandle:
    """The Laplacian on C^i as B = L * Delta in exact integer CSR form.

    With d the +-1 coboundary C^i -> C^{i+1}, Delta = diag(1/w_i) X for
    X = d^T diag(w_{i+1}) d, so entry (r, c) of Delta is x / w_r with x
    from X.  Reduced by g = gcd(x, w_r) its denominator is w_r / g, L is
    the lcm of those, and B holds (x / g) * (L / (w_r / g)).  L is a
    Python int, because it can pass 2**63; B's data are int64 when every
    product fits and Python ints in an object array otherwise.

    `coboundary` is `coboundary_pattern(c, i)` when the caller already
    holds it (a vertex link's, which its cohomology test reads too); it
    is only read.
    """
    if not 0 <= i <= c.dim - 1:
        raise DegreeOutOfRange(f"Laplacian acts on degrees 0..{c.dim - 1}, got {i}")
    n = c.num_simplices(i)
    cols, signs = coboundary_pattern(c, i) if coboundary is None else coboundary
    m = len(cols)
    # the pattern in gram's index width, so gram takes it without a copy
    index = csr.gram_index_dtype(m, n, i + 2, m * (i + 2))
    rowptr = np.arange(0, m * (i + 2) + 1, i + 2, dtype=index)
    cols = cols.astype(index, copy=False).ravel()
    # Y's values w_{i+1}(row) * sign, formed in place
    y = np.repeat(c.counts[i + 1], i + 2)
    y.reshape(m, i + 2)[...] *= signs
    indptr, indices, x = csr.gram(n, rowptr, cols, np.tile(signs, m), y)
    del cols, rowptr, y
    # in place, to keep the peak down: x becomes x / g and den w_r / g
    den = np.repeat(c.counts[i], np.diff(indptr))
    g = np.gcd(x, den)
    x //= g
    den //= g
    del g
    # the distinct denominators from a count over 1..max w_r, not a list
    # of every entry, nor np.unique, which loads numpy.ma on first use
    L = lcm(*np.flatnonzero(np.bincount(den)).tolist())
    if _fits_int64(x, den, L):
        data = np.floor_divide(L, den, out=den)
        data *= x
    else:
        data = x.astype(object) * (L // den.astype(object))
    return LinearOperatorHandle(domain_degree=i, indptr=indptr, indices=indices, data=data, L=L)


def dump_matrix_text(handle: LinearOperatorHandle) -> str:
    """Stable text dump: header `n n degree`, then `row col num/den` lines."""
    lines = [f"{handle.dim} {handle.dim} {handle.domain_degree}"]
    for r, col, v in handle._triples():
        lines.append(f"{r} {col} {qstr(v)}")
    return "\n".join(lines) + "\n"
