"""Garland's weighted Laplacian on C^i as an exact integer matrix.

With weights w(s) = number of top simplices containing s, the pairing
on C^i is (f, g) = sum_s w(s) f(s) g(s) over canonical i-simplices, d
is the usual alternating coboundary, delta is its adjoint under the
pairing, and the Laplacian is Delta = delta d on degrees 0..n-1; degree
n is out of domain and rejected.

assemble_matrix builds Delta on C^i in integer arrays, never as
rationals, from the column gather of the coboundary
(`coboundary_pattern`, one `Complex.facets` call) and one Gram product
d^T diag(w_{i+1}) d on scipy's compiled CSR kernels (`csr.gram`).  Its
operands are the facet positions as `facets` returns them, the i + 2
signs (-1)^j and the weights w_{i+1} as `counts` stores them: gram
makes d's values and diag(w) d itself, so assembly forms no array of
coboundary values.  The coboundary of m (i+1)-simplices has i + 2
entries a row, so the product has at most m (i+2)^2 entries; while m,
n and that bound are below 2**31 - 1, the int32 facet positions are
gram's column indices without a copy, which it transposes and
multiplies without widening them, and B's indptr and indices come back
int32 too; past the bound all four are int64.
Krylov and certification run the kernels on B's arrays in that width
(`csr.check`).  The values are int32 likewise while the sum of w_{i+1}
is below 2**31, a bound on every entry of X and every weight
(`assemble_matrix` gives the proof), so the int32 weights go to gram
uncopied, and B's data are made in place from
the int64 denominators.  It returns the square matrix B = L * Delta as
CSR and the scale L (the lcm of the entry denominators of Delta),
which is what the certified spectral code consumes; the
assembly time therefore includes the integer scaling.  B's entries are
one ndarray, int64 when every entry fits and an object array of Python
ints otherwise; assemble_matrix is the only code that makes that
choice.  `dump_matrix_text` writes Delta's entries as exact rationals.
`LinearOperatorHandle.entries` is another name for `data`, whose length
is the nnz that the benchmark counts.  The exact-rational cochain
calculus that this matrix must agree with lives in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import lcm

import numpy as np

from . import csr
from .complexes import Complex
from .errors import DegreeOutOfRange
from .rationals import QQ, qstr

# the entries whose gcds `assemble_matrix` takes at a time
_GCD_BLOCK = 65_536


@dataclass
class LinearOperatorHandle:
    """Delta on C^i as the exact square integer CSR matrix B = L * Delta.

    Row r of B has the ascending columns indices[indptr[r]:indptr[r+1]]
    with the values at the same positions of `data`.  indptr and indices
    have one width: int32 when the Gram product that made them worked in
    int32 (`csr.gram_index_dtype`), else int64.  `data` is one ndarray:
    int64 when every entry fits, else an object array of Python ints.
    L >= 1 is the lcm of the denominators of the entries of Delta, a
    Python int that may exceed 2**63.
    """

    domain_degree: int
    indptr: np.ndarray = field(repr=False)
    indices: np.ndarray = field(repr=False)
    data: np.ndarray = field(repr=False)
    L: int

    @property
    def dim(self) -> int:
        return len(self.indptr) - 1

    entries = property(lambda self: self.data, doc="`data` by another name (module docstring).")


def coboundary_pattern(c: Complex, i: int) -> tuple[np.ndarray, np.ndarray]:
    """Columns and signs of the +-1 coboundary d: C^i -> C^{i+1}.

    Row r of d has the entry signs[j] = (-1)^j at column cols[r, j], the
    face of (i+1)-simplex r without its vertex j (`Complex.facets`).
    """
    if not 0 <= i <= c.dim - 1:
        raise DegreeOutOfRange(f"degree {i} is out of range 0..{c.dim - 1}")
    return c.facets(i + 1), (-1) ** np.arange(i + 2, dtype=np.int64)


def _fits_int64(num: np.ndarray, den: np.ndarray, L: int) -> bool:
    """Whether every product num * (L // den) fits int64 (den > 0)."""
    top = max(int(num.max(initial=0)), -int(num.min(initial=0)))
    # not den.min(initial=L): den's width need not hold L
    smallest = int(den.min()) if den.size else L
    return L < 2**63 and top * (L // smallest) < 2**63


def assemble_matrix(c: Complex, i: int) -> LinearOperatorHandle:
    """The Laplacian on C^i as B = L * Delta in exact integer CSR form.

    With d the +-1 coboundary C^i -> C^{i+1}, Delta = diag(1/w_i) X for
    X = d^T diag(w_{i+1}) d, so entry (r, c) of Delta is x / w_r with x
    from X.  Reduced by g = gcd(x, w_r) its denominator is w_r / g, L is
    the lcm of those, and B holds (x / g) * (L / (w_r / g)).  L is a
    Python int, because it can pass 2**63; B's data are int64 when every
    product fits and Python ints in an object array otherwise.

    X, the weights gram reads and the gcds are int32 when
    W = sum_s w_{i+1}(s) < 2**31 and int64 otherwise
    (`csr.gram_value_dtype`).  That is enough: a row of d has entries
    +-1, so |X[r, c]| and every partial sum of it are at most W; and
    w_r <= W, because each of the w_r top simplices through r contains
    an (i+1)-simplex (i < n), and W counts every top simplex once per
    (i+1)-face, so at least once.  |g| <= w_r then too.  The denominators
    are int64, because B's data are made from them in place, and the
    gcds are taken a block of entries at a time.
    """
    cols, signs = coboundary_pattern(c, i)  # checks the degree first
    n = c.num_simplices(i)
    # every |X[r, c]|, every partial sum of it and every w_r is at most
    # the sum of w_{i+1} (docstring), so that sum picks the width of X,
    # the weights gram reads and the gcds
    weights = c.counts[i + 1]
    value = csr.gram_value_dtype(int(weights.sum(dtype=np.int64)))
    indptr, indices, x = csr.gram(n, cols, signs, weights.astype(value, copy=False))
    del cols
    # in place, to keep the peak down: x becomes x / g and den w_r / g,
    # a block at a time, so no array of gcds is B's size; then den
    # becomes B's data, so den is int64 from the start
    den = np.repeat(c.counts[i].astype(np.int64), np.diff(indptr))
    for start in range(0, len(den), _GCD_BLOCK):
        xs, ds = x[start:start + _GCD_BLOCK], den[start:start + _GCD_BLOCK]
        g = np.gcd(xs, ds, out=np.empty_like(xs))
        xs //= g
        ds //= g
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
    rows = np.repeat(np.arange(handle.dim), np.diff(handle.indptr)).tolist()
    lines = [f"{handle.dim} {handle.dim} {handle.domain_degree}"]
    for r, col, x in zip(rows, handle.indices.tolist(), handle.data.tolist()):
        lines.append(f"{r} {col} {qstr(QQ(x, handle.L))}")
    return "\n".join(lines) + "\n"
