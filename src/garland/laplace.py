"""Weighted cochain calculus on pure complexes.

Cochains of degree i are alternating functions on oriented i-simplices,
stored as one rational per canonical simplex.  The pairing is

    (f, g) = sum_s w(s) f(s) g(s)

over canonical i-simplices, the coboundary is the usual alternating sum

    (df)(v_0..v_{i+1}) = sum_j (-1)^j f(..v_j-hat..),

and the adjoint of d with respect to the pairing is evaluated directly
from its closed form

    (delta g)(s) = sum_{v : [v,s] in X} w([v,s])/w(s) * g([v,s]),

with v prepended to s.  That the two are actually adjoint, (df, g) =
(f, delta g), is a test invariant, not an assumption of the code.  The
Laplacian is delta d acting on degrees 0..n-1; degree n is out of
domain and rejected.

Localization: rho_v restricts to the star of v, rho_alpha sums rho_v
over the vertices of one type, tau_v contracts a degree-i cochain onto
a degree-(i-1) cochain on Lk(v) via (tau_v f)(sigma) = f([v, sigma]).

Materialized operators: assemble_matrix builds the Laplacian on C^i
in integer arrays, never as rationals, from the column gather of the
coboundary (`coboundary_pattern`, one `Complex.facets` call).  It
returns the square matrix B = L * Delta as CSR and the scale L (the lcm
of the entry denominators of Delta), which is what the certified
spectral code consumes; the assembly time therefore includes the
integer scaling.  B's entries are one ndarray, int64 when every entry
fits and an object array of Python ints otherwise; assemble_matrix is
the only code that makes that choice.
`LinearOperatorHandle.entries` rebuilds the rational entries from the
CSR for inspection and tests only.  That the CSR agrees with the
matrix-free `laplacian_apply` is a test invariant.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from math import lcm

import numpy as np
from scipy.sparse import csr_matrix

from .complexes import Complex, orientation_sign
from .errors import (
    DegreeMismatch,
    DegreeOutOfRange,
    SimplexNotFound,
    UnknownType,
    UnknownVertex,
)
from .rationals import QQ, QQ0, qstr


@dataclass
class Cochain:
    complex: Complex
    degree: int
    values: list

    def __post_init__(self):
        if not 0 <= self.degree <= self.complex.dim:
            raise DegreeOutOfRange(
                f"degree {self.degree} outside 0..{self.complex.dim}"
            )
        if len(self.values) != self.complex.num_simplices(self.degree):
            raise DegreeMismatch(
                f"expected {self.complex.num_simplices(self.degree)} values, "
                f"got {len(self.values)}"
            )
        self.values = [QQ(v) for v in self.values]

    @classmethod
    def zeros(cls, c: Complex, degree: int) -> "Cochain":
        return cls(c, degree, [QQ0] * c.num_simplices(degree))

    @classmethod
    def basis(cls, c: Complex, degree: int, k: int) -> "Cochain":
        values = [QQ0] * c.num_simplices(degree)
        values[k] = QQ(1)
        return cls(c, degree, values)

    @classmethod
    def from_simplex_values(cls, c: Complex, degree: int, mapping) -> "Cochain":
        idx = c.index[degree]
        values = [QQ0] * c.num_simplices(degree)
        for s, v in mapping.items():
            values[idx[tuple(s)]] = QQ(v)
        return cls(c, degree, values)

    def evaluate(self, oriented) -> QQ:
        canonical, sign = orientation_sign(oriented)
        idx = self.complex.index[self.degree]
        if canonical not in idx:
            raise SimplexNotFound(f"{canonical} is not a simplex of this complex")
        return QQ(sign) * self.values[idx[canonical]]

    def __add__(self, other: "Cochain") -> "Cochain":
        _check_compatible(self, other)
        return Cochain(
            self.complex, self.degree,
            [a + b for a, b in zip(self.values, other.values)],
        )

    def __sub__(self, other: "Cochain") -> "Cochain":
        _check_compatible(self, other)
        return Cochain(
            self.complex, self.degree,
            [a - b for a, b in zip(self.values, other.values)],
        )

    def scale(self, c) -> "Cochain":
        c = QQ(c)
        return Cochain(self.complex, self.degree, [c * v for v in self.values])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Cochain)
            and self.complex is other.complex
            and self.degree == other.degree
            and self.values == other.values
        )

    def __repr__(self) -> str:
        nz = sum(1 for v in self.values if v)
        return f"Cochain(degree={self.degree}, dim={len(self.values)}, nonzeros={nz})"


def _check_compatible(f: Cochain, g: Cochain) -> None:
    if f.complex is not g.complex:
        raise DegreeMismatch("cochains live on different complexes")
    if f.degree != g.degree:
        raise DegreeMismatch(f"degrees differ: {f.degree} vs {g.degree}")


def inner_product(f: Cochain, g: Cochain):
    """(f, g) = sum over canonical i-simplices of w(s) f(s) g(s)."""
    _check_compatible(f, g)
    ws = f.complex.weights[f.degree]
    return sum(
        (QQ(w) * a * b for w, a, b in zip(ws, f.values, g.values) if a and b),
        QQ0,
    )


def coboundary(f: Cochain) -> Cochain:
    c, i = f.complex, f.degree
    if i >= c.dim:
        raise DegreeOutOfRange(f"coboundary out of degree {i} on a {c.dim}-complex")
    idx = c.index[i]
    out = []
    for t in c.simplices[i + 1]:
        acc = QQ0
        sign = 1
        for j in range(i + 2):
            v = f.values[idx[t[:j] + t[j + 1 :]]]
            if v:
                acc += v if sign > 0 else -v
            sign = -sign
        out.append(acc)
    return Cochain(c, i + 1, out)


def adjoint_delta(g: Cochain) -> Cochain:
    c, i = g.complex, g.degree
    if i < 1:
        raise DegreeOutOfRange("adjoint_delta needs degree >= 1")
    out = [QQ0] * c.num_simplices(i - 1)
    idx = c.index[i - 1]
    wi = c.weights[i]
    wlow = c.weights[i - 1]
    for t, wt, gt in zip(c.simplices[i], wi, g.values):
        if not gt:
            continue
        sign = 1
        for j in range(i + 1):
            k = idx[t[:j] + t[j + 1 :]]
            # [v_j, t\v_j] differs from canonical t by j transpositions
            out[k] += QQ(sign * wt, wlow[k]) * gt
            sign = -sign
    return Cochain(c, i - 1, out)


def laplacian_apply(f: Cochain) -> Cochain:
    c, i = f.complex, f.degree
    if not 0 <= i <= c.dim - 1:
        raise DegreeOutOfRange(
            f"Laplacian acts on degrees 0..{c.dim - 1}, got {i}"
        )
    return adjoint_delta(coboundary(f))


# -- localization -------------------------------------------------------------


def rho_v(f: Cochain, v: int) -> Cochain:
    """Restriction to the star of v: values on simplices not containing v drop to 0."""
    c = f.complex
    if (v,) not in c.index[0]:
        raise UnknownVertex(f"vertex {v} not in complex")
    vals = [
        val if v in s else QQ0
        for s, val in zip(c.simplices[f.degree], f.values)
    ]
    return Cochain(c, f.degree, vals)


def rho_alpha(f: Cochain, types, alpha: int) -> Cochain:
    """Sum of rho_v over the vertices of type alpha.

    `types` maps every vertex id to its type.  On a simplex the result
    multiplies the value by the number of its vertices of type alpha
    (0 or 1 when types within a simplex are distinct, as in a building).
    """
    if alpha not in set(types.values()):
        raise UnknownType(f"no vertex has type {alpha}")
    c = f.complex
    vals = []
    for s, val in zip(c.simplices[f.degree], f.values):
        mult = sum(1 for v in s if types[v] == alpha)
        vals.append(QQ(mult) * val if mult else QQ0)
    return Cochain(c, f.degree, vals)


def tau_v(f: Cochain, v: int) -> Cochain:
    """Contraction onto the link: (tau_v f)(sigma) = f([v, sigma]).

    Returns a cochain of degree i-1 on Lk(v) (use f.complex.vertex_link(v)
    for the relabeling back to original vertex ids).
    """
    c, i = f.complex, f.degree
    if i < 1:
        raise DegreeOutOfRange("tau_v needs degree >= 1")
    if (v,) not in c.index[0]:
        raise UnknownVertex(f"vertex {v} not in complex")
    link, new_to_old = c.vertex_link(v)
    idx = c.index[i]
    out = []
    for sigma in link.simplices[i - 1]:
        glob = tuple(new_to_old[u] for u in sigma)
        pos = bisect_left(glob, v)
        merged = glob[:pos] + (v,) + glob[pos:]
        val = f.values[idx[merged]]
        out.append(val if pos % 2 == 0 else -val)
    return Cochain(link, i - 1, out)


# -- materialized operators ---------------------------------------------------


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


def assemble_matrix(c: Complex, i: int) -> LinearOperatorHandle:
    """The Laplacian on C^i as B = L * Delta in exact integer CSR form.

    With d the +-1 coboundary C^i -> C^{i+1}, Delta = diag(1/w_i) X for
    X = d^T diag(w_{i+1}) d, so entry (r, c) of Delta is x / w_r with x
    from X.  Reduced by g = gcd(x, w_r) its denominator is w_r / g, L is
    the lcm of those, and B holds (x / g) * (L / (w_r / g)).  L is a
    Python int, because it can pass 2**63; B's data are int64 when every
    product fits and Python ints in an object array otherwise.
    """
    if not 0 <= i <= c.dim - 1:
        raise DegreeOutOfRange(f"Laplacian acts on degrees 0..{c.dim - 1}, got {i}")
    n = c.num_simplices(i)
    cols, signs = coboundary_pattern(c, i)
    m = len(cols)
    signs = np.tile(signs, m)
    rowptr = np.arange(0, m * (i + 2) + 1, i + 2, dtype=np.int64)
    d = csr_matrix((signs, cols.ravel(), rowptr), shape=(m, n))
    w_up = np.repeat(c.counts[i + 1], i + 2)
    wd = csr_matrix((signs * w_up, cols.ravel(), rowptr), shape=(m, n))
    x = (d.T @ wd).tocsr()
    x.eliminate_zeros()
    x.sort_indices()
    # in place, to keep the peak down: x.data becomes x / g and den w_r / g
    den = np.repeat(c.counts[i], np.diff(x.indptr))
    g = np.gcd(x.data, den)
    x.data //= g
    den //= g
    L = lcm(*np.unique(den).tolist())
    if _fits_int64(x.data, den, L):
        data = L // den
        data *= x.data
    else:
        data = x.data.astype(object) * (L // den.astype(object))
    return LinearOperatorHandle(
        domain_degree=i,
        indptr=x.indptr.astype(np.int64),
        indices=x.indices.astype(np.int64),
        data=data,
        L=L,
    )


def coboundary_entries(c: Complex, i: int) -> dict:
    """Sparse +-1 entries of d: C^i -> C^{i+1} over canonical order."""
    cols, signs = coboundary_pattern(c, i)
    qsigns = [QQ(int(v)) for v in signs]
    return {(row, col): qsigns[j]
            for row, faces in enumerate(cols.tolist()) for j, col in enumerate(faces)}


def dump_matrix_text(handle: LinearOperatorHandle) -> str:
    """Stable text dump: header `n n degree`, then `row col num/den` lines."""
    lines = [f"{handle.dim} {handle.dim} {handle.domain_degree}"]
    for r, col, v in handle._triples():
        lines.append(f"{r} {col} {qstr(v)}")
    return "\n".join(lines) + "\n"
