"""The exact-rational weighted cochain calculus: the tests' oracle for Garland's identities.

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
That `garland.laplace.assemble_matrix` agrees with `laplacian_apply` is
a test invariant.

The package works on the arrays of a `Complex`.  The per-face tables
this calculus reads, `simplices` (the id tuples in lexicographic order),
`index` (simplex tuple -> position) and `weights` (Python ints aligned
with `simplices`), each built once per complex, and the lookups on one
simplex (`contains`, `weight`, `star`) are derived here from those
arrays.  So are a building's vertex-type dict (`types_of`) and the
type-invariant lift of chamber cochains.
"""

from __future__ import annotations

import weakref
from bisect import bisect_left
from dataclasses import dataclass
from itertools import combinations
from types import MappingProxyType

import numpy as np

from garland.complexes import Complex
from garland.errors import (
    DegreeOutOfRange,
    GarlandError,
    RepeatedVertex,
    SimplexNotFound,
)
from garland.laplace import coboundary_pattern
from garland.rationals import QQ, QQ0


class DegreeMismatch(GarlandError):
    pass


class UnknownVertex(GarlandError):
    pass


class UnknownType(GarlandError):
    pass


class DimensionMismatch(GarlandError):
    pass


def orientation_sign(vertices) -> tuple[tuple, int]:
    """Canonical form of an oriented simplex and the permutation sign.

    The sign is (-1)**inversions of the vertex sequence, e.g.
    orientation_sign([3, 1, 2, 0]) == ((0, 1, 2, 3), -1).
    """
    vs = tuple(vertices)
    if len(set(vs)) != len(vs):
        raise RepeatedVertex(f"oriented simplex has a repeated vertex: {vs}")
    inversions = sum(
        1 for i in range(len(vs)) for j in range(i + 1, len(vs)) if vs[i] > vs[j]
    )
    return tuple(sorted(vs)), -1 if inversions % 2 else 1


# -- per-face tables of a complex ------------------------------------------------


def _per_object(build):
    """Memoize build(obj) for as long as obj lives, without storing on obj."""
    memo = weakref.WeakKeyDictionary()

    def get(obj):
        if obj not in memo:
            memo[obj] = build(obj)
        return memo[obj]

    get.__doc__ = build.__doc__
    return get


@_per_object
def simplices(cx: Complex) -> list[list[tuple]]:
    """Per dimension, the canonical simplices as id tuples in lexicographic order."""
    return [list(map(tuple, level.tolist())) for level in cx.rows]


@_per_object
def index(cx: Complex) -> list[MappingProxyType]:
    """Per dimension, simplex tuple -> position."""
    return [MappingProxyType(dict(zip(level, range(len(level)))))
            for level in simplices(cx)]


@_per_object
def weights(cx: Complex) -> list[list[int]]:
    """Per dimension, the weights as Python ints, aligned with `simplices`."""
    return [c.tolist() for c in cx.counts]


def _position(cx: Complex, s) -> int:
    """Position of the canonical simplex s among the simplices of its size; -1 if s is none."""
    s = tuple(s)
    if not (1 <= len(s) <= cx.dim + 1 and list(s) == sorted(set(s))
            and 0 <= s[0] and s[-1] < cx.num_simplices(0)):
        return -1
    return int(cx.locate(np.asarray([s], dtype=np.int64))[0])


def contains(cx: Complex, s) -> bool:
    return _position(cx, s) >= 0


def weight(cx: Complex, s) -> int:
    pos = _position(cx, s)
    if pos < 0:
        raise SimplexNotFound(f"{tuple(s)} is not a simplex of this complex")
    return int(cx.counts[len(s) - 1][pos])


def star(cx: Complex, s) -> tuple[Complex, list[int]]:
    """Closure of the maximal simplices containing s, relabeled to dense
    ids; returns (complex, new_to_old) as `Complex.vertex_link` does."""
    if not contains(cx, s):
        raise SimplexNotFound(f"{tuple(s)} is not a simplex of this complex")
    top = cx.rows[cx.dim]
    rows = top[np.isin(top, s).sum(axis=1) == len(s)]
    old, dense = np.unique(rows, return_inverse=True)
    return Complex.from_maximal_simplices(dense.reshape(rows.shape)), old.tolist()


def check_weight_identity(cx: Complex) -> bool:
    """Sum of (i+1)-coface weights of sigma equals (n-i) * w(sigma), all i < n."""
    for i in range(cx.dim):
        acc = [0] * len(simplices(cx)[i])
        idx = index(cx)[i]
        for t, wt in zip(simplices(cx)[i + 1], weights(cx)[i + 1]):
            for face in combinations(t, i + 1):
                acc[idx[face]] += wt
        target = cx.dim - i
        for got, ws in zip(acc, weights(cx)[i]):
            if got != target * ws:
                return False
    return True


# -- cochains -----------------------------------------------------------------------


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
        idx = index(c)[degree]
        values = [QQ0] * c.num_simplices(degree)
        for s, v in mapping.items():
            values[idx[tuple(s)]] = QQ(v)
        return cls(c, degree, values)

    def evaluate(self, oriented) -> QQ:
        canonical, sign = orientation_sign(oriented)
        idx = index(self.complex)[self.degree]
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
    ws = weights(f.complex)[f.degree]
    return sum(
        (QQ(w) * a * b for w, a, b in zip(ws, f.values, g.values) if a and b),
        QQ0,
    )


def coboundary(f: Cochain) -> Cochain:
    c, i = f.complex, f.degree
    if i >= c.dim:
        raise DegreeOutOfRange(f"coboundary out of degree {i} on a {c.dim}-complex")
    idx = index(c)[i]
    out = []
    for t in simplices(c)[i + 1]:
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
    idx = index(c)[i - 1]
    wi = weights(c)[i]
    wlow = weights(c)[i - 1]
    for t, wt, gt in zip(simplices(c)[i], wi, g.values):
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


def coboundary_entries(c: Complex, i: int) -> dict:
    """Sparse +-1 entries of d: C^i -> C^{i+1} over canonical order."""
    cols, signs = coboundary_pattern(c, i)
    qsigns = [QQ(int(v)) for v in signs]
    return {(row, col): qsigns[j]
            for row, faces in enumerate(cols.tolist()) for j, col in enumerate(faces)}


# -- localization -------------------------------------------------------------------


def rho_v(f: Cochain, v: int) -> Cochain:
    """Restriction to the star of v: values on simplices not containing v drop to 0."""
    c = f.complex
    if (v,) not in index(c)[0]:
        raise UnknownVertex(f"vertex {v} not in complex")
    vals = [
        val if v in s else QQ0
        for s, val in zip(simplices(c)[f.degree], f.values)
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
    for s, val in zip(simplices(c)[f.degree], f.values):
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
    if (v,) not in index(c)[0]:
        raise UnknownVertex(f"vertex {v} not in complex")
    link, new_to_old = c.vertex_link(v)
    idx = index(c)[i]
    out = []
    for sigma in simplices(link)[i - 1]:
        glob = tuple(new_to_old[u] for u in sigma)
        pos = bisect_left(glob, v)
        merged = glob[:pos] + (v,) + glob[pos:]
        val = f.values[idx[merged]]
        out.append(val if pos % 2 == 0 else -val)
    return Cochain(link, i - 1, out)


# -- buildings ----------------------------------------------------------------------


def types_of(b) -> dict[int, int]:
    """Vertex id -> type of a `TypedBuilding`, as a dict."""
    return dict(enumerate(b.vertex_types.tolist()))


def fundamental_chamber_complex(ell: int) -> Complex:
    """The chamber as a standalone full simplex whose vertex ids are the types."""
    return Complex.from_maximal_simplices([tuple(range(ell + 1))])


def type_invariant_lift(b, degree: int, face_values) -> Cochain:
    """Extend a cochain on the fundamental chamber's faces type-invariantly.

    `face_values` maps each ascending (degree+1)-tuple of types to the
    value on the chamber face with those types, oriented by increasing
    type.  Vertex ids ascend with type inside every simplex, so the
    canonical orientation of each simplex already matches.
    """
    expected = set(combinations(range(b.ell + 1), degree + 1))
    keys = {tuple(k) for k in face_values}
    if keys != expected:
        raise DimensionMismatch(
            f"need values on all {len(expected)} type sets of size {degree + 1}"
        )
    fv = {tuple(k): QQ(v) for k, v in face_values.items()}
    types = types_of(b)
    values = [
        fv[tuple(types[v] for v in s)]
        for s in simplices(b.complex)[degree]
    ]
    return Cochain(b.complex, degree, values)
