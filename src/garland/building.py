"""Flag complexes of linear subspace geometries over GF(q).

The order-(ell, q) building here is the flag complex on the proper
nonzero subspaces of F_q^(ell+2): vertices are subspaces of dimension
1..ell+1, simplices are flags (chains under inclusion), and the maximal
simplices are the complete flags.  Type(v) = dim(v) - 1, so types run
0..ell and every chamber carries each type exactly once.

Canonical data layout, fixed as an external contract:
  * a subspace is its reduced row echelon basis (codes of field elements);
  * enumerate_subspaces orders by pivot-column set (lexicographic), then
    by the free entries row-major in field enumeration order;
  * building vertex ids are dimension-major: all dim-1 subspaces in
    enumeration order, then dim-2, and so on; `vertex_types[v]` is the
    type of id v.  Every subspace lies on a chamber, so these ids are
    also the complex's labels and its dense ids;
  * the chambers are a (chambers x (ell+1)) int32 array of vertex ids,
    each row ascending in type, in depth-first order: by the dim-1
    subspace, then by the superspace enumeration order of each step
    (`_superspace_rows`).  It goes straight to
    `Complex.from_maximal_simplices`; no tuple per chamber is made;
  * the fundamental chamber is the standard flag <e1> < <e1,e2> < ...,
    which is the first subspace of every dimension block.

What ships is what a run needs: the enumeration, the chamber walk, the
type array and `witness_columns`.  Incidence tests on single subspaces
and the type-invariant lift of chamber cochains are test oracles and
live with the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from .complexes import Complex
from .errors import DimensionOutOfRange
from .gf import FieldSpec


@dataclass(frozen=True)
class Subspace:
    """A d-dimensional subspace of F_q^n as its canonical RREF basis."""

    ambient: int
    dim: int
    rows: tuple  # tuple of row tuples, entries are field codes
    field: FieldSpec

    @property
    def pivots(self) -> tuple:
        return tuple(next(j for j, x in enumerate(r) if x) for r in self.rows)


def enumerate_subspaces(n: int, d: int, field: FieldSpec) -> list[Subspace]:
    """All d-dimensional subspaces of F_q^n in canonical order."""
    if not 1 <= d <= n:
        raise DimensionOutOfRange(f"subspace dimension {d} outside 1..{n}")
    q = field.q
    out = []
    for pivots in combinations(range(n), d):
        pivot_set = set(pivots)
        free = [
            (r, c)
            for r in range(d)
            for c in range(pivots[r] + 1, n)
            if c not in pivot_set
        ]
        base = [[0] * n for _ in range(d)]
        for r, p in enumerate(pivots):
            base[r][p] = 1
        for assignment in product(range(q), repeat=len(free)):
            rows = [list(b) for b in base]
            for (r, c), code in zip(free, assignment):
                rows[r][c] = code
            out.append(Subspace(n, d, tuple(tuple(r) for r in rows), field))
    return out


def _superspace_rows(sub: Subspace):
    """Canonical RREF bases of the (dim+1)-superspaces of sub.

    Each superspace is span(sub, r) for exactly one residual vector r
    supported on the non-pivot columns with leading entry 1, so these are
    enumerated directly instead of by containment testing.
    """
    f = sub.field
    n = sub.ambient
    q = f.q
    add, neg, mul = f.add_table, f.neg_table, f.mul_table
    pivots = sub.pivots
    nonpivots = [c for c in range(n) if c not in set(pivots)]
    for t_idx, t in enumerate(nonpivots):
        tail = nonpivots[t_idx + 1 :]
        # elimination keeps every old pivot, so r goes after the rows pivoting before t
        at = sum(1 for p in pivots if p < t)
        for assignment in product(range(q), repeat=len(tail)):
            r = [0] * n
            r[t] = 1
            for c, code in zip(tail, assignment):
                r[c] = code
            # eliminate column t from the old rows, insert r in pivot order
            new_rows = []
            for row in sub.rows:
                c = row[t]
                if c:
                    nc = neg[c]
                    row = tuple(
                        add[x][mul[nc][r[j]]] if r[j] else x
                        for j, x in enumerate(row)
                    )
                new_rows.append(row)
            new_rows.insert(at, tuple(r))
            yield tuple(new_rows)


@dataclass
class TypedBuilding:
    """A flag complex with its per-vertex type array and subspace labels."""

    ell: int
    field: FieldSpec
    complex: Complex
    subspaces: list[Subspace]
    vertex_types: np.ndarray  # int32, type of vertex id v at position v
    fundamental_chamber: tuple

    @property
    def q(self) -> int:
        return self.field.q


def flag_complex(ell: int, field: FieldSpec) -> TypedBuilding:
    if ell < 1:
        raise DimensionOutOfRange(f"building rank parameter must be >= 1, got {ell}")
    n = ell + 2
    layers = [enumerate_subspaces(n, d, field) for d in range(1, ell + 2)]
    offsets = [0]
    for layer in layers:
        offsets.append(offsets[-1] + len(layer))

    # walk the complete flags one dimension at a time: every d-subspace
    # has the same number of (d+1)-superspaces, so each superspace-id
    # table is rectangular and a layer of the walk is one np.repeat
    chambers = np.arange(len(layers[0]), dtype=np.int32)[:, None]
    for d, layer in enumerate(layers[:-1]):
        lookup = {s.rows: offsets[d + 1] + i for i, s in enumerate(layers[d + 1])}
        sup = np.asarray([[lookup[rows] for rows in _superspace_rows(s)] for s in layer],
                         dtype=np.int32)
        nxt = sup[chambers[:, -1] - offsets[d]].reshape(-1, 1)
        chambers = np.concatenate([np.repeat(chambers, sup.shape[1], axis=0), nxt], axis=1)

    cx = Complex.from_maximal_simplices(chambers)
    types = np.repeat(np.arange(ell + 1, dtype=np.int32), [len(layer) for layer in layers])
    subspaces = [s for layer in layers for s in layer]
    return TypedBuilding(ell, field, cx, subspaces, types, tuple(offsets[:-1]))


def witness_columns(b: TypedBuilding, degree: int) -> list[int]:
    """One basis index per simplex type signature of C^degree, the first in order.

    Invertible maps of the ambient space permute the subspaces, preserve
    incidence and hence coface-count weights, and act transitively on
    flags of any fixed type, so every basis cochain of C^degree is the
    image, up to orientation sign, of one supported on a simplex with
    the same type signature.  Operators that commute with that action
    (the weighted Laplacian and its polynomials) therefore vanish
    everywhere as soon as they vanish on these columns.
    """
    signatures = b.vertex_types[b.complex.rows[degree]]
    _, first = np.unique(signatures, axis=0, return_index=True)
    return sorted(first.tolist())
