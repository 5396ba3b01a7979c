"""Flag complexes of linear subspace geometries over GF(q).

The order-(ell, q) building here is the flag complex on the proper
nonzero subspaces of F_q^(ell+2): vertices are subspaces of dimension
1..ell+1, simplices are flags (chains under inclusion), and the maximal
simplices are the complete flags.  Type(v) = dim(v) - 1, so types run
0..ell and every chamber carries each type exactly once.

Canonical data layout, fixed as an external contract:
  * a subspace is its reduced row echelon basis (codes of field elements);
  * the d-subspaces are ordered by pivot-column set (lexicographic), then
    by the free entries row-major in field enumeration order, the last
    varying fastest.  So the position of a subspace with pivot set P and
    free entries c_1..c_F is start(P) + sum of c_k * q**(F - k), where
    start(P) counts the d-subspaces whose pivot set comes before P;
  * building vertex ids are dimension-major: all dim-1 subspaces in that
    order, then dim-2, and so on; `vertex_types[v]` is the type of id v.
    Every subspace lies on a chamber, so these ids are also the
    complex's dense vertex ids;
  * the chambers are a (chambers x (ell+1)) int32 array of vertex ids,
    each row ascending in type, in depth-first order: by the dim-1
    subspace, then by the superspace order of each step
    (`superspace_ids`).  The walk allocates that array once and fills
    it in place a column per layer, so no layer copies the flags walked
    so far.  It goes straight to `Complex.from_maximal_simplices`; no
    tuple per chamber is made;
  * the fundamental chamber is the standard flag <e1> < <e1,e2> < ...,
    which is the first subspace of every dimension block.

What ships is what a run needs: the closed-form superspace tables, the
chamber walk, the type array and `witness_columns`.  The subspace
objects, their one-at-a-time enumeration, incidence tests on single
subspaces and the type-invariant lift of chamber cochains are test
oracles and live with the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .complexes import Complex
from .errors import DimensionOutOfRange
from .gf import FieldSpec


def _digits(q: int, width: int) -> np.ndarray:
    """The rows of product(range(q), repeat=width), in that order: shape (q**width, width)."""
    return np.arange(q**width)[:, None] // q ** np.arange(width - 1, -1, -1) % q


def _pivot_groups(n: int, d: int, q: int) -> dict:
    """Pivot set -> (free mask, start offset) for the d-subspaces, in canonical order.

    The free mask of a pivot set is the (d, n) boolean array of the
    entries a reduced echelon basis leaves open; boolean indexing reads
    them row-major.  The group holds q**F subspaces, F the number of free
    entries, and its start offset counts the subspaces of the pivot sets
    before it.
    """
    if not 1 <= d <= n:
        raise DimensionOutOfRange(f"subspace dimension {d} outside 1..{n}")
    groups, start = {}, 0
    for pivots in combinations(range(n), d):
        free = np.arange(n) > np.asarray(pivots)[:, None]
        free[:, pivots] = False
        groups[pivots] = (free, start)
        start += q ** int(free.sum())
    return groups


def subspace_count(n: int, d: int, q: int) -> int:
    """Number of d-subspaces of F_q^n, summed over the pivot groups."""
    return sum(q ** int(free.sum()) for free, _ in _pivot_groups(n, d, q).values())


def superspace_ids(n: int, d: int, field: FieldSpec) -> np.ndarray:
    """Superspace-id table of the d-subspaces of F_q^n: int32, (count, S).

    Row i lists the positions among the (d+1)-subspaces of the S
    superspaces of the i-th d-subspace, in walk order: by the non-pivot
    column t on which the added row r has its pivot, then by r's entries
    on the non-pivot columns after t (r[t] = 1) in product order.  Each
    superspace is span(sub, r) for exactly one such r.  Its RREF basis
    is sub's rows with column t eliminated by r, with r inserted in pivot
    order, so its position is read off in closed form from its pivot set
    and free entries.  One pass per pivot group and t covers every
    subspace of the group at once.
    """
    q = field.q
    add = np.asarray(field.add_table, dtype=np.intp)
    neg = np.asarray(field.neg_table, dtype=np.intp)
    mul = np.asarray(field.mul_table, dtype=np.intp)
    upper = _pivot_groups(n, d + 1, q)
    blocks = []
    for pivots, (free, _) in _pivot_groups(n, d, q).items():
        # every member's basis at once, in enumeration order: (G, d, n)
        codes = np.zeros((q ** int(free.sum()), d, n), dtype=np.intp)
        codes[:, range(d), pivots] = 1
        codes[:, free] = _digits(q, int(free.sum()))
        nonpivots = [c for c in range(n) if c not in pivots]
        ids = []
        for k, t in enumerate(nonpivots):
            tail = nonpivots[k + 1:]
            r = np.zeros((q ** len(tail), n), dtype=np.intp)
            r[:, t] = 1
            r[:, tail] = _digits(q, len(tail))
            # row - row[t] * r for every member, old row and r at once: (G, R, d, n)
            scale = neg[codes[:, :, t]][:, None, :, None]
            rows = add[codes[:, None], mul[scale, r[None, :, None, :]]]
            # elimination keeps every old pivot, so r goes after the rows pivoting before t
            at = sum(p < t for p in pivots)
            r = np.broadcast_to(r[None, :, None, :], rows[:, :, :1].shape)
            rows = np.concatenate([rows[:, :, :at], r, rows[:, :, at:]], axis=2)
            up_free, up_start = upper[tuple(sorted((*pivots, t)))]
            width = int(up_free.sum())
            ids.append(up_start + rows[:, :, up_free] @ q ** np.arange(width - 1, -1, -1))
        blocks.append(np.concatenate(ids, axis=1))
    return np.concatenate(blocks).astype(np.int32)


@dataclass
class TypedBuilding:
    """A flag complex with its per-vertex type array."""

    ell: int
    field: FieldSpec
    complex: Complex
    vertex_types: np.ndarray  # int32, type of vertex id v at position v
    fundamental_chamber: tuple

    @property
    def q(self) -> int:
        return self.field.q


def flag_complex(ell: int, field: FieldSpec) -> TypedBuilding:
    if ell < 1:
        raise DimensionOutOfRange(f"building rank parameter must be >= 1, got {ell}")
    n = ell + 2
    sizes = [subspace_count(n, d, field.q) for d in range(1, ell + 2)]
    offsets = np.concatenate(([0], np.cumsum(sizes))).tolist()

    # walk the complete flags one dimension at a time: every d-subspace
    # has the same number of (d+1)-superspaces, so each superspace-id
    # table is rectangular, and in depth-first order the flags through
    # one partial flag of layer d form a block of equal rows.  So the
    # chamber array is allocated once and column d is filled in place,
    # one value per block, through a (blocks, block size, ell+1) view
    tables = [superspace_ids(n, d, field) + np.int32(offsets[d]) for d in range(1, ell + 1)]
    blocks = np.cumprod([sizes[0]] + [sup.shape[1] for sup in tables]).tolist()
    chambers = np.empty((blocks[-1], ell + 1), dtype=np.int32)
    layer = chambers.reshape(blocks[0], -1, ell + 1)
    layer[:, :, 0] = np.arange(sizes[0], dtype=np.int32)[:, None]
    for d, sup in enumerate(tables, start=1):
        parents = layer[:, 0, d - 1] - np.int32(offsets[d - 1])
        layer = chambers.reshape(blocks[d], -1, ell + 1)
        layer[:, :, d] = sup[parents].reshape(-1, 1)

    cx = Complex.from_maximal_simplices(chambers)
    types = np.repeat(np.arange(ell + 1, dtype=np.int32), sizes)
    return TypedBuilding(ell, field, cx, types, tuple(offsets[:-1]))


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
