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
  * the chambers are ell+1 columns of vertex ids, column d the type-d
    vertex of each, in the width that V proves (`vertex_id_dtype`):
    uint16 when the ids 0..V-1 fit 16 bits (V <= 2**16; the (3,3)
    building has V = 2,662), else int32.  Each row is ascending in
    type, so ascending in id, and the rows are in strictly ascending
    lexicographic order: the depth-first walk takes the dim-1 subspaces
    in id order and, at each step, a partial flag's superspaces in
    ascending id order (each row of `superspace_ids` sorted).  The walk
    makes each column once and hands the columns to `Complex`, which
    keeps them, so the chambers exist once; their order proves its
    duplicate check in one pass of comparisons, and no tuple per
    chamber is made;
  * the fundamental chamber is the standard flag <e1> < <e1,e2> < ...,
    which is the first subspace of every dimension block.

What ships is what a run needs: the closed-form counts (`flag_count`,
which sizes the walk, the budget and a cache hit), the closed-form
superspace tables, the chamber walk, the type array and
`witness_columns`.  The subspace objects, their one-at-a-time
enumeration, incidence tests on single subspaces and the type-invariant
lift of chamber cochains are test oracles and live with the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import prod

import numpy as np

from .complexes import Complex, vertex_id_dtype
from .errors import BudgetExceeded, DimensionOutOfRange, NonPrimeCharacteristic
from .gf import FieldSpec, digits


def _q_factorial(k: int, q: int) -> int:
    """[k]_q! = prod over j = 1..k of (q^j - 1) / (q - 1)."""
    return prod((q**j - 1) // (q - 1) for j in range(1, k + 1))


def _signature_count(n: int, q: int, dims: tuple) -> int:
    """Number of flags of subspaces of dimensions dims (ascending) in F_q^n:
    [n]_q! over the q-factorials of the gaps, [d_0]_q! [d_1 - d_0]_q! ... [n - d_last]_q!."""
    gaps = zip((0, *dims), (*dims, n))
    return _q_factorial(n, q) // prod(_q_factorial(b - a, q) for a, b in gaps)


def _ambient_dimension(ell: int, q: int) -> int:
    """n = ell + 2, after refusing q < 2 and then ell < 1."""
    if q < 2:
        raise NonPrimeCharacteristic(f"field order must be >= 2, got {q}")
    if ell < 1:
        raise DimensionOutOfRange(f"building rank parameter must be >= 1, got {ell}")
    return ell + 2


def flag_count(ell: int, q: int, i: int) -> int:
    """Number of i-simplices of the flag complex on F_q^(ell+2), without building it.

    An i-simplex is a flag of subspaces of dimensions d_0 < ... < d_i in
    1..ell+1.  The count is a polynomial in q and needs no field.
    """
    n = _ambient_dimension(ell, q)
    return sum(_signature_count(n, q, dims) for dims in combinations(range(1, n), i + 1))


def refuse_over_budget(ell: int, q: int, budget: int) -> None:
    """Refuse more than `budget` chambers at the first partial product of
    [ell+2]_q! = [1]_q [2]_q ... [ell+2]_q over it, a lower bound of the
    count, so a huge rank or order never forms the whole product."""
    n, count = _ambient_dimension(ell, q), 1
    for k in range(1, n + 1):
        count *= (q**k - 1) // (q - 1)
        if count > budget:
            more = "more than " if k < n else ""
            raise BudgetExceeded(f"instance (ell={ell}, q={q}) has {more}{count} chambers, "
                                 f"over the budget of {budget}")


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
        codes[:, free] = digits(q, int(free.sum()))
        nonpivots = [c for c in range(n) if c not in pivots]
        ids = []
        for k, t in enumerate(nonpivots):
            tail = nonpivots[k + 1:]
            r = np.zeros((q ** len(tail), n), dtype=np.intp)
            r[:, t] = 1
            r[:, tail] = digits(q, len(tail))
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
    chambers = flag_count(ell, field.q, ell)
    n = ell + 2
    sizes = [_signature_count(n, field.q, (d,)) for d in range(1, n)]
    offsets = np.concatenate(([0], np.cumsum(sizes))).tolist()

    # walk the complete flags one dimension at a time: every d-subspace
    # has the same number of (d+1)-superspaces, so each superspace-id
    # table is rectangular, and in depth-first order the flags through
    # one partial flag of layer d form a block of equal rows.  So layer
    # d's ids, one per block, are the table rows of layer d-1's ids laid
    # end to end, and column d repeats each over its block.
    # Each table row is sorted, so the walk takes a partial flag's
    # superspaces in ascending id order and, ids being dimension-major,
    # emits the chambers in strictly ascending lexicographic order
    width = vertex_id_dtype(offsets[-1])
    tables = [(np.sort(superspace_ids(n, d, field), axis=1) + offsets[d]).astype(width)
              for d in range(1, ell + 1)]
    layer = np.arange(sizes[0], dtype=width)
    cols = [np.repeat(layer, chambers // len(layer))]
    for d, sup in enumerate(tables, start=1):
        layer = sup[layer - offsets[d - 1]].reshape(-1)
        cols.append(np.repeat(layer, chambers // len(layer)))
    del layer  # as long as a column: not kept while the complex is made
    cx = Complex(cols)
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
