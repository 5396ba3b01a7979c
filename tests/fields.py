"""Field elements and subspace incidence over GF(q): oracles for the package's code tables.

`garland.gf.FieldSpec` handles elements by their codes only, through
its addition, negation and multiplication tables.  The element objects
here carry the coefficient vector itself (the base-p digits of the
code, least significant first), so the field-axiom tests check those
tables on values rather than on codes.  `reduce_vector`,
`subspace_contains` and `incident` test the flag relation on single
subspaces, which the chamber walk in `garland.building` never does: it
enumerates superspaces directly.

`Subspace`, `enumerate_subspaces` and `superspace_rows` are the
one-subspace-at-a-time form of the canonical order and the superspace
walk; `superspace_table` (through a dict from RREF rows to ids) and
`walk_chambers` rebuild the tables and the chamber array that
`garland.building` computes in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from garland.errors import DimensionOutOfRange, GarlandError
from garland.gf import FieldSpec


class DivisionByZero(GarlandError, ZeroDivisionError):
    pass


class AmbientMismatch(GarlandError):
    pass


@dataclass(frozen=True)
class FieldElement:
    """An element of GF(p^k): coefficient vector plus its field."""

    coeffs: tuple[int, ...]
    spec: FieldSpec

    def __repr__(self) -> str:
        return f"FieldElement({self.coeffs}, GF({self.spec.q}))"


def field_element(spec: FieldSpec, code: int) -> FieldElement:
    return FieldElement(tuple(code // spec.p**j % spec.p for j in range(spec.k)), spec)


def field_code(spec: FieldSpec, a: FieldElement) -> int:
    return sum(c * spec.p**j for j, c in enumerate(a.coeffs))


def field_zero(spec: FieldSpec) -> FieldElement:
    return field_element(spec, 0)


def field_one(spec: FieldSpec) -> FieldElement:
    return field_element(spec, 1)


def field_add(a: FieldElement, b: FieldElement) -> FieldElement:
    spec = a.spec
    return field_element(spec, spec.add_table[field_code(spec, a)][field_code(spec, b)])


def field_neg(a: FieldElement) -> FieldElement:
    spec = a.spec
    return field_element(spec, spec.neg_table[field_code(spec, a)])


def field_mul(a: FieldElement, b: FieldElement) -> FieldElement:
    spec = a.spec
    return field_element(spec, spec.mul_table[field_code(spec, a)][field_code(spec, b)])


def field_inv(a: FieldElement) -> FieldElement:
    spec = a.spec
    code = field_code(spec, a)
    if code == 0:
        raise DivisionByZero("zero has no multiplicative inverse")
    return field_element(spec, spec.mul_table[code].index(1))


def enumerate_field(spec: FieldSpec) -> list[FieldElement]:
    """All elements in lexicographic coefficient order (low-to-high), zero first."""
    return [field_element(spec, c) for c in range(spec.q)]


# -- subspaces ----------------------------------------------------------------------


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


def superspace_rows(sub: Subspace):
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


def superspace_table(n: int, d: int, field: FieldSpec) -> np.ndarray:
    """Row i: the positions among the (d+1)-subspaces of the superspaces of the i-th d-subspace."""
    lookup = {s.rows: i for i, s in enumerate(enumerate_subspaces(n, d + 1, field))}
    return np.asarray([[lookup[rows] for rows in superspace_rows(s)]
                       for s in enumerate_subspaces(n, d, field)], dtype=np.int32)


def walk_chambers(tables: list[np.ndarray]) -> np.ndarray:
    """The building's chamber array in depth-first order, extended one flag at a time.

    `tables[d - 1]` is `superspace_table(n, d, field)` for d = 1..ell.
    """
    flags = [(v,) for v in range(len(tables[0]))]
    offset = 0
    for table in tables:
        top = offset + len(table)
        table = table.tolist()
        flags = [f + (top + s,) for f in flags for s in table[f[-1] - offset]]
        offset = top
    return np.asarray(flags, dtype=np.int32)


def reduce_vector(sub: Subspace, vec) -> tuple:
    """Residual of vec after elimination by the basis of sub (0 iff vec in span)."""
    f = sub.field
    add, neg, mul = f.add_table, f.neg_table, f.mul_table
    v = list(vec)
    for row, p in zip(sub.rows, sub.pivots):
        c = v[p]
        if c:
            nc = neg[c]
            for j in range(p, sub.ambient):
                if row[j]:
                    v[j] = add[v[j]][mul[nc][row[j]]]
    return tuple(v)


def subspace_contains(sub: Subspace, other: Subspace) -> bool:
    return all(not any(reduce_vector(sub, r)) for r in other.rows)


def incident(a: Subspace, b: Subspace) -> bool:
    """Proper containment in either direction (the flag relation)."""
    if a.ambient != b.ambient or a.field != b.field:
        raise AmbientMismatch("subspaces live in different ambient spaces")
    if a.dim == b.dim:
        return False
    small, big = (a, b) if a.dim < b.dim else (b, a)
    return subspace_contains(big, small)
