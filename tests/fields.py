"""Field elements and subspace incidence over GF(q): oracles for the package's code tables.

`garland.gf.FieldSpec` handles elements by their codes only, through
its addition, negation and multiplication tables.  The element objects
here carry the coefficient vector itself (the base-p digits of the
code, least significant first), so the field-axiom tests check those
tables on values rather than on codes.  `reduce_vector`,
`subspace_contains` and `incident` test the flag relation on single
subspaces, which the chamber walk in `garland.building` never does: it
enumerates superspaces directly.
"""

from __future__ import annotations

from dataclasses import dataclass

from garland.building import Subspace
from garland.errors import GarlandError
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
