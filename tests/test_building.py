"""Flag complexes of finite vector spaces: counts, types, symmetry witnesses."""

import os
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from garland import building
from garland.building import flag_complex, flag_count, superspace_ids, witness_columns
from garland.complexes import Complex
from garland.errors import DimensionOutOfRange, NonPrimeCharacteristic
from garland.gf import field_for_order
from garland.harness import default_grid, extended_grid
from garland.laplace import assemble_matrix
from garland.rationals import QQ

from cochains import (
    check_weight_identity,
    contains,
    fundamental_chamber_complex,
    simplices,
    type_invariant_lift,
    types_of,
    weight,
)
from fields import (
    AmbientMismatch,
    Subspace,
    enumerate_subspaces,
    incident,
    reduce_vector,
    subspace_contains,
    superspace_table,
    walk_chambers,
)

GRID_BUILDINGS = sorted({(ell, q) for ell, q, _ in default_grid() + extended_grid()})
DEFAULT_BUILDINGS = sorted({(ell, q) for ell, q, _ in default_grid()})
EXTENDED_BUILDINGS = sorted(set(GRID_BUILDINGS) - set(DEFAULT_BUILDINGS))


def gaussian(n, d, q):
    # brute-force product formula, kept independent of the enumeration code
    num, den = 1, 1
    for j in range(d):
        num *= q ** (n - j) - 1
        den *= q ** (j + 1) - 1
    assert num % den == 0
    return num // den


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_subspace_counts_match_product_formula(n, q):
    f = field_for_order(q)
    for d in range(1, n + 1):
        subs = enumerate_subspaces(n, d, f)
        assert len(subs) == gaussian(n, d, q)
        assert len(set(subs)) == len(subs)  # canonical bases, no repeats


def test_subspace_membership_and_incidence():
    f = field_for_order(2)
    lines = enumerate_subspaces(3, 1, f)
    planes = enumerate_subspaces(3, 2, f)
    for plane in planes:
        inside = [ln for ln in lines if incident(ln, plane)]
        assert len(inside) == 3  # a plane over GF(2) holds 3 lines
        for ln in inside:
            assert subspace_contains(plane, ln)
            assert incident(plane, ln)  # symmetric relation
    # same dimension is never incident
    assert not incident(lines[0], lines[1])
    assert not incident(lines[0], lines[0])


def test_subspace_rejects_bad_dimension_and_mixed_ambient():
    f = field_for_order(2)
    with pytest.raises(DimensionOutOfRange):
        enumerate_subspaces(3, 0, f)
    with pytest.raises(DimensionOutOfRange):
        enumerate_subspaces(3, 4, f)
    a = enumerate_subspaces(2, 1, f)[0]
    b = enumerate_subspaces(3, 1, f)[0]
    with pytest.raises(AmbientMismatch):
        incident(a, b)


def test_reduce_vector_detects_span():
    f = field_for_order(3)
    s = Subspace(3, 1, ((1, 2, 0),), f)
    assert not any(reduce_vector(s, (2, 1, 0)))  # 2*(1,2,0) mod 3
    assert any(reduce_vector(s, (1, 0, 0)))


@pytest.mark.parametrize("ell,q", GRID_BUILDINGS)
def test_closed_form_walk_matches_the_subspace_oracle(ell, q):
    # the superspace ids read off in closed form equal the oracle's dict
    # lookup of each enumerated superspace basis, table for table, and
    # the chambers equal its walk one flag at a time
    f = field_for_order(q)
    tables = [superspace_table(ell + 2, d, f) for d in range(1, ell + 1)]
    for d, table in enumerate(tables, start=1):
        got = superspace_ids(ell + 2, d, f)
        assert got.dtype == table.dtype and got.shape == table.shape
        assert np.array_equal(got, table)
    chambers = walk_chambers(tables)
    chambers = chambers[np.lexsort(chambers.T[::-1])]
    assert flag_complex(ell, f).complex.rows[ell].tobytes() == chambers.tobytes()


def test_rank_one_building_is_point_line_incidence(b12):
    c = b12.complex
    assert c.dim == 1
    assert c.num_simplices(0) == 14
    assert c.num_simplices(1) == 21
    # bipartite by type, (q+1)-regular
    assert sorted(types_of(b12).values()).count(0) == 7
    assert sorted(types_of(b12).values()).count(1) == 7
    assert all(weight(c, (v,)) == 3 for v in c.vertices)
    for (u, v) in simplices(c)[1]:
        assert types_of(b12)[u] != types_of(b12)[v]


def test_rank_two_building_counts(b22):
    c = b22.complex
    assert c.dim == 2
    assert c.num_simplices(0) == 65
    assert c.num_simplices(1) == 315
    assert c.num_simplices(2) == 315
    by_type = {}
    for v, t in types_of(b22).items():
        by_type[t] = by_type.get(t, 0) + 1
    assert by_type == {0: 15, 1: 35, 2: 15}
    assert check_weight_identity(c)
    # every chamber has one vertex of each type
    for chamber in simplices(c)[2]:
        assert sorted(types_of(b22)[v] for v in chamber) == [0, 1, 2]


def test_vertex_ids_group_by_type(b22):
    # enumeration is by subspace dimension, so types come in blocks
    types = [types_of(b22)[v] for v in sorted(types_of(b22))]
    assert types == [0] * 15 + [1] * 35 + [2] * 15


def test_fundamental_chamber(b22):
    ch = b22.fundamental_chamber
    assert len(ch) == 3
    assert contains(b22.complex, tuple(sorted(ch)))
    assert sorted(types_of(b22)[v] for v in ch) == [0, 1, 2]


def test_fundamental_chamber_complex_is_a_simplex():
    for ell in (1, 2, 3):
        k = fundamental_chamber_complex(ell)
        assert k.dim == ell
        assert k.num_simplices(ell) == 1
        assert k.num_simplices(0) == ell + 1


def test_flag_complex_rejects_rank_zero():
    with pytest.raises(DimensionOutOfRange):
        flag_complex(0, field_for_order(2))


def test_flag_count_refuses_the_order_then_the_rank():
    with pytest.raises(NonPrimeCharacteristic, match="field order must be >= 2, got 1"):
        flag_count(0, 1, 0)
    with pytest.raises(DimensionOutOfRange, match="rank parameter must be >= 1, got 0"):
        flag_count(0, 2, 0)


def _assert_signature_counts(ell, q):
    # the i-simplices of each type signature are the flags of the
    # matching dimensions, as many as the Gaussian multinomial counts:
    # the orbit sizes of the linear group's action on C^i
    b = flag_complex(ell, field_for_order(q))
    for i in range(ell + 1):
        types, sizes = np.unique(b.vertex_types[b.complex.rows[i]], axis=0, return_counts=True)
        found = dict(zip(map(tuple, types.tolist()), sizes.tolist()))
        assert found == {
            t: building._signature_count(ell + 2, q, tuple(d + 1 for d in t))
            for t in combinations(range(ell + 1), i + 1)}
        assert sum(found.values()) == flag_count(ell, q, i)


@pytest.mark.parametrize("ell,q", DEFAULT_BUILDINGS)
def test_each_type_signature_holds_its_flag_count(ell, q):
    _assert_signature_counts(ell, q)


@pytest.mark.extended
@pytest.mark.skipif(os.environ.get("GARLAND_EXTENDED") != "1",
                    reason="builds the (3,3) and (4,2) buildings; only with GARLAND_EXTENDED=1")
@pytest.mark.parametrize("ell,q", EXTENDED_BUILDINGS)
def test_each_type_signature_holds_its_flag_count_on_the_extended_buildings(ell, q):
    _assert_signature_counts(ell, q)


def test_witness_columns_one_per_type_signature(b12, b22):
    assert witness_columns(b12, 0) == [0, 7]
    assert witness_columns(b12, 1) == [0]
    assert witness_columns(b22, 0) == [0, 15, 50]
    assert witness_columns(b22, 1) == [0, 7, 210]
    # the chosen columns realize every type signature exactly once
    for b, degree in ((b12, 0), (b22, 1), (b22, 2)):
        cols = witness_columns(b, degree)
        level = simplices(b.complex)[degree]
        sig = lambda s: tuple(sorted(types_of(b)[v] for v in s))
        all_sigs = {sig(s) for s in level}
        assert [sig(level[k]) for k in cols] == sorted(all_sigs)


def test_type_invariant_lift_is_constant_on_signatures(b22):
    face_values = {(0,): QQ(5), (1,): QQ(-1), (2,): QQ(2)}
    f = type_invariant_lift(b22, 0, face_values)
    for (v,), val in zip(simplices(b22.complex)[0], f.values):
        assert val == face_values[(types_of(b22)[v],)]
    edge_values = {(0, 1): QQ(1), (0, 2): QQ(7), (1, 2): QQ(0)}
    g = type_invariant_lift(b22, 1, edge_values)
    for s, val in zip(simplices(b22.complex)[1], g.values):
        key = tuple(sorted(types_of(b22)[v] for v in s))
        assert val == edge_values[key]


def _spy_columns(monkeypatch) -> list:
    """Patch the walk's `Complex` to record a copy of the columns it is
    handed (the constructor sorts them in place) on every call."""
    given = []

    def spy(cols):
        given.append([c.copy() for c in cols])
        return Complex(cols)

    monkeypatch.setattr(building, "Complex", spy)
    return given


@pytest.mark.parametrize("ell,q", [(2, 3), (3, 2)])
def test_chamber_walk_stores_16_bit_ids_and_agrees_with_a_32_bit_walk(ell, q, monkeypatch):
    # V <= 2**16 on every grid building, so the walk's columns and the
    # complex's sorted columns hold uint16 ids; a walk forced to int32
    # builds the same complex
    given = _spy_columns(monkeypatch)
    f = field_for_order(q)
    narrow = flag_complex(ell, f).complex
    monkeypatch.setattr(building, "vertex_id_dtype", lambda nv: np.int32)
    wide = flag_complex(ell, f).complex
    assert [[c.dtype for c in cols] for cols in given] == [[np.uint16] * (ell + 1),
                                                           [np.int32] * (ell + 1)]
    assert np.array_equal(np.stack(given[0], axis=1), np.stack(given[1], axis=1))
    assert [c.dtype for c in narrow._cols] == [np.uint16] * (ell + 1)
    for d in range(ell + 1):
        assert np.array_equal(narrow.rows[d], wide.rows[d])
        assert np.array_equal(narrow.counts[d], wide.counts[d])


@pytest.mark.parametrize("ell", [1, 2, 3])
@pytest.mark.parametrize("q", [2, 3])
def test_chamber_walk_emits_strictly_lexicographic_rows(ell, q, monkeypatch):
    # each superspace table row is sorted, so the depth-first walk hands
    # over ascending rows in strictly ascending lexicographic order
    given = _spy_columns(monkeypatch)
    b = flag_complex(ell, field_for_order(q))
    (cols,) = given
    chambers = np.stack(cols, axis=1).astype(np.int64)
    assert (np.diff(chambers, axis=1) > 0).all()
    # the first column where a row differs from the next is larger in the next
    step = np.diff(chambers, axis=0)
    first = (step != 0).argmax(axis=1)
    assert (step[np.arange(len(step)), first] > 0).all()
    assert np.array_equal(chambers, b.complex.rows[ell])


def test_33_building_and_its_degree_0_operator_fit_a_small_working_set():
    # numpy reports every array allocation to tracemalloc, so the peak is
    # deterministic.  251,680 chambers of 4 vertex ids are 1.9 MiB as
    # uint16 columns, which the walk hands to the complex to keep, so
    # they exist once.  They arrive in lexicographic order, so the
    # duplicate check sorts nothing.  The walk peaks at 3.19 MiB in that
    # check's one pass of comparisons, since `bincount` widens only a
    # block of 65,536 ids to intp at a time; the bound leaves 8% above
    # it.  With a whole column widened at once the walk peaked at 3.93
    # MiB, and with the chambers walked into one array whose columns the
    # complex copied, at 5.16 MiB.  The peak, 6.01 MiB,
    # is in the Gram product of the degree-0 operator, where the int32
    # edge rows reversed as its columns, one array of its values, their
    # transpose and the product sit beside the columns and the edge
    # level; the bound leaves 8% above it.  With the values made twice
    # and the edge facets found by int64 searches the peak was 6.50 MiB
    tracemalloc.start()
    try:
        b = flag_complex(3, field_for_order(3))
        walk = tracemalloc.get_traced_memory()[1]
        assemble_matrix(b.complex, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert walk <= 3.45 * 2**20
    assert peak <= 6.5 * 2**20
