"""Weighted cochain calculus: coboundary, adjoint, Laplacian, local operators."""

import random

import numpy as np
import pytest

from garland import laplace
from garland.complexes import from_maximal_simplices
from garland.errors import DegreeOutOfRange, SimplexNotFound
from garland.laplace import assemble_matrix, dump_matrix_text
from garland.rationals import QQ, QQ0, QQ1

from cochains import (
    Cochain,
    DegreeMismatch,
    UnknownType,
    UnknownVertex,
    adjoint_delta,
    coboundary,
    coboundary_entries,
    contains,
    index,
    inner_product,
    laplacian_apply,
    rho_alpha,
    rho_v,
    tau_v,
    weights,
)
from identities import laplacian_csr_by_apply, star_union

TRIANGLE = from_maximal_simplices([(0, 1, 2)])
TWO_TRIANGLES = from_maximal_simplices([(0, 1, 2), (1, 2, 3)])
TETRA = from_maximal_simplices([(0, 1, 2, 3)])


def rand_cochain(c, degree, rng, span=9):
    vals = [QQ(rng.randrange(-span, span + 1)) for _ in range(c.num_simplices(degree))]
    return Cochain(c, degree, vals)


# -- cochain basics -----------------------------------------------------------


def test_cochain_validation():
    with pytest.raises(DegreeOutOfRange):
        Cochain(TRIANGLE, 3, [])
    with pytest.raises(DegreeMismatch):
        Cochain(TRIANGLE, 0, [QQ1, QQ1])
    f = Cochain.zeros(TRIANGLE, 1)
    g = Cochain.basis(TRIANGLE, 0, 1)
    with pytest.raises(DegreeMismatch):
        f + g  # noqa: B018


def test_evaluate_is_alternating():
    f = Cochain.from_simplex_values(TRIANGLE, 1, {(0, 1): QQ(3), (0, 2): QQ(5), (1, 2): QQ(7)})
    assert f.evaluate((0, 1)) == 3
    assert f.evaluate((1, 0)) == -3
    assert f.evaluate((2, 1)) == -7
    with pytest.raises(SimplexNotFound):
        f.evaluate((0, 3))


def test_linear_structure():
    rng = random.Random(5)
    f = rand_cochain(TWO_TRIANGLES, 1, rng)
    g = rand_cochain(TWO_TRIANGLES, 1, rng)
    assert (f + g) - g == f
    assert f.scale(QQ(2)) - f == f
    assert f.scale(QQ0) == Cochain.zeros(TWO_TRIANGLES, 1)


# -- coboundary and adjoint ---------------------------------------------------


def test_coboundary_on_the_triangle():
    # df([a, b]) = f(b) - f(a); d of a vertex indicator hits its two edges
    f = Cochain.basis(TRIANGLE, 0, 0)  # indicator of vertex 0
    df = coboundary(f)
    assert df.evaluate((0, 1)) == -1
    assert df.evaluate((0, 2)) == -1
    assert df.evaluate((1, 2)) == 0


def test_d_after_d_is_zero():
    rng = random.Random(7)
    for c in (TRIANGLE, TWO_TRIANGLES, TETRA):
        for i in range(c.dim - 1):
            f = rand_cochain(c, i, rng)
            assert coboundary(coboundary(f)) == Cochain.zeros(c, i + 2)


def test_coboundary_degree_limit():
    with pytest.raises(DegreeOutOfRange):
        coboundary(Cochain.zeros(TRIANGLE, 2))
    with pytest.raises(DegreeOutOfRange):
        adjoint_delta(Cochain.zeros(TRIANGLE, 0))


def test_adjointness_with_weights():
    rng = random.Random(11)
    for c in (TWO_TRIANGLES, TETRA):
        for i in range(c.dim):
            f = rand_cochain(c, i, rng)
            g = rand_cochain(c, i + 1, rng)
            assert inner_product(coboundary(f), g) == inner_product(f, adjoint_delta(g))


def test_inner_product_uses_weights():
    f = Cochain.from_simplex_values(TWO_TRIANGLES, 1, {(1, 2): QQ1})
    assert inner_product(f, f) == 2  # the shared edge has weight 2


# -- frozen matrices ----------------------------------------------------------


def test_triangle_vertex_laplacian_matrix():
    # one chamber through every simplex: the matrix is 3I - J over C^0
    op = assemble_matrix(TRIANGLE, 0)
    expect = {}
    for r in range(3):
        for c in range(3):
            expect[(r, c)] = QQ(2) if r == c else QQ(-1)
    assert op.entries == expect
    assert op.dim == 3


def test_simplex_vertex_laplacian_is_shifted_all_ones():
    op = assemble_matrix(TETRA, 0)
    for r in range(4):
        for c in range(4):
            assert op.entries[(r, c)] == (QQ(3) if r == c else QQ(-1))


def test_incidence_graph_laplacian_structure(b12):
    # scaled by q+1 the vertex Laplacian is (q+1)I - adjacency
    c = b12.complex
    op = assemble_matrix(c, 0)
    idx = {s: k for k, s in enumerate(c.simplices[0])}
    for (r, s), val in op.entries.items():
        if r == s:
            assert val == 1
        else:
            u, v = c.simplices[0][r][0], c.simplices[0][s][0]
            assert contains(c, tuple(sorted((u, v))))
            assert val == QQ(-1, 3)
    degrees = {}
    for (r, s) in op.entries:
        if r != s:
            degrees[r] = degrees.get(r, 0) + 1
    assert all(d == 3 for d in degrees.values())
    assert len(idx) == 14


def test_assemble_matches_apply(b22):
    # column j of B / L is laplacian_apply(e_j); the star union has
    # L = lcm(1..47) > 2**63
    stars, groups = star_union(47)
    cases = [(TWO_TRIANGLES, 0, None), (TWO_TRIANGLES, 1, None),
             (b22.complex, 0, None), (b22.complex, 1, None), (stars, 0, groups)]
    for c, i, grouping in cases:
        op = assemble_matrix(c, i)
        indptr, indices, data, L = laplacian_csr_by_apply(c, i, grouping)
        assert op.L == L
        assert op.indptr.tolist() == indptr
        assert op.indices.tolist() == indices
        assert op.data.tolist() == data
    # scaling a reduced entry x/w by L // w is wrong: a weight-9 vertex
    # of the (2,2) building has entries -3/9 = -1/3, and with L = 21 the
    # scaled entry is -7, not -3 * (21 // 9) = -6
    op = assemble_matrix(b22.complex, 0)
    assert op.L == 21
    rows = [r for r, w in enumerate(weights(b22.complex)[0]) if w == 9]
    assert rows
    for r in rows:
        off = [x for col, x in zip(op.indices[op.indptr[r]:op.indptr[r + 1]],
                                   op.data[op.indptr[r]:op.indptr[r + 1]]) if col != r]
        assert off and set(off) == {-7}


def test_int64_and_python_int_scaling_agree(b22, monkeypatch):
    # B's data are int64 when every product fits and Python ints in an
    # object array otherwise; forcing the object array must give the
    # same entries and L
    taken = []

    def spy(num, den, L):
        taken.append(real(num, den, L))
        return taken[-1]

    real = laplace._fits_int64
    monkeypatch.setattr(laplace, "_fits_int64", spy)
    fast = [assemble_matrix(b22.complex, i) for i in (0, 1)]
    assert taken == [True, True]
    assert all(op.data.dtype == np.int64 for op in fast)
    monkeypatch.setattr(laplace, "_fits_int64", lambda num, den, L: False)
    for i, op in enumerate(fast):
        slow = assemble_matrix(b22.complex, i)
        assert slow.data.dtype == object
        assert all(type(x) is int for x in slow.data)
        assert (op.data.tolist(), op.L) == (slow.data.tolist(), slow.L)
    # an L past 2**63 takes the object array (test_assemble_matches_apply)
    monkeypatch.setattr(laplace, "_fits_int64", spy)
    assert assemble_matrix(star_union(47)[0], 0).data.dtype == object
    assert taken[-1] is False


def test_value_width_follows_the_weight_sum(b22, monkeypatch):
    # X and the gcds take the width that the sum of w_{i+1} bounds; B's
    # data are int64 or Python ints either way, and forcing int64 values
    # gives the same B.  The star unions reach
    # L = lcm(1..23) = 5,354,228,880 > 2**31, scaled from int32 X into
    # int64 data, and L = lcm(1..47) > 2**63, into Python ints
    asked = []
    real = laplace.csr.gram_value_dtype

    def spy(bound):
        asked.append((bound, real(bound)))
        return asked[-1][1]

    monkeypatch.setattr(laplace.csr, "gram_value_dtype", spy)
    cases = [(b22.complex, 0), (b22.complex, 1), (star_union(23)[0], 0), (star_union(47)[0], 0)]
    narrow = [assemble_matrix(c, i) for c, i in cases]
    assert asked == [(int(c.counts[i + 1].sum()), np.int32) for c, i in cases]
    assert [op.data.dtype for op in narrow] == [np.int64, np.int64, np.int64, object]
    assert narrow[2].L == 5_354_228_880
    assert narrow[2].data.tolist() == laplacian_csr_by_apply(*cases[2])[2]
    monkeypatch.setattr(laplace.csr, "gram_value_dtype", lambda bound: np.int64)
    for (c, i), op in zip(cases, narrow):
        wide = assemble_matrix(c, i)
        assert wide.data.dtype == op.data.dtype and wide.L == op.L
        for a, b in zip((op.indptr, op.indices, op.data), (wide.indptr, wide.indices, wide.data)):
            assert a.tolist() == b.tolist()


def test_gcds_by_blocks_give_the_same_operator(b22, monkeypatch):
    # the gcds are taken _GCD_BLOCK entries at a time; blocks of 8, the
    # last one short, give the B and L of one block, and an entry left
    # unreduced would not (a weight-9 vertex's -3/9 sets L = 21)
    whole = [assemble_matrix(b22.complex, i) for i in (0, 1)]
    monkeypatch.setattr(laplace, "_GCD_BLOCK", 8)
    for i, op in enumerate(whole):
        assert len(op.data) > 8 and len(op.data) % 8
        blocked = assemble_matrix(b22.complex, i)
        assert (blocked.data.tolist(), blocked.L) == (op.data.tolist(), op.L)


def test_int64_fit_scales_by_the_smallest_denominator():
    # the largest product num * (L // den) comes from the smallest den:
    # 3 * (2**62 // 1) passes int64, though 3 * (2**62 // 2**62) does not
    assert not laplace._fits_int64(np.array([3]), np.array([1, 2**62]), 2**62)
    assert laplace._fits_int64(np.array([1]), np.array([1, 2**62]), 2**62)
    # and only from it: 3 * (2**62 // 4) fits, so the test is not top * L
    # a negative numerator counts by its absolute value: -2 * 2**62 = -2**63
    # is the int64 minimum, yet the bound is kept symmetric
    assert not laplace._fits_int64(np.array([-2]), np.array([1, 2**62]), 2**62)
    assert laplace._fits_int64(np.array([-3]), np.array([4, 2**62]), 2**62)
    # int32 denominators, whose dtype cannot hold L = 2**40
    assert laplace._fits_int64(np.array([3], np.int32), np.array([1, 4], np.int32), 2**40)
    assert not laplace._fits_int64(np.array([2**23], np.int32), np.array([1], np.int32), 2**40)


def test_laplacian_degree_domain():
    with pytest.raises(DegreeOutOfRange):
        laplacian_apply(Cochain.zeros(TRIANGLE, 2))


# -- local operators ----------------------------------------------------------


def test_rho_restricts_to_star():
    rng = random.Random(13)
    f = rand_cochain(TWO_TRIANGLES, 1, rng)
    g = rho_v(f, 3)
    for s, val in zip(TWO_TRIANGLES.simplices[1], g.values):
        assert val == (f.values[index(TWO_TRIANGLES)[1][s]] if 3 in s else 0)
    with pytest.raises(UnknownVertex):
        rho_v(f, 9)


def test_sum_of_rho_counts_vertices():
    rng = random.Random(17)
    for c in (TRIANGLE, TWO_TRIANGLES, TETRA):
        for i in range(c.dim + 1):
            f = rand_cochain(c, i, rng)
            total = Cochain.zeros(c, i)
            for v in c.vertices:
                total = total + rho_v(f, v)
            assert total == f.scale(QQ(i + 1))


def test_rho_alpha_sums_type_classes():
    rng = random.Random(19)
    types = {0: 0, 1: 1, 2: 0, 3: 1}
    f = rand_cochain(TWO_TRIANGLES, 1, rng)
    bysum = Cochain.zeros(TWO_TRIANGLES, 1)
    for v, t in types.items():
        if t == 0:
            bysum = bysum + rho_v(f, v)
    assert rho_alpha(f, types, 0) == bysum
    with pytest.raises(UnknownType):
        rho_alpha(f, types, 7)


def test_tau_contracts_with_sign():
    f = Cochain.from_simplex_values(
        TRIANGLE, 1, {(0, 1): QQ(3), (0, 2): QQ(5), (1, 2): QQ(7)}
    )
    t0 = tau_v(f, 0)
    link, new_to_old = TRIANGLE.vertex_link(0)
    assert t0.complex is link
    got = {new_to_old[s[0]]: val for s, val in zip(link.simplices[0], t0.values)}
    assert got == {1: QQ(3), 2: QQ(5)}  # (tau_0 f)(sigma) = f([0, sigma])
    t2 = tau_v(f, 2)
    link2, new_to_old2 = TRIANGLE.vertex_link(2)
    got2 = {new_to_old2[s[0]]: val for s, val in zip(link2.simplices[0], t2.values)}
    # f([2, sigma]): sorting 2 to the front costs one transposition
    assert got2 == {0: QQ(-5), 1: QQ(-7)}
    with pytest.raises(DegreeOutOfRange):
        tau_v(Cochain.zeros(TRIANGLE, 0), 0)
    with pytest.raises(UnknownVertex):
        tau_v(f, 4)


# -- serialization ------------------------------------------------------------


def test_dump_matrix_text():
    op = assemble_matrix(TRIANGLE, 0)
    lines = dump_matrix_text(op).strip().splitlines()
    assert lines[0] == "3 3 0"  # n n degree
    assert lines[1].split() == ["0", "0", "2/1"]
    assert len(lines) == 1 + 9
    for line in lines[1:]:
        r, c, val = line.split()
        assert op.entries[(int(r), int(c))] == QQ(*map(int, val.split("/")))


def test_coboundary_entries_shape():
    ent = coboundary_entries(TWO_TRIANGLES, 0)
    f = Cochain.basis(TWO_TRIANGLES, 0, 0)
    df = coboundary(f)
    by_entries = [QQ0] * TWO_TRIANGLES.num_simplices(1)
    for (r, c), val in ent.items():
        by_entries[r] += val * f.values[c]
    assert by_entries == list(df.values)
