"""Pure simplicial complexes: construction, weights, stars, vertex links, text form."""

import random
from collections import Counter
from itertools import combinations

import numpy as np
import pytest

from garland import complexes
from garland.complexes import (
    Complex,
    from_maximal_simplices,
    from_text,
    key_dtype,
    position_dtype,
    weight_dtype,
)
from garland.errors import (
    DuplicateSimplex,
    EmptyInput,
    GarlandError,
    InvalidLabel,
    MixedDimensions,
    NonDenseIds,
    RepeatedVertex,
    SimplexNotFound,
)
from garland.building import flag_complex, witness_columns
from garland.gf import field_for_order
from garland.laplace import assemble_matrix
from garland.spectra import compute_spectral_report

from cochains import (
    check_weight_identity,
    contains,
    index,
    orientation_sign,
    star,
    weight,
    weights,
)
from identities import random_pure_complex, reference_face_tables

TRIANGLE = [(0, 1, 2)]
TWO_TRIANGLES = [(0, 1, 2), (1, 2, 3)]
CIRCLE = [(0, 1), (1, 2), (0, 2)]
OCTAHEDRON = [
    (0, 2, 4), (0, 2, 5), (0, 3, 4), (0, 3, 5),
    (1, 2, 4), (1, 2, 5), (1, 3, 4), (1, 3, 5),
]


def test_orientation_sign():
    assert orientation_sign((0, 1, 2)) == ((0, 1, 2), 1)
    assert orientation_sign((1, 0, 2)) == ((0, 1, 2), -1)
    assert orientation_sign((2, 0, 1)) == ((0, 1, 2), 1)
    assert orientation_sign((5,)) == ((5,), 1)
    with pytest.raises(RepeatedVertex):
        orientation_sign((1, 2, 1))


def test_construction_validation():
    with pytest.raises(EmptyInput):
        from_maximal_simplices([])
    with pytest.raises(MixedDimensions):
        from_maximal_simplices([(0, 1), (2,)])
    with pytest.raises(MixedDimensions):
        from_maximal_simplices([(), (0,)])
    with pytest.raises(DuplicateSimplex):
        from_maximal_simplices([(0, 1), (1, 0)])
    with pytest.raises(RepeatedVertex):
        from_maximal_simplices([(0, 1, 1)])


def _random_tops(rng):
    """Unordered rows of a random pure complex on sparse labels up to 10**12 + 999."""
    n = rng.randint(0, 4)
    pool = rng.sample(range(1000), rng.randint(n + 1, 30))
    labels = [10**12 + v if rng.random() < 0.5 else v for v in pool]
    tops = {tuple(sorted(rng.sample(labels, n + 1))) for _ in range(rng.randint(1, 40))}
    return [rng.sample(t, len(t)) for t in tops]


def _text(tops) -> str:
    return "".join(" ".join(map(str, t)) + "\n" for t in tops)


def test_face_tables_match_reference(b13, b22, b23):
    # sparse labels reach a complex through from_text, which ranks them
    # to dense ids in first-appearance order; nested lists of dense ids
    # go straight in
    rng = random.Random(23)
    for tops in [_random_tops(rng) for _ in range(60)]:
        c, label_map = from_text(_text(tops))
        ids = [[label_map[v] for v in t] for t in tops]
        assert (c.dim, c.simplices, index(c), weights(c)) == reference_face_tables(ids)
        assert all(type(w) is int for level in weights(c) for w in level)
    for b in (b13, b22, b23):
        tops = b.complex.simplices[b.complex.dim]
        c = from_maximal_simplices(list(tops))
        assert (c.dim, c.simplices, index(c), weights(c)) == reference_face_tables(tops)
    bad = {
        EmptyInput: [[], [()], [(), ()]],
        MixedDimensions: [[(0, 1), (2,)], [(0, 1, 2), (3, 4)]],
        DuplicateSimplex: [[(0, 1), (1, 0)], [(5, 9, 2), (2, 5, 9), (1, 2, 3)]],
        # in text, a repeated vertex is reported before a mixed size or a duplicate
        RepeatedVertex: [[(0, 1, 1)], [(0, 1, 2), (3, 3)], [(0, 1), (1, 0), (2, 2)]],
    }
    for error, cases in bad.items():
        for tops in cases:
            with pytest.raises(error):
                reference_face_tables(tops)
            with pytest.raises(error):
                from_text(_text(tops))
            with pytest.raises(GarlandError):
                from_maximal_simplices(tops)


def _tables(c):
    """Per table, the dtype, shape, C-contiguity and bytes of every level."""
    return tuple([(a.dtype.str, a.shape, a.flags.c_contiguous, a.tobytes()) for a in t]
                 for t in (c.rows, c.keys, c.counts))


def _dense_array_tops(rng, size):
    """A random pure complex on dense ids, rows and each row's columns shuffled."""
    pool = rng.integers(size, 4 * size + 3)
    tops = {tuple(sorted(rng.choice(pool, size, replace=False).tolist()))
            for _ in range(rng.integers(1, 40))}
    _, dense = np.unique(np.array(sorted(tops)), return_inverse=True)
    tops = dense.reshape(len(tops), size)[rng.permutation(len(tops))]
    dtype = rng.choice([np.int32, np.int64, np.uint8, np.int16])
    return rng.permuted(tops, axis=1).astype(dtype)


def test_array_face_tables_match_reference():
    rng = np.random.default_rng(29)
    inputs = [_dense_array_tops(rng, size) for size in range(1, 7) for _ in range(8)]
    # one descending row: each column of the caller's array is already contiguous
    inputs += [np.arange(size)[::-1].reshape(1, size).copy() for size in range(1, 7)]
    for tops in inputs:
        before = tops.copy()
        c = from_maximal_simplices(tops)
        assert np.array_equal(tops, before)
        assert (c.dim, c.simplices, index(c), weights(c)) == reference_face_tables(tops.tolist())
        assert _tables(c) == _tables(from_maximal_simplices(tops.tolist()))
        # at most 26 vertices and 39 tops: every key is below 26**6 < 2**31
        # and every weight below 2**31, so both tables are int32
        for d in range(c.dim + 1):
            rows, keys, counts = c.rows[d], c.keys[d], c.counts[d]
            assert rows.dtype == np.int32 and rows.flags.c_contiguous
            assert rows.shape == (len(keys), d + 1)
            assert keys.dtype == np.int32 and (np.diff(keys) > 0).all()
            assert counts.dtype == np.int32
    bad = []
    # a repeated vertex at each adjacent position of the sorted row
    for size in range(2, 7):
        for p in range(size - 1):
            row = np.arange(size)
            row[p + 1] = p
            bad.append((RepeatedVertex, np.stack([rng.permutation(size), rng.permutation(row)])))
    bad += [
        (DuplicateSimplex, np.array([[0], [1], [0]])),
        (DuplicateSimplex, np.zeros((2, 1), dtype=np.uint8)),
        (DuplicateSimplex, np.array([[0, 1, 2], [2, 0, 1], [1, 2, 3]])),
        # a repeated vertex is reported before a duplicate
        (RepeatedVertex, np.array([[0, 1, 2], [2, 1, 0], [3, 3, 1]])),
    ]
    for error, tops in bad:
        before = tops.copy()
        with pytest.raises(error) as caught:
            from_maximal_simplices(tops)
        assert np.array_equal(tops, before)
        with pytest.raises(error):
            from_maximal_simplices(tops.tolist())
        with pytest.raises(error):
            reference_face_tables(tops.tolist())
        if error is RepeatedVertex:
            first = next(r for r in tops.tolist() if len(set(r)) < len(r))
            assert str(tuple(first)) in str(caught.value)


def test_array_input_must_be_dense_ids():
    huge = 10**15  # a table indexed by this label could never be allocated
    bad = [
        np.array([[0, 1], [1, 3]]),  # 2 is missing
        np.array([[0, 2], [2, 0]], dtype=np.uint8),  # 1 is missing
        np.array([[-1, 0], [0, 1]]),
        np.array([[0, 1], [1, 4]]),  # max id 4 >= 4 entries
        np.array([[0, huge], [1, 2]], dtype=np.int64),
        np.array([[0, 1], [1, 2]], dtype=np.float64),
        np.array([0, 1, 2]),
        [(0, 2), (2, 4)],  # sparse labels belong in from_text
        [("a", "b")],
        [(0, 10**20)],
    ]
    for tops in bad:
        with pytest.raises(NonDenseIds):
            from_maximal_simplices(tops)
    with pytest.raises(EmptyInput):
        from_maximal_simplices(np.empty((0, 3), dtype=np.int32))
    with pytest.raises(RepeatedVertex):
        from_maximal_simplices(np.array([[0, 1, 1], [0, 1, 2]]))
    with pytest.raises(DuplicateSimplex):
        from_maximal_simplices(np.array([[0, 1], [1, 0]]))


def test_columns_given_to_the_constructor_are_checked_as_rows_are():
    # Complex(cols) is the one constructor, so columns handed to it
    # directly meet every check that from_maximal_simplices makes on the
    # same input, and raise the same error
    bad = [
        (EmptyInput, np.empty((0, 3), dtype=np.int32)),
        (NonDenseIds, np.array([[0, 1], [1, 3]])),  # 2 is missing
        (NonDenseIds, np.array([[-1, 0], [0, 1]])),
        (NonDenseIds, np.array([[0, 1], [1, 4]])),  # max id 4 >= 4 entries
        (NonDenseIds, np.array([[0, 1], [1, 2]], dtype=np.float64)),
        (RepeatedVertex, np.array([[0, 1, 2], [2, 1, 0], [3, 3, 1]])),
        (DuplicateSimplex, np.array([[0, 1], [1, 0]])),
        (DuplicateSimplex, np.zeros((2, 1), dtype=np.uint8)),
    ]
    for error, tops in bad:
        with pytest.raises(error) as by_rows:
            from_maximal_simplices(tops)
        with pytest.raises(error) as by_cols:
            Complex([c.copy() for c in tops.T])
        if error is RepeatedVertex:
            assert "(3, 3, 1)" in str(by_rows.value) and "(3, 3, 1)" in str(by_cols.value)
    with pytest.raises(EmptyInput):
        Complex([])
    with pytest.raises(NonDenseIds):  # ragged columns
        Complex([np.array([0, 1]), np.array([2])])
    tops = np.array(OCTAHEDRON)
    cx = Complex([c.copy() for c in tops.T])
    assert [c.dtype for c in cx._cols] == [np.uint16] * 3
    assert _tables(cx) == _tables(from_maximal_simplices(tops))


def test_dense_array_matches_the_list_path(b23):
    rng = np.random.default_rng(5)
    top = b23.complex.rows[2]
    chambers = rng.permuted(top[rng.permutation(len(top))], axis=1)
    cases = [np.array(OCTAHEDRON), np.array(TWO_TRIANGLES, dtype=np.uint16), chambers]
    for tops in cases:
        a = from_maximal_simplices(tops)
        assert _tables(a) == _tables(from_maximal_simplices(tops.tolist()))
    assert _tables(from_maximal_simplices(chambers)) == _tables(b23.complex)


def test_links_of_the_23_building_match_the_list_path(b23):
    # each vertex link equals the reference tables of the tops through v
    # without v, ranked to dense ids in sorted order
    cx = b23.complex
    top = cx.rows[cx.dim].tolist()
    for v in range(0, cx.num_simplices(0), 7):
        lk, new_to_old = cx.vertex_link(v)
        rest = [[u for u in t if u != v] for t in top if v in t]
        assert new_to_old == sorted({u for t in rest for u in t})
        new_id = {u: j for j, u in enumerate(new_to_old)}
        ref = reference_face_tables([[new_id[u] for u in t] for t in rest])
        assert (lk.dim, lk.simplices, index(lk), weights(lk)) == ref


def test_triangle_counts_and_weights():
    c = from_maximal_simplices(TRIANGLE)
    assert c.dim == 2
    assert [c.num_simplices(i) for i in range(3)] == [3, 3, 1]
    assert list(c.vertices) == [0, 1, 2]
    for i in range(3):
        for s in c.simplices[i]:
            assert weight(c, s) == 1
    assert contains(c, (0, 2)) and not contains(c, (0, 3))
    with pytest.raises(SimplexNotFound):
        weight(c, (0, 3))


def test_shared_edge_weights():
    c = from_maximal_simplices(TWO_TRIANGLES)
    assert weight(c, (1, 2)) == 2
    assert weight(c, (0, 1)) == 1
    assert weight(c, (1,)) == 2
    assert weight(c, (0,)) == 1
    assert check_weight_identity(c)


def test_weight_identity_on_octahedron():
    c = from_maximal_simplices(OCTAHEDRON)
    assert [c.num_simplices(i) for i in range(3)] == [6, 12, 8]
    assert check_weight_identity(c)
    # every edge of the octahedron lies in exactly 2 triangles
    assert all(weight(c, s) == 2 for s in c.simplices[1])


def test_star_keeps_vertex_ids():
    # the star is on dense ids; new_to_old keeps the vertex ids of c
    c = from_maximal_simplices(TWO_TRIANGLES)
    st, new_to_old = star(c, (3,))
    assert st.dim == 2
    assert new_to_old == [1, 2, 3]
    assert st.simplices[2] == [(0, 1, 2)]
    assert (0, 1) in st.simplices[1]
    st, new_to_old = star(c, (1, 2))
    assert new_to_old == [0, 1, 2, 3] and st.num_simplices(2) == 2
    for s in ((9,), (0, 3), (2, 1), (0, 6)):
        with pytest.raises(SimplexNotFound):
            star(c, s)


def test_link_relabels_densely():
    c = from_maximal_simplices(TWO_TRIANGLES)
    lk, new_to_old = c.vertex_link(1)
    assert lk.dim == 1
    assert new_to_old == [0, 2, 3]
    # edges of the link are the opposite edges of the two triangles
    old_edges = {tuple(sorted(new_to_old[u] for u in e)) for e in lk.simplices[1]}
    assert old_edges == {(0, 2), (2, 3)}
    for v in (-1, 4):
        with pytest.raises(SimplexNotFound):
            c.vertex_link(v)
    with pytest.raises(EmptyInput):  # the link of a maximal simplex is empty
        from_maximal_simplices([(0,), (1,)]).vertex_link(0)


def test_vertex_link_is_memoized():
    c = from_maximal_simplices(OCTAHEDRON)
    a = c.vertex_link(0)
    b = c.vertex_link(0)
    assert a[0] is b[0]
    # link of an octahedron vertex is a 4-cycle
    assert a[0].num_simplices(0) == 4 and a[0].num_simplices(1) == 4


def test_text_round_trip():
    c, labels = from_text("4 7 9\n12 9 7  # a comment\n\n")
    # labels are dense in first-appearance order
    assert labels == {4: 0, 7: 1, 9: 2, 12: 3}
    assert c.simplices[2] == [(0, 1, 2), (1, 2, 3)]
    # the text form prints the ids, so it is a fixed point of from_text
    assert c.to_text() == "0 1 2\n1 2 3\n"
    c2, labels2 = from_text(c.to_text())
    assert labels2 == {v: v for v in range(4)}
    assert c2.to_text() == c.to_text()


def test_from_text_rejects_bad_labels():
    with pytest.raises(ValueError):
        from_text("0 1 x\n")
    # a GarlandError too; '²' and '١' pass str.isdigit but are no ASCII labels
    for text in ("0 1 x\n", "0 1 \u00b2\n", "0 1 \u0661\n", "0 -1\n"):
        with pytest.raises(InvalidLabel):
            from_text(text)
    # a bad label anywhere is reported before a repeated vertex or a mixed size
    with pytest.raises(InvalidLabel):
        from_text("0 0\n1 2 3\n4 x\n")
    with pytest.raises(EmptyInput):
        from_text("# nothing but a comment\n\n")


def test_classmethod_matches_module_function():
    a = Complex.from_maximal_simplices(TRIANGLE)
    b = from_maximal_simplices(TRIANGLE)
    assert a.simplices == b.simplices and weights(a) == weights(b)


# -- face levels on demand ------------------------------------------------------


def _built_levels(c) -> int:
    return len(c._rows)


def test_degree_zero_report_builds_only_vertices_and_edges():
    b = flag_complex(3, field_for_order(2))
    c = b.complex
    assert (len(c.rows), len(c.keys), len(c.counts), _built_levels(c)) == (4, 4, 4, 1)
    compute_spectral_report(c, 0, witness_columns=witness_columns(b, 0))
    assert _built_levels(c) == 2


def test_levels_read_in_any_order_match_the_reference(b22):
    tops = b22.complex.simplices[2]
    ref = reference_face_tables(tops)

    def top_first(c):
        return c.rows[c.dim]

    def counts_first(c):
        return c.counts[1]

    for first in (top_first, counts_first):
        c = from_maximal_simplices(list(tops))
        first(c)
        assert (c.dim, c.simplices, index(c), weights(c)) == ref
        assert _tables(c) == _tables(from_maximal_simplices(list(tops)))
    c = from_maximal_simplices(list(tops))
    assert len(c.rows[-1]) == len(tops) and _built_levels(c) == 3
    assert [len(c.rows[d]) for d in (0, 1)] == [len(ref[1][0]), len(ref[1][1])]
    with pytest.raises(IndexError):
        c.keys[3]


def _spread_tops(rng, nv, size, count):
    """`count` distinct sorted rows of `size` ids that together cover 0..nv-1."""
    tops = {tuple(sorted((j * size + t) % nv for t in range(size)))
            for j in range(-(-nv // size))}
    while len(tops) < count:
        tops.add(tuple(sorted(rng.sample(range(nv), size))))
    return [rng.sample(t, size) for t in tops]


# 80**9 < 2**63 < 80**10: rows read as base-80 numbers, within and past int64
@pytest.mark.parametrize("size", [9, 10])
def test_duplicates_on_each_side_of_the_int64_range(size):
    rng = random.Random(size)
    tops = _spread_tops(rng, 80, size, 12)
    assert all(len(set(t)) == size for t in tops)
    assert sorted({v for t in tops for v in t}) == list(range(80))
    c = from_maximal_simplices(tops)
    assert c.simplices[size - 1] == sorted(tuple(sorted(t)) for t in tops)
    assert weights(c) == reference_face_tables(tops)[3]
    for dup in (rng.sample(tops[3], size), tops[-1]):
        with pytest.raises(DuplicateSimplex):
            from_maximal_simplices(tops + [dup])


def test_rows_equal_modulo_2_to_the_64_are_distinct():
    # on V = 2**16 ids, (0, 2, 3, 4, 5) and (1, 2, 3, 4, 5) read as base-V
    # numbers differ by V**4 = 2**64, which int64 arithmetic wraps to 0
    nv = 2**16
    rest = np.arange(6, nv, dtype=np.int64).reshape(-1, 5)
    tops = np.concatenate([[[0, 2, 3, 4, 5], [1, 2, 3, 4, 5]], rest])
    c = from_maximal_simplices(tops)
    assert c.num_simplices(0) == nv
    assert c.num_simplices(4) == len(tops)
    # the same rows out of order are sorted first
    assert from_maximal_simplices(tops[::-1]).num_simplices(4) == len(tops)
    with pytest.raises(DuplicateSimplex):
        from_maximal_simplices(np.concatenate([tops, tops[1:2]]))


# 46340**2 <= 2**31 < 46341**2: the edge keys of a cycle on V vertices are
# sorted and kept as int32 only on the first V, and as int64 at or past
# the bound.  On 46342 vertices the largest key, (V-2) * V + V-1, itself
# passes 2**31, so int32 keys would wrap there.
@pytest.mark.parametrize("nv", [46_340, 46_341, 46_342])
def test_cycle_edges_on_each_side_of_the_int32_key_bound(nv):
    rng = np.random.default_rng(nv)
    ids = np.arange(nv)
    tops = np.stack([ids, np.roll(ids, -1)], axis=1)[rng.permutation(nv)]
    flip = rng.random(nv) < 0.5
    tops[flip] = tops[flip][:, ::-1]
    c = from_maximal_simplices(tops)
    edges = np.sort(tops, axis=1)
    want = edges[np.lexsort((edges[:, 1], edges[:, 0]))]
    assert want[:2].tolist() == [[0, 1], [0, nv - 1]]
    assert np.array_equal(c.rows[1], want)
    assert key_dtype(nv, nv) == c.keys[1].dtype == (np.int32 if nv == 46_340 else np.int64)
    assert np.array_equal(c.keys[1], want[:, 0].astype(np.int64) * nv + want[:, 1])
    assert c.keys[0].dtype == c.counts[0].dtype == c.counts[1].dtype == np.int32
    assert np.array_equal(c.counts[1], np.ones(nv))
    assert np.array_equal(c.counts[0], np.full(nv, 2))
    assert np.array_equal(c.locate(want[::-1]), np.arange(nv)[::-1])


def _brute_levels(tops, nv):
    """Per face size, (rows, keys, counts) from counting every face of
    every top with itertools."""
    levels, rank = [], {(): 0}
    for k in range(1, len(tops[0]) + 1):
        count = Counter(f for top in tops for f in combinations(sorted(top), k))
        faces = sorted(count)
        keys = [rank[f[:-1]] * nv + f[-1] for f in faces]
        levels.append((faces, keys, [count[f] for f in faces]))
        rank = {f: r for r, f in enumerate(faces)}
    return levels


def _check_levels(c, tops):
    # the keys of level d are below count(d-1) * V: int32 while that is at
    # most 2**31, int64 past it; fewer than 2**31 tops make int32 weights
    nv, prefixes = c.num_simplices(0), 1
    for d, (faces, keys, counts) in enumerate(_brute_levels(tops, nv)):
        assert c.rows[d].dtype == np.int32 and np.array_equal(c.rows[d], faces)
        width = np.int32 if prefixes * nv <= 2**31 else np.int64
        assert c.keys[d].dtype == width and np.array_equal(c.keys[d], keys)
        assert c.counts[d].dtype == np.int32 and np.array_equal(c.counts[d], counts)
        prefixes = len(faces)


def _shared_faces(tops) -> int:
    """Faces of two or more vertices that occur under two different column
    combinations of the sorted tops: the merge adds their counts."""
    where = {}
    for top in map(sorted, tops):
        for k in range(2, len(top) + 1):
            for cols in combinations(range(len(top)), k):
                where.setdefault(tuple(top[j] for j in cols), set()).add(cols)
    return sum(len(cols) > 1 for cols in where.values())


def test_face_levels_match_a_brute_force_count():
    rng = random.Random(2024)
    shared = 0
    for _ in range(60):
        c = random_pure_complex(rng)
        tops = np.stack(c._cols, axis=1).tolist()  # the sorted input the levels come from
        _check_levels(c, tops)
        shared += _shared_faces(tops)
    assert shared > 50


@pytest.mark.parametrize("size", [2, 3])
def test_face_levels_of_a_50000_vertex_path(size):
    # V**2 = 2.5e9 > 2**31, so every level above the vertices keys its
    # faces in int64; on the triangle strip each inner edge is column
    # pair (1, 2) of one triangle and (0, 1) of the next, weight 2
    nv = 50_000
    tops = [[j + t for t in range(size)] for j in range(nv - size + 1)]
    assert nv * nv > 2**31
    c = from_maximal_simplices(np.array(tops)[np.random.default_rng(size).permutation(len(tops))])
    _check_levels(c, tops)
    assert c.counts[1][c.locate(np.array([[1, 2]]))[0]] == size - 1


# ids 0..65,535 fit uint16, so a complex on 2**16 vertices stores its
# sorted columns in 16 bits; one more vertex needs id 65,536 and int32
@pytest.mark.parametrize("nv, width", [(2**16, np.uint16), (2**16 + 1, np.int32)])
def test_path_on_each_side_of_the_uint16_id_bound(nv, width):
    tops = [[j, j + 1] for j in range(nv - 1)]
    given = np.array(tops)[np.random.default_rng(nv).permutation(nv - 1)]
    given[::2] = given[::2, ::-1]  # the sorting network has rows to sort
    c = from_maximal_simplices(given)
    assert [col.dtype for col in c._cols] == [width, width]
    _check_levels(c, tops)
    ends = np.array([[nv - 2, nv - 1], [0, 1], [0, nv - 1], [nv - 3, nv - 2]])
    assert c.locate(ends).tolist() == [nv - 2, 0, -1, nv - 3]
    # the link of the next-to-last vertex is its two neighbours, the last
    # of them the largest id
    v = nv - 2
    link, new_to_old = c.vertex_link(v)
    want = sorted(u for top in tops if v in top for u in top if u != v)
    assert new_to_old == want == [nv - 3, nv - 1]
    assert [[new_to_old[u] for u in row] for row in link.rows[0].tolist()] == [[u] for u in want]
    assert link.counts[0].tolist() == [1, 1]


# -- duplicate proof and face positions -------------------------------------------


def _spy_sorting(monkeypatch) -> list:
    """Patch `np.lexsort` to record the row count of every call."""
    calls = []
    real = np.lexsort

    def spy(keys, *args, **kwargs):
        calls.append(len(keys[0]))
        return real(keys, *args, **kwargs)

    monkeypatch.setattr(complexes.np, "lexsort", spy)
    return calls


def test_only_rows_out_of_ascending_order_are_sorted(monkeypatch):
    # the walk's chambers arrive strictly ascending, which proves them
    # distinct, and so do the tops of each vertex link; the same chambers
    # in shuffled rows and order are sorted once
    calls = _spy_sorting(monkeypatch)
    b = flag_complex(2, field_for_order(3))
    cx = b.complex
    links = [cx.vertex_link(v)[0] for v in range(0, cx.num_simplices(0), 7)]
    assert calls == []
    chambers = cx.rows[2]
    rng = np.random.default_rng(23)
    shuffled = rng.permuted(chambers[rng.permutation(len(chambers))], axis=1)
    assert _tables(from_maximal_simplices(shuffled)) == _tables(cx)
    assert calls == [len(chambers)]
    # each link equals the one built from its tops in reverse order
    for v, link in zip(range(0, cx.num_simplices(0), 7), links):
        at = np.flatnonzero((chambers == v).any(axis=1))
        rest = chambers[at][chambers[at] != v].reshape(len(at), -1)
        _, dense = np.unique(rest, return_inverse=True)
        dense = dense.reshape(rest.shape)
        assert _tables(link) == _tables(from_maximal_simplices(dense[::-1]))


def test_duplicates_and_error_order_in_ascending_and_shuffled_input(monkeypatch, b23):
    # an ascending input with two equal adjacent rows is not strictly
    # ascending, so it is sorted like a shuffled one, and both raise
    # DuplicateSimplex; a repeated vertex is reported before it, and a
    # missing id before both
    chambers = b23.complex.rows[2]
    nv = int(chambers.max()) + 1
    ascending = np.insert(chambers, 100, chambers[100], axis=0)
    rng = np.random.default_rng(32)
    shuffled = rng.permuted(ascending[rng.permutation(len(ascending))], axis=1)
    calls = _spy_sorting(monkeypatch)
    for tops in (ascending, shuffled):
        with pytest.raises(DuplicateSimplex):
            from_maximal_simplices(tops)
        repeated = tops.copy()
        repeated[-1, 0] = repeated[-1, 1]
        with pytest.raises(RepeatedVertex):
            from_maximal_simplices(repeated)
        repeated[0, 0] = nv + 1  # id nv is then missing
        with pytest.raises(NonDenseIds):
            from_maximal_simplices(repeated)
    assert calls == [len(ascending)] * 2
    # the ascending input without its duplicate needs no sort
    assert from_maximal_simplices(chambers).num_simplices(2) == len(chambers)
    assert calls == [len(ascending)] * 2


def _top_rows_text(c) -> str:
    """The text of the top level as `rows[n]` lists it."""
    return "".join(" ".join(map(str, row)) + "\n" for row in c.rows[c.dim].tolist())


def test_text_is_the_top_level_without_the_face_levels(monkeypatch, b23):
    # to_text renders the stored columns, which are the top level in
    # lexicographic order whatever order the rows came in: on a building,
    # on the same chambers shuffled as text, and on the links of both,
    # which arrive in order and are never sorted
    cx = flag_complex(2, field_for_order(3)).complex
    chambers = b23.complex.rows[2]
    rng = np.random.default_rng(5)
    shuffled = rng.permuted(chambers[rng.permutation(len(chambers))], axis=1)
    text = "".join(" ".join(map(str, row)) + "\n" for row in shuffled.tolist())
    ingested = from_text(text)[0]
    calls = _spy_sorting(monkeypatch)
    complexes_ = [cx, ingested, cx.vertex_link(5)[0], ingested.vertex_link(5)[0]]
    assert calls == []
    for c in complexes_:
        got = c.to_text()
        assert _built_levels(c) == 1
        assert got == _top_rows_text(c)
    assert ingested.to_text() != text


def test_facets_width_follows_the_face_count(monkeypatch, b22):
    # positions among fewer than 2**31 faces are int32, else int64; a
    # bound moved to the face count itself shows both sides on a small
    # complex, with the same positions and the same assembled operator
    assert position_dtype(2**31 - 1) == np.int32
    assert position_dtype(2**31) == np.int64
    cx = b22.complex
    for d in (1, 2):
        count = cx.num_simplices(d - 1)
        faces = cx.simplices[d - 1]
        want = [[faces.index(s[:j] + s[j + 1:]) for j in range(d + 1)]
                for s in cx.simplices[d]]
        got = {}
        for bound in (count + 1, count):
            monkeypatch.setattr(complexes, "_INT32_POSITIONS", bound)
            facets = cx.facets(d)
            assert facets.tolist() == want
            op = assemble_matrix(cx, d - 1)
            got[facets.dtype.type] = [a.tolist() for a in (op.indptr, op.indices, op.data)]
        assert list(got) == [np.int32, np.int64]
        assert got[np.int32] == got[np.int64]
    # a vertex's position is its id, when it is one
    nv = cx.num_simplices(0)
    assert cx.locate(np.array([[-1], [0], [nv - 1], [nv]])).tolist() == [-1, 0, nv - 1, -1]
    assert cx.locate(np.array([[-1, 0], [nv, nv + 1], [0, nv]])).tolist() == [-1, -1, -1]
    # an id outside 0..V-1 after the first column is absent too: the key
    # a * V + b of edge (a, b) is also (a - 1) * V + (b + V), so an
    # unchecked last id would find that edge
    a, b = cx.rows[1][-1].tolist()
    assert cx.locate(np.array([[a, b], [a - 1, b + nv], [a + 1, b - nv]])).tolist() == \
        [cx.num_simplices(1) - 1, -1, -1]


def test_weight_width_follows_the_number_of_maximal_simplices(monkeypatch, b22):
    # a weight counts maximal simplices, so fewer than 2**31 of them make
    # int32 weights and more make int64; the rule moved to int64 gives
    # the same weights and the same operator
    assert weight_dtype(2**31 - 1) == np.int32
    assert weight_dtype(2**31) == np.int64
    tops = b22.complex.rows[2]
    got = {}
    for width in (np.int32, np.int64):
        monkeypatch.setattr(complexes, "weight_dtype", lambda tops: width)
        cx = from_maximal_simplices(tops)
        assert [c.dtype for c in cx.counts] == [width] * 3
        ops = [assemble_matrix(cx, i) for i in (0, 1)]
        got[width] = ([c.tolist() for c in cx.counts],
                      [[a.tolist() for a in (op.indptr, op.indices, op.data)] for op in ops])
    assert got[np.int32] == got[np.int64]


def test_vertex_tops_are_positions_and_every_link_is_the_tops_through_v(monkeypatch, b22):
    # the vertex-to-top CSR keeps its top positions in position_dtype of
    # the top count, int32 here; every vertex link of the (2,2) building
    # is the tops through v without v, and an int64 table gives the same
    top = b22.complex.rows[2]
    want = []
    for v in range(int(top.max()) + 1):
        rest = [[u for u in t if u != v] for t in top.tolist() if v in t]
        old = sorted({u for t in rest for u in t})
        new_id = {u: j for j, u in enumerate(old)}
        want.append((_tables(from_maximal_simplices([[new_id[u] for u in t] for t in rest])),
                     old))
    for bound, width in ((len(top) + 1, np.int32), (len(top), np.int64)):
        monkeypatch.setattr(complexes, "_INT32_POSITIONS", bound)
        cx = from_maximal_simplices(top)
        ptr, tops = cx._vertex_tops
        assert tops.dtype == width
        got = [(_tables(link), old) for link, old in map(cx.vertex_link, cx.vertices)]
        assert got == want


def test_prefix_ranks_are_positions_among_the_faces_below(monkeypatch):
    # the prefix ranks kept for the next level are positions among the
    # faces they were searched in, so position_dtype of that count: int32
    # on the (3,2) building after rows[2] (ranks among its edges), int64
    # when the bound is moved to the edge count, with the same face tables
    top = flag_complex(3, field_for_order(2)).complex.rows[3]
    got = {}
    for shift, width in ((1, np.int32), (0, np.int64)):
        cx = from_maximal_simplices(top)
        monkeypatch.setattr(complexes, "_INT32_POSITIONS", cx.num_simplices(1) + shift)
        cx.rows[2]
        ranks = cx._prefix_rank
        assert len(ranks) == 3 and all(r.dtype == width for r in ranks.values())
        got[width] = _tables(cx)
    assert got[np.int32] == got[np.int64]
