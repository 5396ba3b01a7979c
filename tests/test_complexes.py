"""Pure simplicial complexes: construction, weights, stars, links, text form."""

import random

import numpy as np
import pytest

from garland.complexes import Complex, from_maximal_simplices, from_text
from garland.errors import (
    DimensionOutOfRange,
    DuplicateSimplex,
    EmptyInput,
    InvalidLabel,
    MixedDimensions,
    NonDenseIds,
    RepeatedVertex,
    SimplexNotFound,
)
from garland.harness import get_building

from cochains import (
    check_weight_identity,
    contains,
    index,
    orientation_sign,
    star,
    weight,
    weights,
)
from identities import reference_face_tables

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


def test_face_tables_match_reference(b13, b22):
    rng = random.Random(23)
    inputs = [_random_tops(rng) for _ in range(60)]
    inputs.append([["b", "a", "c"], ["c", "d", "a"]])  # any sortable labels
    for b in (b13, b22, get_building(2, 3)):
        inputs.append(b.complex.simplices[b.complex.dim])
    for tops in inputs:
        c = from_maximal_simplices(tops)
        assert (c.dim, c.simplices, index(c), weights(c)) == reference_face_tables(tops)
        # the tuples hold the caller's label objects, not copies
        mine = {id(v) for t in tops for v in t}
        assert all(id(v) in mine for level in c.simplices for s in level for v in s)
        assert all(type(w) is int for level in weights(c) for w in level)
    bad = {
        EmptyInput: [[]],
        MixedDimensions: [[(0, 1), (2,)], [(0, 1, 2), (3, 4)]],
        DuplicateSimplex: [[(0, 1), (1, 0)], [(5, 9, 2), (2, 5, 9), (1, 2, 3)]],
        # a repeated vertex is reported before a mixed size or a duplicate
        RepeatedVertex: [[(0, 1, 1)], [(0, 1, 2), (3, 3)], [(0, 1), (1, 0), (2, 2)]],
    }
    for error, cases in bad.items():
        for tops in cases:
            with pytest.raises(error):
                reference_face_tables(tops)
            with pytest.raises(error):
                from_maximal_simplices(tops)


def _tables(c):
    return (c.labels, [r.tobytes() for r in c.rows], [k.tobytes() for k in c.keys],
            [w.tobytes() for w in c.counts])


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


def test_dense_array_matches_the_list_path():
    b = get_building(2, 3)
    rng = np.random.default_rng(5)
    chambers = rng.permuted(b.complex.rows[2][rng.permutation(len(b.complex.rows[2]))], axis=1)
    cases = [np.array(OCTAHEDRON), np.array(TWO_TRIANGLES, dtype=np.uint16), chambers]
    for tops in cases:
        a = from_maximal_simplices(tops)
        assert _tables(a) == _tables(from_maximal_simplices(tops.tolist()))
        assert all(type(v) is int for v in a.labels)
    assert _tables(from_maximal_simplices(chambers)) == _tables(b.complex)


def test_links_of_the_23_building_match_the_list_path():
    # Complex.link hands its own dense ids to the array path; each link
    # equals the list-path closure of the same tops on the old labels
    cx = get_building(2, 3).complex
    top = cx.rows[cx.dim].tolist()
    for v in range(0, len(cx.labels), 7):
        for s in ((v,), tuple(cx.rows[1][v].tolist())):
            lk, new_to_old = cx.link(s)
            ref = from_maximal_simplices([[u for u in t if u not in s] for t in top
                                          if set(s) <= set(t)])
            assert new_to_old == ref.labels
            assert _tables(lk)[1:] == _tables(ref)[1:]


def test_triangle_counts_and_weights():
    c = from_maximal_simplices(TRIANGLE)
    assert c.dim == 2
    assert [c.num_simplices(i) for i in range(3)] == [3, 3, 1]
    assert c.vertices == [0, 1, 2]
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
    c = from_maximal_simplices(TWO_TRIANGLES)
    st = star(c, (3,))
    assert st.dim == 2
    assert st.simplices[2] == [(1, 2, 3)]
    assert (1, 2) in st.simplices[1]
    with pytest.raises(SimplexNotFound):
        star(c, (9,))


def test_link_relabels_densely():
    c = from_maximal_simplices(TWO_TRIANGLES)
    lk, new_to_old = c.link((1,))
    assert lk.dim == 1
    assert sorted(new_to_old) == [0, 2, 3]
    # edges of the link are the opposite edges of the two triangles
    old_edges = {tuple(sorted(new_to_old[u] for u in e)) for e in lk.simplices[1]}
    assert old_edges == {(0, 2), (2, 3)}


def test_link_of_edge_and_of_chamber():
    c = from_maximal_simplices(TWO_TRIANGLES)
    lk, new_to_old = c.link((1, 2))
    assert lk.dim == 0
    assert sorted(new_to_old[u] for (u,) in lk.simplices[0]) == [0, 3]
    with pytest.raises(DimensionOutOfRange):
        c.link((0, 1, 2))
    with pytest.raises(SimplexNotFound):
        c.link((0, 3))


def test_vertex_link_is_memoized():
    c = from_maximal_simplices(OCTAHEDRON)
    a = c.vertex_link(0)
    b = c.vertex_link(0)
    assert a[0] is b[0]
    # link of an octahedron vertex is a 4-cycle
    assert a[0].num_simplices(0) == 4 and a[0].num_simplices(1) == 4


def test_text_round_trip():
    c = from_maximal_simplices([(4, 7, 9), (7, 9, 12)])
    text = c.to_text()
    c2, labels = from_text(text)
    assert c2.num_simplices(2) == 2
    # labels are dense in first-appearance order
    assert sorted(labels.values()) == list(range(c2.num_simplices(0)))
    relabeled = {
        tuple(sorted(labels[v] for v in s)) for s in c.simplices[2]
    }
    assert relabeled == set(c2.simplices[2])
    # canonical form is stable
    assert c2.to_text() == from_text(c2.to_text())[0].to_text()


def test_from_text_rejects_bad_labels():
    with pytest.raises(ValueError):
        from_text("0 1 x\n")
    # a GarlandError too; '²' and '١' pass str.isdigit but are no ASCII labels
    for text in ("0 1 x\n", "0 1 \u00b2\n", "0 1 \u0661\n", "0 -1\n"):
        with pytest.raises(InvalidLabel):
            from_text(text)


def test_classmethod_matches_module_function():
    a = Complex.from_maximal_simplices(TRIANGLE)
    b = from_maximal_simplices(TRIANGLE)
    assert a.simplices == b.simplices and weights(a) == weights(b)
