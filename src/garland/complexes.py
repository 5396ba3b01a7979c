"""Pure weighted simplicial complexes, stored as integer arrays.

A complex here is always given by its maximal simplices, all of one
dimension n, and stores every face of every maximal simplex.  That
construction makes the complex pure and gives every simplex a top-
dimensional coface, the standing hypothesis for the weight function

    w(s) = number of n-simplices containing s,

so w(t) = 1 for the n-simplices themselves.  Simplices are canonical
ascending vertex tuples; an oriented simplex is any permutation of one,
carrying the sign of the permutation.

Array layout.  Vertices are the caller's labels.  Ranked in sorted order
they become dense ids 0..V-1, so lexicographic order on id rows is
lexicographic order on label tuples; maximal simplices given as an
integer array must already be dense ids, which are then their own
labels.  For each dimension d a complex holds

  * `rows[d]`, a C-contiguous int32 array of shape (count, d+1): the
    ascending id rows of the d-simplices, in lexicographic order;
  * `keys[d]`, an int64 array: the key of a row is rank(prefix) * V +
    last id, where rank(prefix) is the position of the row without its
    last vertex among the (d-1)-simplices (0 for a vertex).  Keys are
    strictly increasing, so `locate` finds a face by one `searchsorted`
    per prefix;
  * `counts[d]`, an int64 array of the weights;

and `labels`, the sorted distinct labels, which `vertices` and `to_text`
read.  The vertex level is the dense ids themselves: `rows[0]` and
`keys[0]` are 0..V-1, and `counts[0]` counts each id's occurrences among
the maximal simplices.  Construction sorts every maximal row with a
network of elementwise minima and maxima over per-column copies of the
ids, and builds each larger face size from those sorted columns.
`facets` gathers the boundary faces of every simplex of one dimension
at once, which is what the operators are assembled from, and the links
come from one vertex-to-top-simplex CSR built on first use.

One derived view stays: `simplices`, per dimension the label tuples
(holding the caller's label objects) in lexicographic order, built from
the arrays on first item access; its length costs nothing.  Nothing on
the path of a CLI command reads its items.  The benchmark counts faces
through it, and the tests' exact-rational cochain calculus (which
derives its own position and weight tables) reads it.

The text interchange format is one maximal simplex per line as
whitespace-separated non-negative integer labels, with '#' starting a
comment and blank lines ignored.  Ingestion maps labels to dense ids in
first-appearance order and returns that map alongside the complex.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import cached_property, partial
from itertools import chain, combinations

import numpy as np

from .errors import (
    DimensionOutOfRange,
    DuplicateSimplex,
    EmptyInput,
    InvalidLabel,
    MixedDimensions,
    NonDenseIds,
    RepeatedVertex,
    SimplexNotFound,
)

Simplex = tuple  # canonical ascending tuple[int, ...]


def _check_repeated_vertices(tops) -> None:
    for vs in tops:
        if len(set(vs)) != len(vs):
            raise RepeatedVertex(f"maximal simplex repeats a vertex: {vs}")


def _dense_vertex_counts(tops: np.ndarray) -> np.ndarray:
    """Occurrences of each id in a 2-D array of dense ids 0..V-1, each
    occurring (so the length is V); raises otherwise."""
    if tops.ndim != 2 or tops.dtype.kind not in "iu":
        raise NonDenseIds(f"maximal simplices as an array must be 2-D integer ids, "
                          f"got shape {tops.shape} of {tops.dtype}")
    if not tops.size:
        raise EmptyInput("a complex needs at least one maximal simplex")
    lo, hi = int(tops.min()), int(tops.max())
    # ids past the entry count cannot all occur; checked before bincount allocates hi + 1
    if lo < 0 or hi >= tops.size:
        raise NonDenseIds(f"vertex ids {lo}..{hi} are not dense ids of {tops.size} entries")
    occurrences = np.bincount(tops.ravel().astype(np.intp, copy=False))
    missing = np.flatnonzero(occurrences == 0)
    if len(missing):
        raise NonDenseIds(f"vertex id {int(missing[0])} is missing from ids 0..{hi}")
    return occurrences


def _sort_columns(cols: list) -> None:
    """Sort every row across the equal-length columns `cols`, in place:
    an odd-even transposition network, whose len(cols) rounds of
    compare-exchanges sort any input."""
    spare = np.empty_like(cols[0])
    for r in range(len(cols)):
        for j in range(r % 2, len(cols) - 1, 2):
            lo, hi = cols[j], cols[j + 1]
            np.minimum(lo, hi, out=spare)
            np.maximum(lo, hi, out=hi)
            cols[j], spare = spare, lo


def _face_keys(prefix_rank: np.ndarray, last: np.ndarray, nv: int, out=None) -> np.ndarray:
    """rank(prefix) * V + last vertex, in int64 whatever the dtype of the ranks."""
    out = np.multiply(prefix_rank, nv, out=out, dtype=np.int64)
    out += last
    return out


class _View(Sequence):
    """A read-only list of one dimension's simplices, built on first item access."""

    def __init__(self, size: int, build):
        self._size = size
        self._build = build
        self._items = None

    def _list(self) -> list:
        if self._items is None:
            self._items = self._build()
        return self._items

    def __len__(self) -> int:
        return self._size

    def __getitem__(self, k):
        return self._list()[k]

    def __iter__(self):
        return iter(self._list())

    def __eq__(self, other) -> bool:
        if isinstance(other, _View):
            other = other._list()
        return self._list() == other

    __hash__ = None

    def __repr__(self) -> str:
        return repr(self._list())


class Complex:
    """Pure n-dimensional complex with coface-count weights (module docstring).

    Attributes:
        dim: n.
        labels: the sorted distinct vertex labels; id j is labels[j].
        rows, keys, counts: per dimension 0..n, the int32 id rows, the
            int64 search keys and the int64 weights.
        simplices: the derived read-only label-tuple view (module
            docstring).
    """

    def __init__(self, labels: list, rows: list, keys: list, counts: list):
        self.dim = len(rows) - 1
        self.labels = labels
        self.rows = rows
        self.keys = keys
        self.counts = counts
        self._vertex_links: dict[int, tuple["Complex", list[int]]] = {}

    @classmethod
    def from_maximal_simplices(cls, maximal) -> "Complex":
        """The closure of `maximal` with its face and weight tables.

        `maximal` is an iterable of vertex sequences, whose labels are
        ranked to dense ids in sorted order, or a 2-D integer array with
        one maximal simplex per row whose entries are already dense ids:
        every id in 0..V-1 occurs and no other, so the labels are
        0..V-1.  That contract is checked in O(size) before anything of
        size V is allocated, and a violation raises NonDenseIds.  The
        caller's array is only read.

        Either way the input becomes one contiguous int32 copy per
        column, and an odd-even transposition network of elementwise
        minima and maxima sorts every row across those columns.  The
        vertex level is the dense ids themselves: vertex v is row v and
        has key v, and its weight is the number of times v occurs.  The
        faces of each larger size k come from the k-column combinations
        of the sorted columns; a face's key is rank(prefix) * V + last
        vertex, which preserves lexicographic order and stays below the
        number of (k-1)-faces times V.  One sort per size gives the
        distinct faces in order, the run lengths are the weights, and
        the face rows are gathered one column at a time from the
        prefix rows.
        """
        if isinstance(maximal, np.ndarray):
            tops = maximal
            occurrences = _dense_vertex_counts(tops)
            labels = list(range(len(occurrences)))
            ids = tops
        else:
            tops = [tuple(raw) for raw in maximal]
            if not tops:
                raise EmptyInput("a complex needs at least one maximal simplex")
            size = len(tops[0])
            if len(set(map(len, tops))) != 1:
                _check_repeated_vertices(tops)
                raise MixedDimensions("maximal simplices must all have the same dimension")
            if not size:
                raise EmptyInput("a maximal simplex needs at least one vertex")
            labels = sorted(set(chain.from_iterable(tops)))
            id_of = {lab: j for j, lab in enumerate(labels)}
            ids = np.fromiter(map(id_of.__getitem__, chain.from_iterable(tops)),
                              dtype=np.int32, count=len(tops) * size)
            ids = ids.reshape(len(tops), size)
            occurrences = np.bincount(ids.ravel())
        nv, size = len(labels), ids.shape[1]
        # astype always copies, so sorting in place never writes into the caller's array
        cols = [ids[:, j].astype(np.int32) for j in range(size)]
        _sort_columns(cols)
        if size > 1:
            repeats = cols[0] == cols[1]
            for a, b in zip(cols[1:], cols[2:]):
                repeats |= a == b
            if repeats.any():
                first = tops[int(repeats.argmax())]
                first = tuple(first.tolist() if isinstance(first, np.ndarray) else first)
                raise RepeatedVertex(f"maximal simplex repeats a vertex: {first}")

        rows = [np.arange(nv, dtype=np.int32).reshape(nv, 1)]
        keys = [np.arange(nv, dtype=np.int64)]
        counts = [occurrences.astype(np.int64, copy=False)]
        # rank[c]: position of every top's face on columns c among the faces of size len(c);
        # a vertex's position is its id
        rank = {(j,): cols[j] for j in range(size - 1)}
        for k in range(2, size + 1):
            # filled in place, one row per column combination: joining a
            # list of per-combination arrays held the keys twice
            combos = list(combinations(range(size), k))
            flat = np.empty((len(combos), len(ids)), dtype=np.int64)
            for j, c in enumerate(combos):
                _face_keys(rank[c[:-1]], cols[c[-1]], nv, out=flat[j])
            flat = flat.ravel()
            flat.sort()
            new = np.concatenate(([True], flat[1:] != flat[:-1]))
            starts = np.flatnonzero(new)
            uniq = flat[starts]
            counts.append(np.diff(np.append(starts, len(flat))))
            del flat, new, starts
            prefix, last = np.divmod(uniq, nv)
            faces = np.empty((len(uniq), k), dtype=np.int32)
            # one column at a time; mode="clip" (prefix is in range) keeps
            # take from buffering its strided output
            for j in range(k - 1):
                np.take(rows[-1][:, j], prefix, out=faces[:, j], mode="clip")
            faces[:, -1] = last
            del prefix, last
            rows.append(faces)
            keys.append(uniq)
            # the prefixes of the next size are the combos that leave a column after them
            rank = {c: np.searchsorted(uniq, _face_keys(rank[c[:-1]], cols[c[-1]], nv))
                    for c in combinations(range(size - 1), k)}
        if len(rows[-1]) != len(ids):
            raise DuplicateSimplex("duplicate maximal simplex")
        return cls(labels, rows, keys, counts)

    # -- array lookups ---------------------------------------------------------

    def num_simplices(self, i: int) -> int:
        return len(self.rows[i])

    def locate(self, rows: np.ndarray) -> np.ndarray:
        """Positions of ascending id rows (shape (m, d+1)) among the d-simplices; -1 if absent."""
        nv = len(self.labels)
        pos = np.zeros(len(rows), dtype=np.int64)
        found = np.ones(len(rows), dtype=bool)
        for j in range(rows.shape[1]):
            keys = self.keys[j]
            want = pos * nv + rows[:, j]
            pos = np.minimum(np.searchsorted(keys, want), len(keys) - 1)
            found &= keys[pos] == want
        return np.where(found, pos, -1)

    def facets(self, d: int) -> np.ndarray:
        """Shape (count, d+1): column j holds the position among the
        (d-1)-simplices of each d-simplex without its vertex j."""
        rows = self.rows[d]
        return np.stack([self.locate(np.delete(rows, j, axis=1)) for j in range(d + 1)],
                        axis=1)

    @cached_property
    def _id_of(self) -> dict:
        return {lab: j for j, lab in enumerate(self.labels)}

    def _find(self, s) -> tuple[list[int], int]:
        """Ids and position of the canonical simplex s; position -1 if s is none."""
        ids = [self._id_of.get(v, -1) for v in s]
        if not 1 <= len(ids) <= self.dim + 1 or -1 in ids or any(
                a >= b for a, b in zip(ids, ids[1:])):
            return ids, -1
        return ids, int(self.locate(np.asarray([ids], dtype=np.int64))[0])

    @property
    def vertices(self) -> list:
        return list(self.labels)

    # -- subcomplexes -----------------------------------------------------------

    @cached_property
    def _vertex_tops(self) -> tuple[np.ndarray, np.ndarray]:
        """Vertex-to-top CSR: the top simplices at id j are tops[ptr[j]:ptr[j+1]], ascending."""
        top = self.rows[self.dim]
        order = np.argsort(top, axis=None, kind="stable")
        ptr = np.zeros(len(self.labels) + 1, dtype=np.int64)
        np.cumsum(np.bincount(top.ravel(), minlength=len(self.labels)), out=ptr[1:])
        return ptr, order // top.shape[1]

    def _tops_containing(self, s) -> tuple[list[int], np.ndarray]:
        """Ids of s and the positions of the top simplices containing it."""
        ids, pos = self._find(s)
        if pos < 0:
            raise SimplexNotFound(f"{tuple(s)} is not a simplex of this complex")
        ptr, tops = self._vertex_tops
        tops = tops[ptr[ids[0]]:ptr[ids[0] + 1]]
        for u in ids[1:]:
            tops = tops[(self.rows[self.dim][tops] == u).any(axis=1)]
        return ids, tops

    def link(self, s: Simplex) -> tuple["Complex", list]:
        """Link of s, relabeled to dense ids; returns (complex, new_to_old).

        The maximal simplices of Lk(s) are exactly t\\s for the maximal
        t containing s, so the link is itself pure of dimension
        n - dim(s) - 1 with every simplex under a top face.
        """
        ids, tops = self._tops_containing(s)
        if len(ids) == self.dim + 1:
            raise DimensionOutOfRange("the link of a maximal simplex is empty")
        rows = self.rows[self.dim][tops]
        rest = rows[~np.isin(rows, ids)].reshape(len(rows), -1)
        old, dense = np.unique(rest, return_inverse=True)
        return (Complex.from_maximal_simplices(dense.reshape(rest.shape)),
                [self.labels[j] for j in old.tolist()])

    def vertex_link(self, v: int) -> tuple["Complex", list]:
        """Memoized link((v,)); vertex links recur in every localization op."""
        if v not in self._vertex_links:
            self._vertex_links[v] = self.link((v,))
        return self._vertex_links[v]

    # -- derived view ---------------------------------------------------------------

    def _label_tuples(self, d: int) -> list[tuple]:
        label_of = np.fromiter(self.labels, dtype=object, count=len(self.labels))
        rows = self.rows[d]
        # object arrays hand back the caller's label objects, not copies
        return list(zip(*(label_of[rows[:, j]].tolist() for j in range(d + 1))))

    @cached_property
    def simplices(self) -> list[_View]:
        """Per dimension, the canonical simplices as label tuples in lexicographic order."""
        return [_View(len(r), partial(self._label_tuples, d)) for d, r in enumerate(self.rows)]

    # -- text interchange -----------------------------------------------------------

    def to_text(self) -> str:
        names = np.asarray([str(lab) for lab in self.labels], dtype=object)
        lines = map(" ".join, names[self.rows[self.dim]].tolist())
        return "\n".join(lines) + "\n"

    def __repr__(self) -> str:
        sizes = ", ".join(str(len(r)) for r in self.rows)
        return f"Complex(dim={self.dim}, counts=[{sizes}])"


def from_maximal_simplices(maximal) -> Complex:
    return Complex.from_maximal_simplices(maximal)


def from_text(text: str) -> tuple[Complex, dict[int, int]]:
    """Parse the interchange format; labels become dense ids in first-appearance order."""
    label_map: dict[int, int] = {}
    tops = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        labels = []
        for tok in line.split():
            # ASCII only: str.isdigit also accepts digits such as '²' that int() rejects
            if not (tok.isascii() and tok.isdigit()):
                raise InvalidLabel(f"line {lineno}: label {tok!r} is not a non-negative integer")
            labels.append(int(tok))
        for lab in labels:
            if lab not in label_map:
                label_map[lab] = len(label_map)
        tops.append(tuple(label_map[lab] for lab in labels))
    return Complex.from_maximal_simplices(tops), label_map
