"""Pure weighted simplicial complexes, stored as integer arrays.

A complex here is always given by its maximal simplices, all of one
dimension n, and has every face of every maximal simplex.  That
construction makes the complex pure and gives every simplex a top-
dimensional coface, the standing hypothesis for the weight function

    w(s) = number of n-simplices containing s,

so w(t) = 1 for the n-simplices themselves.  Simplices are canonical
ascending vertex tuples; an oriented simplex is any permutation of one,
carrying the sign of the permutation.

Vertices are dense integer ids 0..V-1, the one vertex model: every id
in that range occurs in some maximal simplex and no other id does.  The
chamber walk of a building produces such ids, and `from_text` is the
one place where outside labels become ids.  For each dimension d a
complex has

  * `rows[d]`, a C-contiguous int32 array of shape (count, d+1): the
    ascending id rows of the d-simplices, in lexicographic order;
  * `keys[d]`, an int64 array: the key of a row is rank(prefix) * V +
    last id, where rank(prefix) is the position of the row without its
    last vertex among the (d-1)-simplices (0 for a vertex).  Keys are
    strictly increasing, so `locate` finds a face by one `searchsorted`
    per prefix;
  * `counts[d]`, an int64 array of the weights.

Face levels are built on demand.  Construction checks the input, sorts
every maximal row with a network of elementwise minima and maxima over
per-column copies of the ids, and keeps those sorted columns and the
vertex level, which is the ids themselves: `rows[0]` and `keys[0]` are
0..V-1, and `counts[0]` counts each id's occurrences among the maximal
simplices.  `rows`, `keys` and `counts` are read-only sequences of
length n + 1; reading item d of any of them builds every missing level
up to d, in order, from the sorted columns: each column combination's
face keys are sorted and run-length counted on their own, and the short
per-combination lists of distinct faces are then merged, adding the
counts of a face that several combinations share, so one combination's
keys are the largest temporary of a level.  So an operator on C^i
builds the levels up to i + 1 and no others.  `facets` gathers the
boundary faces of every simplex of one dimension at once, which is what
the operators are assembled from, and vertex links, the only links that
Garland's localization reads, come from one vertex-to-top-simplex CSR
over the sorted columns, built on first use.

One derived view stays: `simplices`, per dimension the id tuples in
lexicographic order, built from the arrays on first item access; its
length builds that level.  Nothing on the path of a CLI command reads
it.  The benchmark counts faces through it, and the tests'
exact-rational cochain calculus (which derives its own position and
weight tables) reads it.

The text interchange format is one maximal simplex per line as
whitespace-separated non-negative integer labels, with '#' starting a
comment and blank lines ignored.  Ingestion maps labels to dense ids in
first-appearance order and returns that map alongside the complex.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import cached_property
from itertools import combinations

import numpy as np

from .errors import (
    DuplicateSimplex,
    EmptyInput,
    InvalidLabel,
    MixedDimensions,
    NonDenseIds,
    RepeatedVertex,
    SimplexNotFound,
)

def _dense_vertex_counts(tops: np.ndarray) -> np.ndarray:
    """Occurrences of each id in a 2-D array of dense ids 0..V-1, each
    occurring (so the length is V); raises otherwise."""
    if not tops.size:
        raise EmptyInput("a complex needs at least one maximal simplex with a vertex")
    if tops.ndim != 2 or tops.dtype.kind not in "iu":
        raise NonDenseIds(f"maximal simplices must be a 2-D array of integer ids, "
                          f"got shape {tops.shape} of {tops.dtype}")
    lo, hi = int(tops.min()), int(tops.max())
    # ids past the entry count cannot all occur; checked before bincount allocates hi + 1
    if lo < 0 or hi >= tops.size:
        raise NonDenseIds(f"vertex ids {lo}..{hi} are not dense ids of {tops.size} entries")
    # a column at a time: bincount widens its input to intp, and the
    # whole array widened would be the largest temporary of construction
    occurrences = np.zeros(hi + 1, dtype=np.intp)
    for j in range(tops.shape[1]):
        occurrences += np.bincount(tops[:, j].astype(np.intp, copy=False), minlength=hi + 1)
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


def _packed_rows(cols: list, nv: int) -> np.ndarray:
    """Each row's sum of col_j * V**(size-1-j), which is injective on rows
    of ids below V: int64 when V**size < 2**63, else Python ints in an
    object array."""
    if nv ** len(cols) < 2**63:
        packed = cols[0].astype(np.int64)
        for c in cols[1:]:
            packed *= nv
            packed += c
    else:
        packed = cols[0].astype(object)
        for c in cols[1:]:
            packed = packed * nv + c.astype(object)
    return packed


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """Where each run of equal values in the sorted array `keys` starts."""
    new = np.empty(len(keys), dtype=bool)
    new[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    return np.flatnonzero(new)


def _face_keys(prefix_rank: np.ndarray, last: np.ndarray, nv: int, out=None) -> np.ndarray:
    """rank(prefix) * V + last vertex, in the dtype of `out` (int64 without
    one) whatever the dtype of the ranks."""
    out = np.multiply(prefix_rank, nv, out=out, dtype=np.int64 if out is None else out.dtype)
    out += last
    return out


class _Levels(Sequence):
    """One of a complex's per-dimension tables (`rows`, `keys` or
    `counts`), read-only: its length is the number of dimensions, and
    item d builds every missing face level up to d first."""

    def __init__(self, cx: "Complex", built: list):
        self._cx = cx
        self._built = built

    def __len__(self) -> int:
        return self._cx.dim + 1

    def __getitem__(self, d: int) -> np.ndarray:
        d = range(len(self))[d]  # IndexError past either end, which ends iteration
        if d >= len(self._built):
            self._cx._build_levels(d)
        return self._built[d]


class _View(Sequence):
    """A read-only list of one dimension's simplices, built on first item
    access; its length builds that face level."""

    def __init__(self, cx: "Complex", d: int):
        self._cx = cx
        self._d = d
        self._items = None

    def _list(self) -> list:
        if self._items is None:
            rows = self._cx.rows[self._d]
            self._items = list(zip(*(rows[:, j].tolist() for j in range(self._d + 1))))
        return self._items

    def __len__(self) -> int:
        return len(self._cx.rows[self._d])

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
        rows, keys, counts: per dimension 0..n, the int32 id rows, the
            int64 search keys and the int64 weights, each level built on
            first read; V is len(rows[0]).
        simplices: the derived read-only id-tuple view (module docstring).

    Make one with `from_maximal_simplices`.
    """

    def __init__(self, cols: list, occurrences: np.ndarray):
        """`cols`: the maximal simplices as int32 columns, each row
        ascending across them; `occurrences`: each id's count in them."""
        nv = len(occurrences)
        self.dim = len(cols) - 1
        self._cols = cols
        self._rows = [np.arange(nv, dtype=np.int32).reshape(nv, 1)]
        self._keys = [np.arange(nv, dtype=np.int64)]
        self._counts = [occurrences.astype(np.int64, copy=False)]
        # column combination c -> position of every top's face on columns
        # c among the faces of size len(c): the prefixes of the last level
        # built, kept until the top level is built
        self._prefix_rank: dict | None = None
        self._vertex_links: dict[int, tuple["Complex", list[int]]] = {}

    @classmethod
    def from_maximal_simplices(cls, maximal) -> "Complex":
        """The closure of `maximal`, with its face and weight tables built on demand.

        `maximal` holds one maximal simplex per row of a 2-D integer
        array (or anything `np.asarray` makes one of, such as nested
        equal-length lists), and its entries are dense ids: every id in
        0..V-1 occurs and no other.  That contract is checked in O(size)
        before anything of size V is allocated; a violation raises
        NonDenseIds, and ragged rows, empty input, a repeated vertex or a
        duplicate row raise their own GarlandError, in that order.  The
        caller's array is only read.

        The input becomes one contiguous int32 copy per column, and an
        odd-even transposition network of elementwise minima and maxima
        sorts every row across those columns.  Duplicates are found by
        sorting each row's packed value, sum of col_j * V**(size-1-j).
        The complex keeps the sorted columns and the vertex level: vertex
        v is row v and has key v, and its weight is the number of times v
        occurs.  Every larger face level is built when first read
        (`_build_levels`).
        """
        try:
            tops = np.asarray(maximal)
        except ValueError:
            raise MixedDimensions("maximal simplices must all have the same dimension") from None
        occurrences = _dense_vertex_counts(tops)
        nv, size = len(occurrences), tops.shape[1]
        # astype always copies, so sorting in place never writes into the caller's array
        cols = [tops[:, j].astype(np.int32) for j in range(size)]
        _sort_columns(cols)
        if size > 1:
            repeats = cols[0] == cols[1]
            for a, b in zip(cols[1:], cols[2:]):
                repeats |= a == b
            if repeats.any():
                first = tuple(tops[int(repeats.argmax())].tolist())
                raise RepeatedVertex(f"maximal simplex repeats a vertex: {first}")
        packed = _packed_rows(cols, nv)
        packed.sort()
        if (packed[1:] == packed[:-1]).any():
            raise DuplicateSimplex("duplicate maximal simplex")
        return cls(cols, occurrences)

    def _build_levels(self, d: int) -> None:
        """Build every missing face level up to dimension d, in order.

        The faces of size k come from the k-column combinations of the
        sorted columns.  A face's key is rank(prefix) * V + last vertex,
        which preserves lexicographic order and stays below the number of
        (k-1)-faces times V; the prefix ranks are found among the keys of
        the level below, one `searchsorted` per (k-1)-combination that
        leaves a column after it.  The keys of one k-combination at a
        time are sorted in one reused buffer, and its distinct keys and
        run lengths kept.  Those lists are merged by one stable sort of
        their concatenation, which is a few sorted runs, and the run
        lengths of a key that several combinations give are added: the
        distinct faces in order and their weights.  The face rows are
        gathered one column at a time from the prefix rows.
        When that bound on the keys is at most 2**31, the keys are
        filled and sorted as int32, which sorts about twice as fast as
        int64; only the distinct keys are widened, so `keys` holds int64
        at every level.
        """
        cols, nv, size = self._cols, len(self._rows[0]), self.dim + 1
        while len(self._rows) <= d:
            k = len(self._rows) + 1
            if k == 2:
                rank = {(j,): cols[j] for j in range(size - 1)}  # a vertex's position is its id
            else:
                below, keys = self._prefix_rank, self._keys[-1]
                rank = {c: np.searchsorted(keys, _face_keys(below[c[:-1]], cols[c[-1]], nv))
                        for c in combinations(range(size - 1), k - 1)}
            # one buffer for every combination, so that one combination's
            # keys are the largest temporary of the level
            narrow = len(self._rows[-1]) * nv <= 2**31
            flat = np.empty(len(cols[0]), dtype=np.int32 if narrow else np.int64)
            parts, weights = [], []
            for c in combinations(range(size), k):
                _face_keys(rank[c[:-1]], cols[c[-1]], nv, out=flat)
                flat.sort()
                starts = _run_starts(flat)
                parts.append(flat[starts])
                weights.append(np.diff(starts, append=len(flat)))
            del flat, starts
            merged = np.concatenate(parts)
            weights = np.concatenate(weights)
            del parts
            order = np.argsort(merged, kind="stable")
            merged, weights = merged[order], weights[order]
            del order
            starts = _run_starts(merged)
            uniq = merged[starts].astype(np.int64, copy=False)
            counts = np.add.reduceat(weights, starts)
            del merged, weights, starts
            prefix, last = np.divmod(uniq, nv)
            faces = np.empty((len(uniq), k), dtype=np.int32)
            # one column at a time; mode="clip" (prefix is in range) keeps
            # take from buffering its strided output
            for j in range(k - 1):
                np.take(self._rows[-1][:, j], prefix, out=faces[:, j], mode="clip")
            faces[:, -1] = last
            del prefix, last
            self._rows.append(faces)
            self._keys.append(uniq)
            self._counts.append(counts)
            self._prefix_rank = rank if k < size else None

    @property
    def rows(self) -> _Levels:
        return _Levels(self, self._rows)

    @property
    def keys(self) -> _Levels:
        return _Levels(self, self._keys)

    @property
    def counts(self) -> _Levels:
        return _Levels(self, self._counts)

    # -- array lookups ---------------------------------------------------------

    def num_simplices(self, i: int) -> int:
        return len(self.rows[i])

    def locate(self, rows: np.ndarray) -> np.ndarray:
        """Positions of ascending id rows (shape (m, d+1)) among the d-simplices; -1 if absent."""
        nv = len(self._rows[0])
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

    @property
    def vertices(self) -> range:
        return range(len(self._rows[0]))

    # -- vertex links -----------------------------------------------------------

    @cached_property
    def _vertex_tops(self) -> tuple[np.ndarray, np.ndarray]:
        """Vertex-to-top CSR over the stored maximal simplices: those at id
        j are tops[ptr[j]:ptr[j+1]], ascending."""
        top = np.stack(self._cols, axis=1)
        order = np.argsort(top, axis=None, kind="stable")
        ptr = np.zeros(len(self._rows[0]) + 1, dtype=np.int64)
        np.cumsum(self._counts[0], out=ptr[1:])
        return ptr, order // top.shape[1]

    def vertex_link(self, v: int) -> tuple["Complex", list[int]]:
        """Link of vertex v, relabeled to dense ids; returns (complex, new_to_old).

        The maximal simplices of Lk(v) are exactly t minus v for the
        maximal t containing v, so the link is itself pure of dimension
        n - 1 with every simplex under a top face.  Memoized: vertex
        links recur in every localization op.
        """
        if v not in self._vertex_links:
            if not 0 <= v < len(self._rows[0]):
                raise SimplexNotFound(f"{v} is not a vertex of this complex")
            ptr, tops = self._vertex_tops
            at = tops[ptr[v]:ptr[v + 1]]
            rows = np.stack([c[at] for c in self._cols], axis=1)
            rest = rows[rows != v].reshape(len(rows), -1)
            old, dense = np.unique(rest, return_inverse=True)
            self._vertex_links[v] = (Complex.from_maximal_simplices(dense.reshape(rest.shape)),
                                     old.tolist())
        return self._vertex_links[v]

    # -- derived view ---------------------------------------------------------------

    @cached_property
    def simplices(self) -> list[_View]:
        """Per dimension, the canonical simplices as id tuples in lexicographic order."""
        return [_View(self, d) for d in range(self.dim + 1)]

    # -- text interchange -----------------------------------------------------------

    def to_text(self) -> str:
        names = np.asarray([str(v) for v in self.vertices], dtype=object)
        lines = map(" ".join, names[self.rows[self.dim]].tolist())
        return "\n".join(lines) + "\n"

    def __repr__(self) -> str:
        sizes = ", ".join(str(len(r)) for r in self.rows)
        return f"Complex(dim={self.dim}, counts=[{sizes}])"


def from_maximal_simplices(maximal) -> Complex:
    return Complex.from_maximal_simplices(maximal)


def from_text(text: str) -> tuple[Complex, dict[int, int]]:
    """Parse the interchange format; labels become dense ids in first-appearance order.

    Errors come in the order EmptyInput, InvalidLabel, RepeatedVertex,
    MixedDimensions, DuplicateSimplex: a bad label anywhere is reported
    before a repeated vertex anywhere, and so on.  Each names its line
    number and the labels as written.
    """
    label_map: dict[int, int] = {}
    lines = []  # (line number, the labels as written) per maximal simplex
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        labels = line.split()
        for tok in labels:
            # ASCII only: str.isdigit also accepts digits such as '²' that int() rejects
            if not (tok.isascii() and tok.isdigit()):
                raise InvalidLabel(f"line {lineno}: label {tok!r} is not a non-negative integer")
        lines.append((lineno, labels))
    tops = [[label_map.setdefault(lab, len(label_map)) for lab in map(int, labels)]
            for _, labels in lines]
    for (lineno, labels), ids in zip(lines, tops):
        if len(set(ids)) != len(ids):
            raise RepeatedVertex(f"line {lineno}: maximal simplex repeats a vertex: "
                                 f"{' '.join(labels)}")
    for (lineno, labels), ids in zip(lines, tops):
        if len(ids) != len(tops[0]):
            raise MixedDimensions(f"line {lineno}: maximal simplex {' '.join(labels)} has "
                                  f"{len(ids)} vertices, but line {lines[0][0]} has "
                                  f"{len(tops[0])}; all must have the same dimension")
    try:
        return Complex.from_maximal_simplices(tops), label_map
    except DuplicateSimplex:
        first_line: dict[tuple, int] = {}
        for (lineno, labels), ids in zip(lines, tops):
            first = first_line.setdefault(tuple(sorted(ids)), lineno)
            if first != lineno:
                raise DuplicateSimplex(f"line {lineno}: maximal simplex {' '.join(labels)} "
                                       f"duplicates line {first}") from None
        raise
