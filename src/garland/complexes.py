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
  * `keys[d]`: the key of a row is rank(prefix) * V + last id, where
    rank(prefix) is the position of the row without its last vertex
    among the (d-1)-simplices (0 for a vertex).  Keys are strictly
    increasing, so `locate` finds a face by one `searchsorted` per
    prefix after the first vertex, whose position is its id.  Every key
    is below count(d-1) * V (1 * V for the vertices), so the keys are
    int32 while that is at most 2**31 and int64 beyond (`key_dtype`);
  * `counts[d]`, the weights: a weight counts maximal simplices, so
    they are int32 while there are fewer than 2**31 of those and int64
    beyond (`weight_dtype`).

Face levels are built on demand.  `Complex(cols)`, the one
constructor, takes the maximal simplices as one id column per vertex
position and checks them (`from_maximal_simplices` copies the columns
of an array of rows for it); it sorts every maximal row across the
columns with a network of elementwise minima and maxima, puts the rows
in lexicographic order, and keeps those sorted columns and the vertex
level.  Rows in strictly ascending lexicographic order are distinct,
which one pass of comparisons checks; so the order is the duplicate
proof.  A building's chambers, and the vertex links of any complex,
arrive in that order and are never sorted; rows in any other order, as
from text, are put in it by one `np.lexsort`.  So the stored columns
are always the top level in lexicographic order, and `to_text` renders
them without building a face level.  The columns hold the ids in the
narrowest width that V proves enough (`vertex_id_dtype`): uint16 when
V <= 2**16, as on the (3,3) building's 2,662 vertices and 251,680
chambers, and int32 beyond.
The vertex level is the ids themselves: `rows[0]` and `keys[0]` are
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
the operators are assembled from, as int32 positions while the faces
number fewer than 2**31 (`position_dtype`), so the coboundary pattern
reaches the Gram product without an int64 copy.  At d = 1 a facet is a
vertex, whose position is its id, so the edge rows are read as they
are; above, `locate` searches with keys in the keys' own width.  Vertex
links, the only links that Garland's localization reads, come from one
vertex-to-top-simplex CSR over the sorted columns, built on first use
and kept with its top positions in `position_dtype`; removing a
vertex that two ascending rows share keeps their order, so every vertex
link arrives in lexicographic order too.

`simplices` is another name for `rows`, under which the benchmark
counts faces; no CLI command reads it.

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

def vertex_id_dtype(nv: int) -> type:
    """The width of a stored vertex id among dense ids 0..V-1: uint16 when
    V <= 2**16, so that V - 1 fits 16 bits, and int32 otherwise."""
    return np.uint16 if nv <= 2**16 else np.int32


# positions among fewer faces than this fit int32 (`position_dtype`)
_INT32_POSITIONS = 2**31


def position_dtype(count: int) -> type:
    """The width of a position among `count` faces, or of -1 for an absent
    face: int32 when count < 2**31, so every position 0..count-1 fits,
    and int64 otherwise."""
    return np.int32 if count < _INT32_POSITIONS else np.int64


def key_dtype(prefixes: int, nv: int) -> type:
    """The width of the keys rank(prefix) * V + last id of faces whose
    prefixes number `prefixes` (1 for the vertices): every key is below
    prefixes * V, so int32 when that is at most 2**31, and int64
    otherwise."""
    return np.int32 if prefixes * nv <= 2**31 else np.int64


def weight_dtype(tops: int) -> type:
    """The width of a weight in a complex of `tops` maximal simplices: a
    weight counts maximal simplices, so it is at most `tops`; int32 when
    tops < 2**31, and int64 otherwise."""
    return np.int32 if tops < 2**31 else np.int64


def _id_bound(cols: list) -> int:
    """V, one more than the largest id in the id columns `cols`.  Raises
    EmptyInput when they hold no id, and NonDenseIds unless they are
    equal-length 1-D integer arrays of ids from 0 to below their entry
    count, past which 0..V-1 cannot all occur: checked in O(size)."""
    if not cols or not len(cols[0]):
        raise EmptyInput("a complex needs at least one maximal simplex with a vertex")
    if any(not isinstance(c, np.ndarray) or c.ndim != 1 or c.dtype.kind not in "iu"
           or len(c) != len(cols[0]) for c in cols):
        raise NonDenseIds("maximal simplices must be equal-length 1-D columns of integer ids")
    size = len(cols) * len(cols[0])
    lo, hi = min(int(c.min()) for c in cols), max(int(c.max()) for c in cols)
    if lo < 0 or hi >= size:
        raise NonDenseIds(f"vertex ids {lo}..{hi} are not dense ids of {size} entries")
    return hi + 1


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


def _strictly_ascending(cols: list) -> bool:
    """Whether the rows across the equal-length columns `cols` are in
    strictly ascending lexicographic order, which proves them distinct:
    one pass of elementwise comparisons of every row with the next."""
    tied = np.ones(len(cols[0]) - 1, dtype=bool)  # equal on the columns so far
    for c in cols:
        if (tied & (c[1:] < c[:-1])).any():
            return False
        tied &= c[1:] == c[:-1]
    return not tied.any()


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """Where each run of equal values in the sorted array `keys` starts."""
    new = np.empty(len(keys), dtype=bool)
    new[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    return np.flatnonzero(new)


def _face_keys(prefix_rank: np.ndarray, last: np.ndarray, nv: int, dtype, out=None) -> np.ndarray:
    """rank(prefix) * V + last vertex in `dtype`, whatever the dtypes of
    the ranks and ids, into `out` when given (which has that dtype); the
    caller knows that every key fits."""
    out = np.multiply(prefix_rank, nv, out=out, dtype=dtype)
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


class Complex:
    """Pure n-dimensional complex with coface-count weights (module docstring).

    Attributes:
        dim: n.
        rows, keys, counts: per dimension 0..n, the int32 id rows, the
            search keys in `key_dtype` and the weights in `weight_dtype`,
            each level built on first read; V is len(rows[0]).
        simplices: `rows` by another name (module docstring).

    `Complex(cols)` is the one constructor, and it checks its input.
    """

    def __init__(self, cols: list):
        """The closure of the maximal simplices given as the columns `cols`.

        `cols` holds n + 1 equal-length 1-D integer arrays, column j the
        j-th vertex of every maximal simplex, whose entries are dense ids:
        every id in 0..V-1 occurs and no other.  The complex owns the
        columns: it casts each to `vertex_id_dtype(V)` unless it has that
        width, and sorts them in place (module docstring).  Errors come
        in this order: EmptyInput; NonDenseIds for another shape or
        dtype, or for an id out of range before anything of size V is
        allocated (`_id_bound`), then for a missing id, by `bincount` on
        blocks of max(65,536, V) ids; RepeatedVertex, naming the row as
        given; and DuplicateSimplex, for a tie between sorted rows that one
        pass of comparisons finds (`_strictly_ascending`) once they are in
        lexicographic order.
        """
        nv = _id_bound(cols)
        # every id is below V once checked, so the cast keeps it
        cols = [c.astype(vertex_id_dtype(nv), copy=False) for c in cols]
        occurrences = np.zeros(nv, dtype=np.intp)
        block = max(65_536, nv)  # bincount widens ids to intp: a block at a time
        for c in cols:
            for part in np.split(c, range(block, len(c), block)):
                occurrences += np.bincount(part, minlength=nv)
        missing = np.flatnonzero(occurrences == 0)
        if len(missing):
            raise NonDenseIds(f"vertex id {int(missing[0])} is missing from ids 0..{nv - 1}")
        # before the sort, which would leave only the sorted row to name
        repeats = np.zeros(len(cols[0]), dtype=bool)
        for a, b in combinations(cols, 2):
            repeats |= a == b
        if repeats.any():
            first = tuple(int(c[repeats.argmax()]) for c in cols)
            raise RepeatedVertex(f"maximal simplex repeats a vertex: {first}")
        del repeats
        _sort_columns(cols)
        if not _strictly_ascending(cols):
            order = np.lexsort(cols[::-1])
            for j, c in enumerate(cols):
                cols[j] = c[order]
            del order
            if not _strictly_ascending(cols):
                raise DuplicateSimplex("duplicate maximal simplex")
        self.dim = len(cols) - 1
        self._cols = cols
        self._rows = [np.arange(nv, dtype=np.int32).reshape(nv, 1)]
        self._keys = [np.arange(nv, dtype=key_dtype(1, nv))]
        self._counts = [occurrences.astype(weight_dtype(len(cols[0])))]
        # column combination c -> position of every top's face on columns
        # c among the faces of size len(c): the prefixes of the last level
        # built, kept until the top level is built
        self._prefix_rank: dict | None = None
        self._vertex_links: dict[int, tuple["Complex", list[int]]] = {}

    @classmethod
    def from_maximal_simplices(cls, maximal) -> "Complex":
        """The complex whose maximal simplices are the rows of `maximal`.

        `maximal` is a 2-D integer array of dense ids, one maximal simplex
        per row, or anything `np.asarray` makes one of, such as nested
        equal-length lists.  Ragged rows raise MixedDimensions, and the
        shape, dtype and range are checked; then each column is copied
        once in `vertex_id_dtype(V)`, so the caller's array is only read,
        and `Complex` checks the copies and keeps them.
        """
        try:
            tops = np.asarray(maximal)
        except ValueError:
            raise MixedDimensions("maximal simplices must all have the same dimension") from None
        if tops.size and (tops.ndim != 2 or tops.dtype.kind not in "iu"):
            raise NonDenseIds(f"maximal simplices must be a 2-D array of integer ids, "
                              f"got shape {tops.shape} of {tops.dtype}")
        views = list(tops.T) if tops.size else []
        width = vertex_id_dtype(_id_bound(views))
        return cls([c.astype(width) for c in views])

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
        filled, sorted and kept as int32 (`key_dtype`), which sorts about
        twice as fast as int64, and a prefix's search keys are formed in
        the width of the keys they are searched among, so `searchsorted`
        copies neither.  Weights are kept in `weight_dtype`, and prefix
        ranks, positions among the faces below, in `position_dtype`.
        """
        cols, nv, size = self._cols, len(self._rows[0]), self.dim + 1
        weight = weight_dtype(len(cols[0]))
        while len(self._rows) <= d:
            k = len(self._rows) + 1
            if k == 2:
                rank = {(j,): cols[j] for j in range(size - 1)}  # a vertex's position is its id
            else:
                below, keys = self._prefix_rank, self._keys[-1]
                # each searched key is an existing face's, so it fits the keys' width
                rank = {c: np.searchsorted(keys, _face_keys(below[c[:-1]], cols[c[-1]], nv,
                                                            keys.dtype))
                        .astype(position_dtype(len(keys)))
                        for c in combinations(range(size - 1), k - 1)}
            # one buffer for every combination, so that one combination's
            # keys are the largest temporary of the level
            flat = np.empty(len(cols[0]), dtype=key_dtype(len(self._rows[-1]), nv))
            parts, weights = [], []
            for c in combinations(range(size), k):
                _face_keys(rank[c[:-1]], cols[c[-1]], nv, flat.dtype, out=flat)
                flat.sort()
                starts = _run_starts(flat)
                parts.append(flat[starts])
                weights.append(np.diff(starts, append=len(flat)).astype(weight))
            del flat, starts
            merged = np.concatenate(parts)
            weights = np.concatenate(weights)
            del parts
            order = np.argsort(merged, kind="stable")
            merged, weights = merged[order], weights[order]
            del order
            starts = _run_starts(merged)
            uniq = merged[starts]
            counts = np.add.reduceat(weights, starts, dtype=weight)
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

    simplices = rows

    # -- array lookups ---------------------------------------------------------

    def num_simplices(self, i: int) -> int:
        return len(self.rows[i])

    def locate(self, rows: np.ndarray) -> np.ndarray:
        """Positions of ascending id rows (shape (m, d+1)) among the
        d-simplices, int64; -1 if absent.  A vertex's position is its id,
        so the first column needs only a range check; each later column
        a range check and one `searchsorted` among the keys, with the
        search keys formed in the keys' own width.  An id outside 0..V-1
        makes its row absent: clipped into range, every search key is
        below count(j-1) * V, which that width holds (`key_dtype`)."""
        nv = len(self._rows[0])
        pos = rows[:, 0].astype(np.int64)
        found = (pos >= 0) & (pos < nv)
        np.clip(pos, 0, nv - 1, out=pos)
        for j in range(1, rows.shape[1]):
            keys = self.keys[j]
            last = rows[:, j]
            found &= (last >= 0) & (last < nv)
            want = _face_keys(pos, np.clip(last, 0, nv - 1), nv, keys.dtype)
            pos = np.minimum(np.searchsorted(keys, want), len(keys) - 1)
            found &= keys[pos] == want
        pos[~found] = -1
        return pos

    def facets(self, d: int) -> np.ndarray:
        """Shape (count, d+1), 1 <= d <= n: column j holds the position
        among the (d-1)-simplices of each d-simplex without its vertex j,
        in the width `position_dtype` gives for the (d-1)-simplex count.
        At d = 1 that position is the other vertex's id, read from the
        edge rows; above, `locate` finds it."""
        rows = self.rows[d]
        out = np.empty((len(rows), d + 1), dtype=position_dtype(self.num_simplices(d - 1)))
        if d == 1:
            out[...] = rows[:, ::-1]
            return out
        for j in range(d + 1):
            out[:, j] = self.locate(np.delete(rows, j, axis=1))
        return out

    @property
    def vertices(self) -> range:
        return range(len(self._rows[0]))

    # -- vertex links -----------------------------------------------------------

    @cached_property
    def _vertex_tops(self) -> tuple[np.ndarray, np.ndarray]:
        """Vertex-to-top CSR over the stored maximal simplices: those at id
        j are tops[ptr[j]:ptr[j+1]], ascending, as positions in the width
        `position_dtype` gives for the number of maximal simplices."""
        top = np.stack(self._cols, axis=1)
        order = np.argsort(top, axis=None, kind="stable")
        order //= top.shape[1]
        ptr = np.zeros(len(self._rows[0]) + 1, dtype=np.int64)
        np.cumsum(self._counts[0], out=ptr[1:])
        return ptr, order.astype(position_dtype(len(top)))

    def vertex_link(self, v: int) -> tuple["Complex", list[int]]:
        """Link of vertex v, relabeled to dense ids; returns (complex, new_to_old).

        The maximal simplices of Lk(v) are exactly t minus v for the
        maximal t containing v, so the link is itself pure of dimension
        n - 1 with every simplex under a top face.  Memoized, so that
        every call for v returns the same link object: cochains on a link
        (`tests/cochains.py`, `tau_v`) are combined only when they live
        on the identical complex.
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

    # -- text interchange -----------------------------------------------------------

    def to_text(self) -> str:
        names = np.asarray([str(v) for v in self.vertices], dtype=object)
        lines = map(" ".join, names[np.stack(self._cols, axis=1)].tolist())
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
