"""Pure weighted simplicial complexes.

A complex here is always given by its maximal simplices, all of one
dimension n, and stores every face of every maximal simplex.  That
construction makes the complex pure and gives every simplex a top-
dimensional coface, the standing hypothesis for the weight function

    w(s) = number of n-simplices containing s,

so w(t) = 1 for the n-simplices themselves.  Simplices are canonical
ascending vertex tuples; an oriented simplex is any permutation of one,
carrying the sign of the permutation.

The text interchange format is one maximal simplex per line as
whitespace-separated non-negative integer labels, with '#' starting a
comment and blank lines ignored.  Ingestion maps labels to dense ids in
first-appearance order and returns that map alongside the complex.
"""

from __future__ import annotations

from itertools import chain, combinations

import numpy as np

from .errors import (
    DimensionOutOfRange,
    DuplicateSimplex,
    EmptyInput,
    MixedDimensions,
    RepeatedVertex,
    SimplexNotFound,
)

Simplex = tuple  # canonical ascending tuple[int, ...]


def _check_repeated_vertices(tops) -> None:
    for vs in tops:
        if len(set(vs)) != len(vs):
            raise RepeatedVertex(f"maximal simplex repeats a vertex: {vs}")


def orientation_sign(vertices) -> tuple[Simplex, int]:
    """Canonical form of an oriented simplex and the permutation sign.

    The sign is (-1)**inversions of the vertex sequence, e.g.
    orientation_sign([3, 1, 2, 0]) == ((0, 1, 2, 3), -1).
    """
    vs = tuple(vertices)
    if len(set(vs)) != len(vs):
        raise RepeatedVertex(f"oriented simplex has a repeated vertex: {vs}")
    inversions = sum(
        1 for i in range(len(vs)) for j in range(i + 1, len(vs)) if vs[i] > vs[j]
    )
    return tuple(sorted(vs)), -1 if inversions % 2 else 1


class Complex:
    """Pure n-dimensional complex with coface-count weights.

    Attributes:
        dim: n.
        simplices: per dimension 0..n, the canonical simplices in
            lexicographic order.
        index: per dimension, simplex tuple -> position.
        weights: per dimension, aligned with `simplices`; always int.
    """

    def __init__(self, dim: int, simplices, index, weights):
        self.dim = dim
        self.simplices = simplices
        self.index = index
        self.weights = weights
        self._vertex_links: dict[int, tuple["Complex", list[int]]] = {}

    @classmethod
    def from_maximal_simplices(cls, maximal) -> "Complex":
        """The closure of `maximal` with its face and weight tables.

        Labels are ranked to dense ids in sorted order, so lexicographic
        order on id tuples is lexicographic order on label tuples.  The
        faces of each size k come from the k-column combinations of the
        sorted id rows; a face's int64 key is rank(prefix) * V + last
        vertex, which preserves that order and stays below the number of
        (k-1)-faces times V.  One sort per size gives the distinct faces
        in order, and the run lengths are the weights.  The tuples keep
        the caller's label objects.
        """
        tops = [tuple(raw) for raw in maximal]
        if not tops:
            raise EmptyInput("a complex needs at least one maximal simplex")
        size = len(tops[0])
        if len(set(map(len, tops))) != 1:
            _check_repeated_vertices(tops)
            raise MixedDimensions("maximal simplices must all have the same dimension")
        labels = sorted(set(chain.from_iterable(tops)))
        rank = {lab: j for j, lab in enumerate(labels)}
        nv = len(labels)
        ids = np.fromiter(map(rank.__getitem__, chain.from_iterable(tops)),
                          dtype=np.int32, count=len(tops) * size)
        ids = np.sort(ids.reshape(len(tops), size), axis=1)
        if size > 1:
            bad = np.flatnonzero((ids[:, 1:] == ids[:, :-1]).any(axis=1))
            if len(bad):
                _check_repeated_vertices(tops[: bad[0] + 1])
        # fromiter keeps each label one element, even a tuple
        label_of = np.fromiter(labels, dtype=object, count=nv)

        simplices = []
        index = []
        weights = []
        faces = np.empty((1, 0), dtype=np.int32)  # the one empty face
        prefix_rank = {(): np.zeros(len(tops), dtype=np.int64)}
        for k in range(1, size + 1):
            combos = list(combinations(range(size), k))
            keys = np.concatenate(
                [prefix_rank[c[:-1]] * nv + ids[:, c[-1]] for c in combos])
            order = np.argsort(keys)
            ordered = keys[order]
            starts = np.flatnonzero(
                np.concatenate(([True], ordered[1:] != ordered[:-1])))
            counts = np.diff(np.append(starts, len(ordered)))
            uniq = ordered[starts]
            faces = np.concatenate(
                [faces[uniq // nv], (uniq % nv).astype(np.int32)[:, None]], axis=1)
            if k < size:
                # position of every (top, combo) face among the distinct faces
                pos = np.empty(len(keys), dtype=np.int64)
                pos[order] = np.cumsum(
                    np.concatenate(([0], ordered[1:] != ordered[:-1])))
                prefix_rank = dict(zip(combos, np.split(pos, len(combos))))
            del keys, order, ordered, starts, uniq
            level = list(zip(*(label_of[faces[:, j]].tolist() for j in range(k))))
            simplices.append(level)
            index.append(dict(zip(level, range(len(level)))))
            weights.append(counts.tolist())
        if len(faces) != len(tops):
            raise DuplicateSimplex("duplicate maximal simplex")
        return cls(size - 1, simplices, index, weights)

    # -- lookups --------------------------------------------------------------

    def num_simplices(self, i: int) -> int:
        return len(self.simplices[i])

    def contains(self, s: Simplex) -> bool:
        d = len(s) - 1
        return 0 <= d <= self.dim and tuple(s) in self.index[d]

    def weight(self, s: Simplex) -> int:
        s = tuple(s)
        d = len(s) - 1
        if not self.contains(s):
            raise SimplexNotFound(f"{s} is not a simplex of this complex")
        return self.weights[d][self.index[d][s]]

    @property
    def vertices(self) -> list[int]:
        return [s[0] for s in self.simplices[0]]

    # -- subcomplexes -----------------------------------------------------------

    def star(self, s: Simplex) -> "Complex":
        """Closure of the maximal simplices containing s; keeps vertex ids."""
        s = tuple(s)
        if not self.contains(s):
            raise SimplexNotFound(f"{s} is not a simplex of this complex")
        sset = set(s)
        tops = [t for t in self.simplices[self.dim] if sset.issubset(t)]
        return Complex.from_maximal_simplices(tops)

    def link(self, s: Simplex) -> tuple["Complex", list[int]]:
        """Link of s, relabeled to dense ids; returns (complex, new_to_old).

        The maximal simplices of Lk(s) are exactly t\\s for the maximal
        t containing s, so the link is itself pure of dimension
        n - dim(s) - 1 with every simplex under a top face.
        """
        s = tuple(s)
        if not self.contains(s):
            raise SimplexNotFound(f"{s} is not a simplex of this complex")
        if len(s) == self.dim + 1:
            raise DimensionOutOfRange("the link of a maximal simplex is empty")
        sset = set(s)
        residues = [
            tuple(v for v in t if v not in sset)
            for t in self.simplices[self.dim]
            if sset.issubset(t)
        ]
        old_ids = sorted({v for r in residues for v in r})
        dense = {v: i for i, v in enumerate(old_ids)}
        relabeled = [tuple(dense[v] for v in r) for r in residues]
        return Complex.from_maximal_simplices(relabeled), old_ids

    def vertex_link(self, v: int) -> tuple["Complex", list[int]]:
        """Memoized link((v,)); vertex links recur in every localization op."""
        if v not in self._vertex_links:
            self._vertex_links[v] = self.link((v,))
        return self._vertex_links[v]

    # -- invariant checks ---------------------------------------------------------

    def check_weight_identity(self) -> bool:
        """Sum of (i+1)-coface weights of sigma equals (n-i) * w(sigma), all i < n."""
        for i in range(self.dim):
            acc = [0] * len(self.simplices[i])
            idx = self.index[i]
            for t, wt in zip(self.simplices[i + 1], self.weights[i + 1]):
                for face in combinations(t, i + 1):
                    acc[idx[face]] += wt
            target = self.dim - i
            for got, ws in zip(acc, self.weights[i]):
                if got != target * ws:
                    return False
        return True

    # -- text interchange -----------------------------------------------------------

    def to_text(self) -> str:
        lines = [" ".join(str(v) for v in t) for t in self.simplices[self.dim]]
        return "\n".join(lines) + "\n"

    def __repr__(self) -> str:
        sizes = ", ".join(str(len(level)) for level in self.simplices)
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
            if not tok.isdigit():
                raise ValueError(f"line {lineno}: label {tok!r} is not a non-negative integer")
            labels.append(int(tok))
        for lab in labels:
            if lab not in label_map:
                label_map[lab] = len(label_map)
        tops.append(tuple(label_map[lab] for lab in labels))
    return Complex.from_maximal_simplices(tops), label_map
