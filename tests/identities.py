"""Exact-identity battery for the weighted cochain calculus.

Shared by the granular property tests and the acceptance gate.  Every
check is an exact rational equality; failures come back as strings so a
caller can assert on an empty list and still see every violation at once.
"""

import random
from itertools import combinations
from math import lcm

import numpy as np

from garland.complexes import Complex, from_maximal_simplices
from garland.errors import DuplicateSimplex, EmptyInput, MixedDimensions, RepeatedVertex
from garland.laplace import assemble_matrix
from garland.rationals import QQ, QQ0
from garland.spectra import minimal_polynomial
from garland.polyq import isolate_real_roots

from cochains import (
    Cochain,
    adjoint_delta,
    check_weight_identity,
    coboundary,
    index,
    inner_product,
    laplacian_apply,
    rho_v,
    simplices,
    tau_v,
    types_of,
)
from dense import dense_from_entries, kernel_basis, rational_entries


def random_pure_complex(rng: random.Random) -> Complex:
    """A random pure complex of dimension <= 3 on at most 12 vertices."""
    n = rng.randint(1, 3)
    nv = rng.randint(n + 1, 12)
    pool = list(range(nv))
    count = rng.randint(1, 10)
    tops = set()
    for _ in range(count):
        tops.add(tuple(sorted(rng.sample(pool, n + 1))))
    # ranked to dense ids; ranking keeps the order, so every row stays ascending
    _, dense = np.unique(sorted(tops), return_inverse=True)
    return from_maximal_simplices(dense.reshape(len(tops), n + 1))


def reference_face_tables(maximal):
    """(dim, simplices, index, weights) by counting every face in a dict.

    The reference for Complex.from_maximal_simplices: same checks, same
    errors, same layout.
    """
    tops = []
    for raw in maximal:
        vs = tuple(raw)
        if len(set(vs)) != len(vs):
            raise RepeatedVertex(f"maximal simplex repeats a vertex: {vs}")
        tops.append(tuple(sorted(vs)))
    if not tops:
        raise EmptyInput("a complex needs at least one maximal simplex")
    size = len(tops[0])
    if any(len(t) != size for t in tops):
        raise MixedDimensions("maximal simplices must all have the same dimension")
    if not size:
        raise EmptyInput("a maximal simplex needs at least one vertex")
    if len(set(tops)) != len(tops):
        raise DuplicateSimplex("duplicate maximal simplex")
    counts: list[dict] = [dict() for _ in range(size)]
    for t in tops:
        for k in range(1, size + 1):
            level = counts[k - 1]
            for face in combinations(t, k):
                level[face] = level.get(face, 0) + 1
    simplices, index, weights = [], [], []
    for level in counts:
        ordered = sorted(level)
        simplices.append(ordered)
        index.append({s: i for i, s in enumerate(ordered)})
        weights.append([level[s] for s in ordered])
    return size - 1, simplices, index, weights


def star_union(kmax: int) -> tuple[Complex, list[list[int]]]:
    """Disjoint union of the stars K_{1,k}, k = 1..kmax, and column groups.

    Centers have weight k, so the degree-0 scale L is lcm(1..kmax).
    Group g holds the g-th vertex of every star that has one: no two
    lie in the same star, so their Laplacian columns have disjoint
    supports.
    """
    tops, stars, nxt = [], [], 0
    for k in range(1, kmax + 1):
        stars.append(list(range(nxt, nxt + k + 1)))
        tops.extend((nxt, nxt + j) for j in range(1, k + 1))
        nxt += k + 1
    cx = from_maximal_simplices(tops)
    groups = [[index(cx)[0][(star[g],)] for star in stars if g < len(star)]
              for g in range(kmax + 1)]
    return cx, groups


def laplacian_csr_by_apply(cx: Complex, i: int, groups=None):
    """(indptr, indices, data, L) of B = L * Delta on C^i from laplacian_apply.

    The exact-rational oracle for assemble_matrix: column j of Delta is
    Delta e_j.  Columns of one group are applied together; no simplex
    may share a coface with two of them, which is checked, so every
    nonzero of the sum belongs to the one column it shares a coface with.
    """
    n = cx.num_simplices(i)
    if groups is None:
        groups = [[j] for j in range(n)]
    # near[j]: the i-simplices sharing an (i+1)-coface with simplex j, and j
    near = [{j} for j in range(n)]
    for t in simplices(cx)[i + 1]:
        faces = [index(cx)[i][f] for f in combinations(t, i + 1)]
        for a in faces:
            near[a].update(faces)
    rows: list[dict] = [dict() for _ in range(n)]
    for group in groups:
        owner = {}
        for j in group:
            for r in near[j]:
                assert r not in owner, f"columns {owner.get(r)} and {j} reach row {r}"
                owner[r] = j
        members = set(group)
        f = Cochain(cx, i, [QQ(1) if j in members else QQ0 for j in range(n)])
        for r, v in enumerate(laplacian_apply(f).values):
            if v:
                rows[r][owner[r]] = v
    L = lcm(*(v.denominator for row in rows for v in row.values()))
    indptr, indices, data = [0], [], []
    for row in rows:
        for col in sorted(row):
            indices.append(col)
            data.append(int(row[col] * L))
        indptr.append(len(indices))
    return indptr, indices, data, L


def rand_cochain(cx: Complex, degree: int, rng: random.Random) -> Cochain:
    vals = [
        QQ(rng.randrange(-6, 7), rng.choice((1, 1, 2, 3)))
        for _ in range(cx.num_simplices(degree))
    ]
    return Cochain(cx, degree, vals)


def universal_identity_failures(cx: Complex, rng: random.Random, tag: str = "") -> list[str]:
    """All identities that hold on every weighted pure complex.

    Covers: d after d vanishes, (df, g) = (f, delta g), the coface-weight
    identity, the vertex-restriction partition of unity, the two local
    pairing identities for tau_v, and the summation identity that ties
    (Delta f, f) to the star restrictions.
    """
    bad = []
    n = cx.dim
    if not check_weight_identity(cx):
        bad.append(f"{tag}: coface weight identity")
    for i in range(n + 1):
        f = rand_cochain(cx, i, rng)
        g = rand_cochain(cx, i, rng)

        if i <= n - 2:
            if coboundary(coboundary(f)).values != [QQ0] * cx.num_simplices(i + 2):
                bad.append(f"{tag}: d(d f) != 0 at degree {i}")
        if i <= n - 1:
            h = rand_cochain(cx, i + 1, rng)
            if inner_product(coboundary(f), h) != inner_product(f, adjoint_delta(h)):
                bad.append(f"{tag}: (df, h) != (f, delta h) at degree {i}")

        total = Cochain.zeros(cx, i)
        for v in cx.vertices:
            total = total + rho_v(f, v)
        if total != f.scale(QQ(i + 1)):
            bad.append(f"{tag}: sum of rho_v != (i+1) id at degree {i}")

        if i <= n - 1:
            lhs = QQ(i) * inner_product(laplacian_apply(f), f) \
                + QQ(n - i) * inner_product(f, f)
            rhs = QQ0
            for v in cx.vertices:
                rf = rho_v(f, v)
                rhs += inner_product(laplacian_apply(rf), rf)
            if lhs != rhs:
                bad.append(f"{tag}: star-sum identity at degree {i}")

        if i >= 1:
            for v in cx.vertices:
                tf, tg = tau_v(f, v), tau_v(g, v)
                if inner_product(tf, tg) != inner_product(rho_v(f, v), rho_v(g, v)):
                    bad.append(f"{tag}: link pairing of tau_v at degree {i}, v={v}")
                    break
        if 1 <= i <= n - 1:
            for v in cx.vertices:
                rf = rho_v(f, v)
                tf = tau_v(f, v)
                if inner_product(laplacian_apply(rf), rf) != inner_product(
                    laplacian_apply(tf), tf
                ):
                    bad.append(f"{tag}: local Laplacian transfer at degree {i}, v={v}")
                    break
    return bad


def _type_scaled(b, f: Cochain, alpha: int, scale) -> Cochain:
    vals = [
        QQ(scale) * val if types_of(b)[s[0]] == alpha else val
        for s, val in zip(simplices(b.complex)[0], f.values)
    ]
    return Cochain(b.complex, 0, vals)


def rational_eigencochains(b, max_per_eigenvalue: int = 2):
    """Exact (c, f) pairs with Delta f = c f, for each rational eigenvalue c."""
    op = assemble_matrix(b.complex, 0)
    mp = minimal_polynomial(op)
    iso = isolate_real_roots(mp.q, mp.L)
    out = []
    for root in iso.roots:
        if not root.is_rational:
            continue
        c = QQ(root.value)
        rows = dense_from_entries(op.dim, op.dim, rational_entries(op))
        for j in range(op.dim):
            rows[j][j] -= c
        basis = kernel_basis(rows)
        vecs = basis[:max_per_eigenvalue]
        if len(basis) >= 2:
            vecs.append([a + QQ(3) * bb for a, bb in zip(basis[0], basis[1])])
        out.append((c, [Cochain(b.complex, 0, v) for v in vecs]))
    return out


def eigencochain_sum_failures(b, tag: str = "") -> list[str]:
    """Type-rescaling sum rule for exact vertex eigencochains.

    For Delta f = c f and f_alpha equal to f except scaled by R on the
    type-alpha vertices, the sum over types of (Delta f_alpha, f_alpha)
    equals [(l - c)(R - 1)^2 + c (R^2 + l)] (f, f), with l = dim.
    """
    bad = []
    ell = b.complex.dim
    for c, cochains in rational_eigencochains(b):
        for f in cochains:
            if laplacian_apply(f) != f.scale(c):
                bad.append(f"{tag}: kernel vector is not an eigencochain for c={c}")
                continue
            ff = inner_product(f, f)
            for R in (QQ(-1), QQ(0), QQ(1), QQ(2), (QQ(ell) - c) / QQ(ell)):
                total = QQ0
                for alpha in range(ell + 1):
                    fa = _type_scaled(b, f, alpha, R)
                    total += inner_product(laplacian_apply(fa), fa)
                expect = ((QQ(ell) - c) * (R - 1) ** 2 + c * (R * R + QQ(ell))) * ff
                if total != expect:
                    bad.append(f"{tag}: sum rule fails for c={c}, R={R}")
    return bad
