"""Certified minimal polynomials, spectra, and cohomology ranks.

The independent oracle used here: the operators are self-adjoint for the
weighted pairing, hence diagonalizable, so their minimal polynomial equals
the squarefree part of the characteristic polynomial.  sympy computes the
characteristic polynomial by an unrelated algorithm (Berkowitz), which
cross-checks the Krylov engine on every small instance.
"""

import itertools
import math
import os
import random

import numpy as np
import pytest
import sympy

from garland import spectra
from garland.complexes import from_maximal_simplices
from garland.gf import poly_mul
from garland.harness import Instance, default_grid, get_building, spectral_report
from garland.errors import CertificationFailed, NoNonzeroRoot, NotSquarefree
from garland.laplace import LinearOperatorHandle, assemble_matrix
from garland.building import witness_columns
from garland.polyq import RatPolynomial
from garland.rationals import QQ, QQ1
from garland.reference import reference_minimal_polynomial
from garland.spectra import (
    SpectralReport,
    certify_annihilates,
    compute_spectral_report,
    extract_extremes,
    is_eigenvalue,
    minimal_polynomial,
    reduced_cohomology_ranks,
    reduced_cohomology_vanishes,
    squarefree_certify,
)

from dense import dense_from_entries
from identities import laplacian_csr_by_apply, star_union
from rational_isolation import poly_div

CIRCLE = from_maximal_simplices([(0, 1), (1, 2), (0, 2)])
TWO_EDGES = from_maximal_simplices([(0, 1), (2, 3)])
OCTAHEDRON = from_maximal_simplices(
    [(0, 2, 4), (0, 2, 5), (0, 3, 4), (0, 3, 5),
     (1, 2, 4), (1, 2, 5), (1, 3, 4), (1, 3, 5)]
)


def P(*coeffs):
    return RatPolynomial(tuple(QQ(c) for c in coeffs))


def simplex(n):
    return from_maximal_simplices([tuple(range(n + 1))])


def b_coefficients(p, L):
    """Integer coefficients of L^d p(x / L): a candidate p for A = B / L, moved to B."""
    scaled = p.scale_roots(QQ(L))
    assert all(c.denominator == 1 for c in scaled.coeffs)
    return [int(c) for c in scaled.coeffs]


def sympy_matrix(op):
    rows = dense_from_entries(op.dim, op.dim, op.entries)
    return sympy.Matrix([[sympy.Rational(str(v)) for v in row] for row in rows])


def sympy_minpoly(op):
    """Squarefree part of the characteristic polynomial, via sympy."""
    m = sympy_matrix(op)
    x = sympy.Symbol("x")
    cp = m.charpoly(x).as_expr()
    sf = sympy.quo(cp, sympy.gcd(cp, sympy.diff(cp, x)), x)
    poly = sympy.Poly(sympy.monic(sf, x), x)
    coeffs = list(reversed(poly.all_coeffs()))
    return RatPolynomial(tuple(QQ(c.p, c.q) for c in coeffs))


def sympy_annihilates(op, p):
    """Whether p(A) is the zero matrix, by exact sympy arithmetic."""
    m = sympy_matrix(op)
    acc = sympy.zeros(op.dim)
    power = sympy.eye(op.dim)
    for c in p.coeffs:
        acc += sympy.Rational(str(c)) * power
        power = m * power
    return acc == sympy.zeros(op.dim)


# -- minimal polynomials ------------------------------------------------------


def test_edge_laplacian_minpoly():
    op = assemble_matrix(from_maximal_simplices([(0, 1)]), 0)
    assert minimal_polynomial(op) == P(0, -2, 1)  # x(x - 2)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_simplex_minpoly_all_degrees(n):
    c = simplex(n)
    for i in range(n):
        p = minimal_polynomial(assemble_matrix(c, i))
        assert p == P(0, -(n + 1), 1)  # x(x - (n+1))


def test_circle_minpoly_against_oracle():
    op = assemble_matrix(CIRCLE, 0)
    p = minimal_polynomial(op)
    assert p == sympy_minpoly(op)
    # 3-cycle: adjacency eigenvalues {2, -1}, edge weights 1, vertex weights 2
    assert p == P(0, QQ(-3, 2), 1)


def test_octahedron_minpoly_against_oracle():
    for i in (0, 1):
        op = assemble_matrix(OCTAHEDRON, i)
        assert minimal_polynomial(op) == sympy_minpoly(op)


def test_incidence_building_minpoly_against_oracle(b12):
    op = assemble_matrix(b12.complex, 0)
    p = minimal_polynomial(op)
    assert p == sympy_minpoly(op)
    assert p == P(0, QQ(-14, 9), QQ(43, 9), -4, 1)
    # certified annihilation is part of the contract
    assert sympy_annihilates(op, p)


def test_routes_and_seeds_agree(b12):
    # the modular certificate agrees with exact evaluation of p(A): it
    # accepts the minimal polynomial and rejects wrong candidates
    for op in (assemble_matrix(b12.complex, 0), assemble_matrix(OCTAHEDRON, 1)):
        assert op.dim <= 30
        indptr, indices, data, L = op.indptr, op.indices, op.data, op.L
        true = sympy_minpoly(op)
        short = poly_div(true, P(0, 1))
        assert short * P(0, 1) == true
        # lifted(A) = first * I vanishes modulo the first certification
        # prime only, so one prime alone would accept it
        first = next(spectra._prime_stream(int(np.diff(indptr).max())))
        lifted = RatPolynomial((true.coeffs[0] + first, *true.coeffs[1:]))
        for cand, kills in ((true, True), (short, False), (lifted, False)):
            assert sympy_annihilates(op, cand) is kills
            coeffs = b_coefficients(cand, L)
            assert certify_annihilates(op.dim, indptr, indices, data, coeffs) is kills
    op = assemble_matrix(b12.complex, 0)
    assert minimal_polynomial(op, seed=0) == minimal_polynomial(op, seed=7)


def test_witness_columns_do_not_change_the_answer(b12, b22):
    for b, i in ((b12, 0), (b22, 0), (b22, 1)):
        op = assemble_matrix(b.complex, i)
        full = minimal_polynomial(op)
        restricted = minimal_polynomial(op, witness_columns=witness_columns(b, i))
        assert full == restricted


def test_seed_ladder_falls_back_to_basis_vectors(b12, b22, monkeypatch):
    # the all-ones vector lies in ker Delta_0, so every random rung sees
    # only x and the basis-vector rung has to find the rest
    monkeypatch.setattr(spectra, "_seed_values", lambda n, index, seed: [1] * n)
    krylov = spectra._krylov_annihilator_mod_p
    seeded = set()

    def recording(n, bp, p, v0):
        if v0.count(0) == n - 1:
            seeded.add(v0.index(1))
        return krylov(n, bp, p, v0)

    monkeypatch.setattr(spectra, "_krylov_annihilator_mod_p", recording)
    b12_op = assemble_matrix(b12.complex, 0)
    b22_op = assemble_matrix(b22.complex, 0)
    got = []
    for op, columns in ((b12_op, None), (b22_op, witness_columns(b22, 0))):
        seeded.clear()
        got.append(minimal_polynomial(op, witness_columns=columns))
        assert got[-1] == sympy_minpoly(op)
        # every certification column was seeded: the rung never stops early
        assert seeded == set(range(op.dim) if columns is None else columns)
    assert got[0] == P(0, QQ(-14, 9), QQ(43, 9), -4, 1)


def test_each_rung_draws_fresh_seeds(b22, monkeypatch):
    # seeds 0-4 lie in ker Delta_0, so the first rung stops early on x
    # alone and fails certification; the next rung must not reuse them
    draw = spectra._seed_values
    monkeypatch.setattr(spectra, "_seed_values",
                        lambda n, index, seed: [1] * n if index < 5 else draw(n, index, seed))
    krylov = spectra._krylov_annihilator_mod_p
    basis_seeded = []

    def recording(n, bp, p, v0):
        if list(v0).count(0) == n - 1:
            basis_seeded.append(p)
        return krylov(n, bp, p, v0)

    monkeypatch.setattr(spectra, "_krylov_annihilator_mod_p", recording)
    op = assemble_matrix(b22.complex, 0)
    assert minimal_polynomial(op) == sympy_minpoly(op)
    assert basis_seeded == []  # the second rung found it


def test_uncertified_candidates_raise(b12, monkeypatch):
    monkeypatch.setattr(spectra, "certify_annihilates", lambda *args, **kw: False)
    with pytest.raises(CertificationFailed):
        minimal_polynomial(assemble_matrix(b12.complex, 0))


@pytest.mark.parametrize("max_nnz", [1, 7, 10**6, 2**40])
def test_prime_stream_respects_int64_cap(max_nnz):
    p = next(spectra._prime_stream(max_nnz))
    assert sympy.isprime(p)
    assert max_nnz * (p - 1) ** 2 < 2**62
    # the cap is tight: the next prime would break p^2 * max_nnz <= 2^62
    # or the 2^30 ceiling
    q = sympy.nextprime(p)
    assert q >= 2**30 or max_nnz * q**2 > 2**62


def test_bad_reduction_prime_is_discarded(b12, monkeypatch):
    op = assemble_matrix(b12.complex, 0)
    n = op.dim
    true = minimal_polynomial(op)
    # B = 3A has minimal polynomial x(x - 6)(x^2 - 6x + 7); mod 3 the roots
    # 0 and 6 collide and the minimal polynomial of B mod 3 drops degree
    bad = 3
    basis_lcm = spectra._minpoly_mod_p(
        n, op.indptr, op.indices, op.data, bad,
        spectra._ladder_seeds(n, 0, None, range(n)), stop_early=False,
    )
    assert len(basis_lcm) - 1 < true.degree
    stream = spectra._prime_stream
    minpoly_mod_p = spectra._minpoly_mod_p
    seen = {}

    def recording(*args, **kwargs):
        seen[args[4]] = mp = minpoly_mod_p(*args, **kwargs)
        return mp

    monkeypatch.setattr(spectra, "_prime_stream",
                        lambda max_nnz: itertools.chain([bad], stream(max_nnz)))
    monkeypatch.setattr(spectra, "_minpoly_mod_p", recording)
    assert minimal_polynomial(op) == true
    assert len(seen[bad]) - 1 < true.degree


def test_scale_beyond_int64():
    # centers of K_{1,k} have weight k, so L = lcm(1..47) > 2**63: an
    # int64 lcm or int64 data would wrap without an error
    cx, groups = star_union(47)
    op = assemble_matrix(cx, 0)
    L = math.lcm(*range(1, 48))
    assert L > 2**63 and op.L == L
    indptr, indices, data, oracle_L = laplacian_csr_by_apply(cx, 0, groups)
    assert oracle_L == L
    assert (op.indptr.tolist(), op.indices.tolist(), op.data.tolist()) == (indptr, indices, data)
    # each star has spectrum {0, 1, 2} ({0, 2} for K_{1,1})
    assert minimal_polynomial(op) == P(0, 2, -3, 1)
    report = compute_spectral_report(cx, 0)
    assert report.den_bound == L
    assert [r.value for r in report.isolation.roots] == [0, 1, 2]


def test_int64_and_python_int_reductions_agree(b22):
    # int64 data and the same entries as Python ints in an object array
    # reduce to the same int64 residues
    for i in (0, 1):
        data = assemble_matrix(b22.complex, i).data
        assert data.dtype == np.int64
        for p in (3, 1_000_003, next(spectra._prime_stream(7))):
            got = spectra._reduce(data, p)
            assert got.dtype == np.int64
            assert np.array_equal(got, spectra._reduce(data.astype(object), p))
            assert got.tolist() == [x % p for x in data.tolist()]
    # entries past int64 are Python ints (test_scale_beyond_int64 runs that path)
    big = assemble_matrix(star_union(47)[0], 0).data
    assert big.dtype == object and max(map(abs, big)) >= 2**63
    got = spectra._reduce(big, 1_000_003)
    assert got.dtype == np.int64 and got.tolist() == [x % 1_000_003 for x in big]


def python_inf_norm(indptr, data):
    ptr = [int(x) for x in indptr]
    return max((sum(abs(x) for x in data[ptr[r]:ptr[r + 1]]) for r in range(len(ptr) - 1)),
               default=0)


def test_inf_norm_in_int64_matches_python_rows(b22):
    # the certification bound H depends on A only through ||B||_inf, so
    # equal norms mean the same H and the same primes
    ops = [assemble_matrix(b22.complex, i) for i in (0, 1)]
    ops.append(assemble_matrix(star_union(47)[0], 0))
    assert [op.data.dtype for op in ops] == [np.int64, np.int64, object]
    for op in ops:
        max_nnz = int(np.diff(op.indptr).max())
        assert spectra._inf_norm(op.indptr, op.data, max_nnz) == \
            python_inf_norm(op.indptr, op.data.tolist())
    # empty rows at the start, in the middle and at the end
    indptr = np.array([0, 0, 2, 2, 5, 5, 5], dtype=np.int64)
    data = [3, -4, 1, -1, 7]
    for d in (np.array(data, dtype=np.int64), np.array(data, dtype=object)):
        assert spectra._inf_norm(indptr, d, 3) == 9
    empty = np.zeros(4, dtype=np.int64)
    assert spectra._inf_norm(empty, np.zeros(0, dtype=np.int64), 0) == 0
    # int64 entries whose row sums could pass 2**63 are summed as Python ints
    big = np.array([2**62, 2**62, 2**62], dtype=np.int64)
    indptr = np.array([0, 3], dtype=np.int64)
    assert spectra._inf_norm(indptr, big, 3) == 3 * 2**62


def test_matrix_data_is_one_array_from_assembly_to_certificate(b22):
    # b22 fits int64; the star union's L = lcm(1..47) does not, and its
    # data are the oracle's Python ints in an object array
    cx, groups = star_union(47)
    small = assemble_matrix(b22.complex, 1)
    big = assemble_matrix(cx, 0)
    assert isinstance(small.data, np.ndarray) and small.data.dtype == np.int64
    assert isinstance(big.data, np.ndarray) and big.data.dtype == object
    assert big.data.tolist() == laplacian_csr_by_apply(cx, 0, groups)[2]
    # each star has spectrum {0, 1, 2} ({0, 2} for K_{1,1})
    for op, true in ((small, reference_minimal_polynomial(2, 2, 1)), (big, P(0, 2, -3, 1))):
        assert minimal_polynomial(op) == true
        for cand, kills in ((true, True), (poly_div(true, P(0, 1)), False)):
            assert certify_annihilates(op.dim, op.indptr, op.indices, op.data,
                                       b_coefficients(cand, op.L)) is kills


def test_report_runs_the_squarefree_test_once(b12, monkeypatch):
    # the isolator's Sturm chain is the squarefree test on the report path
    def forbidden(p):
        raise AssertionError("second squarefree test")

    monkeypatch.setattr(spectra, "squarefree_certify", forbidden)
    monkeypatch.setattr(spectra, "is_squarefree", forbidden)
    report = compute_spectral_report(b12.complex, 0)
    assert [r.value for r in report.isolation.roots if r.is_rational] == [0, 2]
    monkeypatch.setattr(spectra, "minimal_polynomial",
                        lambda *args, **kwargs: P(-1, 1) * P(-1, 1))
    with pytest.raises(NotSquarefree):
        compute_spectral_report(b12.complex, 0)


def test_seed_vectors_are_a_fixed_stream():
    a = spectra._seed_values(50, 3, -7)
    assert np.array_equal(a, spectra._seed_values(50, 3, -7))
    assert not np.array_equal(a, spectra._seed_values(50, 4, -7))
    assert a.any() and a.min() >= -3 and a.max() <= 3
    # a one-entry vector is redrawn until it is nonzero
    assert all(spectra._seed_values(1, k, 0)[0] != 0 for k in range(30))


def test_zero_dimensional_operator():
    h = LinearOperatorHandle(0, np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.int64),
                             np.zeros(0, dtype=np.int64), 1)
    assert minimal_polynomial(h) == P(1)


# -- helpers around the minimal polynomial ------------------------------------


def test_is_eigenvalue():
    p = P(0, -2, 1)
    assert is_eigenvalue(p, 0) and is_eigenvalue(p, 2)
    assert not is_eigenvalue(p, 1)
    assert is_eigenvalue(P(QQ(-1, 3), 1), QQ(1, 3))


def test_squarefree_certify():
    squarefree_certify(P(0, -2, 1))
    with pytest.raises(NotSquarefree):
        squarefree_certify(P(-1, 1) * P(-1, 1))


def test_extract_extremes():
    from garland.polyq import isolate_real_roots

    iso = isolate_real_roots(P(0, 1) * P(-2, 1) * P(-5, 1))
    m, M = extract_extremes(iso)
    assert m.value == 2 and M.value == 5
    with pytest.raises(NoNonzeroRoot):
        extract_extremes(isolate_real_roots(P(0, 1)))


# -- spectral reports ---------------------------------------------------------


def test_spectral_report_shape(b12):
    rep = compute_spectral_report(b12.complex, 0, instance={"ell": 1, "q": 2, "i": 0})
    assert isinstance(rep, SpectralReport)
    assert rep.dim == 14
    assert rep.degree == 0
    assert rep.m.lo > 0 and not rep.m.is_rational
    assert rep.M.value == 2
    assert rep.integer_eigenvalues == {0: True, 1: False, 2: True}
    d = rep.to_json_dict()
    assert d["minpoly"] == "0/1 -14/9 43/9 -4/1 1/1"
    assert d["instance"] == {"ell": 1, "q": 2, "i": 0}
    assert d["den_bound"] >= 1
    assert [r["is_rational"] for r in d["roots"]] == [True, False, False, True]
    assert set(d["timings"]) == {"assemble_s", "minpoly_s", "isolate_s"}
    assert d["m"]["lo"] and d["M"]["exact"] == "2/1"


def test_report_width_is_respected():
    rep = compute_spectral_report(CIRCLE, 0, width="1/8")
    for root in rep.isolation.roots:
        if not root.is_rational:
            assert root.hi - root.lo <= QQ(1, 8)


# -- float shadow -------------------------------------------------------------


def shadow_mismatches(op, weights, roots, tol=1e-8):
    """Eigenvalues of Delta far from every root interval, and intervals with none.

    Delta = D^-1 X for X = d^T W d and D = diag(weights), so Delta is
    similar to the symmetric D^-1/2 X D^-1/2 = D^1/2 (B / L) D^-1/2, whose
    float eigenvalues `eigvalsh` gives.  A float check proves nothing; it
    catches a certified polynomial with a root that is no eigenvalue.
    """
    n = op.dim
    a = np.zeros((n, n))
    rows = np.repeat(np.arange(n), np.diff(op.indptr))
    a[rows, op.indices] = np.asarray(op.data, dtype=float) / op.L
    s = np.sqrt(np.asarray(weights, dtype=float))
    # in place, so that n ~ 5000 holds few dense n x n copies at once
    a *= s[:, None]
    a /= s[None, :]
    skew = a - a.T
    assert np.abs(skew, out=skew).max() <= tol
    del skew
    eig = np.linalg.eigvalsh(a)
    spans = [(float(r.lo) - tol, float(r.hi) + tol) for r in roots]
    stray = [e for e in eig if not any(lo <= e <= hi for lo, hi in spans)]
    empty = [r for r, (lo, hi) in zip(roots, spans) if not ((lo <= eig) & (eig <= hi)).any()]
    return stray, empty


def _building_shadow_mismatches(ell, q, i, cache):
    cx = get_building(ell, q).complex
    rep = spectral_report(Instance.building(ell, q), i, cache_dir=cache)
    op = assemble_matrix(cx, i)
    return shadow_mismatches(op, cx.counts[i], rep.isolation.roots)


def test_float_shadow_matches_the_certified_roots_on_the_default_grid(shared_cache):
    for ell, q, i in default_grid():
        assert _building_shadow_mismatches(ell, q, i, shared_cache) == ([], []), (ell, q, i)


@pytest.mark.skipif(os.environ.get("GARLAND_EXTENDED") != "1",
                    reason="n = 4650 takes seconds and a dense float matrix; "
                           "runs only with GARLAND_EXTENDED=1")
def test_float_shadow_matches_the_certified_roots_at_321(shared_cache):
    assert _building_shadow_mismatches(3, 2, 1, shared_cache) == ([], [])


def test_krylov_minimality_is_not_guarded_by_certification(b22, monkeypatch):
    # Certification proves q(B) = 0, so it accepts any multiple of min_B.
    # Only the Krylov lower bound makes the result minimal: an annihilator
    # with a spurious factor (x - 7777) is certified, and the float shadow
    # is what notices the root that is no eigenvalue.  (x - 5 would not
    # do: 5 is a root of min_B, and the square fails isolation.)
    krylov = spectra._krylov_annihilator_mod_p

    def padded(n, bp, p, v0):
        return poly_mul(krylov(n, bp, p, v0), [-7777 % p, 1], p)

    monkeypatch.setattr(spectra, "_krylov_annihilator_mod_p", padded)
    rep = spectral_report(Instance.building(2, 2), 1)
    op = assemble_matrix(b22.complex, 1)
    assert rep.minpoly.degree == 11  # min_B has degree 10, roots k/3 for k = 0..9
    assert rep.minpoly == reference_minimal_polynomial(2, 2, 1) * P(QQ(-7777, op.L), 1)
    stray, empty = shadow_mismatches(op, b22.complex.counts[1], rep.isolation.roots)
    assert stray == []
    assert [r.value for r in empty] == [QQ(7777, op.L)]


# -- reduced cohomology -------------------------------------------------------


def test_cohomology_of_contractible_complexes():
    for n in (1, 2, 3):
        assert reduced_cohomology_ranks(simplex(n)) == [0] * (n + 1)


def test_cohomology_of_circle_and_spheres():
    assert reduced_cohomology_ranks(CIRCLE) == [0, 1]
    assert reduced_cohomology_ranks(OCTAHEDRON) == [0, 0, 1]
    assert reduced_cohomology_ranks(TWO_EDGES) == [1, 0]


def test_vanishing_certificate_is_one_sided():
    # the mod-p bound can only certify rank 0; the exact ranks decide the rest
    for cx in (CIRCLE, OCTAHEDRON, TWO_EDGES, simplex(2)):
        ranks = reduced_cohomology_ranks(cx)
        for i, r in enumerate(ranks):
            got = reduced_cohomology_vanishes(cx, i)
            assert type(got) is bool
            assert got == (r == 0)
