"""Certified minimal polynomials, spectra, and cohomology ranks.

The independent oracle used here: the operators are self-adjoint for the
weighted pairing, hence diagonalizable, so their minimal polynomial equals
the squarefree part of the characteristic polynomial.  sympy computes the
characteristic polynomial by an unrelated algorithm (Berkowitz), which
cross-checks the Krylov engine on every small instance.
"""

import itertools
import math
import random

import numpy as np
import pytest
import sympy

from garland import spectra
from garland.complexes import from_maximal_simplices
from garland.errors import CertificationFailed, NoNonzeroRoot, NotSquarefree
from garland.exactla import dense_from_entries
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

from identities import laplacian_csr_by_apply, star_union

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
        short = true // P(0, 1)
        assert short * P(0, 1) == true
        # lifted(A) = first * I vanishes modulo the first certification
        # prime only, so one prime alone would accept it
        first = next(spectra._prime_stream(int(np.diff(indptr).max())))
        lifted = true + P(first)
        for cand, kills in ((true, True), (short, False), (lifted, False)):
            assert sympy_annihilates(op, cand) is kills
            assert certify_annihilates(op.dim, indptr, indices, data, L, cand) is kills
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
        for cand, kills in ((true, True), (true // P(0, 1), False)):
            assert certify_annihilates(op.dim, op.indptr, op.indices, op.data,
                                       op.L, cand) is kills


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


def test_report_integer_candidates():
    rep = compute_spectral_report(simplex(3), 1, integer_candidates=range(0, 6))
    assert rep.integer_eigenvalues == {
        0: True, 1: False, 2: False, 3: False, 4: True, 5: False
    }


# -- reduced cohomology -------------------------------------------------------


def test_cohomology_of_contractible_complexes():
    for n in (1, 2, 3):
        assert reduced_cohomology_ranks(simplex(n)) == [0] * (n + 1)


def test_cohomology_of_circle_and_spheres():
    assert reduced_cohomology_ranks(CIRCLE) == [0, 1]
    assert reduced_cohomology_ranks(OCTAHEDRON) == [0, 0, 1]
    assert reduced_cohomology_ranks(TWO_EDGES) == [1, 0]


def test_vanishing_certificate_is_one_sided():
    # True certifies rank 0; a positive rank can only come back None
    for cx in (CIRCLE, OCTAHEDRON, TWO_EDGES, simplex(2)):
        ranks = reduced_cohomology_ranks(cx)
        for i, r in enumerate(ranks):
            got = reduced_cohomology_vanishes(cx, i)
            assert got in (True, None)
            assert (got is True) == (r == 0)
