"""Certified minimal polynomials, spectra, and cohomology ranks.

The independent oracle used here: the operators are self-adjoint for the
weighted pairing, hence diagonalizable, so their minimal polynomial equals
the squarefree part of the characteristic polynomial.  sympy computes the
characteristic polynomial by an unrelated algorithm (Berkowitz), which
cross-checks the Krylov engine on every small instance.
"""

import gc
import itertools
import math
import os
import random
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
import sympy

from garland import spectra
from garland.building import flag_complex, witness_columns
from garland.complexes import from_maximal_simplices, from_text
from garland.gf import descending_primes, field_for_order
from garland.harness import Instance, default_grid, get_building, run_instance, spectral_report
from garland.errors import (CertificationFailed, DegreeOutOfRange, MalformedMatrix, NoNonzeroRoot,
                            NotSquarefree)
from garland.laplace import LinearOperatorHandle, assemble_matrix, coboundary_pattern
from garland.polyq import RatPolynomial
from garland.rationals import QQ, QQ1
from garland.reference import reference_minimal_polynomial
from garland.spectra import (
    MinimalPolynomial,
    SpectralReport,
    certify_annihilates,
    compute_spectral_report,
    extract_extremes,
    kernel_dimension,
    minimal_polynomial,
    reduced_cohomology_ranks,
    reduced_cohomology_vanishes,
    report_from_minpoly,
    squarefree_certify,
)

from dense import dense_from_entries, pattern_rows, rational_entries, reference_rank
from identities import laplacian_csr_by_apply, random_pure_complex, star_union
from peak_memory import HAS_VMHWM, PEAK_KIB
from rational_isolation import integer_form, poly_div

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
    return list(integer_form(p, L)[0])


def min_a(op, **kwargs):
    """The certified minimal polynomial of A = B / L, as a rational polynomial."""
    mp = minimal_polynomial(op, **kwargs)
    return RatPolynomial.from_scaled(mp.q, mp.L)


def sympy_matrix(op):
    rows = dense_from_entries(op.dim, op.dim, rational_entries(op))
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
    # min_B = x (x - 2L) with its L: min_A = x (x - 2); the kernel is the constants
    assert minimal_polynomial(op) == MinimalPolynomial((0, -2 * op.L, 1), op.L, 1)
    assert min_a(op) == P(0, -2, 1)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_simplex_minpoly_all_degrees(n):
    c = simplex(n)
    for i in range(n):
        p = min_a(assemble_matrix(c, i))
        assert p == P(0, -(n + 1), 1)  # x(x - (n+1))


def test_circle_minpoly_against_oracle():
    op = assemble_matrix(CIRCLE, 0)
    p = min_a(op)
    assert p == sympy_minpoly(op)
    # 3-cycle: adjacency eigenvalues {2, -1}, edge weights 1, vertex weights 2
    assert p == P(0, QQ(-3, 2), 1)


def test_octahedron_minpoly_against_oracle():
    for i in (0, 1):
        op = assemble_matrix(OCTAHEDRON, i)
        assert min_a(op) == sympy_minpoly(op)


def test_incidence_building_minpoly_against_oracle(b12):
    op = assemble_matrix(b12.complex, 0)
    p = min_a(op)
    assert p == sympy_minpoly(op)
    assert p == P(0, QQ(-14, 9), QQ(43, 9), -4, 1)
    # certified annihilation is part of the contract
    assert sympy_annihilates(op, p)


def _prime_cap(op):
    """(cap, reduce) of op, as `spectra._kernel_setup` decides them for its kernels."""
    return spectra._kernel_setup(op.dim, op.indptr, op.indices, op.data)[3:]


def test_routes_and_seeds_agree(b12, monkeypatch):
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
        first = next(descending_primes(_prime_cap(op)[0]))
        lifted = RatPolynomial((true.coeffs[0] + first, *true.coeffs[1:]))
        for cand, kills in ((true, True), (short, False), (lifted, False)):
            assert sympy_annihilates(op, cand) is kills
            coeffs = b_coefficients(cand, L)
            assert bool(certify_annihilates(op.dim, indptr, indices, data, coeffs)) is kills
        with monkeypatch.context() as m:
            m.setattr(spectra, "descending_primes",
                      lambda cap: iter([next(descending_primes(cap))]))
            assert certify_annihilates(op.dim, indptr, indices, data,
                                       b_coefficients(lifted, L))
    op = assemble_matrix(b12.complex, 0)
    assert minimal_polynomial(op, seed=0) == minimal_polynomial(op, seed=7)


def test_certificate_bound_uses_every_power_of_the_norm(monkeypatch):
    # B = [30] and q = x: q(B) = 30 != 0.  H = sum |c_k| ||B||^k = 30, so
    # the primes run until their product passes 30: 5, 3, 2, 7, and 7
    # sees 30 != 0.  A bound with ||B||^(k // 2) gives H = 1 and stops
    # after 5, which divides 30, and would accept x
    monkeypatch.setattr(spectra, "descending_primes", lambda cap: iter([5, 3, 2, 7, 11]))
    indptr, indices = np.array([0, 1], dtype=np.int64), np.array([0], dtype=np.int64)
    assert not certify_annihilates(1, indptr, indices, np.array([30], dtype=np.int64), [0, 1])
    # x - 30 does annihilate it
    assert certify_annihilates(1, indptr, indices, np.array([30], dtype=np.int64), [-30, 1])


def test_certificate_refuses_a_candidate_that_is_not_monic(b12):
    # 2 min_B annihilates B as well, but min_B is monic and 2 min_B is not
    op = assemble_matrix(b12.complex, 0)
    q = minimal_polynomial(op).q
    args = (op.dim, op.indptr, op.indices, op.data)
    assert certify_annihilates(*args, list(q))
    assert not certify_annihilates(*args, [2 * c for c in q])


def test_certificate_refuses_columns_outside_the_operator(b12):
    # no column proves nothing, and an index past either end is no basis
    # vector: -1 would wrap to the last one, n would raise IndexError
    op = assemble_matrix(b12.complex, 0)
    n, q = op.dim, list(minimal_polynomial(op).q)
    args = (n, op.indptr, op.indices, op.data)
    not_annihilating = [1] + [0] * (len(q) - 2) + [1]  # x^d + 1
    for columns in ([], [n], [-1], [0, n]):
        with pytest.raises(MalformedMatrix):
            certify_annihilates(*args, not_annihilating, columns=columns)
    with pytest.raises(MalformedMatrix):
        minimal_polynomial(op, witness_columns=[])
    assert certify_annihilates(*args, q, columns=[0, n - 1])
    assert not certify_annihilates(*args, not_annihilating, columns=[0, n - 1])


def test_certificate_stops_once_the_primes_pass_h(monkeypatch):
    # an entry of q(B) is at most H in absolute value, and one that a
    # modulus past H divides is 0.  B = [15] and q = x - 15: H = 30, so
    # the primes 7, 5 stop there (35 > 30), where 2H = 60 would draw 3 too
    drawn = []

    def recording(cap):
        for p in (7, 5, 3, 2, 11):
            drawn.append(p)
            yield p

    monkeypatch.setattr(spectra, "descending_primes", recording)
    indptr, indices = np.array([0, 1], dtype=np.int64), np.array([0], dtype=np.int64)
    b = np.array([15], dtype=np.int64)
    # q_1 = 1, so the trace over the one column is 1 mod each prime
    assert certify_annihilates(1, indptr, indices, b, [-15, 1]) == {7: 1, 5: 1}
    assert drawn == [7, 5]
    # q = x + 15: q(B) = 30 = H.  5 * 3 * 2 = 30 divides it without
    # passing H, so 7 is drawn as well and refuses q
    monkeypatch.setattr(spectra, "descending_primes", lambda cap: iter([5, 3, 2, 7]))
    assert not certify_annihilates(1, indptr, indices, b, [15, 1])


def test_certification_blocks_stay_small_on_a_text_complex(b23):
    # the (2,3) building read from text certifies all 1,560 columns of
    # degree 1.  A block of 400,000 // 1560 = 256 columns is 3.05 MiB of
    # int64, and its product with B a second one: the peak is 6.1 MiB.
    # The 1,560 columns as one block peaked at 37.2 MiB
    cx, _ = from_text(b23.complex.to_text())
    op = assemble_matrix(cx, 1)
    q = minimal_polynomial(op, witness_columns=[0]).q
    assert op.dim == 1560
    tracemalloc.start()
    try:
        assert certify_annihilates(op.dim, op.indptr, op.indices, op.data, list(q))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 7 * 2**20


def test_a_report_keeps_no_operator(monkeypatch):
    # the operator is freed once its report is made
    refs = []

    def assemble(*args):
        op = assemble_matrix(*args)
        refs.append(weakref.ref(op))
        return op

    monkeypatch.setattr(spectra, "assemble_matrix", assemble)
    report = compute_spectral_report(OCTAHEDRON, 1)
    gc.collect()
    assert report.dim == 12 and len(refs) == 1
    assert refs[0]() is None


def test_witness_columns_do_not_change_the_answer(b12, b22):
    for b, i in ((b12, 0), (b22, 0), (b22, 1)):
        op = assemble_matrix(b.complex, i)
        full = minimal_polynomial(op)
        restricted = minimal_polynomial(op, witness_columns=witness_columns(b, i))
        assert (full.q, full.L) == (restricted.q, restricted.L)
        # a trace over the witnesses alone is no trace of B
        assert full.kernel_dim is not None and restricted.kernel_dim is None


def _first_primes(op, k):
    """The first k Krylov primes of `minimal_polynomial` on op."""
    cap = min(_prime_cap(op)[0], spectra._KRYLOV_CEILING)
    return list(itertools.islice(descending_primes(cap), k))


def _record_annihilators(monkeypatch):
    """Patch the Krylov step to record each prime's annihilator, in order."""
    krylov = spectra._krylov_annihilator_mod_p
    seen = {}

    def recording(bp, p, v0):
        seen[p] = ann = krylov(bp, p, v0)
        return ann

    monkeypatch.setattr(spectra, "_krylov_annihilator_mod_p", recording)
    return seen


def _record_certifications(monkeypatch, refuse=False):
    """Patch certification to record each candidate, and to refuse all when `refuse`."""
    certify = spectra.certify_annihilates
    candidates = []

    def recording(*args, **kwargs):
        candidates.append(args[4])
        return None if refuse else certify(*args, **kwargs)

    monkeypatch.setattr(spectra, "certify_annihilates", recording)
    return candidates


def _tried_after(monkeypatch, seen):
    """Patch certification to record the Krylov primes drawn before each call."""
    certify = spectra.certify_annihilates
    tried = []

    def recording(*args, **kwargs):
        tried.append(list(seen))
        return certify(*args, **kwargs)

    monkeypatch.setattr(spectra, "certify_annihilates", recording)
    return tried


def test_unlucky_seeds_are_outvoted(b12, monkeypatch):
    # the all-ones vector lies in ker Delta_0, so its annihilator is x
    # alone; the primes after the first two draw seeds of full degree.
    # One prime passes the coefficient bound of degree 1, so x is
    # certified at once and fails, the second prime rebuilds x and is
    # not certified again, and the first prime of degree 4 certifies
    op = assemble_matrix(b12.complex, 0)
    unlucky = _first_primes(op, 2)
    draw = spectra._seed_values
    monkeypatch.setattr(spectra, "_seed_values",
                        lambda n, p, seed: np.ones(n, dtype=np.int64) if p in unlucky
                        else draw(n, p, seed))
    seen = _record_annihilators(monkeypatch)
    certified = _record_certifications(monkeypatch)
    got = min_a(op)
    assert got == sympy_minpoly(op) == P(0, QQ(-14, 9), QQ(43, 9), -4, 1)
    assert [seen[p] for p in unlucky] == [[0, 1], [0, 1]]
    assert list(seen) == _first_primes(op, 3)
    assert certified[0] == [0, 1]
    assert [len(c) - 1 for c in certified] == [1, 4]


@pytest.mark.parametrize("case", ["b12-0", "b22-0", "star-union-47"])
def test_reconstruction_waits_for_the_coefficient_bound(case, b12, b22, monkeypatch):
    # every root of min_B lies in [-||B||_inf, ||B||_inf], so balanced CRT
    # is exact once the primes' product passes 2(||B||_inf + 1)^d: no
    # certification is tried before, and one is tried at the first prime
    # past it.  (1,2) needs one prime, (2,2) two, and the star union's
    # object data (L >= 2^63, ||B||_inf of 70 bits) several
    cx = {"b12-0": b12.complex, "b22-0": b22.complex, "star-union-47": star_union(47)[0]}[case]
    op = assemble_matrix(cx, 0)
    seen = _record_annihilators(monkeypatch)
    tried = _tried_after(monkeypatch, seen)
    got = minimal_polynomial(op)
    primes = list(seen)
    assert {len(a) - 1 for a in seen.values()} == {got.degree}
    assert tried == [primes]
    bound = 2 * (python_inf_norm(op.indptr, op.data.tolist()) + 1) ** got.degree
    assert math.prod(primes[:-1]) <= bound < math.prod(primes)
    assert len(primes) == {"b12-0": 1, "b22-0": 2, "star-union-47": 8}[case]
    if case == "star-union-47":
        assert op.data.dtype == object and op.L >= 2**63
        assert RatPolynomial.from_scaled(got.q, got.L) == P(0, 2, -3, 1)


def test_reconstruction_waits_for_twice_the_coefficient_bound(b12, monkeypatch):
    # (1,2,0) has ||B||_inf = 6 and d = 4, so balanced CRT waits for a
    # product of primes past 2 * 7^4 = 4802.  A Krylov stream that starts
    # with 4801, in (7^4, 2 * 7^4], tries no certification before its
    # second prime, and certifies min_B there
    op = assemble_matrix(b12.complex, 0)
    want = minimal_polynomial(op)
    monkeypatch.setattr(spectra, "descending_primes",
                        lambda cap: itertools.chain([4801], descending_primes(cap))
                        if cap == spectra._KRYLOV_CEILING else descending_primes(cap))
    seen = _record_annihilators(monkeypatch)
    tried = _tried_after(monkeypatch, seen)
    assert minimal_polynomial(op) == want
    assert (want.degree, python_inf_norm(op.indptr, op.data.tolist())) == (4, 6)
    assert len(seen[4801]) - 1 == 4
    assert tried == [[4801, *_first_primes(op, 1)]]


def test_a_prime_of_lower_degree_is_dropped(b22, monkeypatch):
    # (2,2,0) needs two Krylov primes.  With the second prime's annihilator
    # cut to its degree-5 divisor (0 is a root of min_B), that prime is
    # dropped, and min_B is certified from the first and third primes
    op = assemble_matrix(b22.complex, 0)
    want = minimal_polynomial(op)
    assert want.q[0] == 0
    p1, p2, p3 = _first_primes(op, 3)
    krylov = spectra._krylov_annihilator_mod_p
    seen = {}

    def cut(bp, p, v0):
        ann = krylov(bp, p, v0)
        seen[p] = ann = ann[1:] if p == p2 else ann
        return ann

    monkeypatch.setattr(spectra, "_krylov_annihilator_mod_p", cut)
    certified = _record_certifications(monkeypatch)
    assert minimal_polynomial(op) == want
    assert [len(seen[p]) - 1 for p in (p1, p2, p3)] == [6, 5, 6]
    assert list(seen) == [p1, p2, p3]
    assert certified == [list(want.q)]
    assert spectra._balanced_crt([seen[p1], seen[p3]], [p1, p3]) == list(want.q)


def test_a_failed_candidate_is_certified_once(b12, monkeypatch):
    # every seed in ker Delta_0: each prime reconstructs the same wrong
    # candidate x, which fails once and is not certified again
    monkeypatch.setattr(spectra, "_seed_values",
                        lambda n, p, seed: np.ones(n, dtype=np.int64))
    certified = _record_certifications(monkeypatch)
    with pytest.raises(CertificationFailed):
        minimal_polynomial(assemble_matrix(b12.complex, 0))
    assert certified == [[0, 1]]


def test_uncertified_candidates_raise(b12, monkeypatch):
    certified = _record_certifications(monkeypatch, refuse=True)
    seen = _record_annihilators(monkeypatch)
    op = assemble_matrix(b12.complex, 0)
    with pytest.raises(CertificationFailed):
        minimal_polynomial(op)
    # the error comes after exactly the cap, and the true candidate is
    # refused once and never offered again
    assert spectra._MAX_PRIMES == 160
    assert list(seen) == _first_primes(op, spectra._MAX_PRIMES)
    assert len(certified) == 1


@pytest.mark.parametrize("max_nnz", [1, 7, 10**6, 2**40])
def test_prime_stream_respects_int64_cap(max_nnz):
    # the Krylov ceiling is exactly the largest p with p^2 < 2^63, and the
    # reduced cap, p^2 <= 2^62 / max_nnz, stays below it
    ceiling = spectra._KRYLOV_CEILING
    assert ceiling == math.isqrt(2**63 - 1) == 3_037_000_499
    assert ceiling**2 < 2**63 <= (ceiling + 1) ** 2
    reduced = sympy.prevprime(math.isqrt(2**62 // max_nnz) + 1)
    assert reduced < ceiling
    for binf, dtype in itertools.product((0, 3120, 2**40), (np.int64, object)):
        cap, reduce = spectra._prime_cap(np.zeros(0, dtype=dtype), max_nnz, binf)
        p = next(descending_primes(cap))
        q = sympy.nextprime(p)
        assert sympy.isprime(p)
        # each rule is tight: the next prime would break it
        if reduce:
            # a reduced row: p^2 * max_nnz <= 2^62
            assert max_nnz * (p - 1) ** 2 < 2**62 <= max_nnz * q**2
        else:
            # an unreduced row plus one coefficient: (binf + 1)(p - 1) < 2^63
            assert (binf + 1) * (p - 1) < 2**63 <= (binf + 1) * (q - 1)
        # the rule chosen is the one with the larger primes; object data
        # always reduce
        unreduced = sympy.prevprime((2**63 - 1) // (binf + 1) + 2)
        assert p == (max(reduced, unreduced) if dtype is np.int64 else reduced)
        assert reduce is (dtype is object or unreduced < reduced)


def test_operators_certify_with_norm_sized_primes(b22):
    # int64 building operators enter the kernels unreduced: the first
    # certification prime p has (||B||_inf + 1)(p - 1) < 2^63, and the
    # next prime up breaks it; the Krylov primes start below the
    # isqrt(2^63 - 1) ceiling, where the elimination's (p - 1)^2 fits
    # int64 and the next prime's does not
    for i in (0, 1):
        op = assemble_matrix(b22.complex, i)
        binf = python_inf_norm(op.indptr, op.data.tolist())
        cap, reduce = _prime_cap(op)
        p = next(descending_primes(cap))
        assert not reduce
        assert (binf + 1) * (p - 1) < 2**63 <= (binf + 1) * (sympy.nextprime(p) - 1)
        krylov = _first_primes(op, 1)[0]
        assert krylov == sympy.prevprime(math.isqrt(2**63 - 1) + 1) == 3_037_000_493
        assert (krylov - 1) ** 2 < 2**63 <= (sympy.nextprime(krylov) - 1) ** 2
    # the star union's data pass int64: they are reduced, under the
    # max_nnz * (p-1)^2 < 2^62 cap, which stays below the ceiling
    op = assemble_matrix(star_union(47)[0], 0)
    max_nnz = int(np.diff(op.indptr).max())
    cap, reduce = _prime_cap(op)
    assert reduce and op.data.dtype == object
    assert next(descending_primes(cap)) == \
        sympy.prevprime(math.isqrt(2**62 // max_nnz) + 1)


def test_bad_reduction_prime_is_discarded(b12, monkeypatch):
    op = assemble_matrix(b12.complex, 0)
    true = minimal_polynomial(op)
    # B = 3A has minimal polynomial x(x - 6)(x^2 - 6x + 7); mod 3 the roots
    # 0 and 6 collide, so no seed reaches full degree mod 3
    bad = 3
    monkeypatch.setattr(spectra, "descending_primes",
                        lambda cap: itertools.chain([bad], descending_primes(cap)))
    seen = _record_annihilators(monkeypatch)
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
    assert min_a(op) == P(0, 2, -3, 1)
    report = compute_spectral_report(cx, 0)
    assert report.L == L and report.q == (0, 2 * L**2, -3 * L, 1)
    assert [r.value for r in report.isolation.roots] == [0, 1, 2]


def test_int64_and_python_int_reductions_agree(b22):
    # int64 data and the same entries as Python ints in an object array
    # reduce to the same int64 residues
    for i in (0, 1):
        data = assemble_matrix(b22.complex, i).data
        assert data.dtype == np.int64
        for p in (3, 1_000_003, next(descending_primes(spectra._reduced_cap(7)))):
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


def _rows_of_lengths(rng, lengths, high):
    """indptr and int64 data of CSR rows of the given lengths, entries in (-high, high)."""
    indptr = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
    return indptr, rng.integers(1 - high, high, int(indptr[-1]), dtype=np.int64)


def test_inf_norm_by_row_blocks_matches_python_rows():
    # ||B||_inf is summed one block of whole rows of about _NORM_BLOCK
    # entries at a time; every case spans several blocks
    block = spectra._NORM_BLOCK
    rng = np.random.default_rng(block)
    cases = []
    # short rows, every seventh one empty, and empty rows at both ends
    lengths = rng.integers(0, 40, 12_000)
    lengths[::7] = 0
    lengths[-3:] = 0
    cases.append(_rows_of_lengths(rng, lengths, 2**20))
    # a row longer than a block between short ones, and one at the end
    cases.append(_rows_of_lengths(rng, [3, 0, block + 5, 2, 0], 2**20))
    cases.append(_rows_of_lengths(rng, [5] * 100 + [2 * block + 1], 2**20))
    # the maximum in the last block
    indptr, data = _rows_of_lengths(rng, [16] * (3 * block // 16 + 10), 1000)
    data[-16:] = -(10**6)
    cases.append((indptr, data))
    # |x| * max_nnz passes 2**63 in the second block alone: that block is
    # summed as Python ints, and its row of sum 4 * (2**62 - 1) > 2**63 is
    # the maximum, which int64 would wrap
    indptr, data = _rows_of_lengths(rng, [4] * (block // 2), 2**20)
    data[block + 8:block + 12] = [2**62 - 1, -(2**62 - 1), 2**62 - 1, 2**62 - 1]
    cases.append((indptr, data))
    # object data, entries past 2**63 in the last block
    indptr, data = _rows_of_lengths(rng, [6] * (block // 3), 2**20)
    data = data.astype(object)
    data[-6:] = [2**70, -(2**70), 1, 2, 3, 4]
    cases.append((indptr, data))
    for indptr, data in cases:
        assert len(data) > block
        max_nnz = int(np.diff(indptr).max())
        want = python_inf_norm(indptr, data.tolist())
        assert spectra._inf_norm(indptr, data, max_nnz) == want
        if data.dtype == np.int64:
            narrow = indptr.astype(np.int32)
            assert spectra._inf_norm(narrow, data, max_nnz) == want
    assert [python_inf_norm(indptr, data.tolist()) for indptr, data in cases[3:]] == \
        [16 * 10**6, 4 * (2**62 - 1), 2 * 2**70 + 10]


def test_kernel_setup_copies_no_array_of_the_operators_size():
    # 2**20 int64 entries, 8 MiB, in 2**14 rows of 64: ||B||_inf by row
    # blocks takes |B| about 65,536 entries (0.5 MiB) at a time, and the
    # set-up peaks at 0.52 MiB.  |B| taken whole peaked at 8.3 MiB
    n, k = 2**14, 64
    rng = np.random.default_rng(k)
    indptr = np.arange(0, n * k + 1, k, dtype=np.int32)
    indices = np.tile(np.arange(k, dtype=np.int32), n)
    data = rng.integers(-1000, 1000, n * k)
    tracemalloc.start()
    try:
        got = spectra._kernel_setup(n, indptr, indices, data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got[0] is indptr and got[1] is indices
    assert got[2] == int(np.abs(data).reshape(n, k).sum(axis=1).max())
    assert peak <= 1 * 2**20


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
        assert min_a(op) == true
        for cand, kills in ((true, True), (poly_div(true, P(0, 1)), False)):
            assert bool(certify_annihilates(op.dim, op.indptr, op.indices, op.data,
                                            b_coefficients(cand, op.L))) is kills


def test_report_runs_the_squarefree_test_once(b12, monkeypatch):
    # the isolator's Sturm chain is the squarefree test on the report path
    def forbidden(p):
        raise AssertionError("second squarefree test")

    monkeypatch.setattr(spectra, "squarefree_certify", forbidden)
    monkeypatch.setattr(spectra, "is_squarefree", forbidden)
    report = compute_spectral_report(b12.complex, 0)
    assert [r.value for r in report.isolation.roots if r.is_rational] == [0, 2]
    monkeypatch.setattr(spectra, "minimal_polynomial",
                        lambda *args, **kwargs: MinimalPolynomial((1, -2, 1), 1))
    with pytest.raises(NotSquarefree):
        compute_spectral_report(b12.complex, 0)


def test_report_builds_no_rational_polynomial(b22, monkeypatch):
    # certification, isolation and the integer table run on min_B and L in
    # integers: no RatPolynomial is built or evaluated for the report, and
    # min_A is built once, when the report is first written
    def forbidden(*args):
        raise AssertionError("a RatPolynomial on the report path")

    monkeypatch.setattr(RatPolynomial, "__post_init__", forbidden)
    monkeypatch.setattr(RatPolynomial, "__call__", forbidden)
    report = compute_spectral_report(b22.complex, 1)
    assert report.integer_eigenvalues == {0: True, 1: True, 2: True, 3: True}
    monkeypatch.undo()
    built = []
    real = RatPolynomial.__post_init__

    def counting(self):
        built.append(self)
        real(self)

    monkeypatch.setattr(RatPolynomial, "__post_init__", counting)
    docs = [report.to_json_dict() for _ in range(2)]
    assert report.minpoly is report.minpoly and len(built) == 1
    monkeypatch.undo()
    assert docs[0] == docs[1]
    assert report.minpoly == reference_minimal_polynomial(2, 2, 1)


_M64 = 2**64
_GAMMA = 0x9E3779B97F4A7C15


def _mix64(z):
    """SplitMix64's output function, in Python ints."""
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 % _M64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB % _M64
    return z ^ (z >> 31)


def _splitmix64(state):
    """SplitMix64 (Steele, Lea and Flood, OOPSLA 2014) started at `state`."""
    while True:
        state = (state + _GAMMA) % _M64
        yield _mix64(state)


def _python_seed_values(n, p, seed):
    """The documented seed vector and the index of its draw."""
    for r in itertools.count():
        key = _mix64(_mix64(_mix64(seed % _M64) ^ p) ^ r)
        v = [x % p for x in itertools.islice(_splitmix64(key), n)]
        if any(v):
            return v, r


def test_seed_vectors_are_a_fixed_stream():
    # the generator is SplitMix64 itself: its published first outputs
    # from state 0
    assert list(itertools.islice(_splitmix64(0), 3)) == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
    for seed, p in ((-7, 3), (0, 1_000_003), (2**70, (1 << 30) - 35), (2**64 - 1, 2)):
        a = spectra._seed_values(50, p, seed)
        assert a.dtype == np.int64
        assert np.array_equal(a, spectra._seed_values(50, p, seed))
        # the documented draw, keyed by the seed mod 2^64, the prime and
        # the redraw index
        assert a.tolist() == _python_seed_values(50, p, seed)[0]
        assert a.any() and a.min() >= 0 and a.max() < p
    assert not np.array_equal(spectra._seed_values(50, 1_000_003, 0),
                              spectra._seed_values(50, 1_000_033, 0))
    assert not np.array_equal(spectra._seed_values(50, 1_000_003, 0),
                              spectra._seed_values(50, 1_000_003, 1))
    # a one-entry vector over F_2 is redrawn until it is nonzero, with the
    # next redraw index in the key
    draws = [_python_seed_values(1, 2, k) for k in range(30)]
    assert all(spectra._seed_values(1, 2, k).tolist() == v == [1] for k, (v, _) in enumerate(draws))
    assert max(r for _, r in draws) >= 2


def test_zero_dimensional_operator():
    h = LinearOperatorHandle(0, np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.int64),
                             np.zeros(0, dtype=np.int64), 1)
    assert minimal_polynomial(h) == MinimalPolynomial((1,), 1, 0)


# -- helpers around the minimal polynomial ------------------------------------


def test_is_eigenvalue():
    # the integer table reads the isolation's exact roots of A = B / L:
    # q = min_B = x (x - 6) with L = 3 is A = x (x - 2), and q = x (x - 1)
    # with L = 3 is x (x - 1/3)
    rep = report_from_minpoly((0, -6, 1), 3, "1/1000000", {}, 0, 2, 1)
    assert rep.integer_eigenvalues == {0: True, 1: False, 2: True}
    rep = report_from_minpoly((0, -1, 1), 3, "1/1000000", {}, 0, 2, 1)
    assert rep.integer_eigenvalues == {0: True, 1: False, 2: False}
    assert rep.M.value == QQ(1, 3)


def _integer_table_by_evaluation(rep):
    """The oracle: the integer k is a root of min_A exactly when q(k L) = 0."""
    return {k: sum(c * (k * rep.L)**j for j, c in enumerate(rep.q)) == 0
            for k in range(len(rep.integer_eigenvalues))}


def test_integer_table_agrees_with_evaluation_on_the_lattice(b12, b22, shared_cache):
    reports = [spectral_report(Instance.building(ell, q), i, cache_dir=shared_cache)
               for ell, q, i in default_grid()]
    reports += [
        report_from_minpoly((0, -6, 1), 3, "1/1000000", {}, 0, 2, 1),
        report_from_minpoly((0, -1, 1), 3, "1/1000000", {}, 0, 2, 1),
        compute_spectral_report(b12.complex, 0),
        compute_spectral_report(b22.complex, 1),
        compute_spectral_report(CIRCLE, 0, width="1/8"),
    ]
    for rep in reports:
        assert rep.integer_eigenvalues == _integer_table_by_evaluation(rep), rep.instance
    assert [len(rep.integer_eigenvalues) for rep in reports[:10]] == \
        [ell + 2 for ell, _, _ in default_grid()]


def test_squarefree_certify():
    squarefree_certify((0, -2, 1))
    with pytest.raises(NotSquarefree):
        squarefree_certify((1, -2, 1))  # (x - 1)^2


def test_extract_extremes():
    from garland.polyq import isolate_real_roots

    iso = isolate_real_roots((0, 10, -7, 1))  # x (x - 2) (x - 5)
    m, M = extract_extremes(iso)
    assert m.value == 2 and M.value == 5
    with pytest.raises(NoNonzeroRoot):
        extract_extremes(isolate_real_roots((0, 1)))


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
    assert d["den_bound"] == rep.L >= 1
    assert RatPolynomial.from_scaled(rep.q, rep.L) == rep.minpoly
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

    def padded(bp, p, v0):
        # ann * (x - 7777) mod p, low to high
        ann = krylov(bp, p, v0)
        return [(a - 7777 * b) % p for a, b in zip([0] + ann, ann + [0])]

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
    # the vanishing test is the zero test of the dimension in every degree
    for cx in (CIRCLE, OCTAHEDRON, TWO_EDGES, simplex(2)):
        ranks = reduced_cohomology_ranks(cx)
        for i, r in enumerate(ranks):
            got = reduced_cohomology_vanishes(cx, i)
            assert type(got) is bool
            assert got == (r == 0)


def test_cohomology_degrees_outside_0_to_n_are_refused():
    # the 3-cycle has n = 1, so its cochain degrees are 0 and 1
    for i in (-2, -1, 2):
        with pytest.raises(DegreeOutOfRange):
            reduced_cohomology_vanishes(CIRCLE, i)
        with pytest.raises(DegreeOutOfRange):
            reduced_cohomology_vanishes(CIRCLE, i, kernel_dim=0)
        with pytest.raises(DegreeOutOfRange):
            kernel_dimension(CIRCLE, i)


def test_kernel_dimension_is_the_solomon_tits_count():
    # a building of rank n is homotopy equivalent to a wedge of spheres of
    # dimension n (Solomon-Tits), so H~^j = 0 below n and z_i = rank d_{i-1}
    # is the alternating sum of f_{i-1}, f_{i-2}, ..., f_{-1} = 1
    got = {}
    for ell, q, i in default_grid():
        cx = get_building(ell, q).complex
        f = [1] + [cx.num_simplices(j) for j in range(i)]
        got[ell, q, i] = kernel_dimension(cx, i)
        assert got[ell, q, i] == sum((-1) ** (i - j) * f[j] for j in range(i + 1))
    assert {got[key] for key in got if key[2] == 0} == {1}
    assert (got[2, 2, 1], got[2, 3, 1]) == (64, 209)


def test_kernel_dimension_refuses_a_wrong_trace_and_a_double_root_at_0(b22, monkeypatch):
    # (2,2,1) has m_0 = 64, read as tr q_1(B) / c_1 mod each certification
    # prime p > n not dividing c_1; a diagonal sum off by one, an extra
    # prime that reads 63, one value past n and no prime p > n all raise
    op = assemble_matrix(b22.complex, 1)
    mp = minimal_polynomial(op)
    n, c1 = op.dim, mp.q[1]
    assert mp.kernel_dim == 64 and mp.q[0] == 0 and c1 % 1_000_003
    certify = spectra.certify_annihilates
    for edit in (lambda traces: {p: (t + 1) % p for p, t in traces.items()},
                 lambda traces: {**traces, 1_000_003: 63 * c1 % 1_000_003},
                 lambda traces: {p: (t + (n + 1) * c1) % p for p, t in traces.items()},
                 lambda traces: {3: 0}):
        def edited(*args, edit=edit, **kwargs):
            traces = certify(*args, **kwargs)
            return traces and edit(traces)

        with monkeypatch.context() as m:
            m.setattr(spectra, "certify_annihilates", edited)
            with pytest.raises(CertificationFailed):
                minimal_polynomial(op)
    # x * min_B is certified, but 0 is a double root of it: c_0 = c_1 = 0
    krylov = spectra._krylov_annihilator_mod_p
    monkeypatch.setattr(spectra, "_krylov_annihilator_mod_p",
                        lambda bp, p, v0: [0] + krylov(bp, p, v0))
    with pytest.raises(NotSquarefree):
        minimal_polynomial(op)


def _disconnected_link():
    """Vertex 0's link in the cone over two disjoint (1,7) incidence graphs:
    their union, 228 vertices and 912 edges in two components, so its
    reduced H^0 has dimension 1 and Delta_0's kernel dimension 2."""
    graph = flag_complex(1, field_for_order(7)).complex
    nv = graph.num_simplices(0)
    edges = graph.rows[1].tolist()
    cone = from_maximal_simplices([(0, 1 + c + u, 1 + c + v)
                                   for c in (0, nv) for u, v in edges])
    return cone.vertex_link(0)[0]


def _record_primes(monkeypatch):
    """Per run of the Krylov recurrence (dim, p); per certificate (dim, its primes)."""
    krylov, certify = spectra._krylov_annihilator_mod_p, spectra.certify_annihilates
    runs, certificates = [], []

    def krylov_spy(bp, p, v0):
        runs.append((len(bp[0]) - 1, p))
        return krylov(bp, p, v0)

    def certify_spy(n, *args, **kwargs):
        traces = certify(n, *args, **kwargs)
        certificates.append((n, traces and sorted(traces)))
        return traces

    monkeypatch.setattr(spectra, "_krylov_annihilator_mod_p", krylov_spy)
    monkeypatch.setattr(spectra, "certify_annihilates", certify_spy)
    return runs, certificates


def test_disconnected_link_ranks_need_four_primes(monkeypatch):
    link = _disconnected_link()
    cols, signs = coboundary_pattern(link, 0)
    assert cols.shape == (912, 2)
    want = reference_rank(pattern_rows(cols, signs, 228))
    assert want == 226
    # rank 226 < min(912, 228): a modular rank of d_0 is exact only past
    # the Hadamard bound, any 227-minor squared at most 2**227 (two
    # entries +-1 a row), which the squared product of four primes below
    # 2**31 passes and of three does not
    primes = list(itertools.islice(descending_primes(2**31), 4))
    assert math.prod(primes[:3]) ** 2 <= 2**227 < math.prod(primes) ** 2
    # the ranks read from Delta_0's certified minimal polynomial x (x^3 -
    # 32 x^2 + 313 x - 912), dim ker Delta_0 = 2, need one Krylov prime
    # and one certification prime instead
    runs, certificates = _record_primes(monkeypatch)
    assert reduced_cohomology_ranks(link) == [1, 686] == [228 - want - 1, 912 - want]
    assert [n for n, _ in runs] == [228]
    assert [(n, len(ps)) for n, ps in certificates] == [(228, 1)]
    assert minimal_polynomial(assemble_matrix(link, 0)).q == (0, -912, 313, -32, 1)


def test_disconnected_link_vanishing_eliminates_each_matrix_once_per_prime(monkeypatch):
    # H~^0 = 0 compares z_0 with f_{-1} = 1: one Laplacian, Delta_0 (228
    # rows), run through the Krylov recurrence once for its one prime and
    # certified once; it is not worked again for the verdict
    link = _disconnected_link()
    runs, certificates = _record_primes(monkeypatch)
    assert reduced_cohomology_vanishes(link, 0) is False
    assert runs == [(228, next(descending_primes(spectra._KRYLOV_CEILING)))]
    assert len(certificates) == 1 and certificates[0][0] == 228
    # given z_0, no Laplacian is worked at all
    assert reduced_cohomology_vanishes(link, 0, kernel_dim=2) is False
    assert len(runs) == len(certificates) == 1


def _bareiss_cohomology(cx):
    """(z_i, dim H~^i) for i = 0..n, from Bareiss ranks of the dense coboundaries."""
    dims = [cx.num_simplices(i) for i in range(cx.dim + 1)]
    ranks = [1] + [reference_rank(pattern_rows(*coboundary_pattern(cx, i), dims[i]))
                   for i in range(cx.dim)] + [0]
    return ([dims[i] - ranks[i + 1] for i in range(cx.dim + 1)],
            [dims[i] - ranks[i] - ranks[i + 1] for i in range(cx.dim + 1)])


def test_sparse_cohomology_matches_bareiss_on_random_complexes():
    # the kernel dimensions read from the certificates against dense
    # Bareiss ranks; a given z_i, as a fresh link report passes it,
    # decides as the one certified here
    rng = random.Random(1)
    pairs = 0
    for _ in range(150):
        cx = random_pure_complex(rng)
        z, want = _bareiss_cohomology(cx)
        assert reduced_cohomology_ranks(cx) == want
        for i, dim in enumerate(want):
            assert reduced_cohomology_vanishes(cx, i) is (dim == 0)
            assert reduced_cohomology_vanishes(cx, i, z[i]) is (dim == 0)
        pairs += len(want)
    # every degree 0..n: the 317 Laplacian degrees 0..n-1 and the top ones
    assert pairs == 467


_CONNECTIVITY_27 = PEAK_KIB + """
from garland.harness import get_building
from garland.spectra import reduced_cohomology_vanishes
cx = get_building(2, 7).complex
cx.num_simplices(1)
before = peak_kib()
print(reduced_cohomology_vanishes(cx, 0), peak_kib() - before)
"""


@pytest.mark.skipif(os.environ.get("GARLAND_EXTENDED") != "1",
                    reason="builds the (2,7) building; runs only with GARLAND_EXTENDED=1")
@pytest.mark.skipif(not HAS_VMHWM, reason="reads VmHWM (Linux)")
def test_connectivity_of_the_27_building_is_decided_in_little_memory():
    # the building is the apex link of a cone over it: H~^0 of its 3,650
    # vertices and 68,400 edges, whose dense d_0 took 6.3 GB, is read off
    # the certificate of Delta_0 on all 3,650 columns; in a fresh process,
    # so that VmHWM (KiB) is this call's peak alone
    src = Path(spectra.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", _CONNECTIVITY_27], capture_output=True,
                          text=True, timeout=240, check=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    vanishes, added_kib = proc.stdout.split()
    assert vanishes == "True"
    assert int(added_kib) < 100 * 1024


# Moebius's 7-vertex torus: the triangles {j, j+1, j+3} and {j, j+2, j+3} mod 7
TORUS = [tuple(sorted((j, (j + a) % 7, (j + 3) % 7))) for j in range(7) for a in (1, 2)]


def test_torus_cone_apex_link_has_first_cohomology():
    torus = from_maximal_simplices(TORUS)
    assert reduced_cohomology_ranks(torus) == [0, 2, 1] == _bareiss_cohomology(torus)[1]
    # in the cone over the torus the apex's link is the torus, and every
    # other vertex's link is a cone over a hexagon, which is contractible
    cone = from_maximal_simplices([t + (7,) for t in TORUS])
    doc = run_instance(Instance.complex(cone), 2)
    (v,) = [v for v in doc["verdicts"] if v["check"] == "fundamental-inequality"]
    assert [link["cohomology_vanishes"] for link in v["witness"]["links"]] == [True] * 7 + [False]
    assert v["witness"]["hypothesis_cohomology_vanishes"] is False
    assert v["witness"]["lower"] == {"status": "not-applicable"}
