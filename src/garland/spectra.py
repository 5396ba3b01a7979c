"""Certified spectral data for exact rational operators.

The minimal polynomial is guessed fast and then proved:

  1. Assembly (laplace.assemble_matrix) hands over the operator as the
     integer CSR matrix B = L*A with L = lcm of the entry denominators of
     A, so timings["assemble_s"] includes the integer scaling.  The
     minimal polynomial of B is monic with integer coefficients and
     pulls back to A through x -> L*x, and L caps the denominator of
     every rational eigenvalue of A (the report's den_bound).
  2. For each word-size prime p, draw one seed vector v uniformly from
     F_p^n and run the Krylov sequence v, Bv, B^2 v, ... mod p to the
     annihilator of v.  It divides the minimal polynomial of B mod p,
     which divides min_B mod p, so its degree is a LOWER bound on
     deg min_B.  For a uniform v it IS the minimal polynomial of B mod p
     with probability at least 1 - d/p, d = deg min_B (Wiedemann, IEEE
     Trans. Inf. Theory 32, 1986); d/p stays below 2e-7 on the grids.
     That minimal polynomial equals min_B mod p for all but finitely
     many p.
  3. Reconstruct the integer coefficients by balanced CRT across primes
     whose annihilator degree is maximal (a prime of smaller degree drew
     an unlucky seed or reduced badly and is dropped); stop once one
     more prime leaves the reconstruction unchanged.
  4. CERTIFY the integer candidate q: q(B) e_j = 0 on the certification
     columns, which is p(A) e_j = 0 for p(x) = L^-d q(L x).
     A certified annihilator whose degree matches the Krylov lower bound
     from step 2 IS the minimal polynomial, so a wrong reconstruction
     can never be accepted, only replaced as more primes arrive; a
     candidate that failed is not certified again.  After
     _MAX_PRIMES primes without a certified candidate,
     CertificationFailed is raised.  The proof is the certificate, so
     the random seeds decide how fast the answer comes, never what it
     is.

The certificate is multi-modular and runs on the candidate for min_B
itself, the monic integer coefficients c_k that the reconstruction
produced.  Every entry of q(B) = sum_k c_k B^k is bounded by
H = sum_k |c_k| * ||B||_inf^k; q(B) = 0 modulo primes whose product
exceeds 2H forces q(B) = 0 over Z, hence p(A) = L^-d q(L A) = 0 for the
returned p(x) = L^-d q(L x).  Every modular pass calls scipy's compiled
int64 CSR kernels directly (`csr.matvec`, `csr.matvecs`) on the arrays
(indptr, indices, data) and vectors with entries in [0, p), and a row
of the product plus one coefficient in [0, p) must fit int64.  Two
representations of the data guarantee that, each up to its own cap:

  * B's own int64 entries: the row is at most (||B||_inf + 1)(p - 1) in
    absolute value, so (||B||_inf + 1)(p - 1) < 2**63;
  * the entries reduced mod p to [0, p), one reduction per prime: the
    row is at most max_nnz_row * (p-1)^2 + (p-1), so
    max_nnz_row * p^2 <= 2**62 (and p < 2**30, the Krylov ceiling).

Each call computes ||B||_inf once and takes whichever representation
allows the larger primes (`_prime_cap`); object data, whose entries
pass int64 (as when L >= 2**63), are always reduced.  Certification
draws descending primes from that cap.  The Krylov elimination
multiplies two residues, so its primes stay below 2**30 either way.
Both streams come from `gf.descending_primes`, as the rank primes do
with which `exactla` decides the reduced cohomology of vertex links on
the sparse +-1 coboundary of `laplace.coboundary_pattern`.
On the grids' buildings ||B||_inf stays below 3*10^4, so their
operators enter the kernels unreduced and certify with primes of at
least 48 bits.  The kernels check no bounds, so `minimal_polynomial` and
`certify_annihilates` validate the CSR arrays once per call
(`csr.check`), not once per prime.

Callers whose operator commutes with a symmetry group that is
transitive on basis vectors up to sign may pass witness columns: one
basis index per orbit.  p(A) commutes with the group action, so
annihilating the witnesses annihilates every basis vector; the caller
owns that transitivity claim.

Seed vectors are a documented fixed pseudo-random stream: the seed
vector of prime p is drawn whole, as n integers in [0, p), by
numpy.random.default_rng([seed mod 2**64, p]).integers(0, p, n), and
drawn again from the same generator while it is all zero.  The
certified result is the unique minimal polynomial, so --seed never
changes reported values.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import islice
from math import isqrt, prod

import numpy as np
from numpy.random import default_rng

from . import csr, exactla
from .complexes import Complex
from .errors import CertificationFailed, NoNonzeroRoot, NotSquarefree
from .gf import descending_primes
from .laplace import LinearOperatorHandle, assemble_matrix, coboundary_pattern
from .polyq import (
    DEFAULT_WIDTH,
    RatPolynomial,
    RootInterval,
    RootIsolation,
    is_squarefree,
    isolate_real_roots,
)
from .rationals import QQ, QQ1, qstr


# primes drawn before CertificationFailed; no grid instance needs more
# than 7, so the cap is reached only when certification keeps failing
_MAX_PRIMES = 160

# the Krylov elimination multiplies two residues, so its primes stay
# below 2**30 whatever the data: a product of two stays below 2**60
_KRYLOV_CEILING = (1 << 30) - 1


def _seed_values(n: int, p: int, seed: int) -> np.ndarray:
    """The seed vector of prime p: uniform in F_p^n and nonzero."""
    rng = default_rng([seed % 2**64, p])
    while True:
        v = rng.integers(0, p, size=n)
        if v.any():
            return v


def _reduce(data: np.ndarray, p: int) -> np.ndarray:
    """B's CSR data mod p, as int64 entries in [0, p)."""
    return (data % p).astype(np.int64, copy=False)


def _inf_norm(indptr: np.ndarray, data: np.ndarray, max_nnz: int) -> int:
    """max_r sum_j |B[r, j]| of CSR B with at most max_nnz entries a row.

    The row sums are exact: data whose rows could pass 2**63 are summed
    as Python ints.
    """
    absdata = np.abs(data)
    if int(absdata.max(initial=0)) * max_nnz >= 2**63:
        absdata = absdata.astype(object)
    # reduceat over the nonempty rows' starts: each segment then runs to
    # the next nonempty row, i.e. over exactly one row
    starts = indptr[:-1][np.diff(indptr) > 0]
    if not len(starts):
        return 0
    return int(np.add.reduceat(absdata, starts).max())


# -- modular Krylov -------------------------------------------------------------


def _krylov_annihilator_mod_p(n, bp, p, v0) -> list[int]:
    """Monic annihilator mod p of v0 under B, low-to-high coefficients.

    `bp` is (indptr, indices, data), checked CSR arrays of B whose data
    are reduced mod p or B's own entries, as `_prime_cap` decided.

    Vectorized Gaussian elimination on the Krylov vectors: stored
    vectors are pivot-normalized and were fully reduced at insertion, so
    one insertion-order pass reduces completely.
    """
    basis: list[tuple[int, np.ndarray]] = []
    combos: list[list[int]] = []
    raw = np.asarray(v0, dtype=np.int64) % p
    k = 0
    while True:
        # reduce a copy; `raw` must stay B^k v0 for the combos to mean
        # coefficients in the powers of B
        w = raw.copy()
        combo = [0] * k + [1]
        for (pivot, vec), vcombo in zip(basis, combos):
            f = int(w[pivot])
            if f:
                w = (w - f * vec) % p
                for j, x in enumerate(vcombo):
                    combo[j] = (combo[j] - f * x) % p
        nz = np.nonzero(w)[0]
        if len(nz) == 0:
            return combo
        pivot = int(nz[0])
        inv = pow(int(w[pivot]), p - 2, p)
        basis.append((pivot, (w * inv) % p))
        combos.append([x * inv % p for x in combo])
        raw = csr.matvec(*bp, raw)
        raw %= p
        k += 1


def _balanced_crt(residues: list[list[int]], primes: list[int]) -> list[int]:
    """Coefficientwise balanced CRT: entry k is the representative in
    (-M/2, M/2] of the class of residues[j][k] mod primes[j], M = prod(primes)."""
    m = prod(primes)
    # basis[j] is 1 mod primes[j] and 0 mod the others
    basis = [m // p * pow(m // p, -1, p) for p in primes]
    out = []
    for column in zip(*residues):
        x = sum(r * e for r, e in zip(column, basis)) % m
        out.append(x if 2 * x <= m else x - m)
    return out


# -- certification ------------------------------------------------------------


def _reduced_cap(max_nnz_row: int) -> int:
    """The largest modulus for data reduced mod p: max_nnz_row * p^2 <= 2**62,
    below the Krylov ceiling."""
    return min(isqrt((1 << 62) // max(1, max_nnz_row)), _KRYLOV_CEILING)


def _prime_cap(data: np.ndarray, max_nnz_row: int, binf: int) -> tuple[int, bool]:
    """(cap, reduce): the largest modulus a modular pass over B may use,
    and whether that pass reduces B's data mod p first.

    Unreduced int64 entries allow every p with (binf + 1)(p - 1) < 2**63,
    binf = ||B||_inf; reduced entries allow `_reduced_cap`.  The larger
    cap wins (module docstring); object data are always reduced.  The
    primes descend from the cap, so the first bounds them all.
    """
    reduced = _reduced_cap(max_nnz_row)
    unreduced = (2**63 - 1) // (binf + 1) + 1
    if data.dtype == np.int64 and unreduced > reduced:
        return unreduced, False
    return reduced, True


def certify_annihilates(n, indptr, indices, data, coeffs, columns=None) -> bool:
    """Exact check that q(B) kills the given basis vectors.

    `indptr`, `indices` and `data` are the CSR arrays of a
    `LinearOperatorHandle`, and `coeffs` the integer coefficients of q,
    low to high; q must be monic.  Multi-modular with the 2H bound of
    the module docstring: descending primes from `_prime_cap` until
    their product exceeds 2H, so one ||B||_inf both sizes H and picks
    the representation of the data, unreduced int64 entries whenever
    they allow the larger primes.  `columns` defaults to all of them; a
    caller passing fewer must know that a symmetry of B maps those onto
    the rest, see the module docstring.
    """
    indptr, indices = csr.check((n, n), indptr, indices, data)
    if not coeffs or coeffs[-1] != 1:
        return False
    if columns is None:
        columns = range(n)
    max_nnz = int(np.diff(indptr).max(initial=0))
    binf = _inf_norm(indptr, data, max_nnz)
    cap, reduce = _prime_cap(data, max_nnz, binf)
    H = sum(abs(c) * binf**k for k, c in enumerate(coeffs))
    primes = []
    for q in descending_primes(cap):
        primes.append(q)
        if prod(primes) > 2 * H:
            break
    cols_np = np.asarray(columns, dtype=np.int64)
    block = max(1, min(len(cols_np), 4_000_000 // max(1, n)))
    for q in primes:
        dq = _reduce(data, q) if reduce else data
        cmod = [c % q for c in coeffs]
        for c0 in range(0, len(cols_np), block):
            cols = cols_np[c0:c0 + block]
            pos = np.arange(len(cols))
            s = np.zeros((n, len(cols)), dtype=np.int64)
            s[cols, pos] = cmod[-1]
            # entries enter each product in [0, q), so a row plus one
            # coefficient stays within the int64 bound of _prime_cap
            for k in range(len(cmod) - 2, -1, -1):
                s = csr.matvecs(indptr, indices, dq, s)
                s[cols, pos] += cmod[k]
                s %= q
            if np.any(s):
                return False
    return True


# -- minimal polynomial --------------------------------------------------------


def minimal_polynomial(op: LinearOperatorHandle, seed: int = 0,
                       witness_columns=None) -> RatPolynomial:
    """Certified minimal polynomial of the operator A = B / L of `op`.

    `witness_columns` restricts the certification to those basis
    vectors; pass it only when a symmetry of the operator carries them
    onto all the others (module docstring).  Never affects the value,
    which is the unique minimal polynomial.
    """
    n = op.dim
    if n == 0:
        return RatPolynomial((QQ1,))
    indptr, indices = csr.check((n, n), op.indptr, op.indices, op.data)
    data, L = op.data, op.L
    max_nnz = int(np.diff(indptr).max(initial=0))
    cap, reduce = _prime_cap(data, max_nnz, _inf_norm(indptr, data, max_nnz))

    best: dict[int, list[int]] = {}
    best_deg = -1
    prev = failed = None
    for p in islice(descending_primes(min(cap, _KRYLOV_CEILING)), _MAX_PRIMES):
        bp = (indptr, indices, _reduce(data, p) if reduce else data)
        ann = _krylov_annihilator_mod_p(n, bp, p, _seed_values(n, p, seed))
        deg = len(ann) - 1
        if deg > best_deg:
            best, best_deg, prev = {}, deg, None
        if deg < best_deg:
            continue
        best[p] = ann
        if len(best) < 2:
            continue
        primes = sorted(best)
        coeffs = _balanced_crt([best[q] for q in primes], primes)
        if coeffs == prev and coeffs != failed:
            # an annihilator's degree mod p never exceeds deg min_B, so a
            # certified annihilator of that degree is min_B itself
            if certify_annihilates(n, indptr, indices, data, coeffs,
                                   columns=witness_columns):
                return RatPolynomial(tuple(QQ(c) for c in coeffs)).scale_roots(QQ(1, L))
            failed = coeffs
        prev = coeffs
    raise CertificationFailed(
        f"no reconstruction was certified within {_MAX_PRIMES} primes"
    )


def squarefree_certify(p: RatPolynomial) -> None:
    if not is_squarefree(p):
        raise NotSquarefree(f"gcd(p, p') is not constant for {p!r}")


def is_eigenvalue(p: RatPolynomial, c) -> bool:
    return p(QQ(c)) == 0


def extract_extremes(iso: RootIsolation) -> tuple[RootInterval, RootInterval]:
    """Smallest and largest nonzero roots (certified intervals or exact)."""
    nonzero = [r for r in iso.roots if not r.is_zero]
    if not nonzero:
        raise NoNonzeroRoot("spectrum is {0}")
    return nonzero[0], nonzero[-1]


# -- reduced cohomology ----------------------------------------------------------


def _coboundary(cx: Complex, i: int) -> tuple[np.ndarray, np.ndarray, int]:
    """d_i as an `exactla` pattern with its column count, for -1 <= i <= n:
    d_{-1} is the augmentation (a column of ones) and d_n has no rows."""
    if i < 0:
        return np.zeros((cx.num_simplices(0), 1), np.int64), np.ones(1, np.int64), 1
    if i == cx.dim:
        return np.zeros((0, i + 2), np.int64), np.ones(i + 2, np.int64), cx.num_simplices(i)
    return (*coboundary_pattern(cx, i), cx.num_simplices(i))


def reduced_cohomology_ranks(cx: Complex) -> list[int]:
    """Exact ranks of reduced cohomology in degrees 0..n (augmented at -1),
    from coboundary ranks certified modularly by `exactla.rank`."""
    # ranks[i] is the rank of d_{i-1}
    ranks = [exactla.rank(*_coboundary(cx, i)) for i in range(-1, cx.dim + 1)]
    return [cx.num_simplices(i) - ranks[i] - ranks[i + 1] for i in range(cx.dim + 1)]


def reduced_cohomology_vanishes(cx: Complex, i: int, coboundary=None) -> bool:
    """Whether the reduced cohomology of degree i vanishes, decided exactly.

    dim H-tilde^i = dims[i] - rank(d_i) - rank(d_{i-1}), where d_{-1} is
    the augmentation and d_n has no rows.  Both ranks come from
    `exactla.rank_bounds` on the sparse coboundary, and only an
    uncertified one draws the next prime: the count over lower bounds is
    an upper bound, so 0 certifies vanishing, and with both ranks
    certified it is the dimension.  `coboundary`, when given, is
    `laplace.coboundary_pattern(cx, i)` already made.
    """
    size = cx.num_simplices(i)
    d_i = _coboundary(cx, i) if coboundary is None else (*coboundary, size)
    streams = [exactla.rank_bounds(*d_i), exactla.rank_bounds(*_coboundary(cx, i - 1))]
    bounds = [next(s) for s in streams]
    while size != bounds[0][0] + bounds[1][0]:
        if bounds[0][1] and bounds[1][1]:
            return False
        bounds = [b if b[1] else next(s) for s, b in zip(streams, bounds)]
    return True


# -- report -------------------------------------------------------------------


@dataclass
class SpectralReport:
    instance: dict
    degree: int
    dim: int
    minpoly: RatPolynomial
    isolation: RootIsolation
    m: RootInterval
    M: RootInterval
    integer_eigenvalues: dict[int, bool]
    timings: dict[str, float]
    den_bound: int = 0  # rational-root denominator cap used at isolation
    # the assembled operator when this report computed it, None when it
    # came from the cache; never serialized
    operator: LinearOperatorHandle | None = field(default=None, repr=False, compare=False)

    @staticmethod
    def _extreme_json(r: RootInterval) -> dict:
        out = {"lo": qstr(r.lo), "hi": qstr(r.hi)}
        if r.value is not None:
            out["exact"] = qstr(r.value)
        return out

    def to_json_dict(self) -> dict:
        return {
            "instance": self.instance,
            "degree": self.degree,
            "dim": self.dim,
            "minpoly": self.minpoly.serialize(),
            "den_bound": self.den_bound,
            "roots": [r.to_json_dict() for r in self.isolation.roots],
            "m": self._extreme_json(self.m),
            "M": self._extreme_json(self.M),
            "integer_eigenvalues": {
                str(k): v for k, v in sorted(self.integer_eigenvalues.items())
            },
            "timings": self.timings,
        }


def report_from_minpoly(poly: RatPolynomial, den_bound: int, width, instance: dict,
                        degree: int, dim: int, complex_dim: int) -> SpectralReport:
    """The report of a symmetric operator on C^degree whose minimal polynomial is `poly`.

    Both a fresh computation and a cache entry end here.  The roots are
    isolated to `width` (NotSquarefree unless poly is squarefree), every
    root must be real (CertificationFailed otherwise), and a spectrum
    without a nonzero root raises NoNonzeroRoot.  `den_bound` caps the
    denominators of the rational roots (`isolate_real_roots`), and the
    integer-eigenvalue table says which of 0..complex_dim+1 are roots.
    The timings are left to the caller.
    """
    iso = isolate_real_roots(poly, width, den_bound=den_bound)
    if len(iso.roots) != poly.degree:
        raise CertificationFailed(
            "real-root count does not match degree for a symmetric operator"
        )
    m, M = extract_extremes(iso)
    return SpectralReport(
        instance=instance,
        degree=degree,
        dim=dim,
        minpoly=poly,
        isolation=iso,
        m=m,
        M=M,
        integer_eigenvalues={k: is_eigenvalue(poly, k) for k in range(complex_dim + 2)},
        timings={},
        den_bound=den_bound,
    )


def compute_spectral_report(cx: Complex, i: int, width=DEFAULT_WIDTH, seed: int = 0,
                            instance: dict | None = None,
                            witness_columns=None, coboundary=None) -> SpectralReport:
    """Full certified pipeline for Delta on C^i of cx; `coboundary` as in
    `assemble_matrix`."""
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    op = assemble_matrix(cx, i, coboundary)
    timings["assemble_s"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    poly = minimal_polynomial(op, seed=seed, witness_columns=witness_columns)
    timings["minpoly_s"] = time.perf_counter() - t0

    # rational eigenvalues of A = B/L are integer eigenvalues of B over
    # L, because the minimal polynomial of an integer matrix is monic
    # with integer coefficients: L bounds their denominators
    t0 = time.perf_counter()
    report = report_from_minpoly(poly, op.L, width, instance or {}, i, op.dim, cx.dim)
    timings["isolate_s"] = time.perf_counter() - t0
    report.timings = timings
    report.operator = op
    return report
