"""Certified spectral data for exact rational operators.

The minimal polynomial is guessed fast and then proved:

  1. Assembly (laplace.assemble_matrix) hands over the operator as the
     integer CSR matrix B = L*A with L = lcm of the entry denominators of
     A, so timings["assemble_s"] includes the integer scaling.  The
     minimal polynomial q = min_B is monic with integer coefficients,
     and q with L is what this module computes, certifies, isolates and
     reports; min_A(x) = L^-d q(L x) is built only for the JSON writer
     and the comparison with the recorded references.  A monic integer
     polynomial has only integer rational roots, so every rational
     eigenvalue of A lies in (1/L)Z (L is the report's den_bound), where
     root isolation certifies each one exactly; the integer eigenvalues
     are read off those exact roots.
  2. For each word-size prime p, draw one seed vector v from F_p^n (the
     stream below, each entry within 2**-64 of uniform) and run the
     Krylov sequence v, Bv, B^2 v, ... mod p to the annihilator of v.
     It divides the minimal polynomial of B mod p, which divides min_B
     mod p, so its degree is a LOWER bound on deg min_B.  For a uniform
     v it IS the minimal polynomial of B mod p with probability at least
     1 - d/p, d = deg min_B (Wiedemann, IEEE Trans. Inf. Theory 32,
     1986), and the stream's bias adds at most d * 2**-64; d/p stays
     below 2e-7 on the grids.
     That minimal polynomial equals min_B mod p for all but finitely
     many p.
  3. Reconstruct the integer coefficients by balanced CRT across the
     primes whose annihilator degree e is maximal (a prime of smaller
     degree drew an unlucky seed or reduced badly and is dropped).  Every
     root of min_B has absolute value at most ||B||_inf, so each
     coefficient of min_B is at most (||B||_inf + 1)^d in absolute value,
     and the reconstruction is tried as soon as the product of those
     primes exceeds 2(||B||_inf + 1)^e.  A prime's annihilator of degree
     d is min_B mod p, so once e = d the first reconstruction tried is
     min_B itself; while e < d the candidate fails step 4.
  4. CERTIFY the integer candidate q: q(B) e_j = 0 on the certification
     columns, in integers; a certified q is returned as it is, with L.
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
exceeds 2H forces q(B) = 0 over Z, hence min_A(A) = L^-d q(L A) = 0.
Every modular pass calls scipy's compiled int64 CSR kernels directly
(`csr.matvec`, `csr.matvecs`) on the arrays (indptr, indices, data) and
vectors with entries in [0, p), and a row of the product plus one
coefficient in [0, p) must fit int64.  Two
representations of the data guarantee that, each up to its own cap:

  * B's own int64 entries: the row is at most (||B||_inf + 1)(p - 1) in
    absolute value, so (||B||_inf + 1)(p - 1) < 2**63;
  * the entries reduced mod p to [0, p), one reduction per prime: the
    row is at most max_nnz_row * (p-1)^2 + (p-1), so
    max_nnz_row * p^2 <= 2**62 (hence p <= 2**31, below the Krylov
    ceiling).

Each call computes ||B||_inf once and takes whichever representation
allows the larger primes (`_prime_cap`); object data, whose entries
pass int64 (as when L >= 2**63), are always reduced.  Certification
draws descending primes from that cap.  The Krylov elimination
subtracts a product of two residues from a residue, so its primes stay
at most isqrt(2**63 - 1) = 3,037,000,499 either way: (p-1)^2 and
w - f*vec in (-(p-1)^2, p) then fit int64.
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

Seed vectors are a documented fixed pseudo-random stream: SplitMix64
(Steele, Lea and Flood, "Fast splittable pseudorandom number
generators", OOPSLA 2014) in counter form, on numpy uint64 arrays with
all arithmetic mod 2**64.  With mix its output function and gamma =
0x9E3779B97F4A7C15 its increment, draw r = 0, 1, ... for prime p has
the key k = mix(mix(mix(seed mod 2**64) ^ p) ^ r), and its entry i is
mix(k + (i + 1) * gamma) mod p, the (i + 1)-th output of SplitMix64
started at state k.  The seed vector is the first draw that is not all
zero.  A 64-bit value mod p takes each residue with probability within
2**-64 of 1/p.  The certified result is the unique minimal polynomial,
so --seed never changes reported values.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property
from itertools import count, islice
from math import isqrt, prod

import numpy as np

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
from .rationals import qstr


# primes drawn before CertificationFailed; no grid instance needs more
# than 7, so the cap is reached only when certification keeps failing
_MAX_PRIMES = 160

# the Krylov elimination forms w - f * vec from residues w, f and vec, so
# its primes stay at most isqrt(2**63 - 1) whatever the data: then
# (p - 1)**2 and that difference, in (-(p - 1)**2, p), fit int64
_KRYLOV_CEILING = isqrt(2**63 - 1)


# SplitMix64's increment and the multipliers of its output function
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64's output function on a uint64 array, mod 2**64."""
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def _seed_values(n: int, p: int, seed: int) -> np.ndarray:
    """The seed vector of prime p: the stream of the module docstring,
    n values in [0, p), redrawn while all zero."""
    counters = np.arange(1, n + 1, dtype=np.uint64) * _GAMMA
    key = _mix64(_mix64(np.array([seed % 2**64], dtype=np.uint64)) ^ np.uint64(p))
    for r in count():
        v = _mix64(_mix64(key ^ np.uint64(r)) + counters) % np.uint64(p)
        if v.any():
            return v.astype(np.int64)


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


def _krylov_annihilator_mod_p(bp, p, v0) -> list[int]:
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
    so at most 2**31, below the Krylov ceiling."""
    return isqrt((1 << 62) // max(1, max_nnz_row))


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


@dataclass(frozen=True)
class MinimalPolynomial:
    """min_A of A = B / L as the certified min_B = q and L: min_A(x) = L^-d q(L x)."""

    q: tuple[int, ...]  # monic integer coefficients, low to high
    L: int

    @property
    def degree(self) -> int:
        return len(self.q) - 1


def minimal_polynomial(op: LinearOperatorHandle, seed: int = 0,
                       witness_columns=None) -> MinimalPolynomial:
    """Certified minimal polynomial of the operator A = B / L of `op`, as min_B and L.

    `witness_columns` restricts the certification to those basis
    vectors; pass it only when a symmetry of the operator carries them
    onto all the others (module docstring).  Never affects the value,
    which is the unique minimal polynomial.
    """
    n = op.dim
    if n == 0:
        return MinimalPolynomial((1,), op.L)
    indptr, indices = csr.check((n, n), op.indptr, op.indices, op.data)
    data, L = op.data, op.L
    max_nnz = int(np.diff(indptr).max(initial=0))
    binf = _inf_norm(indptr, data, max_nnz)
    cap, reduce = _prime_cap(data, max_nnz, binf)

    best: dict[int, list[int]] = {}
    best_deg = -1
    failed: set[tuple[int, ...]] = set()
    for p in islice(descending_primes(min(cap, _KRYLOV_CEILING)), _MAX_PRIMES):
        bp = (indptr, indices, _reduce(data, p) if reduce else data)
        ann = _krylov_annihilator_mod_p(bp, p, _seed_values(n, p, seed))
        deg = len(ann) - 1
        if deg > best_deg:
            best, best_deg = {}, deg
        if deg < best_deg:
            continue
        best[p] = ann
        # balanced CRT is exact past twice the coefficient bound of step 3
        if prod(best) <= 2 * (binf + 1) ** deg:
            continue
        primes = sorted(best)
        coeffs = _balanced_crt([best[q] for q in primes], primes)
        if tuple(coeffs) in failed:
            continue
        # an annihilator's degree mod p never exceeds deg min_B, so a
        # certified annihilator of that degree is min_B itself
        if certify_annihilates(n, indptr, indices, data, coeffs, columns=witness_columns):
            return MinimalPolynomial(tuple(coeffs), L)
        failed.add(tuple(coeffs))
    raise CertificationFailed(
        f"no reconstruction was certified within {_MAX_PRIMES} primes"
    )


def squarefree_certify(q) -> None:
    """NotSquarefree unless the integer polynomial q (low to high) is squarefree."""
    if not is_squarefree(q):
        raise NotSquarefree(f"gcd(q, q') is not constant for {q!r}")


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
    q: tuple[int, ...]  # min_B, monic integer coefficients, low to high
    L: int  # the scale of A = B / L, written as "den_bound"
    isolation: RootIsolation
    m: RootInterval
    M: RootInterval
    integer_eigenvalues: dict[int, bool]
    timings: dict[str, float]
    # the assembled operator when this report computed it, None when it
    # came from the cache; never serialized
    operator: LinearOperatorHandle | None = field(default=None, repr=False, compare=False)

    @cached_property
    def minpoly(self) -> RatPolynomial:
        """min_A(x) = L^-d q(L x), built once, for the JSON writer and the references."""
        return RatPolynomial.from_scaled(self.q, self.L)

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
            "den_bound": self.L,
            "roots": [r.to_json_dict() for r in self.isolation.roots],
            "m": self._extreme_json(self.m),
            "M": self._extreme_json(self.M),
            "integer_eigenvalues": {
                str(k): v for k, v in sorted(self.integer_eigenvalues.items())
            },
            "timings": self.timings,
        }


def report_from_minpoly(q: tuple[int, ...], L: int, width, instance: dict,
                        degree: int, dim: int, complex_dim: int) -> SpectralReport:
    """The report of a symmetric operator A = B / L on C^degree with min_B = q.

    Both a fresh computation and a cache entry end here.  The roots of
    min_A are isolated to `width` (NotSquarefree unless q is
    squarefree), every root must be real (CertificationFailed
    otherwise), and a spectrum without a nonzero root raises
    NoNonzeroRoot.  The integer-eigenvalue table says which of
    0..complex_dim+1 are roots, read off the isolation's exact roots: it
    certifies every rational root of min_A on the lattice (1/L)Z.  The
    timings are left to the caller.
    """
    iso = isolate_real_roots(q, L, width)
    if len(iso.roots) != len(q) - 1:
        raise CertificationFailed(
            "real-root count does not match degree for a symmetric operator"
        )
    m, M = extract_extremes(iso)
    exact = {r.value for r in iso.roots if r.value is not None}
    return SpectralReport(
        instance=instance,
        degree=degree,
        dim=dim,
        q=q,
        L=L,
        isolation=iso,
        m=m,
        M=M,
        integer_eigenvalues={k: k in exact for k in range(complex_dim + 2)},
        timings={},
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
    mp = minimal_polynomial(op, seed=seed, witness_columns=witness_columns)
    timings["minpoly_s"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    report = report_from_minpoly(mp.q, mp.L, width, instance or {}, i, op.dim, cx.dim)
    timings["isolate_s"] = time.perf_counter() - t0
    report.timings = timings
    report.operator = op
    return report
