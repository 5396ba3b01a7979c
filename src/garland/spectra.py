"""Certified spectral data for exact rational operators.

The minimal polynomial is guessed fast and then proved:

  1. Assembly (laplace.assemble_matrix) hands over the operator as the
     integer CSR matrix B = L*A with L = lcm of the entry denominators of
     A, so timings["assemble_s"] includes the integer scaling.  The
     minimal polynomial of B is monic with integer coefficients and
     pulls back to A through x -> L*x, and L caps the denominator of
     every rational eigenvalue of A (the report's den_bound).
  2. Over several word-size primes p, run Krylov sequences v, Bv, B^2 v,
     ... mod p for a ladder of seed sets and take the lcm of the per-seed
     annihilators.  Each lcm divides the minimal polynomial of B mod p,
     which divides min_B mod p, so its degree is a LOWER bound on
     deg min_B.  The rungs are 5, 10 and 20 pseudo-random seeds, fresh
     on each rung (stream indices 0-4, 5-14 and 15-34; a rung stops
     early once one more seed leaves the lcm unchanged, and seeds that
     stopped one rung short do not stop the next), then the basis
     vectors e_j of the certification columns, all of them, with
     no early stop: that lcm is the minimal polynomial of B mod p, which
     equals min_B mod p for all but finitely many p.
  3. Reconstruct the integer coefficients by balanced CRT across primes
     whose lcm degree is maximal (a prime of smaller degree reduced
     badly and is dropped); stop once one more prime leaves the
     reconstruction unchanged.
  4. CERTIFY the integer candidate q: q(B) e_j = 0 on the certification
     columns, which is p(A) e_j = 0 for p(x) = L^-d q(L x).
     A certified annihilator whose degree matches the Krylov lower bound
     from step 2 IS the minimal polynomial, so a wrong reconstruction
     can never be accepted, only retried on the next rung with fresh
     primes.  If the last rung fails too, CertificationFailed is raised.

The certificate is multi-modular and runs on the candidate for min_B
itself, the monic integer coefficients c_k that the reconstruction
produced.  Every entry of q(B) = sum_k c_k B^k is bounded by
H = sum_k |c_k| * ||B||_inf^k; q(B) = 0 modulo primes whose product
exceeds 2H forces q(B) = 0 over Z, hence p(A) = L^-d q(L A) = 0 for the
returned p(x) = L^-d q(L x).  Every modular pass runs on scipy int64
CSR matmuls with entries kept in [0, p), and primes are capped so that
max_nnz_row * (p-1)^2 < 2**62: a row accumulation cannot overflow int64.

Callers whose operator commutes with a symmetry group that is
transitive on basis vectors up to sign may pass witness columns: one
basis index per orbit.  p(A) commutes with the group action, so
annihilating the witnesses annihilates every basis vector; the caller
owns that transitivity claim.  The same argument over F_p makes the
basis-vector rung's lcm over the witnesses the minimal polynomial of
B mod p.

Seed vectors are a documented fixed pseudo-random stream: seed vector
`index` is drawn whole, as n integers in [-3, 3], by
numpy.random.default_rng([seed mod 2**64, index]).integers(-3, 4, n),
and drawn again from the same generator while it is all zero.  The
certified result is the unique minimal polynomial, so --seed never
changes reported values.

B's CSR data are one ndarray, int64 when every entry fits and an object
array of Python ints otherwise (assembly chooses).  Each prime reduces
it in numpy, to int64 residues in [0, p), and ||B||_inf is one row
reduction over it, widened to Python ints when an int64 row sum could
pass 2**63.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from math import isqrt

import numpy as np
from scipy.sparse import csr_matrix

from . import exactla
from .complexes import Complex
from .errors import CertificationFailed, NoNonzeroRoot, NotSquarefree
from .gf import is_prime, poly_lcm
from .laplace import LinearOperatorHandle, assemble_matrix, coboundary_pattern
from .polyq import (
    RatPolynomial,
    RootInterval,
    RootIsolation,
    is_squarefree,
    isolate_real_roots,
)
from .rationals import QQ, QQ1, qstr


def _seed_values(n: int, index: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng([seed % 2**64, index])
    while True:
        v = rng.integers(-3, 4, size=n)
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
        raw = (bp @ raw) % p
        k += 1


# the pseudo-random rungs as ranges of seed-stream indices, then the basis rung
_RUNGS = (range(0, 5), range(5, 15), range(15, 35), None)


def _ladder_seeds(n: int, seed: int, rung: range | None, columns):
    """Seed vectors of one ladder rung: the pseudo-random vectors of the
    stream indices in `rung`, or for the final rung (None) the basis
    vectors e_j, j in `columns`."""
    if rung is None:
        for j in columns:
            e = [0] * n
            e[j] = 1
            yield e
    else:
        for index in rung:
            yield _seed_values(n, index, seed)


def _minpoly_mod_p(n, indptr, indices, data, p, seeds, stop_early) -> list[int]:
    """lcm of the seeds' annihilators under B mod p; a divisor of min_{B mod p}.

    With `stop_early` the lcm is returned as soon as one more seed leaves
    it unchanged.
    """
    bp = csr_matrix((_reduce(data, p), indices, indptr), shape=(n, n))
    acc = [1]
    for index, v0 in enumerate(seeds):
        ann = _krylov_annihilator_mod_p(n, bp, p, v0)
        new = poly_lcm(acc, ann, p)
        if stop_early and index > 0 and new == acc:
            break
        acc = new
        if len(acc) - 1 >= n:
            break
    return acc


def _balanced_crt(residues: list[int], primes: list[int]) -> int:
    """The representative in (-M/2, M/2] of the CRT class, M = prod(primes)."""
    m = 1
    for p in primes:
        m *= p
    x = 0
    for r, p in zip(residues, primes):
        mp = m // p
        x = (x + r * mp * pow(mp, p - 2, p)) % m
    return x if 2 * x <= m else x - m


# -- certification ------------------------------------------------------------


def _prime_stream(max_nnz_row: int):
    """Descending primes small enough that a mod-p row accumulation fits int64."""
    cap = min(isqrt((1 << 62) // max(1, max_nnz_row)), (1 << 30) - 1)
    p = cap if cap % 2 else cap - 1
    while p > 2:
        if is_prime(p):
            yield p
        p -= 2


def certify_annihilates(n, indptr, indices, data, coeffs, columns=None) -> bool:
    """Exact check that q(B) kills the given basis vectors.

    `indptr`, `indices` and `data` are the CSR arrays of a
    `LinearOperatorHandle`, and `coeffs` the integer coefficients of q,
    low to high; q must be monic.  Multi-modular with the 2H bound of
    the module docstring.  `columns` defaults to all of them; a caller
    passing fewer must know that a symmetry of B maps those onto the
    rest, see the module docstring.
    """
    if not coeffs or coeffs[-1] != 1:
        return False
    if columns is None:
        columns = range(n)
    max_nnz = int(np.diff(indptr).max(initial=0))
    binf = _inf_norm(indptr, data, max_nnz)
    H = sum(abs(c) * binf**k for k, c in enumerate(coeffs))
    primes = []
    prod = 1
    for q in _prime_stream(max_nnz):
        primes.append(q)
        prod *= q
        if prod > 2 * H:
            break
    cols_np = np.asarray(columns, dtype=np.int64)
    block = max(1, min(len(cols_np), 4_000_000 // max(1, n)))
    for q in primes:
        bq = csr_matrix((_reduce(data, q), indices, indptr), shape=(n, n))
        cmod = [c % q for c in coeffs]
        for c0 in range(0, len(cols_np), block):
            cols = cols_np[c0:c0 + block]
            pos = np.arange(len(cols))
            s = np.zeros((n, len(cols)), dtype=np.int64)
            s[cols, pos] = cmod[-1]
            # keep entries in [0, q) entering each matvec so row sums
            # stay below max_nnz * (q-1)^2 < 2**62
            for k in range(len(cmod) - 2, -1, -1):
                s = bq @ s
                s[cols, pos] += cmod[k]
                s %= q
            if np.any(s):
                return False
    return True


# -- minimal polynomial --------------------------------------------------------


def minimal_polynomial(op: LinearOperatorHandle, seed: int = 0,
                       witness_columns=None) -> RatPolynomial:
    """Certified minimal polynomial of the operator A = B / L of `op`.

    `witness_columns` restricts the certification, and the seeds of the
    basis-vector rung, to those basis vectors; pass it only when a
    symmetry of the operator carries them onto all the others (module
    docstring).  Never affects the value, which is the unique minimal
    polynomial.
    """
    n = op.dim
    if n == 0:
        return RatPolynomial((QQ1,))
    indptr, indices, data, L = op.indptr, op.indices, op.data, op.L
    max_nnz = int(np.diff(indptr).max(initial=0))
    columns = range(n) if witness_columns is None else witness_columns

    prime_iter = _prime_stream(max_nnz)
    # unlucky seeds or primes move on to a deeper rung and fresh primes
    for rung in _RUNGS:
        best: dict[int, list[int]] = {}
        best_deg = -1
        prev: list[int] | None = None
        for _ in range(40):
            p = next(prime_iter)
            mp = _minpoly_mod_p(n, indptr, indices, data, p,
                                _ladder_seeds(n, seed, rung, columns),
                                stop_early=rung is not None)
            deg = len(mp) - 1
            if deg > best_deg:
                best, best_deg, prev = {}, deg, None
            if deg == best_deg:
                best[p] = mp
            if len(best) < 2:
                continue
            primes = sorted(best)
            coeffs = [
                _balanced_crt([best[q][k] for q in primes], primes)
                for k in range(best_deg + 1)
            ]
            if coeffs == prev:
                # the lcm degree mod p never exceeds deg min_B, so a
                # certified annihilator of that degree is min_B itself
                if certify_annihilates(n, indptr, indices, data, coeffs, columns=columns):
                    return RatPolynomial(tuple(QQ(c) for c in coeffs)).scale_roots(QQ(1, L))
                break
            prev = coeffs
    raise CertificationFailed(
        "no reconstruction from the basis-vector rung was certified"
    )


def squarefree_certify(p: RatPolynomial) -> None:
    if not is_squarefree(p):
        raise NotSquarefree(f"gcd(p, p') is not constant for {p!r}")


def is_eigenvalue(p: RatPolynomial, c) -> bool:
    return p(QQ(c)) == 0


def integer_table(p: RatPolynomial, complex_dim: int) -> dict[int, bool]:
    """Which of the integers 0..complex_dim+1 are roots of p."""
    return {k: is_eigenvalue(p, k) for k in range(complex_dim + 2)}


def extract_extremes(iso: RootIsolation) -> tuple[RootInterval, RootInterval]:
    """Smallest and largest nonzero roots (certified intervals or exact)."""
    nonzero = [r for r in iso.roots if not r.is_zero]
    if not nonzero:
        raise NoNonzeroRoot("spectrum is {0}")
    return nonzero[0], nonzero[-1]


# -- reduced cohomology ----------------------------------------------------------


_RANK_PRIME = 1_000_003  # any prime below 2**31 makes the mod-p bound sound


def _coboundary_int_rows(cx: Complex, i: int) -> np.ndarray:
    """The dense int64 matrix of d_i, one row per (i+1)-face."""
    cols, signs = coboundary_pattern(cx, i)
    rows = np.zeros((len(cols), cx.num_simplices(i)), dtype=np.int64)
    rows[np.arange(len(cols))[:, None], cols] = signs
    return rows


def reduced_cohomology_ranks(cx: Complex) -> list[int]:
    """Exact ranks of reduced cohomology in degrees 0..n (augmented at -1)."""
    n = cx.dim
    rank_d = [exactla.rank(_coboundary_int_rows(cx, i)) for i in range(n)]
    dims = [cx.num_simplices(i) for i in range(n + 1)]
    out = []
    for i in range(n + 1):
        hi = rank_d[i] if i < n else 0
        lo = 1 if i == 0 else rank_d[i - 1]  # augmentation has rank 1
        out.append(dims[i] - hi - lo)
    return out


def reduced_cohomology_vanishes(cx: Complex, i: int) -> bool:
    """Whether the reduced cohomology of degree i vanishes, decided exactly.

    dim H-tilde^i = dims[i] - rank(d_i) - rank(d_{i-1}), where d_{-1} is
    the augmentation (a column of ones) and d_n has no rows.  Mod-p ranks
    never exceed rational ranks, so the count over F_p is an upper
    bound, and 0 certifies vanishing; a positive bound is decided by the
    exact ranks of the same two matrices.
    """
    size = cx.num_simplices(i)
    hi = (_coboundary_int_rows(cx, i) if i < cx.dim
          else np.zeros((0, size), dtype=np.int64))
    lo = (_coboundary_int_rows(cx, i - 1) if i > 0
          else np.ones((size, 1), dtype=np.int64))
    if size == exactla.rank_mod_p(hi, _RANK_PRIME) + exactla.rank_mod_p(lo, _RANK_PRIME):
        return True
    return size == exactla.rank(hi) + exactla.rank(lo)


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


def compute_spectral_report(cx: Complex, i: int, width="1/1000000", seed: int = 0,
                            instance: dict | None = None,
                            witness_columns=None) -> SpectralReport:
    """Full certified pipeline for Delta on C^i of cx."""
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    op = assemble_matrix(cx, i)
    timings["assemble_s"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    poly = minimal_polynomial(op, seed=seed, witness_columns=witness_columns)
    timings["minpoly_s"] = time.perf_counter() - t0

    # isolation raises NotSquarefree: its Sturm chain is the squarefree test
    # rational eigenvalues of A = B/L are integer eigenvalues of B over
    # L, because the minimal polynomial of an integer matrix is monic
    # with integer coefficients
    den_bound = op.L
    t0 = time.perf_counter()
    iso = isolate_real_roots(poly, width, den_bound=den_bound)
    timings["isolate_s"] = time.perf_counter() - t0
    if len(iso.roots) != poly.degree:
        raise CertificationFailed(
            "real-root count does not match degree for a symmetric operator"
        )
    m, M = extract_extremes(iso)
    return SpectralReport(
        instance=instance or {},
        degree=i,
        dim=op.dim,
        minpoly=poly,
        isolation=iso,
        m=m,
        M=M,
        integer_eigenvalues=integer_table(poly, cx.dim),
        timings=timings,
        den_bound=den_bound,
        operator=op,
    )
