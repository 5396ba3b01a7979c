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
H = sum_k |c_k| * ||B||_inf^k in absolute value.  An integer of absolute
value at most H that a modulus M > H divides is 0, so q(B) = 0 modulo
distinct primes whose product exceeds H forces q(B) = 0 over Z, hence
min_A(A) = L^-d q(L A) = 0.
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

Each call computes ||B||_inf once, summing |B| one block of whole rows
of about 65,536 entries at a time, so no copy of B's data is made, and
takes whichever representation allows the larger primes
(`_kernel_setup`, `_prime_cap`); object data, whose entries pass int64
(as when L >= 2**63), are always reduced.
Certification draws descending primes from that cap.  The Krylov
elimination subtracts a product of two residues from a residue, so its
primes stay at most isqrt(2**63 - 1) = 3,037,000,499 either way: (p-1)^2
and w - f*vec in (-(p-1)^2, p) then fit int64.  Both streams come from
`gf.descending_primes`.
On the grids' buildings ||B||_inf stays below 3*10^4, so their
operators enter the kernels unreduced and certify with primes of at
least 48 bits.  The kernels check no bounds, so `minimal_polynomial` and
`certify_annihilates` validate the CSR arrays once per call
(`csr.check`, in `_kernel_setup`), not once per prime.  Certification
multiplies B into blocks of max(8, 400,000 // n) columns, 3.2 MB of
int64 up to n = 50,000, so a building's 3 to 6 witness columns are one
block.

With every column certified, the certificate also gives m_0 = dim ker B.
Horner's block before its last product is q_1(B) e_j, q_1(x) =
(q(x) - c_0) / x, so its diagonal sums to tr q_1(B) mod each prime.
min_B divides q: if c_0 != 0, m_0 = 0.  If c_0 = 0 and c_1 != 0, 0 is a
simple root of q, so the eigenvalue 0 is semisimple and q_1 vanishes at
every other eigenvalue: tr q_1(B) = m_0 c_1.  A prime p > n not dividing
c_1 fixes m_0 in [0, n]; one exists, as the primes' product exceeds
H >= |c_1|.  Primes that disagree, a value past n or no such prime raise
CertificationFailed, and c_0 = c_1 = 0 NotSquarefree.  Garland's
Delta_j = W_j^-1 d_j^T W_{j+1} d_j, W > 0, has kernel Z^j, so dim H~^j =
z_j - f_{j-1} + z_{j-1} for z_j = dim Z^j, z_{-1} = 0, f_{-1} = 1, z_n = f_n.

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
from dataclasses import dataclass
from functools import cached_property
from itertools import count, islice
from math import isqrt, prod

import numpy as np

from . import csr
from .complexes import Complex
from .errors import (CertificationFailed, DegreeOutOfRange, MalformedMatrix, NoNonzeroRoot,
                     NotSquarefree)
from .gf import descending_primes
from .laplace import LinearOperatorHandle, assemble_matrix
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


# the entries of one block of whole rows that `_inf_norm` sums at a time
_NORM_BLOCK = 65_536


def _inf_norm(indptr: np.ndarray, data: np.ndarray, max_nnz: int) -> int:
    """max_r sum_j |B[r, j]| of CSR B with at most max_nnz entries a row.

    |B| is taken one block of whole rows at a time, about _NORM_BLOCK
    entries (more when one row is longer), so no copy of all of `data`
    is made.  The row sums are exact: a block whose rows could pass
    2**63 is summed as Python ints.
    """
    # a block ends at the last row start at or before each multiple of
    # _NORM_BLOCK entries; a row longer than that makes empty blocks
    ends = np.searchsorted(indptr, np.arange(_NORM_BLOCK, indptr[-1], _NORM_BLOCK,
                                             dtype=indptr.dtype), side="right") - 1
    ends = [*ends.tolist(), len(indptr) - 1]
    best = 0
    for first, end in zip([0, *ends], ends):
        ptr = indptr[first:end + 1]
        block = np.abs(data[ptr[0]:ptr[-1]])
        if int(block.max(initial=0)) * max_nnz >= 2**63:
            block = block.astype(object)
        # reduceat over the nonempty rows' starts: each segment then runs
        # to the next nonempty row, i.e. over exactly one row
        starts = ptr[:-1][np.diff(ptr) > 0] - ptr[0]
        if len(starts):
            best = max(best, int(np.add.reduceat(block, starts).max()))
        del block  # before the next block is taken
    return best


# -- modular Krylov -------------------------------------------------------------


def _krylov_annihilator_mod_p(bp, p, v0) -> list[int]:
    """Monic annihilator mod p of v0 under B, low-to-high coefficients.

    `bp` is (indptr, indices, data), checked CSR arrays of B whose data
    are reduced mod p or B's own entries, as `_kernel_setup` decided.

    Gaussian elimination on the augmented Krylov vectors [B^k v0 | e_k]
    mod p, whose tails carry each row's coefficients in the powers of B
    through the same reduction and normalization.  Stored rows are
    pivot-normalized, fully reduced at insertion and shorter than later
    rows, so one insertion-order pass reduces completely; the tail of
    the first row whose first n entries vanish is the annihilator.
    """
    raw = np.asarray(v0, dtype=np.int64) % p
    n = len(raw)
    basis: list[tuple[int, np.ndarray]] = []
    for k in count():
        w = np.append(raw, [0] * k + [1])  # [B^k v0 | e_k]
        for pivot, vec in basis:
            f = int(w[pivot])
            if f:
                w[:len(vec)] = (w[:len(vec)] - f * vec) % p
        nz = np.flatnonzero(w[:n])
        if len(nz) == 0:
            return w[n:].tolist()
        pivot = int(nz[0])
        inv = pow(int(w[pivot]), -1, p)
        basis.append((pivot, (w * inv) % p))
        raw = csr.matvec(*bp, raw)
        raw %= p


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


def _kernel_setup(n, indptr, indices, data) -> tuple[np.ndarray, np.ndarray, int, int, bool]:
    """(indptr, indices, binf, cap, reduce) for the n x n CSR matrix B:
    the arrays as `csr.check` returns them, binf = ||B||_inf, and
    `_prime_cap`'s modulus cap and representation for B's data.  binf
    is summed by row blocks (`_inf_norm`), so the set-up copies no
    array of B's size."""
    indptr, indices = csr.check((n, n), indptr, indices, data)
    max_nnz = int(np.diff(indptr).max(initial=0))
    binf = _inf_norm(indptr, data, max_nnz)
    return (indptr, indices, binf, *_prime_cap(data, max_nnz, binf))


def certify_annihilates(n, indptr, indices, data, coeffs, columns=None) -> dict[int, int] | None:
    """Exact check that q(B) kills the given basis vectors: None if not,
    else per prime p the sum of q_1(B)'s diagonal entries on them mod p.

    `indptr`, `indices` and `data` are the CSR arrays of a
    `LinearOperatorHandle`, and `coeffs` the integer coefficients of q,
    low to high; q must be monic.  Multi-modular with the bound H of the
    module docstring: every entry of q(B) is at most H in absolute
    value, and an integer of absolute value at most H that a modulus
    M > H divides is 0, so the descending primes from `_kernel_setup`'s
    cap stop once their product exceeds H.  One ||B||_inf both sizes H
    and picks the representation of the data, unreduced int64 entries
    whenever they allow the larger primes.  `columns` defaults to all of
    them; a caller passing fewer must know that a symmetry of B maps
    those onto the rest, see the module docstring.  For n > 0 they must
    be a nonempty list of indices in 0..n-1 (MalformedMatrix otherwise).
    """
    indptr, indices, binf, cap, reduce = _kernel_setup(n, indptr, indices, data)
    cols_np = np.asarray(range(n) if columns is None else columns, dtype=np.int64)
    if n and not (len(cols_np) and 0 <= cols_np.min() and cols_np.max() < n):
        raise MalformedMatrix(f"certification columns must be a nonempty list in 0..{n - 1}")
    if not coeffs or coeffs[-1] != 1:
        return None
    H = sum(abs(c) * binf**k for k, c in enumerate(coeffs))
    primes = []
    for q in descending_primes(cap):
        primes.append(q)
        if prod(primes) > H:
            break
    # about 400,000 entries a block, without splitting a building's witnesses
    block = max(8, 400_000 // max(1, n))
    traces = {}
    for q in primes:
        dq = _reduce(data, q) if reduce else data
        cmod = [c % q for c in coeffs]
        trace = 0
        for start in range(0, len(cols_np), block):
            cols = cols_np[start:start + block]
            pos = np.arange(len(cols))
            s = np.zeros((n, len(cols)), dtype=np.int64)
            s[cols, pos] = cmod[-1]
            # entries enter each product in [0, q), so a row plus one
            # coefficient stays within the int64 bound of _prime_cap
            for k in range(len(cmod) - 2, -1, -1):
                if k == 0:  # s is q_1(B) e_j; summed in ints, as a prime may pass 2**62
                    trace += sum(s[cols, pos].tolist())
                s = csr.matvecs(indptr, indices, dq, s)
                s[cols, pos] += cmod[k]
                s %= q
            if np.any(s):
                return None
        traces[q] = trace % q
    return traces


def _kernel_dim(coeffs, traces: dict[int, int], n: int) -> int:
    """dim ker B from a certified q = min_B of degree >= 1 and the traces
    of `certify_annihilates` over all n columns (module docstring)."""
    c0, c1 = coeffs[:2]
    if c0:
        return 0
    if not c1:
        raise NotSquarefree(f"0 is a multiple root of {coeffs!r}")
    dims = {t * pow(c1, -1, p) % p for p, t in traces.items() if p > n and c1 % p}
    if len(dims) != 1 or max(dims) > n:
        raise CertificationFailed(f"primes p > n read dim ker B as {sorted(dims)}, not 0..{n}")
    return dims.pop()


# -- minimal polynomial --------------------------------------------------------


@dataclass(frozen=True)
class MinimalPolynomial:
    """min_A of A = B / L as the certified min_B = q and L: min_A(x) = L^-d q(L x)."""

    q: tuple[int, ...]  # monic integer coefficients, low to high
    L: int
    kernel_dim: int | None = None  # dim ker B, if every column was certified

    @property
    def degree(self) -> int:
        return len(self.q) - 1


def minimal_polynomial(op: LinearOperatorHandle, seed: int = 0,
                       witness_columns=None) -> MinimalPolynomial:
    """Certified minimal polynomial of the operator A = B / L of `op`, as min_B and L.

    `witness_columns` restricts the certification to those basis
    vectors; pass it only when a symmetry of the operator carries them
    onto all the others (module docstring).  Never affects q and L, the
    unique minimal polynomial; with it, `kernel_dim` is None.
    """
    n = op.dim
    if n == 0:
        return MinimalPolynomial((1,), op.L, 0)
    indptr, indices, binf, cap, reduce = _kernel_setup(n, op.indptr, op.indices, op.data)
    data, L = op.data, op.L

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
        traces = certify_annihilates(n, indptr, indices, data, coeffs, columns=witness_columns)
        if traces is not None:
            kernel_dim = None if witness_columns is not None else _kernel_dim(coeffs, traces, n)
            return MinimalPolynomial(tuple(coeffs), L, kernel_dim)
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


def _check_cochain_degree(cx: Complex, i: int) -> None:
    if not 0 <= i <= cx.dim:
        raise DegreeOutOfRange(f"cochain degree {i} out of range 0..{cx.dim}")


def kernel_dimension(cx: Complex, i: int) -> int:
    """z_i = dim Z^i = dim ker Delta_i, 0 <= i <= n, from the certificate
    of Delta_i's minimal polynomial, and f_n at i = n (module docstring)."""
    _check_cochain_degree(cx, i)
    if i == cx.dim:
        return cx.num_simplices(i)
    return minimal_polynomial(assemble_matrix(cx, i)).kernel_dim


def reduced_cohomology_ranks(cx: Complex) -> list[int]:
    """Exact dimensions of reduced cohomology in degrees 0..n:
    dim H~^i = z_i - f_{i-1} + z_{i-1}, with z_{-1} = 0 and f_{-1} = 1."""
    z = [kernel_dimension(cx, i) for i in range(cx.dim + 1)]
    return [z[i] - (cx.num_simplices(i - 1) - z[i - 1] if i else 1) for i in range(cx.dim + 1)]


def reduced_cohomology_vanishes(cx: Complex, i: int, kernel_dim: int | None = None) -> bool:
    """Whether H~^i = 0, 0 <= i <= n, as in `reduced_cohomology_ranks`;
    `kernel_dim`, when given, is z_i, as a degree-i certificate found it."""
    _check_cochain_degree(cx, i)
    z = kernel_dimension(cx, i) if kernel_dim is None else kernel_dim
    return z == (cx.num_simplices(i - 1) - kernel_dimension(cx, i - 1) if i else 1)


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
    kernel_dim: int | None = None  # as certified; not in the JSON, so None on a cache hit

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
                            witness_columns=None) -> SpectralReport:
    """Full certified pipeline for Delta on C^i of cx."""
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    op = assemble_matrix(cx, i)
    timings["assemble_s"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    mp = minimal_polynomial(op, seed=seed, witness_columns=witness_columns)
    timings["minpoly_s"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    report = report_from_minpoly(mp.q, mp.L, width, instance or {}, i, op.dim, cx.dim)
    timings["isolate_s"] = time.perf_counter() - t0
    report.timings = timings
    report.kernel_dim = mp.kernel_dim
    return report
