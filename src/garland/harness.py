"""Verification drivers, reference reproduction, caching, and reports.

Buildings and ingested complexes share one model, `Instance`: a pure
complex of dimension n with a JSON label, a cache-key stem and optional
symmetry data.  Garland's method bounds the spectrum of the Laplacian
on C^i by the degree i-1 spectra of the vertex links.  On a building the
linear group is transitive on vertices of each type and on simplices
of each type signature, so one link per vertex type and one
certification column per signature stand in for all of them; that
symmetry data is the only difference between the two kinds.  So there
is one report driver, `spectral_report`, and one run driver,
`run_instance`, and both check 0 <= i <= n-1 before touching the cache.

Every verdict is re-checkable from its witness data alone: witnesses
carry exact rationals (as "num/den" strings) or certified root
intervals, never floats.  Interval comparisons work on closed outer
hulls [lo, hi] of the isolating intervals, with one sharpening: an
isolating interval (lo, hi] of an irrational root certifies value > lo
strictly, which is what strict threshold checks use.  When a comparison
is undecided at the requested isolation width, the intervals are
refined down to a floor of 10^-12 before the verdict degrades to
"inconclusive-at-width".

Cached spectral data is keyed by the instance's stem (b{ell}-q{q} for a
building, x{sha256 of the canonical text} for a complex), the degree,
the isolation width and the artifact version.  A hit is re-derived
from its minimal polynomial, and its instance, degree and dimension are
the caller's, so it reproduces a fresh computation byte for byte.  Its
timings are its own: the seconds the load took, as "load_s".
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial
from itertools import combinations
from pathlib import Path

import numpy as np

from .building import TypedBuilding, flag_complex, witness_columns
from .complexes import Complex
from .errors import (
    BudgetExceeded,
    DegreeOutOfRange,
    NotSquarefree,
    UnknownReferenceInstance,
)
from .gf import field_for_order
from .polyq import RatPolynomial, RootInterval, isolate_real_roots, root_magnitude_bound
from .rationals import QQ, QQ0, qstr
from .reference import has_reference, reference_minimal_polynomial
from .spectra import (
    SpectralReport,
    compute_spectral_report,
    extract_extremes,
    integer_table,
    reduced_cohomology_ranks,
    reduced_cohomology_vanishes,
)
from .version import VERSION

DEFAULT_WIDTH = "1/1000000"
WIDTH_FLOOR = QQ(1, 10**12)
DEFAULT_CHAMBER_BUDGET = 700_000

CERTIFIED_TRUE = "certified-true"
CERTIFIED_FALSE = "certified-false"
INCONCLUSIVE = "inconclusive-at-width"


# -- instances and budget -------------------------------------------------------


def _q_factorial(k: int, q: int) -> int:
    """[k]_q! = prod over j = 1..k of (q^j - 1) / (q - 1)."""
    out = 1
    for j in range(1, k + 1):
        out *= (q**j - 1) // (q - 1)
    return out


def flag_count(ell: int, q: int, i: int) -> int:
    """Number of i-simplices of the flag complex on F_q^(ell+2), without building it.

    An i-simplex is a flag of subspaces of dimensions d_0 < ... < d_i in
    1..ell+1, and the flags of those dimensions in F_q^n, n = ell + 2,
    number the Gaussian multinomial [n]_q! / ([d_0]_q! [d_1 - d_0]_q!
    ... [n - d_i]_q!).
    """
    n = ell + 2
    top = _q_factorial(n, q)
    total = 0
    for dims in combinations(range(1, n), i + 1):
        den = 1
        for a, b in zip((0, *dims), (*dims, n)):
            den *= _q_factorial(b - a, q)
        total += top // den
    return total


def chamber_count(ell: int, q: int) -> int:
    """Number of top simplices of the flag complex on F_q^(ell+2)."""
    return flag_count(ell, q, ell)


def ensure_budget(ell: int, q: int, budget: int | None = None) -> None:
    limit = DEFAULT_CHAMBER_BUDGET if budget is None else budget
    count = chamber_count(ell, q)
    if count > limit:
        raise BudgetExceeded(
            f"instance (ell={ell}, q={q}) has {count} chambers, over the budget of {limit}"
        )


_BUILDINGS: dict[tuple[int, int], TypedBuilding] = {}


def get_building(ell: int, q: int) -> TypedBuilding:
    ensure_budget(ell, q)
    key = (ell, q)
    if key not in _BUILDINGS:
        _BUILDINGS[key] = flag_complex(ell, field_for_order(q))
    return _BUILDINGS[key]


@dataclass(frozen=True)
class LinkOrbit:
    """A vertex whose link stands in for `count` vertices with isomorphic links."""

    vertex: int
    count: int
    label: str  # names the orbit in the fundamental-inequality witness
    tag: dict  # the instance recorded in the link's spectral report


@dataclass(frozen=True)
class Symmetry:
    """What a group acting on the complex lets one representative decide.

    `witness_columns(i)` gives certification columns for degree i: the
    Laplacian commutes with the action, so a polynomial in it vanishes
    once it vanishes on them (None: certify every column).  `links`
    gives one vertex per orbit, whose link spectrum is that of every
    vertex in the orbit.
    """

    witness_columns: Callable[[int], list[int] | None]
    links: list[LinkOrbit]

    @classmethod
    def trivial(cls, cx: Complex) -> Symmetry:
        """The identity alone: every column certified, every vertex its own orbit."""
        return cls(lambda i: None,
                   [LinkOrbit(v, 1, f"vertex-{v}", {"vertex": v}) for v in cx.vertices])


def _type_orbits(b: TypedBuilding) -> list[LinkOrbit]:
    """One representative per vertex type, the least vertex id, with the type's size."""
    types, reps, counts = np.unique(b.vertex_types, return_index=True, return_counts=True)
    return [LinkOrbit(v, c, f"type-{t}", {"link_type": t, "vertex": v})
            for t, v, c in zip(types.tolist(), reps.tolist(), counts.tolist())]


class Instance:
    """One pure complex to verify, with the symmetry data that shortens the work.

    - `label`: the JSON label; the documents of degree i carry it with
      "i" added.
    - `n`: the dimension of the complex (ell for a building).
    - `stem`: the cache-key stem, b{ell}-q{q} for a building and
      x{sha256 of the canonical text} for a complex (hashed on first use,
      and never for a building).
    - `reference`: the (ell, q) of the recorded minimal polynomials, or
      None.
    - `num_simplices(i)`: the dimension of C^i; for a building the
      closed-form flag count, so a cache hit sizes its report without
      loading the complex.
    - the complex and its `Symmetry`, loaded on first use, so a cache hit
      at i = 0 constructs no building.  A building carries its type
      symmetry; a complex carries the trivial one, under which every
      column is certified and every vertex is its own link orbit, with
      count 1.

    Build one with `Instance.building(ell, q)` or `Instance.complex(cx)`.
    """

    def __init__(self, label: dict, n: int, load, num_simplices,
                 stem: str | None = None, reference: tuple[int, int] | None = None):
        self.label = label
        self.n = n
        self.reference = reference
        self.num_simplices = num_simplices  # i -> the number of i-simplices
        self._load = load  # () -> (Complex, Symmetry)
        self._loaded = None
        self._stem = stem

    @classmethod
    def building(cls, ell: int, q: int) -> Instance:
        """The flag complex of F_q^(ell+2), with its type symmetry."""
        ensure_budget(ell, q)

        def load():
            b = get_building(ell, q)
            return b.complex, Symmetry(partial(witness_columns, b), _type_orbits(b))

        return cls({"ell": ell, "q": q}, ell, load, partial(flag_count, ell, q),
                   stem=f"b{ell}-q{q}", reference=(ell, q))

    @classmethod
    def complex(cls, cx: Complex, label: dict | None = None) -> Instance:
        """A complex with the trivial symmetry, labelled by its sha256 unless told otherwise."""
        inst = cls(label, cx.dim, lambda: (cx, Symmetry.trivial(cx)), cx.num_simplices)
        if label is None:
            inst.label = {"sha256": inst.stem[1:]}
        return inst

    def _data(self) -> tuple[Complex, Symmetry]:
        if self._loaded is None:
            self._loaded = self._load()
        return self._loaded

    @property
    def cx(self) -> Complex:
        return self._data()[0]

    @property
    def symmetry(self) -> Symmetry:
        return self._data()[1]

    @property
    def stem(self) -> str:
        if self._stem is None:
            self._stem = "x" + hashlib.sha256(self.cx.to_text().encode()).hexdigest()
        return self._stem

    def tag(self, i: int) -> dict:
        """The label of this instance's documents in degree i."""
        return dict(self.label, i=i)


def default_grid() -> list[tuple[int, int, int]]:
    grid = [(1, q, 0) for q in (2, 3, 4, 5, 7)]
    grid += [(2, q, i) for q in (2, 3) for i in (0, 1)]
    grid += [(3, 2, 0)]
    return sorted(grid)


def extended_grid() -> list[tuple[int, int, int]]:
    grid = default_grid()
    grid += [(2, q, i) for q in (4, 5, 7) for i in (0, 1)]
    grid += [(3, 2, 1), (3, 2, 2), (3, 3, 0), (4, 2, 0)]
    return sorted(grid)


# -- verdicts -------------------------------------------------------------------


@dataclass
class VerificationVerdict:
    check: str
    instance: dict
    status: str
    witness: dict

    def to_json_dict(self) -> dict:
        return {
            "check": self.check,
            "instance": self.instance,
            "status": self.status,
            "witness": self.witness,
        }


def _bounds(r: RootInterval) -> tuple:
    if r.value is not None:
        v = QQ(r.value)
        return v, v
    return r.lo, r.hi


def _root_json(r: RootInterval) -> dict:
    return r.to_json_dict()


def _refine_extreme(report: SpectralReport, which: int, undecided) -> RootInterval:
    """Refine the m (which=0) or M (which=1) interval until undecided() clears."""
    r = extract_extremes(report.isolation)[which]
    if undecided(r):
        iso = report.isolation.refine(WIDTH_FLOOR)
        r = extract_extremes(iso)[which]
    return r


# -- individual checks ----------------------------------------------------------


def verdict_max_eigenvalue(report: SpectralReport, expected: int,
                           instance: dict) -> VerificationVerdict:
    p = report.minpoly
    top = QQ(expected)
    is_root = p(top) == 0
    bound = root_magnitude_bound(p)
    hi = bound if bound > top else top + 1
    above = report.isolation.count_in_halfopen(top, hi)
    ok = is_root and above == 0
    return VerificationVerdict(
        check="max-eigenvalue",
        instance=instance,
        status=CERTIFIED_TRUE if ok else CERTIFIED_FALSE,
        witness={
            "expected": qstr(top),
            "is_root": is_root,
            "roots_above": above,
        },
    )


def verdict_min_bound(report: SpectralReport, bound,
                      instance: dict) -> VerificationVerdict:
    bound = QQ(bound)

    def undecided(r):
        lo, hi = _bounds(r)
        return r.value is None and lo < bound < hi

    m = _refine_extreme(report, 0, undecided)
    lo, hi = _bounds(m)
    if hi <= bound:
        status = CERTIFIED_TRUE
    elif (m.value is not None and QQ(m.value) > bound) or (m.value is None and lo >= bound):
        status = CERTIFIED_FALSE
    else:
        status = INCONCLUSIVE
    return VerificationVerdict(
        check="min-bound",
        instance=instance,
        status=status,
        witness={"bound": qstr(bound), "m": _root_json(m)},
    )


def verdict_integer_eigenvalues(report: SpectralReport, ell: int, i: int,
                                instance: dict) -> VerificationVerdict:
    p = report.minpoly
    required = {k: p(QQ(k)) == 0 for k in range(ell - i + 1, ell + 2)}
    edge = ell - i
    return VerificationVerdict(
        check="integer-eigenvalues",
        instance=instance,
        status=CERTIFIED_TRUE if all(required.values()) else CERTIFIED_FALSE,
        witness={
            "required": {str(k): v for k, v in sorted(required.items())},
            "next_lower": {"value": edge, "is_root": p(QQ(edge)) == 0},
        },
    )


def _compare_le(lhs_hi, rhs_lo, lhs_lo, rhs_hi) -> str:
    """Status of 'LHS <= RHS' given outer hulls of both sides."""
    if lhs_hi <= rhs_lo:
        return CERTIFIED_TRUE
    if lhs_lo > rhs_hi:
        return CERTIFIED_FALSE
    return INCONCLUSIVE


def _link_cohomology_vanishes(link: Complex, j: int) -> bool:
    quick = reduced_cohomology_vanishes(link, j)
    if quick:
        return True
    return reduced_cohomology_ranks(link)[j] == 0


def fundamental_inequality_verdict(cx: Complex, i: int, report: SpectralReport,
                                   link_data: list[dict],
                                   instance: dict) -> VerificationVerdict:
    """Two-sided spectral bound from extremal link eigenvalues.

    link_data rows: {"label", "count", "report", "vanishes"} with one row
    per link (or per isomorphism class, with count carrying multiplicity).
    The lower bound is asserted only when every link has vanishing
    reduced cohomology in degree i-1.
    """
    n = cx.dim
    iq, nq = QQ(i), QQ(n)

    def side_bounds(width_floor: bool):
        mm = []
        for row in link_data:
            iso = row["report"].isolation
            if width_floor:
                iso = iso.refine(WIDTH_FLOOR)
            mm.append(extract_extremes(iso))
        big = report.isolation.refine(WIDTH_FLOOR) if width_floor else report.isolation
        m_x, big_m = extract_extremes(big)
        lam_max = (max(_bounds(e[1])[0] for e in mm), max(_bounds(e[1])[1] for e in mm))
        lam_min = (min(_bounds(e[0])[0] for e in mm), min(_bounds(e[0])[1] for e in mm))
        return m_x, big_m, lam_max, lam_min

    hypothesis = all(row["vanishes"] for row in link_data)
    for attempt in (False, True):
        m_x, big_m, lam_max, lam_min = side_bounds(attempt)
        mlo, mhi = _bounds(m_x)
        Mlo, Mhi = _bounds(big_m)
        # upper: i*M <= (i+1)*lam_max - (n-i)
        up_lhs = (iq * Mlo, iq * Mhi)
        up_rhs = ((iq + 1) * lam_max[0] - (nq - iq), (iq + 1) * lam_max[1] - (nq - iq))
        upper = _compare_le(up_lhs[1], up_rhs[0], up_lhs[0], up_rhs[1])
        # lower: i*m >= (i+1)*lam_min - (n-i), i.e. RHS <= LHS
        lo_lhs = (iq * mlo, iq * mhi)
        lo_rhs = ((iq + 1) * lam_min[0] - (nq - iq), (iq + 1) * lam_min[1] - (nq - iq))
        lower = _compare_le(lo_rhs[1], lo_lhs[0], lo_rhs[0], lo_lhs[1]) if hypothesis else "not-applicable"
        if upper != INCONCLUSIVE and lower != INCONCLUSIVE:
            break

    parts = [upper] + ([lower] if hypothesis else [])
    if CERTIFIED_FALSE in parts:
        status = CERTIFIED_FALSE
    elif INCONCLUSIVE in parts:
        status = INCONCLUSIVE
    else:
        status = CERTIFIED_TRUE
    links_witness = [
        {
            "label": row["label"],
            "count": row["count"],
            "minpoly": row["report"].minpoly.serialize(),
            "m": _root_json(row["report"].m),
            "M": _root_json(row["report"].M),
            "cohomology_vanishes": row["vanishes"],
        }
        for row in link_data
    ]
    witness = {
        "n": n,
        "i": i,
        "M": _root_json(big_m),
        "m": _root_json(m_x),
        "lambda_max": {"lo": qstr(lam_max[0]), "hi": qstr(lam_max[1])},
        "upper": {
            "lhs": {"lo": qstr(up_lhs[0]), "hi": qstr(up_lhs[1])},
            "rhs": {"lo": qstr(up_rhs[0]), "hi": qstr(up_rhs[1])},
            "status": upper,
        },
        "hypothesis_cohomology_vanishes": hypothesis,
        "links": links_witness,
    }
    if hypothesis:
        witness["lambda_min"] = {"lo": qstr(lam_min[0]), "hi": qstr(lam_min[1])}
        witness["lower"] = {
            "lhs": {"lo": qstr(lo_lhs[0]), "hi": qstr(lo_lhs[1])},
            "rhs": {"lo": qstr(lo_rhs[0]), "hi": qstr(lo_rhs[1])},
            "status": lower,
        }
    else:
        witness["lower"] = {"status": "not-applicable"}
    return VerificationVerdict(
        check="fundamental-inequality",
        instance=instance,
        status=status,
        witness=witness,
    )


def verdict_vanishing_threshold(report_below: SpectralReport, ell: int, i: int,
                                instance: dict) -> VerificationVerdict:
    """Hypothesis check for cohomology degree i: is m^{i-1} > (ell+1-i)/(i+1)?

    This checks the spectral hypothesis only; no group cohomology is
    computed here.
    """
    theta = QQ(ell + 1 - i, i + 1)

    def undecided(r):
        lo, hi = _bounds(r)
        return r.value is None and lo < theta < hi

    m = _refine_extreme(report_below, 0, undecided)
    lo, hi = _bounds(m)
    if (m.value is not None and QQ(m.value) > theta) or (m.value is None and lo >= theta):
        status = CERTIFIED_TRUE
    elif hi <= theta:
        status = CERTIFIED_FALSE
    else:
        status = INCONCLUSIVE
    return VerificationVerdict(
        check="vanishing-threshold",
        instance=instance,
        status=status,
        witness={
            "kind": "hypothesis-check",
            "cohomology_degree": i,
            "spectral_degree": i - 1,
            "threshold": qstr(theta),
            "m": _root_json(m),
        },
    )


def conjecture_table(report: SpectralReport, lo_int: int, hi_int: int,
                     instance: dict) -> dict:
    """Distance of every nonzero root to its nearest integer in [lo_int, hi_int]."""
    rows = []
    eps = QQ0
    for r in report.isolation.roots:
        if r.is_zero:
            continue
        lo, hi = _bounds(r)
        best = None
        for k in range(lo_int, hi_int + 1):
            kq = QQ(k)
            dlo = max(QQ0, kq - hi, lo - kq)
            dhi = max(abs(hi - kq), abs(kq - lo))
            if best is None or dhi < best[2]:
                best = (k, dlo, dhi)
        rows.append({
            "root": _root_json(r),
            "nearest_integer": best[0],
            "distance": {"lo": qstr(best[1]), "hi": qstr(best[2])},
        })
        if best[2] > eps:
            eps = best[2]
    return {
        "instance": instance,
        "admissible_integers": list(range(lo_int, hi_int + 1)),
        "roots": rows,
        "epsilon": qstr(eps),
    }


# -- caching --------------------------------------------------------------------


def resolve_cache_dir(arg=None):
    if arg:
        return Path(arg)
    env = os.environ.get("GARLAND_CACHE_DIR")
    return Path(env) if env else None


def _width_tag(width) -> str:
    w = QQ(width)
    return f"{w.numerator}x{w.denominator}"


def cache_key(stem: str, i: int, width) -> str:
    return f"v{VERSION}-{stem}-i{i}-w{_width_tag(width)}"


def _atomic_write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    tmp.write_text(text)
    os.replace(tmp, path)


def load_cached_report(cache_dir: Path, key: str, width, instance: dict, degree: int,
                       inst: Instance):
    """The report stored under key, re-derived from its minimal polynomial, or None.

    The entry must name the key it answers (`store_report` writes it), so
    a file copied or renamed from another instance, degree, width or
    version, or one without a key, is a miss.  The roots are re-isolated
    and must equal the stored ones.  Nothing else is read from the file:
    `dim` is `inst.num_simplices(degree)`, the integer-eigenvalue table is
    re-evaluated as `compute_spectral_report` forms it for a complex of
    dimension `inst.n`, `instance` and `degree` are the caller's, and the
    timings are this load's own, {"load_s": seconds}.
    """
    t0 = time.perf_counter()
    path = cache_dir / f"{key}.json"
    if not path.exists():
        return None
    try:
        data = json.loads(path.read_text())
        if data["key"] != key:
            return None
        poly = RatPolynomial.parse(data["minpoly"])
        den_bound = int(data["den_bound"])
        if den_bound <= 0:
            raise ValueError("den_bound must be positive")
        # a wrong den_bound only changes rationality labels, which the
        # roots comparison below then rejects
        iso = isolate_real_roots(poly, width, den_bound=den_bound)
    except (ValueError, KeyError, NotSquarefree):
        return None
    if [r.to_json_dict() for r in iso.roots] != data["roots"]:
        return None  # stale entry; recompute
    m, big_m = extract_extremes(iso)
    return SpectralReport(
        instance=instance,
        degree=degree,
        dim=inst.num_simplices(degree),
        minpoly=poly,
        isolation=iso,
        m=m,
        M=big_m,
        integer_eigenvalues=integer_table(poly, inst.n),
        timings={"load_s": time.perf_counter() - t0},
        den_bound=den_bound,
    )


def store_report(cache_dir: Path, key: str, report: SpectralReport) -> None:
    text = json.dumps({**report.to_json_dict(), "key": key}, indent=2, sort_keys=True) + "\n"
    _atomic_write_text(cache_dir / f"{key}.json", text)


# -- drivers ----------------------------------------------------------------------


def _report(inst: Instance, i: int, instance: dict, width, seed: int,
            cache_dir) -> SpectralReport:
    """The cached or freshly computed report of degree i, labelled `instance`."""
    cache_dir = resolve_cache_dir(cache_dir)
    if cache_dir is not None:
        key = cache_key(inst.stem, i, width)
        hit = load_cached_report(cache_dir, key, width, instance, i, inst)
        if hit is not None:
            return hit
    report = compute_spectral_report(inst.cx, i, width=width, seed=seed, instance=instance,
                                     witness_columns=inst.symmetry.witness_columns(i))
    if cache_dir is not None:
        store_report(cache_dir, key, report)
    return report


def _check_degree(inst: Instance, i: int) -> None:
    if not 0 <= i <= inst.n - 1:
        raise DegreeOutOfRange(f"cochain degree {i} out of range for dimension {inst.n}")


def spectral_report(inst: Instance, i: int, width=DEFAULT_WIDTH, seed: int = 0,
                    cache_dir=None) -> SpectralReport:
    """Certified spectral report of degree i, from the cache when it holds one."""
    _check_degree(inst, i)
    return _report(inst, i, inst.tag(i), width, seed, cache_dir)


def _link_data(inst: Instance, j: int, width, seed: int, cache_dir) -> list[dict]:
    """Degree-j spectral report and cohomology of one vertex link per link orbit."""
    out = []
    for orbit in inst.symmetry.links:
        link, _ = inst.cx.vertex_link(orbit.vertex)
        out.append({
            "label": orbit.label,
            "count": orbit.count,
            "report": _report(Instance.complex(link, orbit.tag), j, orbit.tag,
                              width, seed, cache_dir),
            "vanishes": _link_cohomology_vanishes(link, j),
        })
    return out


def _reproduction_dict(report: SpectralReport, ref: RatPolynomial, inst: Instance,
                       i: int) -> dict:
    computed = report.minpoly
    match = computed == ref
    first_diff = None
    if not match:
        size = max(len(computed.coeffs), len(ref.coeffs))
        for k in range(size):
            a = computed.coeffs[k] if k < len(computed.coeffs) else QQ0
            bq = ref.coeffs[k] if k < len(ref.coeffs) else QQ0
            if a != bq:
                first_diff = {"power": k, "computed": qstr(a), "reference": qstr(bq)}
                break
    return {
        "instance": inst.tag(i),
        "match": match,
        "computed": computed.serialize(),
        "reference": ref.serialize(),
        "first_difference": first_diff,
    }


def reproduce(inst: Instance, i: int, width=DEFAULT_WIDTH, seed: int = 0,
              cache_dir=None) -> dict:
    """Exact comparison of the computed minimal polynomial with the recorded one.

    The degree and the reference are looked up before anything is computed.
    """
    _check_degree(inst, i)
    if inst.reference is None:
        raise UnknownReferenceInstance(f"no recorded minimal polynomial for {inst.label}")
    ref = reference_minimal_polynomial(*inst.reference, i)
    report = spectral_report(inst, i, width, seed, cache_dir)
    return _reproduction_dict(report, ref, inst, i)


def run_instance(inst: Instance, i: int, width=DEFAULT_WIDTH, seed: int = 0,
                 cache_dir=None) -> dict:
    """Every check for degree i, with the dimension n in the role of ell.

    For flag complexes these are the statements of the construction; for
    other pure complexes the verdicts report honestly whether the same
    statements happen to hold.
    """
    n = inst.n
    tag = inst.tag(i)
    report = spectral_report(inst, i, width, seed, cache_dir)
    verdicts = [
        verdict_max_eigenvalue(report, n + 1, tag),
        verdict_min_bound(report, QQ(n - i), tag),
        verdict_integer_eigenvalues(report, n, i, tag),
    ]
    if i >= 1:
        links = _link_data(inst, i - 1, width, seed, cache_dir)
        verdicts.append(fundamental_inequality_verdict(inst.cx, i, report, links, tag))
    verdicts.append(verdict_vanishing_threshold(report, n, i + 1, inst.tag(i + 1)))
    conj = conjecture_table(report, n - i, n + 1, tag)
    repro = None
    if inst.reference is not None and has_reference(*inst.reference, i):
        ref = reference_minimal_polynomial(*inst.reference, i)
        repro = _reproduction_dict(report, ref, inst, i)
    return {
        "instance": tag,
        "spectral": report.to_json_dict(),
        "verdicts": [v.to_json_dict() for v in verdicts],
        "conjecture": conj,
        "reproduction": repro,
    }


# -- grid reports ----------------------------------------------------------------


def _grid_task(args) -> dict:
    ell, q, i, *rest = args
    return run_instance(Instance.building(ell, q), i, *rest)


def run_grid(grid: str = "default", threads: int = 1, width=DEFAULT_WIDTH,
             seed: int = 0, cache_dir=None) -> dict:
    instances = default_grid() if grid == "default" else extended_grid()
    tasks = [(ell, q, i, width, seed, cache_dir) for (ell, q, i) in instances]
    if threads > 1:
        from multiprocessing import Pool  # here, so that a run without workers never loads it

        with Pool(processes=threads) as pool:
            results = pool.map(_grid_task, tasks)
    else:
        results = [_grid_task(t) for t in tasks]
    return {"version": VERSION, "grid": grid, "instances": results}


def dumps_report(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def strip_timings(obj):
    """Deep copy with every 'timings' mapping removed, for run comparisons."""
    if isinstance(obj, dict):
        return {k: strip_timings(v) for k, v in obj.items() if k != "timings"}
    if isinstance(obj, list):
        return [strip_timings(v) for v in obj]
    return obj
