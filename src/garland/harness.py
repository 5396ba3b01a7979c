"""Verification drivers, reference reproduction, caching, and reports.

Buildings and ingested complexes share one model, `Instance`: a pure
complex of dimension n with a JSON label, a cache-key stem and optional
symmetry data.  Garland's method bounds the spectrum of the Laplacian
on C^i by the degree i-1 spectra of the vertex links.  On a building the
linear group is transitive on vertices of each type and on simplices
of each type signature, so one link per vertex type and one
certification column per signature stand in for all of them; that
symmetry data is the only difference between the two kinds.  So there
is one report driver, `spectral_report`, which also serves the vertex
links, and one run driver, `run_instance`, and both check
0 <= i <= n-1 before touching the cache.

A verdict is the JSON record {"check", "instance", "status", "witness"}
that `run_instance` writes, re-checkable from its witness alone:
witnesses carry exact rationals (as "num/den" strings) or certified
root intervals, never floats.  A root r is compared with a rational x by one
rule, `_root_at_most`: a rational root exactly, and an irrational root
isolated in (lo, hi] is <= x when hi <= x and > x when lo >= x, since it
exceeds lo strictly.  The fundamental inequality compares sums of roots,
so it compares the closed outer hulls [lo, hi] instead.  An undecided
comparison refines the intervals once, to a floor of 10^-12, and one
still undecided there makes the verdict "inconclusive-at-width".

Cached spectral data is keyed by the instance's stem (b{ell}-q{q} for a
building, x{sha256 of the canonical text} for a complex), the degree,
the isolation width and the artifact version.  A hit is built from its
minimal polynomial by `report_from_minpoly`, the constructor of a fresh
report, so it passes the same checks or is a miss; its instance, degree
and dimension come from the caller's `Instance` and degree, so it
reproduces a fresh computation byte for byte.  Its timings are its
own: the seconds the load took, as "load_s".
"""

from __future__ import annotations

import contextlib
import json
import os
import time
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial
from itertools import combinations, groupby, zip_longest
from pathlib import Path

import numpy as np

from .building import TypedBuilding, flag_complex, witness_columns
from .complexes import Complex
from .errors import (
    BudgetExceeded,
    DegreeOutOfRange,
    GarlandError,
    InvalidThreadCount,
    UnknownReferenceInstance,
)
from .gf import field_for_order, prime_power
from .polyq import (DEFAULT_WIDTH, RatPolynomial, RootInterval, parse_width,
                    root_magnitude_bound)
from .rationals import QQ, QQ0, qstr
from .reference import reference_minimal_polynomial
from .spectra import (
    SpectralReport,
    compute_spectral_report,
    extract_extremes,
    reduced_cohomology_vanishes,
    report_from_minpoly,
)
from .version import VERSION

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


def ensure_budget(ell: int, q: int) -> None:
    prime_power(q)  # q first: the chamber count divides by q - 1
    count = chamber_count(ell, q)
    if count > DEFAULT_CHAMBER_BUDGET:
        raise BudgetExceeded(f"instance (ell={ell}, q={q}) has {count} chambers, "
                             f"over the budget of {DEFAULT_CHAMBER_BUDGET}")


def get_building(ell: int, q: int) -> TypedBuilding:
    """The flag complex of F_q^(ell+2), made anew; the caller checks the budget."""
    return flag_complex(ell, field_for_order(q))


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
            # only a complex is hashed, so a building run never loads hashlib
            import hashlib

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


GRIDS = {"default": default_grid, "extended": extended_grid}


# -- verdicts -------------------------------------------------------------------


_STATUS = {True: CERTIFIED_TRUE, False: CERTIFIED_FALSE, None: INCONCLUSIVE}


def _root_at_most(r: RootInterval, x) -> bool | None:
    """Whether the root r is <= x, or None when r's interval leaves it open.

    An irrational root in (lo, hi] exceeds lo strictly, so lo >= x
    decides r > x.
    """
    if r.value is not None:
        return r.value <= x
    if r.hi <= x:
        return True
    return False if r.lo >= x else None


def _smallest_at_most(report: SpectralReport, x) -> tuple[RootInterval, bool | None]:
    """m and whether m <= x, refining m once to WIDTH_FLOOR when undecided."""
    m = report.m
    at_most = _root_at_most(m, x)
    if at_most is None:
        m = extract_extremes(report.isolation.refine(WIDTH_FLOOR))[0]
        at_most = _root_at_most(m, x)
    return m, at_most


def _hull(r: RootInterval) -> tuple:
    """The closed outer hull [lo, hi] of a root's interval."""
    return (r.value, r.value) if r.value is not None else (r.lo, r.hi)


def _hull_le(lhs: tuple, rhs: tuple) -> bool | None:
    """Whether every point of hull lhs is <= every point of rhs; False when
    all of lhs exceeds rhs, None when they overlap."""
    if lhs[1] <= rhs[0]:
        return True
    return False if lhs[0] > rhs[1] else None


def _hull_json(h: tuple) -> dict:
    return {"lo": qstr(h[0]), "hi": qstr(h[1])}


# -- individual checks ----------------------------------------------------------


def verdict_max_eigenvalue(report: SpectralReport, instance: dict) -> dict:
    """Whether n + 1, the integer table's largest entry, is the largest root."""
    largest = max(report.integer_eigenvalues)  # the table runs over 0..n+1
    is_root = report.integer_eigenvalues[largest]
    top = QQ(largest)
    bound = root_magnitude_bound(report.isolation.chain[0])  # chain[0] is min_A's multiple
    hi = bound if bound > top else top + 1
    above = report.isolation.count_in_halfopen(top, hi)
    ok = is_root and above == 0
    return {
        "check": "max-eigenvalue",
        "instance": instance,
        "status": CERTIFIED_TRUE if ok else CERTIFIED_FALSE,
        "witness": {
            "expected": qstr(top),
            "is_root": is_root,
            "roots_above": above,
        },
    }


def verdict_min_bound(report: SpectralReport, bound, instance: dict) -> dict:
    bound = QQ(bound)
    m, at_most = _smallest_at_most(report, bound)
    return {
        "check": "min-bound",
        "instance": instance,
        "status": _STATUS[at_most],
        "witness": {"bound": qstr(bound), "m": m.to_json_dict()},
    }


def verdict_integer_eigenvalues(report: SpectralReport, ell: int, i: int,
                                instance: dict) -> dict:
    table = report.integer_eigenvalues  # 0..ell+1 for a complex of dimension ell
    required = {k: table[k] for k in range(ell - i + 1, ell + 2)}
    edge = ell - i
    return {
        "check": "integer-eigenvalues",
        "instance": instance,
        "status": CERTIFIED_TRUE if all(required.values()) else CERTIFIED_FALSE,
        "witness": {
            "required": {str(k): v for k, v in sorted(required.items())},
            "next_lower": {"value": edge, "is_root": table[edge]},
        },
    }


def fundamental_inequality_verdict(n: int, i: int, report: SpectralReport,
                                   link_data: list[dict],
                                   instance: dict) -> dict:
    """Two-sided spectral bound from extremal link eigenvalues, on a complex of dimension n.

    link_data rows: {"label", "count", "report", "vanishes"} with one row
    per link (or per isomorphism class, with count carrying multiplicity).
    The lower bound is asserted only when every link has vanishing
    reduced cohomology in degree i-1.  Both sides are hulls of sums of
    roots; when either comparison is undecided, every interval is
    refined once to WIDTH_FLOOR.
    """
    hypothesis = all(row["vanishes"] for row in link_data)
    reports = [report] + [row["report"] for row in link_data]
    pairs = [(r.m, r.M) for r in reports]
    for refined in (False, True):
        if refined:
            pairs = [extract_extremes(r.isolation.refine(WIDTH_FLOOR)) for r in reports]
        (m_x, big_m), *extremes = pairs
        lam_max = tuple(max(_hull(e[1])[k] for e in extremes) for k in (0, 1))
        lam_min = tuple(min(_hull(e[0])[k] for e in extremes) for k in (0, 1))
        # upper: i*M <= (i+1)*lam_max - (n-i)
        up_lhs = tuple(i * x for x in _hull(big_m))
        up_rhs = tuple((i + 1) * x - (n - i) for x in lam_max)
        upper = _STATUS[_hull_le(up_lhs, up_rhs)]
        # lower: i*m >= (i+1)*lam_min - (n-i), i.e. RHS <= LHS
        lo_lhs = tuple(i * x for x in _hull(m_x))
        lo_rhs = tuple((i + 1) * x - (n - i) for x in lam_min)
        lower = _STATUS[_hull_le(lo_rhs, lo_lhs)] if hypothesis else "not-applicable"
        if INCONCLUSIVE not in (upper, lower):
            break
    # a false side decides, then an undecided one; "not-applicable" is neither
    status = next((s for s in (CERTIFIED_FALSE, INCONCLUSIVE) if s in (upper, lower)),
                  CERTIFIED_TRUE)
    witness = {
        "n": n,
        "i": i,
        "M": big_m.to_json_dict(),
        "m": m_x.to_json_dict(),
        "lambda_max": _hull_json(lam_max),
        "upper": {"lhs": _hull_json(up_lhs), "rhs": _hull_json(up_rhs), "status": upper},
        "hypothesis_cohomology_vanishes": hypothesis,
        "links": [
            {
                "label": row["label"],
                "count": row["count"],
                "minpoly": row["report"].minpoly.serialize(),
                "m": row["report"].m.to_json_dict(),
                "M": row["report"].M.to_json_dict(),
                "cohomology_vanishes": row["vanishes"],
            }
            for row in link_data
        ],
    }
    if hypothesis:
        witness["lambda_min"] = _hull_json(lam_min)
        witness["lower"] = {"lhs": _hull_json(lo_lhs), "rhs": _hull_json(lo_rhs),
                            "status": lower}
    else:
        witness["lower"] = {"status": "not-applicable"}
    return {
        "check": "fundamental-inequality",
        "instance": instance,
        "status": status,
        "witness": witness,
    }


def verdict_vanishing_threshold(report_below: SpectralReport, ell: int, i: int,
                                instance: dict) -> dict:
    """Hypothesis check for cohomology degree i: is m^{i-1} > (ell+1-i)/(i+1)?

    This checks the spectral hypothesis only; no group cohomology is
    computed here.
    """
    theta = QQ(ell + 1 - i, i + 1)
    m, at_most = _smallest_at_most(report_below, theta)
    return {
        "check": "vanishing-threshold",
        "instance": instance,
        "status": _STATUS[None if at_most is None else not at_most],  # m > theta
        "witness": {
            "kind": "hypothesis-check",
            "cohomology_degree": i,
            "spectral_degree": i - 1,
            "threshold": qstr(theta),
            "m": m.to_json_dict(),
        },
    }


def conjecture_table(report: SpectralReport, lo_int: int, hi_int: int,
                     instance: dict) -> dict:
    """Distance of every nonzero root to its nearest integer in [lo_int, hi_int]."""
    rows = []
    eps = QQ0
    for r in report.isolation.roots:
        if r.is_zero:
            continue
        lo, hi = _hull(r)
        # (k, least and greatest distance to the hull): the first k of least greatest
        best = min(((k, max(QQ0, k - hi, lo - k), max(abs(hi - k), abs(k - lo)))
                    for k in range(lo_int, hi_int + 1)), key=lambda t: t[2])
        rows.append({
            "root": r.to_json_dict(),
            "nearest_integer": best[0],
            "distance": _hull_json(best[1:]),
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


def _width_tag(width) -> str:
    w = QQ(width)
    return f"{w.numerator}x{w.denominator}"


def cache_key(stem: str, i: int, width) -> str:
    return f"v{VERSION}-{stem}-i{i}-w{_width_tag(width)}"


def load_cached_report(cache_dir: Path, key: str, width, degree: int, inst: Instance):
    """The report stored under key, re-derived from its minimal polynomial, or None.

    The entry must be readable and a JSON object naming the key it answers
    (`store_report` writes it), so a file copied or renamed from another
    instance, degree, width or version, or one without a key, is a miss,
    and so is one whose `minpoly` is not a string, whose `roots` is not a
    list or whose `den_bound` L is not a positive integer.  `minpoly` is
    min_A, and its coefficients c_k times L^(d-k) must form a monic
    integer polynomial, min_B = q, or the entry is a miss.  The report is
    built from q and L by `report_from_minpoly`, as a fresh one is: a
    polynomial that fails its checks is a miss, and the re-isolated roots
    must equal the stored ones.  Nothing else is read from the file:
    `dim` is `inst.num_simplices(degree)`, the integer-eigenvalue table is
    formed for a complex of dimension `inst.n`, the instance is
    `inst.tag(degree)`, and the timings are this load's own,
    {"load_s": seconds}.

    Two kinds of wrong entry pass these checks.  An entry of another
    instance, copied in with its key rewritten, is believed when its
    polynomial passes every check.  Any `den_bound` that keeps min_B
    integral is believed, even where it is not the operator's L, unless
    it moves the stop width.  Only certifying the polynomial again
    against the assembled operator, or removing the cache, can catch
    either.
    """
    t0 = time.perf_counter()
    try:
        text = (cache_dir / f"{key}.json").read_text()
    except (OSError, UnicodeDecodeError):
        return None  # no entry, or one that cannot be read
    dim = inst.num_simplices(degree)
    try:
        data = json.loads(text)
        if not (isinstance(data, dict) and data.get("key") == key
                and isinstance(data.get("minpoly"), str)
                and isinstance(data.get("roots"), list)
                and type(data.get("den_bound")) is int and data["den_bound"] > 0):
            return None
        L = data["den_bound"]
        coeffs = RatPolynomial.parse(data["minpoly"]).coeffs
        q = [c * L ** (len(coeffs) - 1 - k) for k, c in enumerate(coeffs)]
        if not q or q[-1] != 1 or any(c.denominator != 1 for c in q):
            return None
        # any L that makes q integral passes here; a wrong one is caught
        # below only where it moves the stop width min(width, 1/L)
        report = report_from_minpoly(tuple(int(c) for c in q), L, width, inst.tag(degree),
                                     degree, dim, inst.n)
    except (ValueError, ZeroDivisionError, GarlandError):
        return None
    if [r.to_json_dict() for r in report.isolation.roots] != data["roots"]:
        return None  # stale entry; recompute
    report.timings = {"load_s": time.perf_counter() - t0}
    return report


def store_report(cache_dir: Path, key: str, report: SpectralReport) -> None:
    """Write the report and its key atomically, as `dumps_report` text.

    A cache that cannot be written raises GarlandError, and the temporary
    file is removed."""
    text = dumps_report({**report.to_json_dict(), "key": key})
    path = cache_dir / f"{key}.json"
    tmp = cache_dir / f"{key}.json.tmp{os.getpid()}"
    try:
        cache_dir.mkdir(parents=True, exist_ok=True)
        tmp.write_text(text)
        os.replace(tmp, path)
    except OSError as exc:
        with contextlib.suppress(OSError):  # absent, or under no directory
            tmp.unlink()
        raise GarlandError(f"cannot write the cache entry {path}: {exc}") from None


# -- drivers ----------------------------------------------------------------------


def _check_degree(inst: Instance, i: int) -> None:
    if not 0 <= i <= inst.n - 1:
        raise DegreeOutOfRange(f"cochain degree {i} out of range for dimension {inst.n}")


def spectral_report(inst: Instance, i: int, width=DEFAULT_WIDTH, seed: int = 0,
                    cache_dir=None) -> SpectralReport:
    """Certified spectral report of degree i, from the cache when it holds one."""
    _check_degree(inst, i)
    width = parse_width(width)  # before any building or cache file is touched
    if cache_dir:
        cache_dir = Path(cache_dir)
        key = cache_key(inst.stem, i, width)
        hit = load_cached_report(cache_dir, key, width, i, inst)
        if hit is not None:
            return hit
    report = compute_spectral_report(inst.cx, i, width=width, seed=seed, instance=inst.tag(i),
                                     witness_columns=inst.symmetry.witness_columns(i))
    if cache_dir:
        store_report(cache_dir, key, report)
    return report


def _link_data(inst: Instance, j: int, width, seed: int, cache_dir) -> list[dict]:
    """Degree-j spectral report and reduced cohomology of one vertex link
    per link orbit: a fresh report's certificate gives dim Z^j, and
    the vanishing test certifies degree j - 1 (j >= 1) and a cached j."""
    out = []
    for orbit in inst.symmetry.links:
        link, _ = inst.cx.vertex_link(orbit.vertex)
        report = spectral_report(Instance.complex(link, orbit.tag), j, width, seed, cache_dir)
        out.append({
            "label": orbit.label,
            "count": orbit.count,
            "report": report,
            "vanishes": reduced_cohomology_vanishes(link, j, report.kernel_dim),
        })
    return out


def _reproduction_dict(report: SpectralReport, ref: RatPolynomial, inst: Instance,
                       i: int) -> dict:
    computed = report.minpoly
    pairs = enumerate(zip_longest(computed.coeffs, ref.coeffs, fillvalue=QQ0))
    first_diff = next(({"power": k, "computed": qstr(a), "reference": qstr(b)}
                       for k, (a, b) in pairs if a != b), None)
    return {
        "instance": inst.tag(i),
        "match": computed == ref,
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
        verdict_max_eigenvalue(report, tag),
        verdict_min_bound(report, QQ(n - i), tag),
        verdict_integer_eigenvalues(report, n, i, tag),
    ]
    if i >= 1:
        links = _link_data(inst, i - 1, width, seed, cache_dir)
        verdicts.append(fundamental_inequality_verdict(n, i, report, links, tag))
    verdicts.append(verdict_vanishing_threshold(report, n, i + 1, inst.tag(i + 1)))
    conj = conjecture_table(report, n - i, n + 1, tag)
    repro = None
    if inst.reference is not None:
        try:
            ref = reference_minimal_polynomial(*inst.reference, i)
        except UnknownReferenceInstance:  # no record for this degree
            pass
        else:
            repro = _reproduction_dict(report, ref, inst, i)
    return {
        "instance": tag,
        "spectral": report.to_json_dict(),
        "verdicts": verdicts,
        "conjecture": conj,
        "reproduction": repro,
    }


# -- grid reports ----------------------------------------------------------------


def _grid_task(args) -> list[dict]:
    """One (ell, q) grid point's documents, its degrees in order on one building."""
    ell, q, degrees, *rest = args
    inst = Instance.building(ell, q)
    return [run_instance(inst, i, *rest) for i in degrees]


def run_grid(grid: str = "default", threads: int = 1, width=DEFAULT_WIDTH,
             seed: int = 0, cache_dir=None) -> dict:
    """The grid's report documents, computed by up to `threads` worker processes.

    A task runs one (ell, q) point's degrees in order on one building,
    made once and freed after it.  A pool starts all of its workers up
    front, so it gets no more of them than there are grid points.
    """
    if threads < 1:
        raise InvalidThreadCount(f"--threads must be at least 1, got {threads}")
    if grid not in GRIDS:
        raise GarlandError(f"unknown grid {grid!r}: the grids are {', '.join(map(repr, GRIDS))}")
    # the grids are sorted, so each point's degrees are consecutive
    tasks = [(ell, q, [i for _, _, i in point], width, seed, cache_dir)
             for (ell, q), point in groupby(GRIDS[grid](), key=lambda t: t[:2])]
    workers = min(threads, len(tasks))
    if workers > 1:
        from multiprocessing import Pool  # here, so that a run without workers never loads it

        with Pool(processes=workers) as pool:
            results = pool.map(_grid_task, tasks)
    else:
        results = map(_grid_task, tasks)
    return {"version": VERSION, "grid": grid,
            "instances": [doc for docs in results for doc in docs]}


def dumps_report(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def strip_timings(obj):
    """Deep copy with every 'timings' mapping removed, for run comparisons."""
    if isinstance(obj, dict):
        return {k: strip_timings(v) for k, v in obj.items() if k != "timings"}
    if isinstance(obj, list):
        return [strip_timings(v) for v in obj]
    return obj
