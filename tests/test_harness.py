"""Verification harness: verdicts, budgets, caching, grids, reproduction."""

import dataclasses
import hashlib
import json
import shutil

import pytest

from garland import complexes, harness, reference, spectra
from garland.complexes import from_maximal_simplices, from_text
from garland.errors import (
    BudgetExceeded,
    DegreeOutOfRange,
    GarlandError,
    UnknownReferenceInstance,
)
from garland.harness import (
    CERTIFIED_FALSE,
    CERTIFIED_TRUE,
    DEFAULT_CHAMBER_BUDGET,
    INCONCLUSIVE,
    WIDTH_FLOOR,
    Instance,
    cache_key,
    chamber_count,
    default_grid,
    dumps_report,
    ensure_budget,
    extended_grid,
    flag_count,
    fundamental_inequality_verdict,
    get_building,
    load_cached_report,
    reproduce,
    run_grid,
    run_instance,
    spectral_report,
    store_report,
    strip_timings,
    verdict_integer_eigenvalues,
    verdict_max_eigenvalue,
    verdict_min_bound,
    verdict_vanishing_threshold,
)
from garland.polyq import RatPolynomial, RootInterval, RootIsolation, isolate_real_roots
from garland.rationals import QQ
from garland.spectra import SpectralReport, extract_extremes
from garland.version import VERSION

from rational_isolation import integer_form


@pytest.fixture(scope="module")
def rep120(shared_cache):
    return spectral_report(Instance.building(1, 2), 0, cache_dir=shared_cache)


@pytest.fixture(scope="module")
def doc120(shared_cache):
    return run_instance(Instance.building(1, 2), 0, cache_dir=shared_cache)


@pytest.fixture(scope="module")
def doc221(shared_cache):
    return run_instance(Instance.building(2, 2), 1, cache_dir=shared_cache)


def verdicts_by_check(doc):
    return {v["check"]: v for v in doc["verdicts"]}


# -- sizes and grids ----------------------------------------------------------


def test_chamber_counts():
    assert chamber_count(1, 2) == 21
    assert chamber_count(2, 2) == 315
    assert chamber_count(2, 3) == 2080
    assert chamber_count(3, 2) == 9765
    assert chamber_count(3, 3) == 251680
    assert chamber_count(4, 2) == 615195
    assert chamber_count(3, 4) == 3043425


def test_budget_gate():
    ensure_budget(3, 2)
    ensure_budget(4, 2)  # 615195 <= 700000
    with pytest.raises(BudgetExceeded):
        ensure_budget(3, 4)
    assert DEFAULT_CHAMBER_BUDGET == 700_000


def test_flag_count_is_the_number_of_simplices():
    # the closed form a cache hit sizes its report by, without a building
    for ell, q in ((1, 2), (1, 7), (2, 2), (2, 3), (3, 2)):
        cx = get_building(ell, q).complex
        assert [flag_count(ell, q, i) for i in range(ell + 1)] == [
            cx.num_simplices(i) for i in range(ell + 1)]
        assert Instance.building(ell, q).num_simplices(ell) == chamber_count(ell, q)


@pytest.mark.parametrize("ell, q", [(2, 3), (4, 2)])
def test_budget_edge(ell, q, monkeypatch):
    # the budget counts chambers inclusively: exactly enough passes
    monkeypatch.setattr(harness, "DEFAULT_CHAMBER_BUDGET", chamber_count(ell, q))
    ensure_budget(ell, q)
    monkeypatch.setattr(harness, "DEFAULT_CHAMBER_BUDGET", chamber_count(ell, q) - 1)
    with pytest.raises(BudgetExceeded):
        ensure_budget(ell, q)


def test_a_building_run_checks_the_budget_once(monkeypatch):
    calls = []
    real = harness.ensure_budget
    monkeypatch.setattr(harness, "ensure_budget", lambda *key: calls.append(key) or real(*key))
    run_instance(Instance.building(1, 3), 0)
    assert calls == [(1, 3)]


def test_grids():
    d = default_grid()
    assert d == [
        (1, 2, 0), (1, 3, 0), (1, 4, 0), (1, 5, 0), (1, 7, 0),
        (2, 2, 0), (2, 2, 1), (2, 3, 0), (2, 3, 1),
        (3, 2, 0),
    ]
    e = extended_grid()
    assert len(e) == 20
    assert set(d) < set(e)
    assert (3, 2, 2) in e and (4, 2, 0) in e
    for (ell, q, i) in e:
        ensure_budget(ell, q)
        assert 0 <= i <= ell - 1


def test_run_grid_rejects_an_unknown_grid():
    with pytest.raises(GarlandError) as caught:
        run_grid("bogus")
    assert "'default'" in str(caught.value) and "'extended'" in str(caught.value)


def test_run_grid_looks_each_reference_up_once(monkeypatch, shared_cache):
    # every default-grid instance has a recorded polynomial, expanded once
    calls = []
    real = reference.reference_factors
    monkeypatch.setattr(reference, "reference_factors",
                        lambda *key: calls.append(key) or real(*key))
    doc = run_grid("default", cache_dir=shared_cache)
    assert sorted(calls) == default_grid()
    assert all(item["reproduction"]["match"] for item in doc["instances"])


def test_run_grid_builds_each_grid_point_once(monkeypatch):
    # one task per (ell, q) runs that point's degrees on one building, so
    # the 10 default-grid instances make the 8 distinct buildings once each
    built = []
    real = harness.flag_complex
    monkeypatch.setattr(harness, "flag_complex",
                        lambda ell, field: built.append((ell, field.q)) or real(ell, field))
    doc = run_grid("default")
    points = sorted({(ell, q) for ell, q, _ in default_grid()})
    assert len(points) == 8
    assert built == points
    assert [(d["instance"]["ell"], d["instance"]["q"], d["instance"]["i"])
            for d in doc["instances"]] == default_grid()


# -- verdicts on a known spectrum ----------------------------------------------


def test_max_eigenvalue_verdict(rep120):
    # the verdict reads n + 1 = 2 from the report's integer table, 0..2
    inst = {"ell": 1, "q": 2, "i": 0}
    assert sorted(rep120.integer_eigenvalues) == [0, 1, 2]
    v = verdict_max_eigenvalue(rep120, inst)
    assert v["check"] == "max-eigenvalue"
    assert v["status"] == CERTIFIED_TRUE
    assert v["witness"]["expected"] == "2/1"
    assert v["witness"]["is_root"] is True
    assert v["witness"]["roots_above"] == 0
    # a table running to 3 asks for 3, which is no root
    table = {k: rep120.minpoly(QQ(k)) == 0 for k in range(4)}
    bad = verdict_max_eigenvalue(dataclasses.replace(rep120, integer_eigenvalues=table), inst)
    assert bad["witness"]["expected"] == "3/1"
    assert bad["witness"]["is_root"] is False
    assert bad["status"] == CERTIFIED_FALSE


def test_max_eigenvalue_verdict_sees_roots_above_a_certified_rational():
    # the root 1 of x (x - 1) (x - 3) is certified at its lattice point,
    # not met at a midpoint; 3 lies above it
    q = (0, 3, -4, 1)
    iso = isolate_real_roots(q)
    rep = SpectralReport({}, 0, 3, q, 1, iso, iso.roots[1], iso.roots[2], {0: True, 1: True}, {})
    v = verdict_max_eigenvalue(rep, {})
    assert v["witness"]["is_root"] is True
    assert v["witness"]["roots_above"] == 1
    assert v["status"] == CERTIFIED_FALSE


def test_min_bound_verdict(rep120):
    # smallest nonzero root is 1 - sqrt(2)/3 = 0.5286, below the bound 1
    inst = {"ell": 1, "q": 2, "i": 0}
    v = verdict_min_bound(rep120, QQ(1), inst)
    assert v["status"] == CERTIFIED_TRUE
    assert v["witness"]["bound"] == "1/1"
    assert verdict_min_bound(rep120, QQ(1, 4), inst)["status"] == CERTIFIED_FALSE


def test_integer_eigenvalues_verdict(rep120):
    v = verdict_integer_eigenvalues(rep120, 1, 0, {"ell": 1, "q": 2, "i": 0})
    assert v["status"] == CERTIFIED_TRUE
    assert v["witness"]["required"] == {"2": True}
    assert v["witness"]["next_lower"] == {"value": 1, "is_root": False}


def test_verdict_json_round_trip(rep120):
    # a verdict is its JSON-clean record, with nothing to convert
    v = verdict_max_eigenvalue(rep120, {"ell": 1, "q": 2, "i": 0})
    assert set(v) == {"check", "instance", "status", "witness"}
    assert v["check"] == "max-eigenvalue"
    assert v["status"] == "certified-true"
    assert v["instance"] == {"ell": 1, "q": 2, "i": 0}
    assert json.loads(json.dumps(v)) == v
    assert {CERTIFIED_TRUE, CERTIFIED_FALSE, INCONCLUSIVE} == {
        "certified-true", "certified-false", "inconclusive-at-width"
    }


# -- refinement and inconclusive fallbacks ------------------------------------------
#
# No grid instance needs a verdict to refine: every comparison there is
# decided at the default width.  These reports are isolated coarsely so
# that the bound falls inside an isolating interval.


def _coarse_report(coeffs, width="1/4") -> SpectralReport:
    q, L = integer_form(RatPolynomial(tuple(QQ(c) for c in coeffs)))
    iso = isolate_real_roots(q, L, width)
    m, big_m = extract_extremes(iso)
    return SpectralReport({}, 0, len(q) - 1, q, L, iso, m, big_m, {}, {})


@pytest.fixture
def refines(monkeypatch):
    """The number of RootIsolation.refine calls so far, as a one-item list."""
    calls = [0]
    real = RootIsolation.refine

    def spy(self, width):
        calls[0] += 1
        return real(self, width)

    monkeypatch.setattr(RootIsolation, "refine", spy)
    return calls


@pytest.fixture
def rep_sqrt2():
    # p = x (x^2 - 4x + 2): m = 2 - sqrt(2) in (15/32, 5/8], M = 2 + sqrt(2)
    rep = _coarse_report((0, 2, -4, 1))
    assert (rep.m.lo, rep.m.hi) == (QQ(15, 32), QQ(5, 8))
    assert (rep.M.lo, rep.M.hi) == (QQ(105, 32), QQ(55, 16))
    return rep


def test_an_irrational_root_exceeds_its_left_end_without_refinement(rep_sqrt2, refines):
    # m = 2 - sqrt(2) isolated in (15/32, 5/8] is > 15/32 by the interval
    # alone; reading lo > x in place of lo >= x would refine to decide
    assert harness._root_at_most(RootInterval(QQ(15, 32), QQ(5, 8)), QQ(15, 32)) is False
    assert verdict_min_bound(rep_sqrt2, QQ(15, 32), {})["status"] == CERTIFIED_FALSE
    assert refines[0] == 0


def test_min_bound_refines_once_when_the_bound_splits_the_interval(rep_sqrt2, refines):
    assert verdict_min_bound(rep_sqrt2, QQ(1), {})["status"] == CERTIFIED_TRUE
    assert refines[0] == 0  # decided at the isolation width
    v = verdict_min_bound(rep_sqrt2, QQ(3, 5), {})
    assert refines[0] == 1
    assert v["status"] == CERTIFIED_TRUE
    m = v["witness"]["m"]
    assert QQ(m["hi"]) - QQ(m["lo"]) <= WIDTH_FLOOR and QQ(m["hi"]) <= QQ(3, 5)


def test_min_bound_at_the_floor_midpoint_is_inconclusive(rep_sqrt2, refines):
    m = extract_extremes(rep_sqrt2.isolation.refine(WIDTH_FLOOR))[0]
    bound = (m.lo + m.hi) / 2
    v = verdict_min_bound(rep_sqrt2, bound, {})
    assert v["status"] == INCONCLUSIVE
    assert v["witness"]["m"] == m.to_json_dict()
    assert refines[0] == 2  # the one above, and the verdict's own


def test_vanishing_threshold_refines_to_decide(rep_sqrt2, refines):
    # theta = (ell + 1 - i) / (i + 1) = 1/2 lies in (15/32, 5/8]
    v = verdict_vanishing_threshold(rep_sqrt2, 1, 1, {})
    assert v["witness"]["threshold"] == "1/2"
    assert refines[0] == 1
    assert v["status"] == CERTIFIED_TRUE
    assert QQ(v["witness"]["m"]["lo"]) >= QQ(1, 2)


def _links(*reports):
    return [{"label": f"link-{k}", "count": 1, "report": r, "vanishes": True}
            for k, r in enumerate(reports)]


def test_fundamental_inequality_decides_after_refinement(rep_sqrt2, refines):
    # upper, n = 2, i = 1: M = 2 + sqrt(2) <= 2 * 53/24 - 1 = 41/12, and
    # 41/12 lies in M's interval (105/32, 55/16]; lower: 2 * 1/2 - 1 <= m
    link = _coarse_report((0, QQ(53, 48), QQ(-65, 24), 1))  # x (x - 1/2) (x - 53/24)
    assert (link.m.value, link.M.value) == (QQ(1, 2), QQ(53, 24))
    v = fundamental_inequality_verdict(2, 1, rep_sqrt2, _links(link), {})
    assert refines[0] > 0
    assert v["status"] == CERTIFIED_TRUE
    w = v["witness"]
    assert w["upper"]["status"] == CERTIFIED_TRUE
    assert w["lower"]["status"] == CERTIFIED_TRUE
    assert w["upper"]["rhs"] == {"lo": "41/12", "hi": "41/12"}
    assert QQ(w["M"]["hi"]) - QQ(w["M"]["lo"]) <= WIDTH_FLOOR
    assert w["links"][0]["M"] == link.M.to_json_dict()  # links show their own reports


def test_fundamental_inequality_stays_inconclusive_on_equal_irrationals(rep_sqrt2, refines):
    # link x (x^2 - 3x + 7/4) has roots (3 -+ sqrt(2)) / 2, so with n = 2,
    # i = 1 both sides meet exactly: 2 lambda_max - 1 = M, 2 lambda_min - 1 = m
    link = _coarse_report((0, QQ(7, 4), -3, 1))
    v = fundamental_inequality_verdict(2, 1, rep_sqrt2, _links(link), {})
    assert refines[0] > 0
    assert v["status"] == INCONCLUSIVE
    assert v["witness"]["upper"]["status"] == INCONCLUSIVE
    assert v["witness"]["lower"]["status"] == INCONCLUSIVE
    upper = v["witness"]["upper"]
    assert QQ(upper["lhs"]["lo"]) < QQ(upper["rhs"]["hi"])
    assert QQ(upper["rhs"]["lo"]) < QQ(upper["lhs"]["hi"])


# -- instance-level checks ------------------------------------------------------


def test_run_instance_degree_zero_checks(doc120):
    checks = verdicts_by_check(doc120)
    assert checks["max-eigenvalue"]["status"] == CERTIFIED_TRUE
    assert checks["min-bound"]["status"] == CERTIFIED_TRUE
    assert checks["integer-eigenvalues"]["status"] == CERTIFIED_TRUE
    # the inequality needs a middle degree 1 <= i <= n - 1
    assert "fundamental-inequality" not in checks


def test_fundamental_inequality_building(doc221):
    v = verdicts_by_check(doc221)["fundamental-inequality"]
    assert v["status"] == CERTIFIED_TRUE
    w = v["witness"]
    assert w["n"] == 2 and w["i"] == 1
    # upper side is tight here: 1*3 = 2*2 - 1
    assert w["upper"]["status"] == CERTIFIED_TRUE
    assert w["hypothesis_cohomology_vanishes"] is True
    assert w["lower"]["status"] == CERTIFIED_TRUE
    assert w["upper"]["lhs"] == w["upper"]["rhs"] == {"lo": "3/1", "hi": "3/1"}
    # links are grouped by vertex type, with orbit sizes
    assert [(l["label"], l["count"]) for l in w["links"]] == [
        ("type-0", 15), ("type-1", 35), ("type-2", 15)
    ]
    for link in w["links"]:
        assert link["cohomology_vanishes"] is True


def test_vanishing_threshold_true_and_false(doc120, doc221):
    # ell=1, cohomology degree 1: threshold 1/2 < m = 1 - sqrt(2)/3
    v = verdicts_by_check(doc120)["vanishing-threshold"]
    assert v["status"] == CERTIFIED_TRUE
    assert v["instance"] == {"ell": 1, "q": 2, "i": 1}
    assert v["witness"]["kind"] == "hypothesis-check"
    assert v["witness"]["threshold"] == "1/2"
    assert v["witness"]["cohomology_degree"] == 1
    assert v["witness"]["spectral_degree"] == 0
    # ell=2, cohomology degree 2: threshold 1/3 equals m exactly, strict
    # inequality fails
    f = verdicts_by_check(doc221)["vanishing-threshold"]
    assert f["status"] == CERTIFIED_FALSE
    assert f["instance"] == {"ell": 2, "q": 2, "i": 2}
    assert f["witness"]["threshold"] == "1/3"
    assert f["witness"]["m"]["value"] == "1/3"


def test_conjecture_report_shape(doc120):
    cr = doc120["conjecture"]
    assert cr["instance"] == {"ell": 1, "q": 2, "i": 0}
    assert cr["admissible_integers"] == [1, 2]
    # zero is excluded; remaining roots are the two irrationals and 2
    assert len(cr["roots"]) == 3
    assert cr["roots"][-1]["root"]["value"] == "2/1"
    assert cr["roots"][-1]["distance"] == {"lo": "0/1", "hi": "0/1"}
    eps_num, eps_den = map(int, cr["epsilon"].split("/"))
    assert abs(eps_num / eps_den - 0.4714) < 1e-3


def test_degree_is_checked_before_the_cache(tmp_path, monkeypatch):
    def no_cache_read(*args, **kwargs):
        raise AssertionError("the cache was read")

    monkeypatch.setattr(harness, "load_cached_report", no_cache_read)
    c = from_maximal_simplices([(0, 1, 2)])
    for inst in (Instance.complex(c), Instance.building(1, 2)):
        with pytest.raises(DegreeOutOfRange):
            spectral_report(inst, inst.n, cache_dir=tmp_path)
        with pytest.raises(DegreeOutOfRange):
            run_instance(inst, -1, cache_dir=tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_cache_hit_constructs_no_building(tmp_path, monkeypatch):
    warm = run_instance(Instance.building(1, 2), 0, cache_dir=tmp_path)

    def no_building(*args, **kwargs):
        raise AssertionError("a building was constructed")

    monkeypatch.setattr(harness, "flag_complex", no_building)
    hit = run_instance(Instance.building(1, 2), 0, cache_dir=tmp_path)
    assert dumps_report(strip_timings(hit)) == dumps_report(strip_timings(warm))


# -- caching ---------------------------------------------------------------------


def test_cache_keys_pin_version_and_width():
    k = cache_key(Instance.building(2, 3).stem, 1, "1/1000000")
    assert k == f"v{VERSION}-b2-q3-i1-w1x1000000"
    c = from_maximal_simplices([(0, 1, 2)])
    stem = Instance.complex(c, {"source": "triangle"}).stem
    assert stem == "x" + hashlib.sha256(c.to_text().encode()).hexdigest()
    assert Instance.complex(c).label == {"sha256": stem[1:]}
    k2 = cache_key(stem, 1, "1/1000000")
    assert k2 != cache_key(stem, 0, "1/1000000")
    assert len(k2.split("-")) >= 3


def test_a_complex_is_labelled_without_its_lower_face_levels():
    # the sha256 label hashes the stored top rows, so an unlabelled
    # degree-0 report on the (3,2) building's text builds the vertices
    # and edges alone, as a labelled one does
    cx, _ = from_text(get_building(3, 2).complex.to_text())
    inst = Instance.complex(cx)
    assert inst.label == {
        "sha256": "e89aa25a2ee8d631038a97d4eea177058cfd8edbc07ebd20ee8bd24c34607651"}
    spectral_report(inst, 0)
    assert len(cx._rows) == 2


def test_the_environment_does_not_turn_caching_on(tmp_path, monkeypatch):
    # --cache-dir is the one way to name a cache; GARLAND_CACHE_DIR once
    # turned caching on for every run that passed none
    monkeypatch.setenv("GARLAND_CACHE_DIR", str(tmp_path))
    spectral_report(Instance.building(1, 2), 0)
    assert list(tmp_path.iterdir()) == []

def test_cache_round_trip(tmp_path, rep120):
    key = cache_key("b1-q2", 0, "1/1000000")
    store_report(tmp_path, key, rep120)
    loaded = load_cached_report(tmp_path, key, "1/1000000", 0, Instance.building(1, 2))
    assert loaded is not None
    assert loaded.minpoly == rep120.minpoly
    assert loaded.m.lo == rep120.m.lo and loaded.M.value == rep120.M.value
    assert strip_timings(loaded.to_json_dict()) == strip_timings(rep120.to_json_dict())


def test_cache_rejects_tampering(tmp_path, rep120):
    key = cache_key("b1-q2", 0, "1/1000000")
    store_report(tmp_path, key, rep120)
    path = next(tmp_path.glob("*"))
    doc = json.loads(path.read_text())
    doc["minpoly"] = "0/1 -1/1 1/1"
    path.write_text(json.dumps(doc))
    b12 = Instance.building(1, 2)
    assert load_cached_report(tmp_path, key, "1/1000000", 0, b12) is None
    assert load_cached_report(tmp_path, "no-such-key", "1/1000000", 0, b12) is None


def test_cache_entry_of_another_instance_is_a_miss(tmp_path):
    # the (1,3,0) entry copied over the (1,2,0) file used to be believed:
    # its polynomial and dim 26 came back with every verdict certified
    width = "1/1000000"
    for q in (2, 3):
        spectral_report(Instance.building(1, q), 0, width, cache_dir=tmp_path)
    src, dst = (tmp_path / f"{cache_key(f'b1-q{q}', 0, width)}.json" for q in (3, 2))
    shutil.copyfile(src, dst)
    b12 = Instance.building(1, 2)
    assert load_cached_report(tmp_path, dst.stem, width, 0, b12) is None
    doc = run_instance(Instance.building(1, 2), 0, width, cache_dir=tmp_path)
    assert doc["spectral"]["minpoly"] == "0/1 -14/9 43/9 -4/1 1/1"
    assert doc["spectral"]["dim"] == 14
    # the recomputed entry replaced the file and names its own key
    stored = json.loads(dst.read_text())
    assert stored["key"] == dst.stem
    assert load_cached_report(tmp_path, dst.stem, width, 0, b12) is not None
    # an entry without a key is a miss as well
    del stored["key"]
    dst.write_text(json.dumps(stored))
    assert load_cached_report(tmp_path, dst.stem, width, 0, b12) is None


@pytest.mark.parametrize("entry", [
    # min_A of (1,2,0) with L = 1: 43/9 x^2 is no integer coefficient of B
    {"den_bound": 1},
    # 2 min_A with its L = 3: integral, but not monic
    {"minpoly": "0/1 -28/9 86/9 -8/1 2/1"},
], ids=["not-integral", "not-monic"])
def test_cache_entry_is_a_miss_unless_it_is_monic_and_integral_on_b(tmp_path, monkeypatch,
                                                                   entry):
    # the entry's c_k L^(d-k) must form min_B, a monic integer polynomial,
    # before any report is built from it
    width = "1/1000000"
    run_instance(Instance.building(1, 2), 0, width, cache_dir=tmp_path)
    (path,) = tmp_path.glob("*.json")
    b12 = Instance.building(1, 2)
    assert load_cached_report(tmp_path, path.stem, width, 0, b12) is not None
    path.write_text(json.dumps({**json.loads(path.read_text()), **entry}))

    def forbidden(*args, **kwargs):
        raise AssertionError("a report built from an entry that is not min_B")

    monkeypatch.setattr(harness, "report_from_minpoly", forbidden)
    assert load_cached_report(tmp_path, path.stem, width, 0, b12) is None


def _exact_roots(*values):
    return [{"lo": v, "hi": v, "is_rational": True, "is_zero": v == "0/1", "value": v}
            for v in values]


@pytest.mark.parametrize("entry", [
    [], "str", {"minpoly": 5},
    # (x - 3)(x^2 + 1) with its one real root: a symmetric operator's
    # minimal polynomial has only real roots
    {"minpoly": "-3/1 1/1 -3/1 1/1", "roots": _exact_roots("3/1")},
    # x: a spectrum without a nonzero root
    {"minpoly": "0/1 1/1", "roots": _exact_roots("0/1")},
], ids=["list", "string", "minpoly-not-a-string", "non-real-roots", "zero-spectrum"])
def test_malformed_cache_entry_is_a_recomputed_miss(tmp_path, entry):
    # the first three used to raise TypeError or AttributeError out of
    # the CLI; the cubic was believed, with certified-false verdicts, and
    # the zero spectrum stopped `verify` with "spectrum is {0}"
    width = "1/1000000"
    fresh = run_instance(Instance.building(1, 2), 0, width, cache_dir=tmp_path)
    (path,) = tmp_path.glob("*.json")
    if isinstance(entry, dict):
        entry = {**json.loads(path.read_text()), **entry}
    path.write_text(json.dumps(entry))
    b12 = Instance.building(1, 2)
    assert load_cached_report(tmp_path, path.stem, width, 0, b12) is None
    doc = run_instance(Instance.building(1, 2), 0, width, cache_dir=tmp_path)
    assert strip_timings(doc) == strip_timings(fresh)
    # the recomputed report replaced the entry, which is a hit again
    assert json.loads(path.read_text())["key"] == path.stem
    assert load_cached_report(tmp_path, path.stem, width, 0, b12) is not None


def test_cache_hit_takes_the_callers_instance(tmp_path):
    c = from_maximal_simplices([(0, 1, 2, 3)])
    run_instance(Instance.complex(c, {"source": "A"}), 1, cache_dir=tmp_path)
    doc = run_instance(Instance.complex(c, {"source": "B"}), 1, cache_dir=tmp_path)
    assert doc["instance"] == {"source": "B", "i": 1}
    assert doc["spectral"]["instance"] == {"source": "B", "i": 1}
    assert {v["instance"]["source"] for v in doc["verdicts"]} == {"B"}


def test_cache_hit_rederives_instance_and_integer_table(tmp_path):
    fresh = spectral_report(Instance.building(2, 2), 1)
    spectral_report(Instance.building(2, 2), 1, cache_dir=tmp_path)
    (path,) = tmp_path.glob("*.json")
    doc = json.loads(path.read_text())
    assert doc["integer_eigenvalues"] == {"0": True, "1": True, "2": True, "3": True}
    doc["instance"] = {"ell": 9, "q": 9, "i": 9}
    doc["integer_eigenvalues"] = {"0": False, "1": False, "7": True}
    path.write_text(json.dumps(doc))
    hit = spectral_report(Instance.building(2, 2), 1, cache_dir=tmp_path)
    assert list(hit.timings) == ["load_s"]  # a hit, timed by its own load
    assert (dumps_report(strip_timings(hit.to_json_dict()))
            == dumps_report(strip_timings(fresh.to_json_dict())))


def test_cache_hit_rederives_dim_and_keeps_its_own_timings(tmp_path):
    # an entry's dim and timings used to be read from disk: dim 99 came
    # back with every verdict certified, and the timings of the run
    # that wrote the entry were replayed as the hit's
    fresh = run_instance(Instance.building(1, 2), 0)
    run_instance(Instance.building(1, 2), 0, cache_dir=tmp_path)
    (path,) = tmp_path.glob("*.json")
    doc = json.loads(path.read_text())
    assert doc["dim"] == 14
    doc["dim"] = 99
    doc["timings"] = {"assemble_s": 0.0}
    path.write_text(json.dumps(doc))
    hit = run_instance(Instance.building(1, 2), 0, cache_dir=tmp_path)
    assert hit["spectral"]["dim"] == 14
    assert list(hit["spectral"]["timings"]) == ["load_s"]
    assert dumps_report(strip_timings(hit)) == dumps_report(strip_timings(fresh))
    # a complex's dim comes from the complex itself
    c = from_maximal_simplices([(0, 1, 2, 3)])
    spectral_report(Instance.complex(c), 1, cache_dir=tmp_path / "cx")
    (path,) = (tmp_path / "cx").glob("*.json")
    doc = json.loads(path.read_text())
    doc["dim"] = 99
    path.write_text(json.dumps(doc))
    hit = spectral_report(Instance.complex(c), 1, cache_dir=tmp_path / "cx")
    assert hit.dim == 6 and list(hit.timings) == ["load_s"]


# -- reproduction and full instances ----------------------------------------------


def test_reproduce_known_instances(shared_cache):
    doc = reproduce(Instance.building(1, 2), 0, cache_dir=shared_cache)
    assert doc["match"] is True
    assert doc["first_difference"] is None
    assert doc["computed"] == doc["reference"]


def test_reproduce_unknown_instance(shared_cache):
    with pytest.raises(UnknownReferenceInstance):
        reproduce(Instance.building(3, 2), 1, cache_dir=shared_cache)
    with pytest.raises(UnknownReferenceInstance):
        reproduce(Instance.complex(from_maximal_simplices([(0, 1)])), 0)


def test_reproduce_checks_the_reference_before_computing(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the report was computed before the reference lookup")

    monkeypatch.setattr(harness, "compute_spectral_report", refuse)
    with pytest.raises(UnknownReferenceInstance):
        reproduce(Instance.building(3, 2), 1)
    with pytest.raises(UnknownReferenceInstance):
        reproduce(Instance.complex(from_maximal_simplices([(0, 1)])), 0)
    with pytest.raises(DegreeOutOfRange):  # the degree is still checked first
        reproduce(Instance.building(3, 2), 3)


def test_report_path_builds_no_face_views(tmp_path):
    # the per-face tuple and dict views are for the oracle only
    # (tests/cochains.py): the package has none, and the name that the
    # benchmark counts faces under is the array rows a run works on
    assert not hasattr(complexes, "_View")
    assert complexes.Complex.simplices is complexes.Complex.rows
    inst = Instance.building(2, 2)
    doc = run_instance(inst, 1, cache_dir=tmp_path)
    assert doc["reproduction"]["match"] is True
    # the run read its one link per vertex type off its own building
    assert sorted(inst.cx._vertex_links) == [0, 15, 50]


def test_run_instance_document(doc221):
    doc = doc221
    assert doc["instance"] == {"ell": 2, "q": 2, "i": 1}
    checks = {v["check"]: v["status"] for v in doc["verdicts"]}
    assert checks["max-eigenvalue"] == CERTIFIED_TRUE
    assert checks["min-bound"] == CERTIFIED_TRUE
    assert checks["integer-eigenvalues"] == CERTIFIED_TRUE
    assert checks["fundamental-inequality"] == CERTIFIED_TRUE
    assert checks["vanishing-threshold"] == CERTIFIED_FALSE  # the q = 2 boundary case
    assert doc["reproduction"]["match"] is True
    assert doc["spectral"]["minpoly"].startswith("0/1")


def test_run_complex_instance(shared_cache):
    c = from_maximal_simplices([(0, 1, 2, 3)])
    doc = run_instance(Instance.complex(c, {"source": "simplex-3"}), 1, cache_dir=shared_cache)
    checks = {v["check"]: v["status"] for v in doc["verdicts"]}
    assert doc["reproduction"] is None
    # universal checks hold on the simplex; the flag-complex-specific
    # expectations (integer ladder, m <= ell - i) rightly fail there
    assert checks["max-eigenvalue"] == CERTIFIED_TRUE
    assert checks["fundamental-inequality"] == CERTIFIED_TRUE
    assert checks["vanishing-threshold"] == CERTIFIED_TRUE
    assert checks["min-bound"] == CERTIFIED_FALSE
    assert checks["integer-eigenvalues"] == CERTIFIED_FALSE


def test_bowtie_link_cohomology_is_read_from_one_certificate_per_link(tmp_path, monkeypatch):
    # the bowtie's vertex-0 link is two disjoint edges, with H~^0 of
    # dimension 1; the other four are single edges.  A fresh link report's
    # certificate decides its vanishing test, and a cached one has no
    # kernel dimension, so that test certifies the link once more
    dims = []
    certify = spectra.minimal_polynomial
    monkeypatch.setattr(spectra, "minimal_polynomial",
                        lambda op, *a, **kw: dims.append(op.dim) or certify(op, *a, **kw))
    bowtie = Instance.complex(from_maximal_simplices([(0, 1, 2), (0, 3, 4)]))
    for _ in range(2):
        doc = run_instance(bowtie, 1, cache_dir=tmp_path)
        (v,) = [v for v in doc["verdicts"] if v["check"] == "fundamental-inequality"]
        assert v["witness"]["hypothesis_cohomology_vanishes"] is False
        assert v["witness"]["lower"] == {"status": "not-applicable"}
        assert [link["cohomology_vanishes"] for link in v["witness"]["links"]] == [
            False, True, True, True, True]
    # the first run certifies the bowtie's 6 edges and each link's vertices
    # once: the four single edges share one cache entry, so three of them
    # are hits; the second run certifies each cached link once
    assert dims == [6, 4, 2, 2, 2, 2] + [4, 2, 2, 2, 2]


# -- report plumbing ---------------------------------------------------------------


def test_dumps_report_is_canonical():
    assert dumps_report({"b": 1, "a": [2, 3]}) == '{\n  "a": [\n    2,\n    3\n  ],\n  "b": 1\n}\n'


def test_strip_timings_is_deep_and_non_destructive():
    doc = {"timings": {"x": 1.0}, "inner": [{"timings": {}, "keep": 1}], "keep": 2}
    stripped = strip_timings(doc)
    assert stripped == {"inner": [{"keep": 1}], "keep": 2}
    assert "timings" in doc and "timings" in doc["inner"][0]
