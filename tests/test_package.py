"""The package ships what the CLI runs: the exact-rational oracle lives in tests/.

The cochain calculus, the per-face views and the element-level field and
subspace code check the package's array and integer code; they are
imported from the test modules `cochains`, `fields`, `dense` and
`rational_isolation`, never from `garland`.
"""

import ast
import importlib
import inspect
import re
import sys
import tracemalloc
from pathlib import Path

import pytest

# module -> names that only the tests' oracle defines, or that no code defines
MOVED = {
    "garland.laplace": [
        "Cochain", "inner_product", "coboundary", "adjoint_delta", "laplacian_apply",
        "rho_v", "rho_alpha", "tau_v", "coboundary_entries",
    ],
    "garland.complexes": [
        "orientation_sign",
        "_packed_rows",  # deleted: lexicographic order is the duplicate proof
        "_View",  # the id tuples are the tests' `cochains.simplices`
    ],
    "garland.building": [
        "type_invariant_lift", "fundamental_chamber_complex", "incident",
        "enumerate_subspaces", "_superspace_rows", "Subspace",
        "subspace_count",  # deleted: the layer sizes are flag counts
    ],
    "garland.gf": [
        "FieldElement", "field_add", "field_neg", "field_mul", "field_inv", "enumerate_field",
        # deleted: the multiplication table proves the modulus irreducible
        "_trim", "poly_mul", "poly_divmod", "_is_irreducible",
    ],
    "garland.rationals": ["as_float", "floor_q"],
    "garland.polyq": [  # deleted: rational roots are certified on the lattice (1/L)Z
        "simplest_between", "_integer_coeffs",
        # deleted: a root is compared with a rational by one sign, RootIsolation.cut
        "count_roots_halfopen", "_variations_at", "root_magnitude_bound",
    ],
    "garland.harness": [  # deleted
        "_link_cohomology_vanishes", "resolve_cache_dir", "_report", "_bounds", "_root_json",
        "_refine_extreme", "_compare_le",
        "VerificationVerdict",  # a verdict is its JSON record
        "_root_at_most",  # deleted: a cut leaves m <= x to its interval's hi
        # the flag count is building.flag_count; a root's hull is (lo, hi)
        "_q_factorial", "chamber_count", "_hull",
    ],
    "garland.spectra": [
        "integer_table",  # folded into report_from_minpoly
        "_prime_stream", "_RANK_PRIME",  # one prime source: gf.descending_primes
        # deleted: link cohomology is read from kernel dimensions
        "_coboundary_int_rows", "_coboundary",
        "is_eigenvalue",  # deleted: the integer table reads the exact roots
    ],
    "garland.errors": [
        "DegreeMismatch", "UnknownVertex", "UnknownType", "DivisionByZero",
        "AmbientMismatch", "DimensionMismatch",
    ],
}
MOVED_ATTRIBUTES = {
    ("garland.complexes", "Complex"): [
        "star", "contains", "weight", "check_weight_identity", "index", "weights",
        # deleted with the label vertex model: ids are dense, links are vertex links
        "labels", "link", "_find", "_id_of", "_tops_containing",
    ],
    ("garland.building", "TypedBuilding"): ["types"],
    ("garland.gf", "FieldSpec"): [
        "element", "code", "zero", "one",
        "_build_tables", "_decode", "_encode",  # deleted: tables come from digit arrays
    ],
    ("garland.polyq", "RatPolynomial"): [
        "gcd", "lcm", "divides", "derivative", "primitive",
        "__divmod__", "__floordiv__", "__mod__", "monic",
        # deleted outright, with no caller in the package or the oracle
        "__add__", "__neg__", "__sub__", "scale", "is_monic", "from_roots",
        "scale_roots",  # deleted: reports keep min_B and L, and build min_A as from_scaled
    ],
    ("garland.polyq", "RootInterval"): ["width", "midpoint"],  # deleted
    ("garland.polyq", "RootIsolation"): [
        "real_root_count",  # deleted
        "count_in_halfopen", "chain",  # deleted: an isolation keeps p, which cut reads
    ],
}
BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_the_oracle_is_not_shipped():
    shipped = []
    for module, names in MOVED.items():
        mod = importlib.import_module(module)
        shipped += [f"{module}.{name}" for name in names if hasattr(mod, name)]
    for (module, cls), names in MOVED_ATTRIBUTES.items():
        owner = getattr(importlib.import_module(module), cls)
        shipped += [f"{module}.{cls}.{name}" for name in names if hasattr(owner, name)]
    # instance attributes as well, such as a complex's deleted `labels`
    # and an isolation's deleted `chain`
    from garland.complexes import Complex
    from garland.polyq import isolate_real_roots

    for obj, module in ((Complex.from_maximal_simplices([(0, 1)]), "garland.complexes"),
                        (isolate_real_roots((-2, 0, 1)), "garland.polyq")):
        cls = type(obj).__name__
        shipped += [f"{cls}().{name}" for name in MOVED_ATTRIBUTES[(module, cls)]
                    if hasattr(obj, name)]
    assert shipped == []


def test_the_flag_count_is_written_once():
    # the harness sizes its budget and cache hits by the count that the
    # chamber walk is sized by
    from garland import building, harness

    assert harness.flag_count is building.flag_count
    assert building.flag_count.__module__ == "garland.building"


def test_the_rank_engine_is_gone():
    # link cohomology is read from the certificates' kernel dimensions;
    # the tests' Bareiss ranks (tests/dense.py) are the oracle
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("garland.exactla")


def test_version_matches_the_project_metadata():
    # --version, the report's "version" and the cache key read
    # garland.__version__; an installed package reports pyproject's, which
    # setuptools reads from the attribute the project table names
    import garland

    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()

    def table(name):
        return text.split(f"\n[{name}]\n", 1)[1].split("\n[", 1)[0]

    project = table("project")
    assert not re.findall(r"^version\s*=", project, re.M)
    (dynamic,) = re.findall(r"^dynamic = \[(.*)\]$", project, re.M)
    assert '"version"' in dynamic.split(", ")
    (attr,) = re.findall(r'^version = \{attr = "([^"]+)"\}$',
                         table("tool.setuptools.dynamic"), re.M)
    assert attr == "garland.version.VERSION"
    module, name = attr.rsplit(".", 1)
    assert getattr(importlib.import_module(module), name) == garland.__version__


def test_one_rational_backend():
    from fractions import Fraction

    from garland import rationals

    assert rationals.QQ is Fraction
    root = Path(__file__).resolve().parents[1]
    texts = [(root / "pyproject.toml").read_text()]
    texts += [p.read_text() for p in (root / "src" / "garland").glob("*.py")]
    assert not any("gmpy2" in t for t in texts)


def test_building_does_not_import_laplace():
    source = inspect.getsource(importlib.import_module("garland.building"))
    imported = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            prefix = "garland." if node.level else ""
            imported.add(prefix + (node.module or ""))
            imported.update(prefix + alias.name for alias in node.names if not node.module)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert "garland.laplace" not in imported
    assert imported >= {"garland.complexes", "garland.gf"}  # the scan sees relative imports


def test_every_benchmark_target_resolves(b23):
    # bench/spans.py wraps these by module and attribute path, and counts
    # faces and nonzeros as the lengths of Complex.simplices' levels and
    # of the operator's entries
    sys.path.insert(0, str(BENCH))
    try:
        spans = importlib.import_module("spans")
    finally:
        sys.path.remove(str(BENCH))
    for _, module, path, _ in spans.TARGETS:
        obj = importlib.import_module(module)
        for attr in path.split("."):
            obj = getattr(obj, attr)
        assert callable(obj), (module, path)
    from garland.complexes import Complex
    from garland.laplace import LinearOperatorHandle, assemble_matrix
    from garland.spectra import certify_annihilates

    assert hasattr(Complex, "simplices")
    assert hasattr(LinearOperatorHandle, "entries")
    assert {"n", "columns"} <= set(inspect.signature(certify_annihilates).parameters)
    cx = b23.complex
    assert sum(len(level) for level in cx.simplices) == sum(
        cx.num_simplices(d) for d in range(cx.dim + 1))
    op = assemble_matrix(cx, 1)
    assert op.indptr[-1] == 14_040
    # the nnz count reads an array's length: it builds nothing of the
    # operator's size (a dict of rationals peaked at about 3 MiB here)
    tracemalloc.start()
    try:
        nnz = len(op.entries)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert nnz == op.indptr[-1]
    assert peak < 64 * 1024
