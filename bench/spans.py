"""Per-layer spans around garland's public functions, recorded from outside.

`install()` replaces each traced function at every name it is bound to
in a loaded `garland` module (a function imported by name into another
module is a second binding, and a call through it would otherwise
escape its span), and on the class for methods.  Private helpers are
never wrapped: their time is the self time of the public function that
calls them.

A span is (layer, start, end, parent index).  Spans nest because the
program is single-threaded; a layer's self time is the sum over its
spans of the duration minus the time its direct child spans cover.
Counts are taken from each call's arguments and result after its span
has ended, inside a `trace.counting` span so that the cost of counting
is not booked to the caller.  Byte counts measure garland's canonical
JSON without `timings`, whose digits vary from run to run.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time


def _canonical_bytes(obj) -> int:
    """UTF-8 size of obj as garland's JSON, without the run-dependent timings."""
    harness = sys.modules["garland.harness"]
    dumps = getattr(harness.dumps_report, "__wrapped__", harness.dumps_report)
    return len(dumps(harness.strip_timings(obj)).encode())


def _certify_counts(bound, result):
    columns = bound.arguments.get("columns")
    n = bound.arguments["n"]
    return {
        "spectra.certify.calls": 1,
        "spectra.certify.accepted": int(bool(result)),
        "spectra.certify.columns": n if columns is None else len(columns),
    }


def _cache_load_counts(bound, result):
    return {"harness.cache.hits" if result is not None else "harness.cache.misses": 1}


def _one(name):
    return lambda bound, result: {name: 1}


# (layer, module, attribute path, counts(bound arguments, result) or None)
TARGETS = [
    ("building.flag_complex", "garland.building", "flag_complex",
     lambda b, r: {"building.chambers": r.complex.num_simplices(r.complex.dim)}),
    ("complexes.from_maximal_simplices", "garland.complexes",
     "Complex.from_maximal_simplices",
     lambda b, r: {"complexes.simplices": sum(len(level) for level in r.simplices)}),
    ("complexes.vertex_link", "garland.complexes", "Complex.vertex_link",
     _one("complexes.vertex_link.calls")),
    ("laplace.assemble_matrix", "garland.laplace", "assemble_matrix",
     lambda b, r: {"laplace.calls": 1, "laplace.n": r.dim, "laplace.nnz": len(r.entries)}),
    ("spectra.minimal_polynomial", "garland.spectra", "minimal_polynomial",
     lambda b, r: {"spectra.minpoly.calls": 1, "spectra.minpoly.degree": r.degree}),
    ("spectra.certify_annihilates", "garland.spectra", "certify_annihilates",
     _certify_counts),
    ("spectra.squarefree_certify", "garland.spectra", "squarefree_certify", None),
    ("spectra.reduced_cohomology", "garland.spectra", "reduced_cohomology_vanishes",
     _one("spectra.reduced_cohomology.calls")),
    ("spectra.reduced_cohomology", "garland.spectra", "reduced_cohomology_ranks",
     _one("spectra.reduced_cohomology.calls")),
    ("polyq.isolate_real_roots", "garland.polyq", "isolate_real_roots",
     lambda b, r: {"polyq.roots": len(r.roots)}),
    ("polyq.refine", "garland.polyq", "RootIsolation.refine", _one("polyq.refine.calls")),
    ("harness.load_cached_report", "garland.harness", "load_cached_report",
     _cache_load_counts),
    ("harness.store_report", "garland.harness", "store_report",
     lambda b, r: {"harness.cache.bytes_written":
                   _canonical_bytes(b.arguments["report"].to_json_dict())}),
    ("harness.verdicts", "garland.harness", "verdict_max_eigenvalue",
     _one("harness.verdicts.count")),
    ("harness.verdicts", "garland.harness", "verdict_min_bound",
     _one("harness.verdicts.count")),
    ("harness.verdicts", "garland.harness", "verdict_integer_eigenvalues",
     _one("harness.verdicts.count")),
    ("harness.verdicts", "garland.harness", "fundamental_inequality_verdict",
     _one("harness.verdicts.count")),
    ("harness.verdicts", "garland.harness", "verdict_vanishing_threshold",
     _one("harness.verdicts.count")),
    ("harness.verdicts", "garland.harness", "conjecture_table",
     _one("harness.verdicts.count")),
    ("harness.dumps_report", "garland.harness", "dumps_report",
     lambda b, r: {"harness.json.bytes": _canonical_bytes(b.arguments["obj"])}),
]

ROOT = "cli.main"
COUNTING = "trace.counting"  # the tracer's own work of taking counts
LAYERS = list(dict.fromkeys(t[0] for t in TARGETS)) + [ROOT, COUNTING]
COUNTS = [
    "building.chambers", "complexes.simplices", "complexes.vertex_link.calls",
    "laplace.calls", "laplace.n", "laplace.nnz",
    "spectra.minpoly.calls", "spectra.minpoly.degree",
    "spectra.certify.calls", "spectra.certify.accepted", "spectra.certify.columns",
    "spectra.reduced_cohomology.calls", "polyq.roots", "polyq.refine.calls",
    "harness.cache.hits", "harness.cache.misses", "harness.cache.bytes_written",
    "harness.verdicts.count", "harness.json.bytes",
]


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if "bytes" in metric:
        return "bytes"
    return "ratio" if metric.endswith("ratio") else "count"


class Tracer:
    """In-memory span list plus counters, filled by the installed wrappers."""

    def __init__(self):
        self.spans: list[list] = []  # [layer, start, end, parent]
        self.counts = dict.fromkeys(COUNTS, 0)
        self._stack: list[int] = []

    def call(self, layer, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        span = [layer, time.perf_counter(), None, parent]
        self.spans.append(span)
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def add(self, counts) -> None:
        for k, v in counts.items():
            self.counts[k] += v

    def self_times(self) -> dict[str, float]:
        covered = [0.0] * len(self.spans)
        for layer, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = dict.fromkeys(LAYERS, 0.0)
        for (layer, start, end, _), child in zip(self.spans, covered):
            out[layer] += end - start - child
        return out

    def metrics(self) -> dict[str, float]:
        out = {f"{layer}.self_s": v for layer, v in self.self_times().items()}
        out.update(self.counts)
        calls = self.counts["spectra.certify.calls"]
        out["spectra.certify.accept_ratio"] = (
            self.counts["spectra.certify.accepted"] / calls if calls else 0.0)
        return out


def _wrap(tracer: Tracer, layer: str, fn, counter):
    sig = inspect.signature(fn)

    def count(args, kwargs, result):
        tracer.add(counter(sig.bind(*args, **kwargs), result))

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = tracer.call(layer, fn, args, kwargs)
        if counter is not None:
            # a span of its own keeps counting out of the caller's self time
            tracer.call(COUNTING, count, (args, kwargs, result), {})
        return result

    return wrapper


def install() -> Tracer:
    """Wrap every target at every binding in the loaded garland modules."""
    tracer = Tracer()
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "garland" or name.startswith("garland."))]
    for layer, module, path, counter in TARGETS:
        owner = sys.modules[module]
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(owner, cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(_wrap(tracer, layer, raw.__func__, counter)))
            else:
                setattr(cls, attr, _wrap(tracer, layer, raw, counter))
            continue
        fn = getattr(owner, path)
        wrapper = _wrap(tracer, layer, fn, counter)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, name, wrapper)
    return tracer

