"""One benchmark pass: a fresh interpreter runs one `garland.cli.main` call.

Usage: python3 child.py '<json spec>'   (one pass)
       python3 child.py --probe         (start-up and import only)

The spec holds "argv" (the CLI arguments), "trace" (wrap the layers
with spans.install) and "check" (how to check the output: its "kind"
is report, verify or ingest, with the expected values of that kind).  The pass
prints one JSON line: the monotonic clock right after `import
garland.cli` (the parent subtracts its spawn time to get setup_s),
wall and CPU time of the call, the process's own peak RSS right after
the call, the item counts of the output check and, when traced, the
per-layer metrics.  Checking runs after the measurements are taken.
"""

import sys
import time

import garland.cli

IMPORTED = time.monotonic()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402

from garland import harness, rationals  # noqa: E402
from garland.reference import reference_minimal_polynomial  # noqa: E402


def digest(obj) -> str:
    return hashlib.sha256(harness.dumps_report(harness.strip_timings(obj)).encode()).hexdigest()


def check_digests(out, check: dict) -> list[str]:
    """One failure per output item whose digest is not the expected one.

    The items are the instances of a `report` document, or the
    per-degree documents of a `verify --json` list.
    """
    expected = check["digests"]
    if check["kind"] == "report":
        if out["grid"] != check["grid"]:
            return [f"report grid is {out['grid']!r}"] * len(expected)
        items = out["instances"]
    else:
        items = out
    if len(items) != len(expected):
        return [f"{len(items)} items, expected {len(expected)}"] * len(expected)
    return [f"item {k}: digest {d[:12]} != {e[:12]}"
            for k, (item, e) in enumerate(zip(items, expected))
            if (d := digest(item)) != e]


def check_ingest(out: list, check: dict) -> list[str]:
    """Per degree: reference minpoly, root list and verdict statuses.

    Instance digests and link labels follow the seeded relabelling, so
    they are not compared.
    """
    expected = check["degrees"]
    if len(out) != len(expected):
        return [f"{len(out)} degrees, expected {len(expected)}"] * len(expected)
    failures = []
    for doc, exp in zip(out, expected):
        spec = doc["spectral"]
        i = exp["degree"]
        ref = reference_minimal_polynomial(*check["reference"], i).serialize()
        roots = hashlib.sha256(json.dumps(spec["roots"], sort_keys=True).encode()).hexdigest()
        statuses = [[v["check"], v["status"]] for v in doc["verdicts"]]
        if spec["degree"] != i or spec["dim"] != exp["dim"]:
            failures.append(f"degree {i}: degree/dim {spec['degree']}/{spec['dim']}")
        elif spec["minpoly"] != ref:
            failures.append(f"degree {i}: minpoly differs from the reference")
        elif roots != exp["roots_sha256"]:
            failures.append(f"degree {i}: root list digest {roots[:12]}")
        elif statuses != exp["statuses"]:
            failures.append(f"degree {i}: verdict statuses {statuses}")
    return failures


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "rational_backend": f"{rationals.QQ.__module__}.{rationals.QQ.__name__}",
    }


def main() -> None:
    if sys.argv[1] == "--probe":
        sys.stdout.write(json.dumps({"imported": IMPORTED}) + "\n")
        return
    spec = json.loads(sys.argv[1])
    check = spec["check"]
    tracer = None
    if spec["trace"]:
        import spans

        tracer = spans.install()
    buf = io.StringIO()
    error = None
    r0 = resource.getrusage(resource.RUSAGE_SELF)
    w0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            if tracer is None:
                code = garland.cli.main(spec["argv"])
            else:
                code = tracer.call(spans.ROOT, garland.cli.main, (spec["argv"],), {})
    except (Exception, SystemExit):  # a pass that raises fails its items
        code, error = None, traceback.format_exc()
    w1 = time.perf_counter()
    r1 = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "imported": IMPORTED,
        "wall_s": w1 - w0,
        "cpu_s": (r1.ru_utime - r0.ru_utime) + (r1.ru_stime - r0.ru_stime),
        "peak_rss_mb": r1.ru_maxrss / 1024,  # Linux reports KiB
        "items": check["items"],
        "env": environment(),
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
    if error is None and code != check["exit_code"]:
        error = f"exit code {code}, expected {check['exit_code']}"
    if error is None:
        try:
            out = json.loads(buf.getvalue())
            if check["kind"] == "ingest":
                failures = check_ingest(out, check)
            else:
                failures = check_digests(out, check)
        except (ValueError, KeyError, TypeError, IndexError):
            failures = [f"malformed output: {traceback.format_exc(limit=1)}"] * check["items"]
    else:
        failures = [error] * check["items"]
    result["failures"] = failures
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
