"""Benchmark of the garland CLI: four workloads, each pass in a fresh interpreter.

Usage (from the repository root):

    python3 bench/run.py --workload grid --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25      # every workload

Workloads (BENCHMARK.json lists grid and large; bench/README.md says
why each was chosen and why only those two are listed):
    grid         garland report --grid default into a fresh empty cache
    grid-cached  the same command against a cache filled during set-up
    ingest       garland verify --complex on a seeded relabelling of the
                 (2,3) building's text form, degrees 0 and 1
    large        garland verify --ell 3 --q 3 --i 0

A run repeats passes for --seconds (at least MIN_PASSES of each kind)
and checks every pass's output.  With --trace 0 it reports the
end-to-end metrics (medians over passes); with --trace 1 it alternates
untraced and traced passes and reports per-layer self times and counts
(spans.py) plus trace.overhead_s.  The last stdout line is one JSON
object with keys correct, attempted, failed and metrics.

The seed goes to garland as --seed (the Krylov seed-vector stream) and
drives the ingest relabelling; nothing else about the inputs varies.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
EXPECTED = json.loads((BENCH / "expected.json").read_text())

MIN_PASSES = 3
SETUP_PROBES = 3
RUN_LIMIT_S = 170  # every run must end well inside 180 s

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
COLD = ("grid", "ingest", "large")
WORKLOADS = ("grid", "grid-cached", "ingest", "large")


class BenchError(Exception):
    """The benchmark itself could not run (not a failed output check)."""


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("GARLAND_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(args: list[str], deadline: float) -> tuple[float, str]:
    """Run child.py with args; return (spawn time, stdout).  Always reaps."""
    t0 = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(BENCH / "child.py"), *args],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=child_env(), cwd=ROOT, text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"pass {args[:1]} ran past the run's time limit") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"child exited {proc.returncode}:\n{err}")
    if err:
        sys.stderr.write(err)
    return t0, out


def probe_setup(deadline: float) -> float:
    t0, out = spawn(["--probe"], deadline)
    return json.loads(out)["imported"] - t0


def run_pass(argv: list[str], check: dict, trace: bool, deadline: float) -> dict:
    spec = {"argv": argv, "check": check, "trace": trace}
    t0, out = spawn([json.dumps(spec)], deadline)
    result = json.loads(out.splitlines()[-1])
    result["setup_s"] = result.pop("imported") - t0
    return result


def relabel(text: str, seed: int) -> str:
    """Permute vertex labels, line order and vertex order within lines."""
    rng = random.Random(f"ingest:{seed}")
    rows = [line.split() for line in text.splitlines() if line.strip()]
    labels = sorted({int(x) for row in rows for x in row})
    image = labels[:]
    rng.shuffle(image)
    mapping = dict(zip(labels, image))
    rows = [[mapping[int(x)] for x in row] for row in rows]
    for row in rows:
        rng.shuffle(row)
    rng.shuffle(rows)
    return "".join(" ".join(map(str, row)) + "\n" for row in rows)


def cache_state(path: Path) -> dict:
    return {f.name: (f.stat().st_size, f.stat().st_mtime_ns) for f in path.iterdir()}


class Workload:
    """Set-up and per-pass arguments of one workload in a temporary directory."""

    def __init__(self, name: str, seed: int, work: Path, deadline: float):
        self.name = name
        self.cache = work / "cache"
        common = ["--seed", str(seed), "--threads", "1"]
        if name in ("grid", "grid-cached"):
            self.base = ["report", "--grid", "default", *common]
            self.check = dict(EXPECTED["grid"], kind="report")
        elif name == "ingest":
            emitted, path = work / "building.txt", work / "ingest.txt"
            cmd = [sys.executable, "-m", "garland.cli", "build", "--ell", "2", "--q", "3",
                   "--emit-complex", str(emitted)]
            subprocess.run(cmd, env=child_env(), cwd=ROOT, check=True,
                           stdout=subprocess.DEVNULL,
                           timeout=max(1.0, deadline - time.monotonic()))
            path.write_text(relabel(emitted.read_text(), seed))
            self.base = ["verify", "--complex", str(path), "--json", *common]
            self.check = dict(EXPECTED["ingest"], kind="ingest")
        else:
            self.base = ["verify", "--ell", "3", "--q", "3", "--i", "0", "--json", *common]
            self.check = dict(EXPECTED["large"], kind="verify")
        if name == "grid-cached":
            filled = run_pass(self.argv(), self.check, False, deadline)
            if filled["failures"]:
                raise BenchError(f"cache-filling pass failed: {filled['failures'][0]}")
            self.filled = cache_state(self.cache)

    def argv(self) -> list[str]:
        if self.name == "grid":
            shutil.rmtree(self.cache, ignore_errors=True)
            self.cache.mkdir()
        if self.name.startswith("grid"):
            return [*self.base, "--cache-dir", str(self.cache)]
        return self.base

    def hygiene(self, result: dict) -> list[str]:
        """Benchmark-side conditions a pass must meet to measure its workload."""
        problems = []
        if self.name == "grid-cached" and cache_state(self.cache) != self.filled:
            problems.append("grid-cached pass wrote to the cache, so it ran the cold path")
        layers = result.get("layers")
        if layers is not None:
            if self.name in COLD and layers["laplace.calls"] != layers["spectra.minpoly.calls"]:
                problems.append("laplace.calls != spectra.minpoly.calls")
            if self.name == "grid-cached" and (
                    layers["harness.cache.hits"] != EXPECTED["grid_cached_hits"]
                    or layers["harness.cache.misses"] != 0):
                problems.append(f"cache hits/misses {layers['harness.cache.hits']}/"
                                f"{layers['harness.cache.misses']}, expected "
                                f"{EXPECTED['grid_cached_hits']}/0")
        return problems


def count_keys(layers: dict) -> dict:
    return {k: v for k, v in layers.items() if not k.endswith("_s")}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    work = Path(tempfile.mkdtemp(prefix=".bench-work-", dir=ROOT))
    try:
        wl = Workload(name, seed, work, deadline)
        setups = []
        probe_setup(deadline)  # warm-up: bytecode and page cache
        for _ in range(SETUP_PROBES):
            setups.append(probe_setup(deadline))
        plain: list[dict] = []
        traced: list[dict] = []
        problems: list[str] = []
        start = time.monotonic()
        longest = 0.0
        while True:
            short = len(plain) < MIN_PASSES or (trace and len(traced) < MIN_PASSES)
            if not short and time.monotonic() - start + longest > seconds:
                break
            do_trace = trace and len(traced) < len(plain)
            t = time.monotonic()
            result = run_pass(wl.argv(), wl.check, do_trace, deadline)
            longest = max(longest, time.monotonic() - t)
            problems += wl.hygiene(result)
            (traced if do_trace else plain).append(result)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    passes = plain + traced
    setups += [p["setup_s"] for p in passes]
    attempted = sum(p["items"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    if traced and any(count_keys(p["layers"]) != count_keys(traced[0]["layers"])
                      for p in traced):
        problems.append("per-layer counts differ between traced passes")
    summary = {
        "workload": name,
        "passes": len(plain),
        "traced_passes": len(traced),
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:5],
        "problems": sorted(set(problems)),
        "env": passes[0]["env"],
        "samples": {m: [p[m] for p in plain] for m in END_TO_END if m != "setup_s"},
    }
    summary["samples"]["setup_s"] = setups
    if trace:
        layers = {k: statistics.median(p["layers"][k] for p in traced)
                  for k in traced[0]["layers"]}
        layers["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                      - statistics.median(p["wall_s"] for p in plain))
        summary["layers"] = layers
    return summary


def metrics_of(summary: dict, trace: bool) -> dict:
    if trace:
        return {k: {"value": v, "unit": spans.unit(k)} for k, v in summary["layers"].items()}
    return {m: {"value": statistics.median(summary["samples"][m]), "unit": unit}
            for m, unit in END_TO_END.items()}


def print_summary(summary: dict, trace: bool) -> None:
    print(f"workload {summary['workload']}: {summary['passes']} passes"
          + (f" + {summary['traced_passes']} traced" if trace else ""))
    for m, unit in END_TO_END.items():
        xs = summary["samples"][m]
        print(f"  {m:<12} {statistics.median(xs):10.4f} {unit:<5} median of {len(xs)}"
              f" (min {min(xs):.4f}, max {max(xs):.4f})")
    frac = summary["failed"] / summary["attempted"]
    print(f"  {'failed_frac':<12} {frac:10.4f} ratio {summary['failed']} of"
          f" {summary['attempted']} items")
    for f in summary["failures"]:
        print(f"  failed: {f}")
    for p in summary["problems"]:
        print(f"  benchmark check failed: {p}")
    if trace:
        for k, v in summary["layers"].items():
            print(f"  {k:<40} {v:14.6g} {spans.unit(k)}")
    print("env " + json.dumps(summary["env"], sort_keys=True))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "garland" / "cli.py").is_file():
        print(f"error: no garland sources under {SRC}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    summaries = []
    try:
        for name in names:
            summaries.append(run_workload(name, args.seed, args.seconds, trace))
            print_summary(summaries[-1], trace)
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(summaries) == 1:
        metrics = metrics_of(summaries[0], trace)
    else:
        metrics = {f"{s['workload']}.{k}": v
                   for s in summaries for k, v in metrics_of(s, trace).items()}
    doc = {
        "correct": all(s["failed"] == 0 and not s["problems"] for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": metrics,
    }
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
