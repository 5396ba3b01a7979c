"""Command-line interface.

Subcommands build flag complexes, compute certified spectra, run the
verification battery, compare against recorded reference polynomials,
and sweep whole instance grids into JSON reports.  Human-readable text
is the default; --json switches a subcommand to the canonical JSON
document (sorted keys, exact rationals as "num/den" strings, floats
only inside timings).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import harness
from .complexes import from_text
from .errors import GarlandError
from .laplace import assemble_matrix, dump_matrix_text
from .version import VERSION


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--cache-dir", default=None,
                   help="cache directory (or env GARLAND_CACHE_DIR); no caching if unset")
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the documented Krylov seed-vector stream; "
                        "certified results do not depend on it")


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="garland",
                                  description="certified spectra of weighted "
                                              "Laplacians on flag complexes")
    top.add_argument("--version", action="version", version=f"garland {VERSION}")
    sub = top.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="construct a flag complex")
    b.add_argument("--ell", type=int, required=True)
    b.add_argument("--q", type=int, required=True)
    b.add_argument("--emit-complex", metavar="PATH",
                   help="write the complex as text (one chamber per line)")

    s = sub.add_parser("spectrum", help="certified minimal polynomial and roots")
    s.add_argument("--ell", type=int)
    s.add_argument("--q", type=int)
    s.add_argument("--complex", metavar="PATH", help="read a complex from text instead")
    s.add_argument("--i", type=int, required=True, help="cochain degree")
    s.add_argument("--width", default=harness.DEFAULT_WIDTH,
                   help="isolation width for irrational roots (rational, e.g. 1/1000000)")
    s.add_argument("--dump-matrix", metavar="PATH",
                   help="write the assembled operator as 'row col num/den' text")
    s.add_argument("--json", action="store_true")
    _add_common(s)

    v = sub.add_parser("verify", help="run all applicable certified checks")
    v.add_argument("--ell", type=int)
    v.add_argument("--q", type=int)
    v.add_argument("--complex", metavar="PATH")
    v.add_argument("--i", type=int, help="single cochain degree (default: grid degrees)")
    v.add_argument("--extended", action="store_true",
                   help="allow degrees from the extended grid")
    v.add_argument("--width", default=harness.DEFAULT_WIDTH)
    v.add_argument("--json", action="store_true")
    v.add_argument("--threads", type=int, default=1, help="accepted and ignored")
    _add_common(v)

    r = sub.add_parser("reproduce", help="compare against the recorded polynomial")
    r.add_argument("--ell", type=int, required=True)
    r.add_argument("--q", type=int, required=True)
    r.add_argument("--i", type=int, required=True)
    r.add_argument("--width", default=harness.DEFAULT_WIDTH)
    r.add_argument("--json", action="store_true")
    _add_common(r)

    g = sub.add_parser("report", help="sweep an instance grid into a JSON report")
    g.add_argument("--grid", choices=("default", "extended"), default="default")
    g.add_argument("--out", metavar="PATH", help="output path (default: stdout)")
    g.add_argument("--width", default=harness.DEFAULT_WIDTH)
    g.add_argument("--threads", type=int, default=1, help="worker processes for the sweep")
    _add_common(g)

    return top


# -- formatting -----------------------------------------------------------------


def _fmt_root(r: dict) -> str:
    if r.get("is_rational") or "exact" in r:
        return f"= {r.get('value', r.get('exact'))}"
    return f"in ({r['lo']}, {r['hi']}]"


def _print_spectral(doc: dict) -> None:
    print(f"instance    {doc['instance']}")
    print(f"degree      {doc['degree']}")
    print(f"dimension   {doc['dim']}")
    print(f"minpoly     {doc['minpoly']}")
    for r in doc["roots"]:
        print(f"  root {_fmt_root(r)}")
    print(f"m {_fmt_root(doc['m'])}")
    print(f"M {_fmt_root(doc['M'])}")
    ints = ", ".join(f"{k}:{'yes' if v else 'no'}"
                     for k, v in sorted(doc["integer_eigenvalues"].items(),
                                        key=lambda kv: int(kv[0])))
    print(f"integer eigenvalues  {ints}")
    for k, v in sorted(doc["timings"].items()):
        print(f"  {k} {v:.3f}")


def _print_verdict(v: dict) -> None:
    print(f"[{v['status']}] {v['check']} {v['instance']}")


def _instance(args) -> harness.Instance:
    if args.complex:
        try:
            text = Path(args.complex).read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise GarlandError(f"cannot read the complex file: {exc}") from None
        cx, _ = from_text(text)
        return harness.Instance.complex(cx)
    if args.ell is None or args.q is None:
        raise GarlandError("pass either --ell and --q, or --complex PATH")
    return harness.Instance.building(args.ell, args.q)


def _check_output(path) -> None:
    """Fail before any computation when an output path's directory is missing."""
    if path and not Path(path).parent.is_dir():
        raise GarlandError(f"cannot write {path}: no directory {Path(path).parent}")


def _write(path, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise GarlandError(f"cannot write {path}: {exc}") from None


# -- subcommands ----------------------------------------------------------------


def _cmd_build(args) -> int:
    _check_output(args.emit_complex)
    b = harness.get_building(args.ell, args.q)
    cx = b.complex
    print(f"flag complex ell={args.ell} q={args.q} (dimension {cx.dim})")
    for d in range(cx.dim + 1):
        print(f"  dim {d}: {cx.num_simplices(d)} simplices")
    print(f"fundamental chamber vertices: {list(b.fundamental_chamber)}")
    if args.emit_complex:
        _write(args.emit_complex, cx.to_text())
        print(f"wrote {args.emit_complex}")
    return 0


def _cmd_spectrum(args) -> int:
    _check_output(args.dump_matrix)
    inst = _instance(args)
    report = harness.spectral_report(inst, args.i, width=args.width, seed=args.seed,
                                     cache_dir=args.cache_dir)
    if args.dump_matrix:
        handle = report.operator
        if handle is None:  # a cache hit: the report was not computed here
            handle = assemble_matrix(inst.cx, args.i)
        _write(args.dump_matrix, dump_matrix_text(handle))
    doc = report.to_json_dict()
    if args.json:
        sys.stdout.write(harness.dumps_report(doc))
    else:
        _print_spectral(doc)
        if args.dump_matrix:
            print(f"wrote {args.dump_matrix}")
    return 0


def _verify_degrees(args, inst: harness.Instance) -> list[int]:
    if args.i is not None:
        return [args.i]
    if inst.reference is None:  # the grids name (ell, q) reference points only
        if inst.n == 0:
            raise GarlandError("a complex of dimension 0 has no degree 0 <= i <= n-1 to verify")
        return list(range(inst.n))
    grid = harness.extended_grid() if args.extended else harness.default_grid()
    degrees = [i for (ell, q, i) in grid if (ell, q) == inst.reference]
    if not degrees:
        raise GarlandError(
            f"(ell={args.ell}, q={args.q}) is not on the "
            f"{'extended' if args.extended else 'default'} grid; "
            "pass --i explicitly" + ("" if args.extended else " or use --extended"))
    return degrees


def _cmd_verify(args) -> int:
    inst = _instance(args)
    docs = [harness.run_instance(inst, i, width=args.width, seed=args.seed,
                                 cache_dir=args.cache_dir)
            for i in _verify_degrees(args, inst)]
    failed = 0
    if args.json:
        sys.stdout.write(harness.dumps_report(docs))
    for doc in docs:
        for v in doc["verdicts"]:
            if not args.json:
                _print_verdict(v)
            # A hypothesis check reports whether a sufficient condition
            # holds; certified-false is then an answer, not a defect.
            hypothesis = v.get("witness", {}).get("kind") == "hypothesis-check"
            if v["status"] == harness.CERTIFIED_FALSE and not hypothesis:
                failed += 1
        repro = doc.get("reproduction")
        if repro is not None:
            status = "match" if repro["match"] else "MISMATCH"
            if not args.json:
                print(f"[{status}] reference-polynomial {repro['instance']}")
            if not repro["match"]:
                failed += 1
    return 1 if failed else 0


def _cmd_reproduce(args) -> int:
    doc = harness.reproduce(harness.Instance.building(args.ell, args.q), args.i,
                            width=args.width, seed=args.seed, cache_dir=args.cache_dir)
    if args.json:
        sys.stdout.write(harness.dumps_report(doc))
    else:
        print(f"instance   {doc['instance']}")
        print(f"computed   {doc['computed']}")
        print(f"reference  {doc['reference']}")
        if doc["match"]:
            print("match: the polynomials agree exactly")
        else:
            d = doc["first_difference"]
            print(f"MISMATCH at x^{d['power']}: "
                  f"computed {d['computed']}, reference {d['reference']}")
    return 0 if doc["match"] else 1


def _cmd_report(args) -> int:
    _check_output(args.out)
    doc = harness.run_grid(grid=args.grid, threads=args.threads, width=args.width,
                           seed=args.seed, cache_dir=args.cache_dir)
    text = harness.dumps_report(doc)
    if args.out:
        _write(args.out, text)
        print(f"wrote {args.out} ({len(doc['instances'])} instances)")
    else:
        sys.stdout.write(text)
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "build": _cmd_build,
        "spectrum": _cmd_spectrum,
        "verify": _cmd_verify,
        "reproduce": _cmd_reproduce,
        "report": _cmd_report,
    }
    try:
        return handlers[args.command](args)
    except GarlandError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
