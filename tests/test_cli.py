"""Command-line interface: exit codes, JSON output, file emission."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from garland import cli, harness
from garland.cli import main
from garland.complexes import from_text
from garland.errors import (
    DuplicateSimplex,
    EmptyInput,
    InvalidLabel,
    MixedDimensions,
    RepeatedVertex,
)
from garland.polyq import RatPolynomial

from peak_memory import HAS_VMHWM, PEAK_KIB


@pytest.fixture()
def cache_args(shared_cache):
    return ["--cache-dir", str(shared_cache)]


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("garland ")


def test_build_summary_and_emit(tmp_path, capsys):
    out_file = tmp_path / "complex.txt"
    code, out, _ = run(capsys, ["build", "--ell", "1", "--q", "3", "--emit-complex", str(out_file)])
    assert code == 0
    assert "26" in out  # 13 + 13 vertices
    cx, _labels = from_text(out_file.read_text())
    assert cx.dim == 1
    assert cx.num_simplices(0) == 26
    assert cx.num_simplices(1) == 52


def test_build_rejects_an_instance_over_the_budget(capsys, monkeypatch):
    def no_building(*args, **kwargs):
        raise AssertionError("a building was constructed")

    monkeypatch.setattr(harness, "flag_complex", no_building)
    code, out, err = run(capsys, ["build", "--ell", "3", "--q", "4"])
    assert (code, out) == (2, "")
    assert "over the budget" in err


def test_build_rejects_bad_field(capsys):
    code, _out, err = run(capsys, ["build", "--ell", "1", "--q", "6"])
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("command", [
    ["build"], ["spectrum", "--i", "0"], ["verify", "--i", "0"], ["reproduce", "--i", "0"]])
def test_field_order_one_is_rejected_before_the_chamber_count(capsys, command):
    # the chamber count divides by q - 1, so q is checked first
    code, out, err = run(capsys, command + ["--ell", "1", "--q", "1"])
    assert code == 2
    assert out == ""
    assert err == "error: field order must be >= 2, got 1\n"


@pytest.mark.parametrize("ell", [0, -1, -5])
def test_a_rank_below_one_is_rejected(capsys, ell):
    for command in (["build"], ["spectrum", "--i", "0"], ["verify"], ["reproduce", "--i", "0"]):
        code, out, err = run(capsys, command + ["--ell", str(ell), "--q", "2"])
        assert (code, out) == (2, ""), command
        assert err == f"error: building rank parameter must be >= 1, got {ell}\n", command


def test_the_budget_refuses_a_large_prime_order_promptly():
    # 2**61 - 1 is prime; factoring it by trial division to sqrt(q) would
    # stall, so the budget decides first.  The timeout turns a regression
    # into a failure instead of a stuck run
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "garland.cli", "build", "--ell", "1", "--q",
         str(2**61 - 1)],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: instance (ell=1, q=2305843009213693951) has ")
    assert "over the budget" in proc.stderr


def test_the_budget_refuses_a_huge_rank_promptly():
    # [ell+2]_q! has about ell**2 / 2 bits here; the budget stops its
    # product at the first factor that carries it over, before ell + 2
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "garland.cli", "build", "--ell", "100000", "--q", "2"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == ("error: instance (ell=100000, q=2) has more than 78129765 "
                           "chambers, over the budget of 700000\n")


def test_spectrum_json_and_matrix_dump(tmp_path, capsys, cache_args):
    dump = tmp_path / "matrix.txt"
    code, out, _ = run(
        capsys,
        ["spectrum", "--ell", "1", "--q", "2", "--i", "0", "--json",
         "--dump-matrix", str(dump)] + cache_args,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["minpoly"] == "0/1 -14/9 43/9 -4/1 1/1"
    assert doc["dim"] == 14
    header = dump.read_text().splitlines()[0]
    assert header == "14 14 0"


def test_matrix_dump_is_the_same_fresh_warm_and_on_a_cache_hit(tmp_path, capsys):
    dump = tmp_path / "matrix.txt"
    code, _out, _ = run(capsys, ["spectrum", "--ell", "2", "--q", "2", "--i", "1",
                                 "--dump-matrix", str(dump)])
    assert code == 0
    # the warm run fills the cache and the second run is a hit; each
    # dumps the operator it assembles
    cache = ["--cache-dir", str(tmp_path / "cache")]
    argv = ["spectrum", "--ell", "2", "--q", "2", "--i", "1", "--dump-matrix"]
    outs = [run(capsys, argv + [str(tmp_path / name)] + cache)
            for name in ("warm.txt", "hit.txt")]
    assert [code for code, _, _ in outs] == [0, 0]
    assert ["load_s" in out for _, out, _ in outs] == [False, True]
    assert (tmp_path / "hit.txt").read_text() == dump.read_text()
    assert (tmp_path / "warm.txt").read_text() == dump.read_text()


def test_spectrum_from_complex_file(tmp_path, capsys, cache_args):
    path = tmp_path / "tetra.txt"
    path.write_text("0 1 2 3\n")
    code, out, _ = run(
        capsys, ["spectrum", "--complex", str(path), "--i", "1", "--json"] + cache_args
    )
    assert code == 0
    doc = json.loads(out)
    p = RatPolynomial.parse(doc["minpoly"])
    assert [str(c) for c in p.coeffs] == ["0", "-4", "1"]


@pytest.mark.parametrize("command", ["spectrum", "verify"])
def test_a_complex_file_and_a_building_are_not_both_taken(tmp_path, capsys, command):
    path = tmp_path / "b12.txt"
    path.write_text(harness.get_building(1, 2).complex.to_text())
    for extra in (["--ell", "2", "--q", "3"], ["--ell", "2"], ["--q", "3"]):
        code, out, err = run(capsys, [command, *extra, "--complex", str(path), "--i", "0"])
        assert code == 2 and out == ""
        assert err == "error: pass either --ell and --q, or --complex PATH\n"
    code, _, err = run(capsys, [command, "--i", "0"])
    assert code == 2 and err == "error: pass either --ell and --q, or --complex PATH\n"


def test_spectrum_cache_hit_constructs_no_building(tmp_path, capsys, monkeypatch):
    argv = ["spectrum", "--ell", "1", "--q", "2", "--i", "0", "--json",
            "--cache-dir", str(tmp_path)]
    code, warm, _ = run(capsys, argv)
    assert code == 0

    def no_building(*args, **kwargs):
        raise AssertionError("a building was constructed")

    monkeypatch.setattr(harness, "flag_complex", no_building)
    code, hit, _ = run(capsys, argv)
    assert code == 0
    assert harness.strip_timings(json.loads(hit)) == harness.strip_timings(json.loads(warm))


def test_a_cache_dir_that_is_a_regular_file_is_an_error(tmp_path, capsys):
    # the cache cannot be written under a file, which ends in `error:`
    # and exit 2, not a traceback
    path = tmp_path / "F"
    path.write_text("")
    code, _out, err = run(capsys, ["verify", "--ell", "1", "--q", "2", "--i", "0",
                                   "--cache-dir", str(path)])
    assert code == 2 and err.startswith("error: cannot write the cache entry")
    assert path.read_text() == ""


def test_a_cache_entry_that_cannot_be_read_is_a_miss(tmp_path, capsys):
    # an entry path that is a directory cannot be read, so the report is
    # computed; it cannot be written there either, which ends in
    # `error:` and leaves no temporary file
    argv = ["verify", "--ell", "1", "--q", "2", "--i", "0", "--cache-dir"]
    assert run(capsys, argv + [str(tmp_path / "warm")])[0] == 0
    names = sorted(p.name for p in (tmp_path / "warm").iterdir())
    cache = tmp_path / "cache"
    for name in names:
        (cache / name).mkdir(parents=True)
    code, _out, err = run(capsys, argv + [str(cache)])
    assert code == 2 and err.startswith("error: cannot write the cache entry")
    assert sorted(p.name for p in cache.iterdir()) == names
    assert all(not any((cache / name).iterdir()) for name in names)


def test_spectrum_degree_out_of_range(capsys, cache_args):
    code, _out, err = run(capsys, ["spectrum", "--ell", "1", "--q", "2", "--i", "1"] + cache_args)
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("command", ["spectrum", "verify", "reproduce"])
def test_budget_is_reported_before_the_degree(capsys, cache_args, command):
    # (3, 4) is over the chamber budget and i = 9 is out of range: the
    # building Instance checks its budget when it is made, before any degree
    code, _out, err = run(capsys, [command, "--ell", "3", "--q", "4", "--i", "9"] + cache_args)
    assert code == 2
    assert "over the budget" in err and "out of range" not in err


@pytest.mark.parametrize("width", ["0", "-1/2", "abc", "1/0"])
def test_spectrum_rejects_a_bad_width(capsys, width):
    code, out, err = run(capsys, ["spectrum", "--ell", "1", "--q", "2", "--i", "0",
                                  f"--width={width}"])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "width" in err


def test_zero_width_exits_promptly():
    # bisection toward width 0 used to loop forever; the timeout turns a
    # regression into a failure instead of a stuck run
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "garland.cli", "spectrum", "--ell", "1", "--q", "2",
         "--i", "0", "--width=0"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")


@pytest.mark.parametrize("label", ["a", "\u00b2"])
def test_complex_file_with_a_bad_label(tmp_path, capsys, label):
    path = tmp_path / "bad.txt"
    path.write_text(f"0 1 {label}\n", encoding="utf-8")
    code, _out, err = run(capsys, ["verify", "--complex", str(path)])
    assert code == 2
    assert err.startswith("error: ") and "label" in err


@pytest.mark.parametrize("text, error, message", [
    ("# nothing but a comment\n\n", EmptyInput, "at least one maximal simplex"),
    ("5 7 9\n12 x 9\n", InvalidLabel, "line 2: label 'x'"),
    ("5 7 9\n12 9 9\n", RepeatedVertex, "line 2: maximal simplex repeats a vertex: 12 9 9"),
    ("5 7 9\n5 7\n", MixedDimensions, "line 2: maximal simplex 5 7 has 2 vertices, "
                                      "but line 1 has 3"),
    ("5 7 9\n12 9 7\n# a comment\n9 007 5\n", DuplicateSimplex,
     "line 4: maximal simplex 9 007 5 duplicates line 1"),
    # the order of the errors: a bad label, a repeated vertex, a mixed size, a duplicate
    ("5 5\n1 2 3\n4 x\n", InvalidLabel, "line 3: label 'x'"),
    ("5 7 9\n5 7\n\n12 0012 9\n", RepeatedVertex, "line 4: maximal simplex repeats a vertex: "
                                                  "12 0012 9"),
    ("5 7 9\n9 7 5\n1 2\n", MixedDimensions, "line 3: maximal simplex 1 2 has 2 vertices"),
], ids=["empty", "label", "repeat", "mixed", "duplicate",
        "label-first", "repeat-before-mixed", "mixed-before-duplicate"])
def test_complex_file_errors_name_the_line_and_labels(tmp_path, capsys, text, error, message):
    with pytest.raises(error) as caught:
        from_text(text)
    assert message in str(caught.value)
    path = tmp_path / "bad.txt"
    path.write_text(text)
    code, out, err = run(capsys, ["verify", "--complex", str(path)])
    assert (code, out) == (2, "")
    assert err == f"error: {caught.value}\n"


def test_missing_complex_file(tmp_path, capsys):
    missing = tmp_path / "absent.txt"
    code, _out, err = run(capsys, ["spectrum", "--complex", str(missing), "--i", "0"])
    assert code == 2
    assert err.startswith("error: ") and "absent.txt" in err


@pytest.mark.parametrize("argv, computes", [
    (["build", "--ell", "1", "--q", "2", "--emit-complex"], "get_building"),
    (["spectrum", "--ell", "1", "--q", "2", "--i", "0", "--dump-matrix"], "spectral_report"),
    (["report", "--grid", "default", "--out"], "run_grid"),
])
def test_missing_output_directory_fails_before_computing(tmp_path, capsys, monkeypatch,
                                                         argv, computes):
    def computed(*args, **kwargs):
        raise AssertionError(f"{computes} ran before the output path was checked")

    monkeypatch.setattr(harness, computes, computed)
    target = tmp_path / "absent" / "out.txt"
    code, _out, err = run(capsys, argv + [str(target)])
    assert code == 2
    assert err.startswith("error: ") and "absent" in err
    assert not target.parent.exists()


def test_unwritable_output_is_an_error(tmp_path, capsys):
    # the directory exists, but the target is a directory itself
    code, _out, err = run(capsys, ["build", "--ell", "1", "--q", "2",
                                   "--emit-complex", str(tmp_path)])
    assert code == 2
    assert err.startswith("error: cannot write")


def test_verify_default_degrees_pass(capsys, cache_args):
    code, out, _ = run(capsys, ["verify", "--ell", "1", "--q", "2"] + cache_args)
    assert code == 0
    assert "certified-true" in out


def test_verify_json_document(capsys, cache_args):
    code, out, _ = run(capsys, ["verify", "--ell", "2", "--q", "2", "--json"] + cache_args)
    assert code == 0
    docs = json.loads(out)
    assert [d["instance"]["i"] for d in docs] == [0, 1]
    all_checks = [v["check"] for d in docs for v in d["verdicts"]]
    assert "max-eigenvalue" in all_checks and "vanishing-threshold" in all_checks
    # the q=2 threshold hypothesis fails, but hypothesis checks do not gate
    statuses = {
        v["check"]: v["status"] for d in docs for v in d["verdicts"]
        if d["instance"]["i"] == 1
    }
    assert statuses["vanishing-threshold"] == "certified-false"


def test_verify_complex_threshold_label(tmp_path, capsys):
    path = tmp_path / "octahedron.txt"
    path.write_text("".join(f"{a} {b} {c}\n" for a in (0, 1) for b in (2, 3) for c in (4, 5)))
    code, out, _ = run(capsys, ["verify", "--complex", str(path), "--json"])
    assert code == 0
    docs = json.loads(out)
    assert [d["instance"]["i"] for d in docs] == [0, 1]
    for d in docs:
        (t,) = [v for v in d["verdicts"] if v["check"] == "vanishing-threshold"]
        assert t["instance"]["i"] == t["witness"]["cohomology_degree"] == d["instance"]["i"] + 1
        assert t["instance"]["sha256"] == d["instance"]["sha256"]


def test_verify_zero_dimensional_complex_is_an_error(tmp_path, capsys):
    # there is no degree 0 <= i <= n - 1 to check; this used to exit 0 silently
    path = tmp_path / "points.txt"
    path.write_text("0\n1\n")
    code, out, err = run(capsys, ["verify", "--complex", str(path)])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "dimension 0" in err


def test_sparse_labels_ingest_to_the_same_bytes(tmp_path, capsys):
    # from_text is the only relabelling: labels v and 10**12 + 7v, met in
    # the same order, give the same ids, so the same complex and sha256
    dense, sparse = tmp_path / "dense.txt", tmp_path / "sparse.txt"
    code, _out, _err = run(capsys, ["build", "--ell", "1", "--q", "2",
                                    "--emit-complex", str(dense)])
    assert code == 0
    sparse.write_text("".join(" ".join(str(10**12 + 7 * int(v)) for v in line.split()) + "\n"
                              for line in dense.read_text().splitlines()))
    assert sparse.read_text() != dense.read_text()
    outs = []
    for path in (dense, sparse):
        code, out, _err = run(capsys, ["verify", "--complex", str(path), "--json"])
        assert code == 0
        outs.append(harness.dumps_report(harness.strip_timings(json.loads(out))))
    assert outs[0] == outs[1]
    assert json.loads(outs[0])[0]["spectral"]["minpoly"] == "0/1 -14/9 43/9 -4/1 1/1"


def test_verify_single_degree(capsys, cache_args):
    code, out, _ = run(capsys, ["verify", "--ell", "2", "--q", "2", "--i", "1", "--json"] + cache_args)
    assert code == 0
    docs = json.loads(out)
    assert len(docs) == 1 and docs[0]["instance"] == {"ell": 2, "q": 2, "i": 1}


@pytest.mark.parametrize("source", ["building", "complex"])
def test_verify_threads_changes_no_byte(tmp_path, capsys, source):
    # the benchmark runs verify with --threads 1; verify computes its
    # degrees in one process whatever the flag says
    if source == "building":
        argv = ["verify", "--ell", "1", "--q", "2", "--i", "0", "--json", "--seed", "1"]
    else:
        path = tmp_path / "octahedron.txt"
        path.write_text("".join(f"{a} {b} {c}\n" for a in (0, 1) for b in (2, 3) for c in (4, 5)))
        argv = ["verify", "--complex", str(path), "--json"]
    docs = []
    for threads in ([], ["--threads", "1"], ["--threads", "4"]):
        code, out, _err = run(capsys, argv + threads)
        assert code == 0
        docs.append(harness.dumps_report(harness.strip_timings(json.loads(out))))
    assert docs[0] == docs[1] == docs[2]


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_verify_rejects_fewer_than_one_thread(capsys, monkeypatch, threads):
    # the check that report makes; verify then runs in one process
    monkeypatch.setattr(harness, "run_instance", lambda *a, **k: pytest.fail("verify ran"))
    code, out, err = run(capsys, ["verify", "--ell", "1", "--q", "2", "--i", "0",
                                  "--threads", threads])
    assert (code, out) == (2, "")
    assert err == f"error: --threads must be at least 1, got {threads}\n"


def test_reproduce_exit_codes(capsys, cache_args):
    code, out, _ = run(capsys, ["reproduce", "--ell", "1", "--q", "2", "--i", "0"] + cache_args)
    assert code == 0
    assert "match" in out
    code, _out, err = run(capsys, ["reproduce", "--ell", "3", "--q", "2", "--i", "1"] + cache_args)
    assert code == 2
    assert "error:" in err


# extension fields other than GF(4): the tables of GF(8), GF(9), GF(16)
# and GF(27) drive the subspace walk, and each report must equal the
# recorded closed form in q
@pytest.mark.parametrize("ell, q, i", [(1, 8, 0), (1, 9, 0), (1, 16, 0), (1, 27, 0), (2, 8, 0)])
def test_reproduce_over_extension_fields(capsys, cache_args, ell, q, i):
    argv = ["reproduce", "--ell", str(ell), "--q", str(q), "--i", str(i), "--json"]
    code, out, _ = run(capsys, argv + cache_args)
    doc = json.loads(out)
    assert code == 0 and doc["match"] is True and doc["computed"] == doc["reference"]


def test_reproduce_json(capsys, cache_args):
    code, out, _ = run(
        capsys, ["reproduce", "--ell", "2", "--q", "3", "--i", "1", "--json"] + cache_args
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["match"] is True and doc["instance"] == {"ell": 2, "q": 3, "i": 1}


def test_report_writes_grid_json(tmp_path, capsys, cache_args):
    out_path = tmp_path / "grid.json"
    code, _out, _err = run(
        capsys, ["report", "--grid", "default", "--out", str(out_path)] + cache_args
    )
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert len(doc["instances"]) == 10
    assert doc["grid"] == "default"
    instances = [tuple(d["instance"][k] for k in ("ell", "q", "i")) for d in doc["instances"]]
    assert instances[0] == (1, 2, 0) and (3, 2, 0) in instances


def test_missing_subcommand_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


class RecordingPool:
    """A stand-in for multiprocessing.Pool that records its size and starts no process."""

    sizes: list = []

    def __init__(self, processes):
        self.sizes.append(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return [fn(t) for t in tasks]


@pytest.mark.parametrize("threads, pools", [("64", [8]), ("3", [3]), ("1", [])])
def test_report_pool_has_no_more_workers_than_instances(capsys, monkeypatch, threads, pools):
    # one task per (ell, q) grid point: the default grid's 10 instances
    # are 8 points, so a pool gets at most 8 workers, and the documents
    # of each point's degrees come back in grid order
    import multiprocessing

    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    monkeypatch.setattr(harness, "_grid_task",
                        lambda task: [{"task": [*task[:2], i]} for i in task[2]])
    code, out, _err = run(capsys, ["report", "--grid", "default", "--threads", threads])
    assert code == 0
    docs = json.loads(out)["instances"]
    assert len(docs) == 10
    assert [tuple(d["task"]) for d in docs] == harness.default_grid()
    assert RecordingPool.sizes == pools


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_report_rejects_fewer_than_one_thread(capsys, monkeypatch, threads):
    monkeypatch.setattr(harness, "_grid_task", lambda task: pytest.fail("the sweep ran"))
    code, out, err = run(capsys, ["report", "--grid", "default", "--threads", threads])
    assert (code, out) == (2, "")
    assert err == f"error: --threads must be at least 1, got {threads}\n"


_VERIFY_HWM = PEAK_KIB + """
import contextlib, io, sys
import garland.cli

before = peak_kib()
with contextlib.redirect_stdout(io.StringIO()):
    code = garland.cli.main(["verify", "--json", *sys.argv[1:]])
print(code, peak_kib() - before)
"""


def _verify_added_kib(ell, q, i) -> int:
    """The peak RSS (KiB) that `verify --json` on building (ell, q),
    degree i, adds: in a fresh process, with garland imported first, so
    that the added peak is the command's own."""
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", _VERIFY_HWM, "--ell", str(ell), "--q", str(q),
                           "--i", str(i)], capture_output=True, text=True, timeout=240,
                          check=True, env={**os.environ, "PYTHONPATH": str(src)})
    code, added_kib = proc.stdout.split()
    assert code == "0"
    return int(added_kib)


@pytest.mark.skipif(not HAS_VMHWM, reason="reads VmHWM (Linux)")
def test_verify_on_the_33_building_adds_little_peak_memory():
    # 251,680 chambers of 16-bit ids, walked in lexicographic order so
    # that the duplicate check sorts nothing, a Gram product in int32
    # values and indices that makes its values once, B's data made in
    # place from its denominators and ||B||_inf by row blocks add 8,016
    # to 8,880 KiB, as the heap layout moves with the environment and
    # the checkout path; the bound leaves 9% above the most, and the
    # values made twice with |B| whole, 9,964 KiB or more, are over it
    assert _verify_added_kib(3, 3, 0) < 9.5 * 1024


@pytest.mark.skipif(os.environ.get("GARLAND_EXTENDED") != "1",
                    reason="builds the (4,2) and (2,7) buildings; only with GARLAND_EXTENDED=1")
@pytest.mark.skipif(not HAS_VMHWM, reason="reads VmHWM (Linux)")
@pytest.mark.parametrize("ell, q, i, bound_mb", [(4, 2, 0, 15.0), (2, 7, 1, 37)])
def test_verify_on_the_largest_extended_buildings_adds_little_peak_memory(ell, q, i, bound_mb):
    # the chamber walk hands its columns to the complex, which keeps
    # them, so the chambers exist once; the face levels and the Gram
    # product each keep at most one temporary of chamber size alive, the
    # ids in 16 bits, the facet positions, the keys, the weights, B's
    # indices and the Gram values in 32, the lexicographic walk leaves
    # the chambers nothing to sort, B's data are made in place from its
    # denominators and ||B||_inf is summed by row blocks: 14,012 to
    # 14,528 and 33,644 to 34,044 KiB added over 30 environment sizes and
    # checkout path lengths, as the heap layout moves with both, which
    # the bounds clear by 5% and 11%; with the chambers walked into one
    # array whose columns the complex copied, (4,2,0) added 16,100 KiB
    # or more, and with int64 keys and weights, the Gram values made
    # twice and |B| whole, (2,7,1) added 39,068 KiB or more
    assert _verify_added_kib(ell, q, i) < bound_mb * 1024


# -- BLAS threads ------------------------------------------------------------------

_THREADS = """
import json, os, sys
__import__(sys.argv[1])
print(json.dumps([os.environ.get("OPENBLAS_NUM_THREADS"), len(os.listdir("/proc/self/task"))]))
"""


def _after_import(module, blas_threads=None):
    """(OPENBLAS_NUM_THREADS, OS thread count) in a fresh interpreter after
    importing `module`, with the variable exported as `blas_threads`."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    proc = subprocess.run([sys.executable, "-c", _THREADS, module], capture_output=True,
                          text=True, timeout=60, env=env, check=True)
    return tuple(json.loads(proc.stdout))


needs_tasks = pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                                 reason="counts threads in /proc/self/task")
_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


@needs_tasks
def test_the_command_line_runs_numpy_in_one_thread():
    # garland does no floating-point linear algebra, so the command line
    # starts OpenBLAS without the worker pool that would spin on a core
    assert _after_import("garland.cli") == ("1", 1)


@needs_tasks
@pytest.mark.skipif(_CPUS < 2, reason="OpenBLAS starts at most one thread per CPU")
def test_an_exported_blas_thread_count_wins():
    assert _after_import("garland.cli", blas_threads="2") == ("2", 2)


@needs_tasks
def test_the_library_leaves_the_environment_alone():
    # harness imports numpy; only the command line, the process garland
    # owns, sets the BLAS thread count
    assert _after_import("garland.harness")[0] is None
