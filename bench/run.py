"""heiscalc benchmark: time to a verdict of the CLI, and per-layer traces.

    python3 bench/run.py --workload verify_n2 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 10

With --trace 0 it measures end to end.  It runs the CLI as a user does:
one fresh `python -m heiscalc.cli` process per invocation, one client in
a closed loop, the next invocation only after the previous one has
exited and its output has been checked.  After each invocation a fresh
process imports the CLI and builds the workload's exact tables
(setup_s).  Every timed process sits between two runs of
bench/reference.py, and its time is rescaled by them to a machine of
fixed speed.  Each child's CPU time and peak RSS come from os.wait4.

With --trace 1 it runs the CLI once without the tracer, then twice, each
time in a fresh process under bench/tracer.py, and reports per-layer counts and
times.  Traced outputs must be byte-identical to the untraced one and
the traced counts must repeat exactly.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the metric names and units come from
BENCHMARK.json.  The full record of a run, with its environment,
samples and output digests, goes to .bench_out/results/.  See
bench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from math import comb
from pathlib import Path
from time import perf_counter

import workloads
from tracer import TARGETS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SCHEMA = ROOT / "docs" / "cli-schema.json"
SPEC = ROOT / "BENCHMARK.json"
OUT = ROOT / ".bench_out"
WORK = OUT / "work"
WORKLOADS = ("verify_n2", "commute_shear_n2", "mobius_scan")
# A timed run cycles through this many variants of its workload's inputs,
# all drawn from the workload seed.  With one, the random forms behind one
# verify CLI seed moved the work by up to 7% from seed to seed.
VARIANTS = 4
# Timed processes are rescaled to a machine on which bench/reference.py
# spends these many seconds: a CLI invocation by the reference's
# arithmetic, a set-up probe by its start-up and imports.  Import and
# compute speed drift apart on a shared machine.
YARDSTICK = {"wall_s": ("reference_compute_s", 0.35), "setup_s": ("reference_start_s", 0.2)}
CHILD_TIMEOUT = 60.0
# Every child must have ended this many seconds after the run started.
DEADLINE = 165.0


@dataclass
class Child:
    exit_code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    timed_out: bool
    stdout: bytes
    stderr: bytes


class Runner:
    """Starts children one at a time, from the checkout root, and reaps each."""

    def __init__(self) -> None:
        self.start = perf_counter()
        self.env = {k: v for k, v in os.environ.items() if k != "HEISCALC_WORKERS"}
        self.env["PYTHONPATH"] = str(SRC)
        self.attempted = 0
        self.problems: list[str] = []

    def spawn(self, argv: list[str]) -> Child:
        remaining = DEADLINE - (perf_counter() - self.start)
        timeout = max(1.0, min(CHILD_TIMEOUT, remaining))
        WORK.mkdir(parents=True, exist_ok=True)
        self.attempted += 1
        with open(WORK / "stdout", "w+b") as out, open(WORK / "stderr", "w+b") as err:
            fired = threading.Event()
            begin = perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=out, stderr=err)

            def kill() -> None:
                fired.set()
                proc.kill()

            timer = threading.Timer(timeout, kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                timer.cancel()
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
            wall = perf_counter() - begin
            out.seek(0)
            err.seek(0)
            return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                         usage.ru_maxrss / 1024, fired.is_set(), out.read(), err.read())

    def fail(self, what: str, problems: list[str], child: Child | None = None) -> bool:
        """Record the problems of one child; True when there were none."""
        if child is not None and child.timed_out:
            problems = [f"timed out after {CHILD_TIMEOUT} s"] + problems
        if problems:
            tail = child.stderr.decode(errors="replace")[-400:] if child else ""
            self.problems.append(f"{what}: {'; '.join(problems)}" + (f" [stderr: {tail}]" if tail else ""))
        return not problems

    @property
    def failed(self) -> int:
        return len(self.problems)

    def out_of_time(self, seconds: float) -> bool:
        return perf_counter() - self.start + seconds > DEADLINE


def expected_dims(n: int) -> dict:
    top = 2 * n + 1
    quotient = [comb(top, k) - (comb(top, k - 1) if k else 0) for k in range(n + 1)]
    j = [max(0, comb(top, k) - comb(top, k + 1)) for k in range(1, top + 1)]
    return {
        "I": [comb(top, k) if k > n else comb(top, k - 1) for k in range(1, top + 1)],
        "J": j,
        "quotient": quotient,
        "E0": quotient + j[n:],
    }


def setup_probe(runner: Runner, workload: str, label: str) -> float | None:
    """One fresh set-up process, checked; its wall time, or None if it failed."""
    n = workloads.TABLE_N[workload] or 0
    child = runner.spawn([str(BENCH / "setup_tables.py"), str(n)])
    problems = [] if child.exit_code == 0 else [f"exit code {child.exit_code}"]
    try:
        if json.loads(child.stdout) != (expected_dims(n) if n else {}):
            problems.append(f"table dimensions {child.stdout.decode().strip()}")
    except ValueError:
        problems.append("setup printed no JSON")
    return child.wall_s if runner.fail(label, problems, child) else None


def run_cli(runner: Runner, inputs, validator, argv_prefix: list[str]) -> tuple[Child, list[str], dict, int]:
    """One CLI invocation with its checks; its artifacts are deleted afterwards."""
    child = runner.spawn(argv_prefix + inputs.args)
    problems, digests = workloads.check_output(inputs, child.exit_code, child.stdout, validator, ROOT)
    bytes_out = len(child.stdout) + workloads.artifact_bytes(inputs, ROOT)
    shutil.rmtree(ROOT / workloads.MOBIUS_OUT, ignore_errors=True)
    return child, problems, digests, bytes_out


def reference_probe(runner: Runner, expected: list[str]) -> dict | None:
    """One run of bench/reference.py: its start-up and compute times, or None if it failed.

    The first checksum it prints is kept in `expected`; every later one
    must equal it.
    """
    child = runner.spawn([str(BENCH / "reference.py")])
    fields = child.stdout.decode(errors="replace").split()
    checksum = fields[0] if fields else ""
    if not expected:
        expected.append(checksum)
    problems = [] if child.exit_code == 0 else [f"exit code {child.exit_code}"]
    if checksum != expected[0]:
        problems.append(f"reference checksum {checksum!r}, expected {expected[0]!r}")
    try:
        compute = float(fields[1])
    except (IndexError, ValueError):
        problems.append("reference printed no compute time")
    if not runner.fail("reference", problems, child):
        return None
    return {"reference_start_s": child.wall_s - compute, "reference_compute_s": compute}


def timed_run(workload: str, seed: int, seconds: float, validator) -> tuple[Runner, dict, dict]:
    """Alternate CLI invocations and set-up probes, each between two reference runs.

    Every timed process is divided by the mean of its YARDSTICK part of the
    reference runs right before and right after it.  The machine's speed
    drifts by up to 1.7x over tens of seconds, and this cancels most of
    it (see bench/README.md).
    """
    runner = Runner()
    variants = [workloads.make_inputs(workload, seed, i) for i in range(VARIANTS)]
    checksum: list[str] = []
    # The first processes also write the bytecode caches of a fresh
    # checkout, so they are checked but not timed.
    setup_probe(runner, workload, "setup warm-up")
    reference_probe(runner, checksum)
    before = reference_probe(runner, checksum)
    samples = {name: [] for name in ("wall_s", "setup_s", "peak_rss_mb", "cpu_s", "raw_wall_s",
                                     "raw_setup_s", "reference_start_s", "reference_compute_s")}
    first_digests: list[dict | None] = [None] * VARIANTS
    begin = perf_counter()

    def rescale(name: str, wall: float | None) -> None:
        nonlocal before
        after = reference_probe(runner, checksum)
        if wall is not None and before is not None and after is not None:
            part, seconds = YARDSTICK[name]
            samples[name].append(wall * seconds / ((before[part] + after[part]) / 2))
            samples[f"raw_{name}"].append(wall)
        for part, value in (after or {}).items():
            samples[part].append(value)
        before = after

    while True:
        variant = len(samples["raw_wall_s"]) % VARIANTS
        child, problems, digests, _ = run_cli(runner, variants[variant], validator, ["-m", "heiscalc.cli"])
        if first_digests[variant] is None:
            first_digests[variant] = digests
        elif digests != first_digests[variant]:
            problems.append("output bytes differ from the first invocation of these inputs")
        ok = runner.fail(f"invocation {len(samples['raw_wall_s']) + 1}", problems, child)
        if ok:
            samples["peak_rss_mb"].append(child.rss_mb)
            samples["cpu_s"].append(child.cpu_s)
        rescale("wall_s", child.wall_s if ok else None)
        rescale("setup_s", setup_probe(runner, workload, f"setup {len(samples['setup_s']) + 1}"))
        elapsed = perf_counter() - begin
        if runner.failed or not samples["raw_wall_s"]:
            break
        step = elapsed / len(samples["raw_wall_s"])
        if elapsed + step > seconds or runner.out_of_time(step):
            break
    values = {}
    if not runner.failed:
        values = {name: statistics.median(samples[name]) for name in ("wall_s", "setup_s", "peak_rss_mb")}
    record = {"inputs": [v.args for v in variants], "digests": first_digests, "yardstick": YARDSTICK,
              "samples": samples}
    return runner, values, record


def counts_of(report: dict) -> dict:
    """Everything in a trace report that must repeat exactly."""
    return {
        "calls": {name: s["calls"] for name, s in report["stats"].items()},
        **{key: report[key] for key in ("term_hist", "max_degree", "scan_distinct",
                                        "surface", "cache", "spans")},
    }


def trace_run(workload: str, seed: int, validator, names: list[str]) -> tuple[Runner, dict, dict]:
    runner = Runner()
    inputs = workloads.make_inputs(workload, seed)
    untraced, problems, reference, bytes_out = run_cli(runner, inputs, validator, ["-m", "heiscalc.cli"])
    runner.fail("untraced invocation", problems, untraced)
    reports, walls = [], []
    spans_path = OUT / "results" / f"spans-{workload}-seed{seed}.tsv"
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    for i in range(2):
        report_path = WORK / f"trace{i}.json"
        report_path.unlink(missing_ok=True)
        tracer_argv = [str(BENCH / "tracer.py"), str(report_path),
                       str(spans_path if i == 0 else WORK / "spans.tsv"), "--"]
        child, problems, digests, _ = run_cli(runner, inputs, validator, tracer_argv)
        if digests != reference:
            problems.append("traced output bytes differ from the untraced output")
        if report_path.is_file():
            report = json.loads(report_path.read_text())
            if report["unpatched"]:
                problems.append(f"bindings left unwrapped: {report['unpatched']}")
            reports.append(report)
            walls.append(child.wall_s)
        else:
            problems.append("tracer wrote no report")
        runner.fail(f"traced invocation {i + 1}", problems, child)
    if len(reports) == 2 and counts_of(reports[0]) != counts_of(reports[1]):
        runner.fail("tracer", ["per-layer counts differ between two traced runs of one seed"])
    values = {}
    if len(reports) == 2:
        values = layer_values(reports, untraced, walls, bytes_out, names)
    record = {"inputs": [inputs.args], "digests": [reference], "untraced_wall_s": untraced.wall_s,
              "traced_wall_s": walls, "spans": str(spans_path.relative_to(ROOT)),
              "reports": reports}
    return runner, values, record


KNOWN_STATS = ({name for _, _, name, _ in TARGETS} | {"linalg", "rumin.tables", "cli"}
               | {f"contact.commute.k{k}" for k in range(5)})


def layer_values(reports: list[dict], untraced: Child, traced_walls: list[float], bytes_out: int,
                 names: list[str]) -> dict:
    """Per-layer metrics: counts from the first traced run, times averaged over both.

    A name ending in .calls, .s or .self_s reads that field of the tracer
    stat it names; the others are worked out here.
    """
    first = reports[0]
    hist = {int(k): v for k, v in first["term_hist"].items()}
    total = sum(hist.values())
    running, p99 = 0, 0
    for size in sorted(hist):
        running += hist[size]
        if running >= 0.99 * total:
            p99 = size
            break
    cache = first["cache"]
    lookups = cache["hits"] + cache["misses"]
    scans = first["stats"]["surface.scan_grid"]["calls"]
    special = {
        "coeff.terms.p99": p99,
        "coeff.terms.max": max(hist, default=0),
        "coeff.degree.max": first["max_degree"],
        "rumin.basis_cache.hit_ratio": cache["hits"] / lookups if lookups else 0.0,
        "surface.scan_grid.useful_ratio": first["scan_distinct"] / scans if scans else 0.0,
        "surface.candidates": first["stats"]["surface.newton"]["calls"],
        **{f"surface.{key}": value for key, value in first["surface"].items()},
        "cli.bytes_out": bytes_out,
        "proc.cpu_s": untraced.cpu_s,
        "trace.overhead_s": statistics.mean(traced_walls) - untraced.wall_s,
    }

    values = {}
    for name in names:
        base, _, field = name.rpartition(".")
        if name in special:
            values[name] = special[name]
        elif base in KNOWN_STATS and field == "calls":
            values[name] = first["stats"].get(base, {"calls": 0})["calls"]
        elif base in KNOWN_STATS and field in ("s", "self_s"):
            values[name] = statistics.mean(r["stats"].get(base, {field: 0.0})[field] for r in reports)
        else:
            raise KeyError(f"the benchmark computes no per-layer metric named {name!r}")
    return values


def environment(seed: int) -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    sha = None
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            sha = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(), "git_sha": sha,
        "src_sha256": digest.hexdigest(), "seed": seed,
    }


def run_one(workload: str, seed: int, seconds: float, trace: bool, spec: dict, validator) -> tuple[Runner, dict]:
    listed = spec["per_layer" if trace else "end_to_end"]
    if trace:
        runner, values, record = trace_run(workload, seed, validator, [m["name"] for m in listed])
    else:
        runner, values, record = timed_run(workload, seed, seconds, validator)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed} if values else {}
    record.update(workload=workload, trace=trace, environment=environment(seed),
                  attempted=runner.attempted, failed=runner.failed,
                  problems=runner.problems, metrics=metrics)
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))

    for args in record["inputs"]:
        print(f"{workload} seed {seed}: {' '.join(args)}")
    for problem in runner.problems:
        print(f"  FAILED {problem}")
    for name, metric in metrics.items():
        samples = record.get("samples", {}).get(name)
        raw = record.get("samples", {}).get(f"raw_{name}")
        count = f"  (median of {len(samples)})" if samples else ""
        if raw:
            count += f"; unscaled {statistics.median(raw):.6g} {metric['unit']}"
        print(f"  {name:<32} {metric['value']:.6g} {metric['unit']}{count}")
    print(f"  {'fail_frac':<32} {runner.failed}/{runner.attempted}")
    print(f"  digests {json.dumps(record['digests'])}")
    print(f"  env {json.dumps(record['environment'])}")
    return runner, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    # A terminated run still kills and reaps its current child (see Runner.spawn).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    missing = [p for p in (SRC / "heiscalc" / "cli.py", SCHEMA, SPEC) if not p.is_file()]
    if missing:
        print(f"not a heiscalc checkout, missing: {', '.join(map(str, missing))}", file=sys.stderr)
        return 2
    from jsonschema import Draft202012Validator

    spec = json.loads(SPEC.read_text())
    validator = Draft202012Validator(json.loads(SCHEMA.read_text()))
    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    try:
        for workload in chosen:
            runner, found = run_one(workload, args.seed, args.seconds, bool(args.trace), spec, validator)
            attempted += runner.attempted
            failed += runner.failed
            prefix = f"{workload}." if args.workload == "all" else ""
            metrics.update({prefix + name: value for name, value in found.items()})
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    correct = failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
