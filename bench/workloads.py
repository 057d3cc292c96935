"""The benchmark's workloads: inputs made from a seed, and output oracles.

Every oracle here is independent of the code under test: the schema
comes from docs/, the expected verdicts and the Mobius root are worked
out in this file, and nothing imports heiscalc.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

# Relative to the checkout root; the same path on every run keeps the
# mobius stdout (which names its artifacts) byte-identical across runs.
MOBIUS_OUT = ".bench_out/work/mobius"
# Sizes that keep one invocation near 1.5 s, so that every timed process
# has a reference run close before and after it (see bench/README.md).
VERIFY_TRIALS = 20
COMMUTE_TRIALS = 10
MOBIUS_GRID = (512, 256)
SHEAR = "poly:[w1, w2, w3 + w1^2, w4, w5 + w1^3/6]"
TRANSLATE_MAGNITUDES = (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(1, 3))
# The random forms `commute` draws from its --seed set the size of the
# pulled-back coefficients: between CLI seeds the terms multiplied differ
# by up to 1.7x at 10 trials, and still by 1.4x at 30.  So that seed is
# fixed, and the workload seed picks only the signs of the translation.
COMMUTE_CLI_SEED = 4

# The n whose exact tables each workload builds (None: no symbolic layer).
TABLE_N = {"verify_n2": 2, "commute_shear_n2": 2, "mobius_scan": None}


@dataclass
class Inputs:
    workload: str
    args: list[str]
    expect: dict
    artifacts: list[str] = field(default_factory=list)


def make_inputs(workload: str, seed: int, variant: int = 0) -> Inputs:
    """The CLI arguments of one variant of a workload.

    The same seed and variant give the same inputs.
    """
    rng = random.Random(f"{workload}:{seed}:{variant}")
    if workload == "verify_n2":
        cli_seed = rng.randrange(1, 10**6)
        args = ["verify", "--n", "2", "--trials", str(VERIFY_TRIALS), "--degree", "3",
                "--seed", str(cli_seed), "--format", "json"]
        return Inputs(workload, args, {"seed": cli_seed})
    if workload == "commute_shear_n2":
        # The magnitudes of q are fixed because they set the size of the
        # coefficients; its signs leave the work unchanged.
        q = [rng.choice([-1, 1]) * m for m in TRANSLATE_MAGNITUDES]
        mapping = f"compose:translate:q={','.join(str(c) for c in q)};{SHEAR}"
        args = ["commute", "--map", mapping, "--n", "2", "--trials", str(COMMUTE_TRIALS),
                "--seed", str(COMMUTE_CLI_SEED), "--format", "json"]
        return Inputs(workload, args, {"seed": COMMUTE_CLI_SEED})
    if workload == "mobius_scan":
        radius = round(rng.uniform(0.18, 0.22), 6)
        args = ["mobius", "-R", repr(radius), "-w", "0.15",
                "--grid", f"{MOBIUS_GRID[0]}x{MOBIUS_GRID[1]}",
                "--out", MOBIUS_OUT, "--format", "json"]
        artifacts = [f"{MOBIUS_OUT}/mobius_scan.csv", f"{MOBIUS_OUT}/mobius_points.json"]
        return Inputs(workload, args, {"R": radius}, artifacts)
    raise ValueError(f"unknown workload {workload!r}")


def mobius_root(radius: float) -> float:
    """s* of the half-twist band: the root s^2 - (1 - 2R) s + R^2 = 0 in (0, w)."""
    return (1 - 2 * radius - math.sqrt(1 - 4 * radius)) / 2


def file_digest(path: Path) -> tuple[str, int, bytes]:
    """SHA-256, newline count and first line of a file, read once in chunks."""
    digest = hashlib.sha256()
    lines = 0
    head = b""
    with open(path, "rb") as handle:
        while chunk := handle.read(1 << 20):
            if not head:
                head = chunk.split(b"\n", 1)[0]
            digest.update(chunk)
            lines += chunk.count(b"\n")
    return digest.hexdigest(), lines, head


def check_output(inputs: Inputs, exit_code: int, stdout: bytes, validator, root: Path) -> tuple[list[str], dict]:
    """Problems found in one invocation's outputs, and the digests of its bytes."""
    problems: list[str] = []
    digests = {"stdout": hashlib.sha256(stdout).hexdigest()}
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    try:
        payload = json.loads(stdout)
    except ValueError as exc:
        return problems + [f"stdout is not JSON: {exc}"], digests
    problems += [f"schema: {e.message}" for e in validator.iter_errors(payload)]
    expect = inputs.expect
    if inputs.workload == "verify_n2":
        suites = payload.get("suites", [])
        names = [s.get("suite") for s in suites]
        if names != ["complex-exactness", "lifting", "subspace-preservation", "dc-agreement"]:
            problems.append(f"unexpected suites {names}")
        if payload.get("passed") is not True or not all(s.get("passed") for s in suites):
            problems.append("verify did not pass")
        if payload.get("n") != 2 or payload.get("seed") != expect["seed"] or payload.get("trials") != VERIFY_TRIALS:
            problems.append("verify echoed the wrong parameters")
    elif inputs.workload == "commute_shear_n2":
        reports = payload.get("reports", [])
        if [r.get("k") for r in reports] != [0, 1, 2, 3, 4]:
            problems.append("commute did not report every degree 0..4")
        if payload.get("passed") is not True or not all(r.get("passed") for r in reports):
            problems.append("commute did not pass")
        if any(r.get("trials") != COMMUTE_TRIALS or r.get("seed") != expect["seed"] for r in reports):
            problems.append("commute echoed the wrong parameters")
    elif inputs.workload == "mobius_scan":
        problems += _check_mobius(payload, expect["R"], root, digests)
    return problems, digests


def _check_mobius(payload: dict, radius: float, root: Path, digests: dict) -> list[str]:
    problems = []
    points = payload.get("points", [])
    if payload.get("R") != radius:
        problems.append("mobius echoed the wrong radius")
    if len(points) != 1 or payload.get("failures"):
        problems.append(f"expected one point and no failures, got {len(points)} and "
                        f"{len(payload.get('failures', []))}")
    elif abs(points[0]["s"] - mobius_root(radius)) > 1e-8:
        problems.append(f"s = {points[0]['s']!r}, closed form {mobius_root(radius)!r}")
    csv_path = root / MOBIUS_OUT / "mobius_scan.csv"
    points_path = root / MOBIUS_OUT / "mobius_points.json"
    if not csv_path.is_file() or not points_path.is_file():
        return problems + ["mobius artifacts missing"]
    digest, lines, head = file_digest(csv_path)
    digests["mobius_scan.csv"] = digest
    rows = MOBIUS_GRID[0] * MOBIUS_GRID[1]
    if head != b"r,s,N1,N2,N3" or lines != rows + 1:
        problems.append(f"CSV has header {head!r} and {lines} lines, expected {rows + 1}")
    points_bytes = points_path.read_bytes()
    digests["mobius_points.json"] = hashlib.sha256(points_bytes).hexdigest()
    if json.loads(points_bytes) != points:
        problems.append("mobius_points.json disagrees with stdout")
    return problems


def artifact_bytes(inputs: Inputs, root: Path) -> int:
    return sum((root / path).stat().st_size for path in inputs.artifacts if (root / path).is_file())
