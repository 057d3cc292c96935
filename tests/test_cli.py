"""Command line interface: formats, exit codes, schema conformance."""

from __future__ import annotations

import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner
from jsonschema import Draft202012Validator

from heiscalc.cli import main

SCHEMA_PATH = Path(__file__).resolve().parents[1] / "docs" / "cli-schema.json"


@pytest.fixture(scope="module")
def validator():
    schema = json.loads(SCHEMA_PATH.read_text())
    Draft202012Validator.check_schema(schema)
    return Draft202012Validator(schema)


@pytest.fixture()
def runner():
    return CliRunner()


def _assert_valid(validator, payload):
    errors = list(validator.iter_errors(payload))
    assert not errors, "\n".join(e.message for e in errors)


# -- dims ---------------------------------------------------------------------


def test_dims_text_default(runner):
    result = runner.invoke(main, ["dims"])
    assert result.exit_code == 0
    lines = result.stdout.strip().splitlines()
    assert len(lines) == 1 + 15  # header + one row per (n, k), n = 1..5
    assert lines[-1].split() == ["5", "5", "462", "330", "132"]


def test_dims_json_schema(runner, validator):
    result = runner.invoke(main, ["dims", "--n", "1..3", "--format", "json"])
    assert result.exit_code == 0
    payload = json.loads(result.stdout)
    _assert_valid(validator, payload)
    assert payload[0] == {"n": 1, "k": 1, "dim_omega": 3, "dim_I": 1, "dim_quotient": 2}


def test_dims_csv(runner):
    result = runner.invoke(main, ["dims", "--n", "2", "--format", "csv"])
    assert result.exit_code == 0
    rows = list(csv.reader(result.stdout.splitlines()))
    assert rows[0] == ["n", "k", "dim_omega", "dim_I", "dim_quotient"]
    assert rows[1] == ["2", "1", "5", "1", "4"]
    assert rows[2] == ["2", "2", "10", "5", "5"]


def test_dims_rejects_bad_range(runner):
    for spec in ("0..2", "1..9", "junk", "3..1"):
        result = runner.invoke(main, ["dims", "--n", spec])
        assert result.exit_code == 2, spec


def test_dims_out_file(runner, tmp_path):
    target = tmp_path / "dims.json"
    result = runner.invoke(main, ["dims", "--n", "1", "--format", "json", "--out", str(target)])
    assert result.exit_code == 0
    assert json.loads(target.read_text())[0]["n"] == 1


# -- complex ------------------------------------------------------------------


def test_complex_json_schema(runner, validator):
    result = runner.invoke(main, ["complex", "--n", "1", "--format", "json"])
    assert result.exit_code == 0
    payload = json.loads(result.stdout)
    _assert_valid(validator, payload)
    degrees = {entry["k"]: entry for entry in payload["degrees"]}
    assert set(degrees) == {1, 2, 3}
    assert degrees[1]["dim_quotient"] == 2
    assert degrees[2]["dim_J"] == 2
    assert degrees[3]["dim_J"] == 1
    # quotient listed only below the middle
    assert "quotient" not in degrees[2]


def test_complex_k_filter(runner):
    result = runner.invoke(main, ["complex", "--n", "2", "--k", "3", "--format", "json"])
    assert result.exit_code == 0
    payload = json.loads(result.stdout)
    assert len(payload["degrees"]) == 1
    entry = payload["degrees"][0]
    assert entry["k"] == 3 and entry["dim_J"] == 5
    assert any("dx1^dy1^theta" in text for text in entry["J"])


def test_complex_rejects_large_n(runner):
    assert runner.invoke(main, ["complex", "--n", "4"]).exit_code == 2
    assert runner.invoke(main, ["complex", "--n", "1", "--k", "4"]).exit_code == 2


# -- verify ---------------------------------------------------------------------


def test_verify_passes(runner, validator):
    result = runner.invoke(main, ["verify", "--n", "1", "--trials", "5", "--format", "json"])
    assert result.exit_code == 0
    payload = json.loads(result.stdout)
    _assert_valid(validator, payload)
    assert payload["passed"] is True
    suites = [s["suite"] for s in payload["suites"]]
    assert suites == ["complex-exactness", "lifting", "subspace-preservation", "dc-agreement"]


def test_verify_text_lists_checks(runner):
    result = runner.invoke(main, ["verify", "--n", "1", "--trials", "3"])
    assert result.exit_code == 0
    assert "complex-exactness" in result.stdout
    assert "pass" in result.stdout.lower()


def test_verify_exit_one_on_failure(runner, monkeypatch):
    import heiscalc.rumin as rumin_mod

    def broken(n, trials=100, seed=42, degree=3):
        return {
            "suite": "complex-exactness", "n": n, "trials": trials, "seed": seed,
            "passed": False,
            "checks": [{"name": "forced failure", "passed": False,
                        "counterexample": {"input": "stub"}}],
        }

    monkeypatch.setattr(rumin_mod, "verify_complex", broken)
    result = runner.invoke(main, ["verify", "--n", "1", "--trials", "3"])
    assert result.exit_code == 1
    assert "FAIL" in result.stdout


# -- commute --------------------------------------------------------------------


def test_commute_dilation(runner, validator):
    result = runner.invoke(
        main,
        ["commute", "--map", "dilation:r=2", "--n", "1", "--trials", "5", "--format", "json"],
    )
    assert result.exit_code == 0
    payload = json.loads(result.stdout)
    _assert_valid(validator, payload)
    assert payload["passed"] is True
    assert [r["k"] for r in payload["reports"]] == [0, 1, 2]
    # the middle degree goes through the second-order operator
    assert payload["reports"][1]["operator"] == "D"


def test_commute_single_degree(runner):
    result = runner.invoke(
        main,
        ["commute", "--map", "translate:q=1/2,0,3", "--n", "1", "--k", "0", "--trials", "5",
         "--format", "csv"],
    )
    assert result.exit_code == 0
    rows = list(csv.reader(result.stdout.splitlines()))
    assert rows[0] == ["k", "operator", "status"]
    assert len(rows) == 2


def test_commute_rejects_non_contact_map(runner):
    result = runner.invoke(main, ["commute", "--map", "poly:[w1, w2, 2*w3]", "--n", "1"])
    assert result.exit_code == 2
    assert "not contact" in result.stderr
    assert "-1/2·w2" in result.stderr


@pytest.mark.parametrize("n", ["0", "4"])
def test_commute_rejects_n_out_of_range(runner, n):
    result = runner.invoke(main, ["commute", "--map", "dilation:r=2", "--n", n])
    assert result.exit_code == 2
    assert "n in {1, 2, 3}" in result.stderr
    assert isinstance(result.exception, SystemExit)  # a usage error, not a crash


def test_commute_rejects_bad_literal(runner):
    result = runner.invoke(main, ["commute", "--map", "dilation:r=zero", "--n", "1"])
    assert result.exit_code == 2
    result = runner.invoke(main, ["commute", "--map", "dilation:r=2", "--n", "1", "--k", "7"])
    assert result.exit_code == 2


@pytest.mark.parametrize("literal, n", [("dilation:r=1/0", "1"), ("translate:q=1/0,0,0,0,0", "2")])
def test_commute_rejects_zero_denominator(runner, literal, n):
    result = runner.invoke(main, ["commute", "--map", literal, "--n", n])
    assert result.exit_code == 2
    assert "zero denominator" in result.stderr
    assert isinstance(result.exception, SystemExit)  # a usage error, not a traceback


@pytest.mark.parametrize("option, value", [("--trials", "0"), ("--degree", "-1")])
def test_commute_rejects_bad_sampling_sizes(runner, option, value):
    result = runner.invoke(main, ["commute", "--map", "dilation:r=2", "--n", "1", option, value])
    assert result.exit_code == 2
    assert "trials must be >= 1 and degree >= 0" in result.stderr
    assert isinstance(result.exception, SystemExit)  # a usage error, not a traceback


# -- mobius ----------------------------------------------------------------------


def test_mobius_writes_outputs(runner, tmp_path, validator):
    result = runner.invoke(
        main,
        ["mobius", "--radius", "0.2", "--half-width", "0.15", "--grid", "128x64",
         "--out", str(tmp_path), "--format", "json"],
    )
    assert result.exit_code == 0
    payload = json.loads(result.stdout)
    _assert_valid(validator, payload)
    assert len(payload["points"]) == 1
    point = payload["points"][0]
    assert abs(point["r"]) < 1e-8
    assert point["residual"] < 1e-10

    scan_path = tmp_path / "mobius_scan.csv"
    points_path = tmp_path / "mobius_points.json"
    assert scan_path.exists() and points_path.exists()
    header = scan_path.read_text().splitlines()[0]
    assert header == "r,s,N1,N2,N3"
    assert json.loads(points_path.read_text()) == payload["points"]


def test_mobius_empty_case(runner, tmp_path):
    result = runner.invoke(
        main,
        ["mobius", "--radius", "0.5", "--half-width", "0.375", "--grid", "128x64",
         "--out", str(tmp_path), "--format", "json"],
    )
    assert result.exit_code == 0
    assert json.loads(result.stdout)["points"] == []


def test_mobius_grid_spellings(runner, tmp_path):
    for spec in ("128x64", "128X64", "128,64"):
        result = runner.invoke(
            main,
            ["mobius", "--radius", "0.3", "--half-width", "0.2", "--grid", spec,
             "--out", str(tmp_path)],
        )
        assert result.exit_code == 0, spec
    assert runner.invoke(
        main, ["mobius", "--radius", "0.3", "--half-width", "0.2", "--grid", "junk",
               "--out", str(tmp_path)]).exit_code == 2
    assert runner.invoke(
        main, ["mobius", "--radius", "0.3", "--half-width", "0.2", "--grid", "32x32",
               "--out", str(tmp_path)]).exit_code == 2


def test_mobius_rejects_bad_geometry(runner, tmp_path):
    result = runner.invoke(
        main, ["mobius", "--radius", "0.3", "--half-width", "0.4", "--out", str(tmp_path)])
    assert result.exit_code == 2
    result = runner.invoke(
        main, ["mobius", "--radius", "0.3", "--half-width", "0.2", "--tol", "-1",
               "--out", str(tmp_path)])
    assert result.exit_code == 2


@pytest.mark.parametrize("args, message", [
    (["-R", "inf", "-w", "0.15"], "must be finite"),
    (["-R", "0.2", "-w", "0.15", "--tol", "nan"], "tolerance must be positive"),
    (["-R", "0.2", "-w", "0.15", "--tol", "inf"], "tolerance must be finite"),
])
def test_mobius_rejects_non_finite_input(runner, tmp_path, args, message):
    out = tmp_path / "out"
    result = runner.invoke(main, ["mobius", *args, "--grid", "64x64", "--out", str(out),
                                  "--format", "json"])
    assert result.exit_code == 2
    assert message in result.stderr
    assert isinstance(result.exception, SystemExit)
    assert not out.exists()  # rejected before any artifact is written


def test_mobius_deterministic_across_runs(runner, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    out1.mkdir(), out2.mkdir()
    args = ["mobius", "--radius", "0.24", "--half-width", "0.18", "--grid", "128x64",
            "--format", "json"]
    r1 = runner.invoke(main, args + ["--out", str(out1)])
    r2 = runner.invoke(main, args + ["--out", str(out2)])
    assert r1.exit_code == r2.exit_code == 0
    assert r1.stdout.replace(str(out1), "") == r2.stdout.replace(str(out2), "")
    assert (out1 / "mobius_scan.csv").read_bytes() == (out2 / "mobius_scan.csv").read_bytes()
    assert (out1 / "mobius_points.json").read_bytes() == (out2 / "mobius_points.json").read_bytes()


def test_mobius_scan_csv_bytes_pinned(runner, tmp_path):
    # The reference is the csv.writer + repr(float(...)) loop the CLI
    # once used.  On 65 r-nodes the r = pi column has N3 near 1e-17, so
    # scientific-notation reprs are covered.
    from heiscalc.surface import mobius_surface, scan_grid

    data = scan_grid(mobius_surface(0.2, 0.15), (65, 64))
    assert 0 < abs(float(data["N3"][32, 0])) < 1e-15
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["r", "s", "N1", "N2", "N3"])
    for i in range(len(data["r"])):
        for j in range(len(data["s"])):
            writer.writerow([repr(float(data["r"][i])), repr(float(data["s"][j])),
                             repr(float(data["N1"][i, j])), repr(float(data["N2"][i, j])),
                             repr(float(data["N3"][i, j]))])
    result = runner.invoke(
        main, ["mobius", "--radius", "0.2", "--half-width", "0.15", "--grid", "65x64",
               "--out", str(tmp_path)])
    assert result.exit_code == 0
    assert (tmp_path / "mobius_scan.csv").read_bytes() == buffer.getvalue().encode()


def test_cli_import_leaves_numpy_unloaded():
    # Only mobius needs numpy; the symbolic subcommands must not pay for it.
    import heiscalc

    code = "import heiscalc.cli, sys; assert 'numpy' not in sys.modules"
    src = str(Path(heiscalc.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
