"""Command line interface: formats, exit codes, schema conformance."""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import subprocess
from pathlib import Path

import pytest
from jsonschema import Draft202012Validator

SCHEMA_PATH = Path(__file__).resolve().parents[1] / "docs" / "cli-schema.json"


@pytest.fixture(scope="module")
def validator():
    schema = json.loads(SCHEMA_PATH.read_text())
    Draft202012Validator.check_schema(schema)
    return Draft202012Validator(schema)


def _assert_valid(validator, payload):
    errors = list(validator.iter_errors(payload))
    assert not errors, "\n".join(e.message for e in errors)


# -- dims ---------------------------------------------------------------------


def test_dims_text_default(run_cli):
    result = run_cli(["dims"])
    assert result.exit_code == 0
    lines = result.stdout.strip().splitlines()
    assert len(lines) == 1 + 15  # header + one row per (n, k), n = 1..5
    assert lines[-1].split() == ["5", "5", "462", "330", "132"]


def test_dims_json_schema(run_cli, validator):
    result = run_cli(["dims", "--n", "1..3", "--format", "json"])
    assert result.exit_code == 0
    payload = json.loads(result.stdout)
    _assert_valid(validator, payload)
    assert payload[0] == {"n": 1, "k": 1, "dim_omega": 3, "dim_I": 1, "dim_quotient": 2}


def test_dims_csv(run_cli):
    result = run_cli(["dims", "--n", "2", "--format", "csv"])
    assert result.exit_code == 0
    rows = list(csv.reader(result.stdout.splitlines()))
    assert rows[0] == ["n", "k", "dim_omega", "dim_I", "dim_quotient"]
    assert rows[1] == ["2", "1", "5", "1", "4"]
    assert rows[2] == ["2", "2", "10", "5", "5"]


def test_dims_rejects_bad_range(run_cli):
    for spec in ("0..2", "1..9", "junk", "3..1"):
        result = run_cli(["dims", "--n", spec])
        assert result.exit_code == 2, spec


def test_dims_out_file(run_cli, tmp_path):
    target = tmp_path / "dims.json"
    result = run_cli(["dims", "--n", "1", "--format", "json", "--out", str(target)])
    assert result.exit_code == 0
    assert json.loads(target.read_text())[0]["n"] == 1


# -- complex ------------------------------------------------------------------


def test_complex_json_schema(run_cli, validator):
    result = run_cli(["complex", "--n", "1", "--format", "json"])
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


def test_complex_k_filter(run_cli):
    result = run_cli(["complex", "--n", "2", "--k", "3", "--format", "json"])
    assert result.exit_code == 0
    payload = json.loads(result.stdout)
    assert len(payload["degrees"]) == 1
    entry = payload["degrees"][0]
    assert entry["k"] == 3 and entry["dim_J"] == 5
    assert any("dx1^dy1^theta" in text for text in entry["J"])


def test_complex_rejects_large_n(run_cli):
    assert run_cli(["complex", "--n", "5"]).exit_code == 2
    assert run_cli(["complex", "--n", "1", "--k", "4"]).exit_code == 2


# -- verify ---------------------------------------------------------------------


@pytest.mark.parametrize("n", ["0", "4"])
def test_verify_rejects_n_out_of_range(run_cli, n):
    result = run_cli(["verify", "--n", n, "--trials", "1"])
    assert result.exit_code == 2
    assert "n in {1, 2, 3}" in result.stderr
    assert isinstance(result.exception, SystemExit)


def test_verify_passes(run_cli, validator):
    result = run_cli(["verify", "--n", "1", "--trials", "5", "--format", "json"])
    assert result.exit_code == 0
    payload = json.loads(result.stdout)
    _assert_valid(validator, payload)
    assert payload["passed"] is True
    suites = [s["suite"] for s in payload["suites"]]
    assert suites == ["complex-exactness", "lifting", "subspace-preservation", "dc-agreement"]


def test_verify_text_lists_checks(run_cli):
    result = run_cli(["verify", "--n", "1", "--trials", "3"])
    assert result.exit_code == 0
    assert "complex-exactness" in result.stdout
    assert "pass" in result.stdout.lower()


def test_verify_exit_one_on_failure(run_cli, monkeypatch):
    import heiscalc.rumin as rumin_mod

    def broken(n, trials=100, seed=42, degree=3):
        return {
            "suite": "complex-exactness", "n": n, "trials": trials, "seed": seed,
            "passed": False,
            "checks": [{"name": "forced failure", "passed": False,
                        "counterexample": {"input": "stub"}}],
        }

    monkeypatch.setattr(rumin_mod, "verify_complex", broken)
    result = run_cli(["verify", "--n", "1", "--trials", "3"])
    assert result.exit_code == 1
    assert "FAIL" in result.stdout


# -- commute --------------------------------------------------------------------


def test_commute_dilation(run_cli, validator):
    result = run_cli(["commute", "--map", "dilation:r=2", "--n", "1", "--trials", "5", "--format", "json"],
    )
    assert result.exit_code == 0
    payload = json.loads(result.stdout)
    _assert_valid(validator, payload)
    assert payload["passed"] is True
    assert [r["k"] for r in payload["reports"]] == [0, 1, 2]
    # the middle degree goes through the second-order operator
    assert payload["reports"][1]["operator"] == "D"


def test_commute_single_degree(run_cli):
    result = run_cli(["commute", "--map", "translate:q=1/2,0,3", "--n", "1", "--k", "0", "--trials", "5",
         "--format", "csv"],
    )
    assert result.exit_code == 0
    rows = list(csv.reader(result.stdout.splitlines()))
    assert rows[0] == ["k", "operator", "status"]
    assert len(rows) == 2


def test_commute_rejects_non_contact_map(run_cli):
    result = run_cli(["commute", "--map", "poly:[w1, w2, 2*w3]", "--n", "1"])
    assert result.exit_code == 2
    assert "not contact" in result.stderr
    assert "-1/2·w2" in result.stderr


@pytest.mark.parametrize("n", ["0", "4"])
def test_commute_rejects_n_out_of_range(run_cli, n):
    result = run_cli(["commute", "--map", "dilation:r=2", "--n", n])
    assert result.exit_code == 2
    assert "n in {1, 2, 3}" in result.stderr
    assert isinstance(result.exception, SystemExit)  # a usage error, not a crash


def test_commute_rejects_bad_literal(run_cli):
    result = run_cli(["commute", "--map", "dilation:r=zero", "--n", "1"])
    assert result.exit_code == 2
    result = run_cli(["commute", "--map", "dilation:r=2", "--n", "1", "--k", "7"])
    assert result.exit_code == 2


@pytest.mark.parametrize(
    "literal, n",
    [("dilation:r=1/0", "1"), ("translate:q=1/0,0,0,0,0", "2"), ("poly:[w1, w2, w3/0]", "1")],
)
def test_commute_rejects_zero_denominator(run_cli, literal, n):
    result = run_cli(["commute", "--map", literal, "--n", n])
    assert result.exit_code == 2
    assert "zero denominator" in result.stderr
    assert isinstance(result.exception, SystemExit)  # a usage error, not a traceback


@pytest.mark.parametrize(
    "component",
    ["(" * 1200 + "w1" + ")" * 1200, "-" * 3000 + "w1"],
    ids=["parentheses", "signs"],
)
def test_commute_rejects_deep_nesting(run_cli, component):
    result = run_cli(["commute", "--map", f"poly:[{component}, w2, w3]", "--n", "1"])
    assert result.exit_code == 2
    assert "nested too deeply" in result.stderr
    assert isinstance(result.exception, SystemExit)  # a usage error, not a RecursionError


def test_commute_rejects_a_non_contact_high_power(run_cli):
    literal = "compose:poly:[w1^1200, w2, w3];identity"
    result = run_cli(["commute", "--map", literal, "--n", "1"])
    assert result.exit_code == 2
    assert "is not contact" in result.stderr
    assert isinstance(result.exception, SystemExit)  # a usage error, not a RecursionError


def test_commute_prints_coefficients_past_4300_digits(run_cli):
    # str(int) refuses more than 4,300 digits; the message, and the label
    # of a contact map, are written without it
    result = run_cli(["commute", "--map", "poly:[9^5000*w1, w2, w3]", "--n", "1"])
    assert result.exit_code == 2
    assert "is not contact: A(1, f) = " in result.stderr
    assert isinstance(result.exception, SystemExit)
    result = run_cli(["commute", "--map", "dilation:r=9^5000", "--n", "1", "--k", "0", "--trials", "1"])
    assert result.exit_code == 0, result.output
    digits = result.stdout.splitlines()[0].removeprefix("commutation for dilation:r=").removesuffix(" on H^1:")
    high, low = divmod(9**5000, 10**772)  # 9^5000 has 4,772 digits
    assert digits == str(high) + str(low).zfill(772)


@pytest.mark.parametrize("option, value", [("--trials", "0"), ("--degree", "-1")])
def test_commute_rejects_bad_sampling_sizes(run_cli, option, value):
    result = run_cli(["commute", "--map", "dilation:r=2", "--n", "1", option, value])
    assert result.exit_code == 2
    assert "trials must be >= 1 and degree >= 0" in result.stderr
    assert isinstance(result.exception, SystemExit)  # a usage error, not a traceback


# -- the parser --------------------------------------------------------------------

_OPTIONS = {
    "dims": ["--n", "--format", "--out"],
    "complex": ["--n", "--k", "--format", "--out"],
    "verify": ["--n", "--trials", "--seed", "--degree", "--format", "--out"],
    "commute": ["--map", "--n", "--k", "--trials", "--seed", "--degree", "--format", "--out"],
    "mobius": ["-R", "--radius", "-w", "--half-width", "--grid", "--tol", "--out", "--format"],
}


@pytest.mark.parametrize("args, code", [
    ([], 2),
    (["verify", "--n", "1", "--tri", "3"], 2),  # no abbreviated option names
    (["verify", "--n", "1", "--trials", "2", "--bogus"], 2),
    (["verify", "--n", "1", "--trials", "2", "--seed", "-3"], 0),
    (["verify", "--n=1", "--trials", "2"], 0),
], ids=["no-command", "abbreviation", "unknown-option", "negative-seed", "equals-sign"])
def test_parser_exit_codes(run_cli, args, code):
    result = run_cli(args)
    assert result.exit_code == code, result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)


@pytest.mark.parametrize("command", ["dims", "complex --n 1", "verify --n 1 --trials 1",
                                     "commute --map dilation:r=2 --n 1 --trials 1"])
def test_out_refuses_a_directory(run_cli, tmp_path, command):
    result = run_cli([*command.split(" "), "--out", str(tmp_path)])
    assert result.exit_code == 2
    assert "is a directory" in result.stderr
    assert os.listdir(tmp_path) == []


def test_mobius_out_refuses_a_file(run_cli, tmp_path):
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    result = run_cli(["mobius", "-R", "0.2", "-w", "0.15", "--grid", "64x64", "--out", str(taken)])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)  # a usage error, not a traceback
    assert "is a file" in result.stderr
    assert taken.read_text() == "kept\n"


@pytest.mark.parametrize("command", [None, *_OPTIONS])
def test_help_names_every_option(run_cli, command):
    result = run_cli([command, "--help"] if command else ["--help"])
    assert result.exit_code == 0
    words = result.stdout.replace(",", " ").split()
    for name in _OPTIONS[command] if command else _OPTIONS:
        assert name in words, name


# -- outputs pinned by digest ------------------------------------------------------

# SHA-256 of stdout.  The verify and commute digests were recorded before the
# sampled suites shared one runner, the complex and dims ones before the
# chain's constant operators shared one kernel.
_PINNED_STDOUT = {
    "verify --n 2 --trials 20 --format json": "6f61bd8dd53f1706d0ffb801fa32cc49b616eb4ffdf2c1faeb53f29e2346aee4",
    "verify --n 1 --format text": "ea1e989d8efe9c85b14d062fc7d1e6a0e3956401bb687e30b8ecb5baedef3805",
    "commute --map dilation:r=2 --n 2 --format json": "d9f0d4083c2c215d3856013dc5d277991bb65bdb24782df8ac915f52b81d0e76",
    "commute --map compose:dilation:r=1/3;translate:q=1,2,3 --n 1 --format json": (
        "157828b0518a47c48508945d8fbe3736ecb5749ef9b7c8b23962f1c55eb8e8f3"
    ),
    "complex --n 3 --format json": "68f20869aca253754506f9253fe2e2d6a902d9901e61f6086dd3f3580f154c6b",
    "dims --format csv": "3fb8b68015c20c2db9b579e2ae93d2b0cc593efafd546740a8887f05935e0ca6",
}


@pytest.mark.parametrize("command", list(_PINNED_STDOUT))
def test_stdout_matches_pinned_digest(run_cli, command):
    result = run_cli(command.split(" "))
    assert result.exit_code == 0, result.output
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == _PINNED_STDOUT[command]


# -- verify and commute in two parts ----------------------------------------------


@pytest.fixture()
def forks(monkeypatch):
    """Pids of the workers forked while the test runs, with two CPUs
    reported whatever the machine has."""
    from heiscalc import cli

    forked = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    monkeypatch.setattr(cli, "_cpus", lambda: 2)
    return forked


_SPLIT_COMMANDS = [
    "verify --n 1 --trials 10",
    "verify --n 2 --trials 3",
    "commute --map dilation:r=2 --n 2 --trials 5",
]


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
@pytest.mark.parametrize("command", _SPLIT_COMMANDS)
def test_split_does_not_change_stdout(run_cli, forks, monkeypatch, command, fmt):
    from heiscalc import cli

    args = command.split(" ") + ["--format", fmt]
    two_parts = run_cli(args)
    assert two_parts.exit_code == 0, two_parts.output
    assert len(forks) == 1
    monkeypatch.setattr(cli, "_cpus", lambda: 1)
    one_part = run_cli(args)
    assert one_part.exit_code == 0, one_part.output
    assert len(forks) == 1  # the one-part run forked nothing
    assert two_parts.stdout == one_part.stdout


def test_failing_report_is_unchanged_from_a_worker(forks, monkeypatch):
    # the sabotaged commute_check report pinned in test_contact.py, made
    # in a forked worker and sent back: equal, key order included, to the
    # report made in this process
    from heiscalc import cli
    import heiscalc.rumin as rumin_mod
    from heiscalc.contact import builtin_dilation, commute_check
    from heiscalc.frame import dx
    from heiscalc.rumin import QuotientClass, d_Q_low as real

    def broken(cls):
        out = real(cls)
        return QuotientClass(out.n, out.k, out.representative + dx(out.n))

    monkeypatch.setattr(rumin_mod, "d_Q_low", broken)
    job = ("k=0", lambda: commute_check(builtin_dilation(2, 1), 0, trials=10, seed=42, degree=3))
    [report] = cli._run_jobs("commute", [job], in_worker=[0])
    assert len(forks) == 1
    text = json.dumps(report, indent=2) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "2ff24afbc63a11663b15c4bdf70014569c7a5a74faaa995fe31cdfbee9c9362c"
    )
    here = job[1]()
    assert not here["passed"]
    assert report == here and text == json.dumps(here, indent=2) + "\n"


def test_worker_result_of_another_type_fails_naming_its_part(forks, capfd):
    # marshal carries the reports' JSON types only; a Fraction from the
    # worker is an error with the part's name, never a changed output
    from fractions import Fraction

    from heiscalc import cli

    jobs = [("k=0", lambda: {"passed": True}), ("k=1", lambda: {"value": Fraction(1, 2)})]
    with pytest.raises(cli._Failure) as failure:
        cli._run_jobs("commute", jobs, in_worker=[1])
    assert failure.value.code == 1
    assert str(failure.value) == "commute failed: the worker for k=1 exited with status 1"
    assert len(forks) == 1
    assert "commute: the worker for k=1: ValueError('unmarshallable object')" in capfd.readouterr().err
    for pid in forks:  # the worker was reaped
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


@pytest.mark.parametrize("command", ["verify --n 1 --trials 2",
                                     "commute --map dilation:r=2 --n 1 --trials 2"])
def test_failing_worker_exits_one(run_cli, forks, monkeypatch, command):
    # the worker runs verify_lifting, or commute's k = 1
    import heiscalc.contact as contact_mod
    import heiscalc.rumin as rumin_mod

    def failing(*args, **kwargs):
        raise RuntimeError("injected failure")

    monkeypatch.setattr(rumin_mod, "verify_lifting", failing)
    real = contact_mod.commute_check
    monkeypatch.setattr(contact_mod, "commute_check",
                        lambda f, k, **kw: failing() if k == 1 else real(f, k, **kw))
    result = run_cli(command.split(" "))
    assert result.exit_code == 1
    assert len(forks) == 1
    assert result.stdout == ""
    name = "complex-exactness, lifting, subspace-preservation" if "verify" in command else "k=1"
    assert f"the worker for {name} exited with status 1" in result.stderr
    for pid in forks:  # every worker was reaped
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


@pytest.mark.parametrize("command", ["verify --n 5", "commute --map poly:[w1,w2,2*w3] --n 1"])
def test_bad_input_exits_two_before_forking(run_cli, forks, command):
    result = run_cli(command.split(" "))
    assert result.exit_code == 2
    assert forks == []


def test_non_contact_message_stays_short(run_cli):
    # A(1, f) has about 477,000 digits here; the message gives its size
    import time

    literal = "compose:poly:[w1^1000000, w2, w3];dilation:r=3"
    start = time.perf_counter()
    result = run_cli(["commute", "--map", literal, "--n", "1"])
    elapsed = time.perf_counter() - start
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "is not contact: A(1, f) = " in result.stderr
    assert result.stderr.count("\n") == 1 and len(result.stderr.encode()) < 1024
    assert elapsed < 2


# -- mobius ----------------------------------------------------------------------


def test_mobius_writes_outputs(run_cli, tmp_path, validator):
    result = run_cli(["mobius", "--radius", "0.2", "--half-width", "0.15", "--grid", "128x64",
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


def test_mobius_empty_case(run_cli, tmp_path):
    result = run_cli(["mobius", "--radius", "0.5", "--half-width", "0.375", "--grid", "128x64",
         "--out", str(tmp_path), "--format", "json"],
    )
    assert result.exit_code == 0
    assert json.loads(result.stdout)["points"] == []


def test_mobius_grid_spellings(run_cli, tmp_path):
    for spec in ("128x64", "128X64", "128,64"):
        result = run_cli(["mobius", "--radius", "0.3", "--half-width", "0.2", "--grid", spec,
             "--out", str(tmp_path)],
        )
        assert result.exit_code == 0, spec
    assert run_cli(["mobius", "--radius", "0.3", "--half-width", "0.2", "--grid", "junk",
               "--out", str(tmp_path)]).exit_code == 2
    assert run_cli(["mobius", "--radius", "0.3", "--half-width", "0.2", "--grid", "32x32",
               "--out", str(tmp_path)]).exit_code == 2


def test_mobius_rejects_bad_geometry(run_cli, tmp_path):
    result = run_cli(["mobius", "--radius", "0.3", "--half-width", "0.4", "--out", str(tmp_path)])
    assert result.exit_code == 2
    result = run_cli(["mobius", "--radius", "0.3", "--half-width", "0.2", "--tol", "-1",
               "--out", str(tmp_path)])
    assert result.exit_code == 2


@pytest.mark.parametrize("args, message", [
    (["-R", "inf", "-w", "0.15"], "must be finite"),
    (["-R", "0.2", "-w", "0.15", "--tol", "nan"], "tolerance must be positive"),
    (["-R", "0.2", "-w", "0.15", "--tol", "inf"], "tolerance must be finite"),
])
def test_mobius_rejects_non_finite_input(run_cli, tmp_path, args, message):
    out = tmp_path / "out"
    result = run_cli(["mobius", *args, "--grid", "64x64", "--out", str(out),
                                  "--format", "json"])
    assert result.exit_code == 2
    assert message in result.stderr
    assert isinstance(result.exception, SystemExit)
    assert not out.exists()  # rejected before any artifact is written


def test_mobius_deterministic_across_runs(run_cli, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    out1.mkdir(), out2.mkdir()
    args = ["mobius", "--radius", "0.24", "--half-width", "0.18", "--grid", "128x64",
            "--format", "json"]
    r1 = run_cli(args + ["--out", str(out1)])
    r2 = run_cli(args + ["--out", str(out2)])
    assert r1.exit_code == r2.exit_code == 0
    assert r1.stdout.replace(str(out1), "") == r2.stdout.replace(str(out2), "")
    assert (out1 / "mobius_scan.csv").read_bytes() == (out2 / "mobius_scan.csv").read_bytes()
    assert (out1 / "mobius_points.json").read_bytes() == (out2 / "mobius_points.json").read_bytes()


def _reference_scan_csv(data) -> bytes:
    # The csv.writer + repr(float(...)) loop the CLI once used.
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["r", "s", "N1", "N2", "N3"])
    for i in range(len(data["r"])):
        for j in range(len(data["s"])):
            writer.writerow([repr(float(data["r"][i])), repr(float(data["s"][j])),
                             repr(float(data["N1"][i, j])), repr(float(data["N2"][i, j])),
                             repr(float(data["N3"][i, j]))])
    return buffer.getvalue().encode()


def test_mobius_scan_csv_bytes_pinned(run_cli, tmp_path):
    # On 65 r-nodes the r = pi column has N3 near 1e-17, so
    # scientific-notation reprs are covered.
    from heiscalc.surface import mobius_surface, scan_grid

    data = scan_grid(mobius_surface(0.2, 0.15), (65, 64))
    assert 0 < abs(float(data["N3"][32, 0])) < 1e-15
    result = run_cli(["mobius", "--radius", "0.2", "--half-width", "0.15", "--grid", "65x64",
               "--out", str(tmp_path)])
    assert result.exit_code == 0
    assert (tmp_path / "mobius_scan.csv").read_bytes() == _reference_scan_csv(data)


@pytest.mark.parametrize("grid", [(65, 64), (128, 64)])
@pytest.mark.parametrize("parts", [1, 2, 3, 7])
def test_scan_csv_parts_byte_identical(tmp_path, grid, parts):
    # Forked workers format all parts but the first; the appended file
    # must be the single-writer bytes whatever the split.
    from heiscalc.cli import _write_scan_csv
    from heiscalc.surface import mobius_surface, scan_grid

    data = scan_grid(mobius_surface(0.2, 0.15), grid)
    path = tmp_path / "mobius_scan.csv"
    _write_scan_csv(str(path), data, parts)
    assert path.read_bytes() == _reference_scan_csv(data)
    assert os.listdir(tmp_path) == ["mobius_scan.csv"]


def test_scan_csv_writes_one_axis_components(tmp_path):
    # The plane t = 0 has the constant normal component N3 = 1.
    from heiscalc.cli import _write_scan_csv
    from heiscalc.surface import ParamSurface, scan_grid

    plane = ParamSurface(
        r_range=(-1.0, 1.0), s_range=(0.0, 1.0),
        gamma=lambda r, s: (r + 0 * s, s + 0 * r, 0.0 * r * s),
        gamma_r=lambda r, s: (1.0, 0.0, 0.0 * r),
        gamma_s=lambda r, s: (0.0, 1.0, 0.0 * s),
    )
    data = scan_grid(plane, (64, 64))
    path = tmp_path / "mobius_scan.csv"
    _write_scan_csv(str(path), data, 2)
    assert path.read_bytes() == _reference_scan_csv(data)
    assert path.read_text().splitlines()[1].endswith(",1.0")


def test_scan_csv_parts_follow_affinity(monkeypatch):
    from heiscalc import cli

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    assert cli._scan_csv_parts(512) == 4
    assert cli._scan_csv_parts(3) == 3  # never more parts than r-rows
    monkeypatch.delattr(os, "sched_getaffinity")
    assert cli._scan_csv_parts(512) == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    monkeypatch.delattr(os, "fork", raising=False)
    assert cli._scan_csv_parts(512) == 1


@pytest.mark.parametrize("bad_row", [100, 10], ids=["worker", "parent"])
def test_mobius_scan_csv_failure_cleans_up(run_cli, tmp_path, monkeypatch, bad_row):
    # 128 r-rows in 3 parts: rows 0..41 are formatted in this process,
    # 42..84 and 85..127 by forked workers.
    from heiscalc import cli

    format_rows = cli._write_scan_rows

    def failing(handle, data, lo, hi):
        if lo <= bad_row < hi:
            format_rows(handle, data, lo, bad_row)
            raise RuntimeError(f"injected failure at r-row {bad_row}")
        format_rows(handle, data, lo, hi)

    forked = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(cli, "_write_scan_rows", failing)
    monkeypatch.setattr(cli, "_scan_csv_parts", lambda rows: 3)
    monkeypatch.setattr(os, "fork", recording_fork)
    (tmp_path / "kept.txt").write_text("written before the run\n")
    result = run_cli(["mobius", "-R", "0.2", "-w", "0.15", "--grid", "128x64",
                                  "--out", str(tmp_path)])
    assert result.exit_code != 0
    assert len(forked) == 2
    for pid in forked:  # every worker was reaped
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)
    assert os.listdir(tmp_path) == ["kept.txt"]  # no partial CSV, no temporary file
    if bad_row == 100:
        assert result.exit_code == 1
        assert "r-rows 85..127" in result.stderr
    else:
        assert isinstance(result.exception, RuntimeError)


def test_mobius_below_quarter_with_root_outside_strip(run_cli, tmp_path):
    # R < 1/4 gives one point only when s* = (1 - 2R - sqrt(1 - 4R))/2 <= w;
    # at R = 0.24, s* = 0.16 lies outside the strip of half-width 0.15.
    result = run_cli(["mobius", "-R", "0.24", "-w", "0.15", "--out", str(tmp_path),
                                  "--format", "json"])
    assert result.exit_code == 0
    payload = json.loads(result.stdout)
    assert payload["points"] == [] and payload["failures"] == []


def test_cli_import_leaves_numpy_unloaded(fresh_python):
    # Only mobius needs numpy; the symbolic subcommands must not pay for it.
    # Each subcommand imports the layers it runs, and the parser is argparse.
    code = (
        "import heiscalc.cli, sys\n"
        "names = ('click', 'numpy', 'heiscalc.rumin', 'heiscalc.contact', 'heiscalc.surface')\n"
        "loaded = [m for m in names if m in sys.modules]\n"
        "assert not loaded, loaded\n"
    )
    fresh_python(["-c", code], check=True)


def test_symbolic_commands_load_only_what_they_use(fresh_python):
    # verify and commute load none of dataclasses (with inspect, ast, dis),
    # pickle or csv; csv loads only for --format csv.  What the run newly
    # loaded is compared, so modules that site preloads do not count.
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "from heiscalc import cli\n"
        "for args in (['verify', '--n', '1', '--trials', '2'],\n"
        "             ['commute', '--map', 'dilation:r=2', '--n', '1', '--trials', '2']):\n"
        "    assert cli.main(args, standalone_mode=False) == 0, args\n"
        "new = set(sys.modules) - before\n"
        "loaded = [m for m in ('dataclasses', 'inspect', 'pickle', 'csv') if m in new]\n"
        "assert not loaded, loaded\n"
        "assert cli.main(['complex', '--n', '2', '--format', 'csv'], standalone_mode=False) == 0\n"
        "assert 'csv' in sys.modules\n"
    )
    result = fresh_python(["-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert "overall: pass\n" in result.stdout
    assert "\nk,space,index,form\n" in result.stdout


def test_unforked_run_loads_neither_shutil_nor_tempfile(fresh_python):
    # Importing cli loads neither module, and pinned to one CPU, verify
    # forks no worker and so never loads tempfile.  -S keeps site's .pth
    # files from preloading them.  The run itself loads shutil anyway:
    # argparse imports it for the terminal width as soon as a parser gets
    # an argument.
    code = (
        "import os, sys\n"
        "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
        "from heiscalc import cli\n"
        "loaded = [m for m in ('shutil', 'tempfile') if m in sys.modules]\n"
        "assert not loaded, loaded\n"
        "assert cli.main(['verify', '--n', '1', '--trials', '2'], standalone_mode=False) == 0\n"
        "assert 'tempfile' not in sys.modules\n"
    )
    result = fresh_python(["-S", "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert "overall: pass\n" in result.stdout


def test_closed_stdout_exits_one_quietly(fresh_python):
    # The reader of stdout is gone before anything is written, as in
    # `heiscalc dims | true`: exit 1, with no traceback or flush error.
    read, write = os.pipe()
    os.close(read)
    try:
        result = fresh_python(["-m", "heiscalc.cli", "dims"], stdout=write, stderr=subprocess.PIPE)
    finally:
        os.close(write)
    assert result.returncode == 1
    assert result.stderr == b""


def test_mobius_refuses_oversized_grid_before_loading_numpy(tmp_path, fresh_python):
    # 10^20 nodes: the node bound exits 2 before surface or numpy is
    # imported, so nothing is allocated and no artifact is written.
    out = tmp_path / "out"
    code = (
        "import runpy, sys\n"
        f"sys.argv = ['heiscalc', 'mobius', '-R', '0.2', '-w', '0.15',"
        f" '--grid', '10000000000x10000000000', '--out', {str(out)!r}]\n"
        "try:\n"
        "    runpy.run_module('heiscalc.cli', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 2, exc.code\n"
        "loaded = [m for m in ('numpy', 'heiscalc.surface') if m in sys.modules]\n"
        "assert not loaded, loaded\n"
    )
    result = fresh_python(["-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert "Traceback" not in result.stderr
    assert "Error: grid 10000000000x10000000000 has more than 16777216 nodes\n" in result.stderr
    assert not out.exists()


def test_mobius_grid_node_bound(run_cli, tmp_path, monkeypatch):
    from heiscalc import cli

    monkeypatch.setattr(cli, "_MAX_GRID_NODES", 64 * 65)
    args = ["mobius", "-R", "0.2", "-w", "0.15", "--out", str(tmp_path)]
    assert run_cli([*args, "--grid", "64x65"]).exit_code == 0
    result = run_cli([*args, "--grid", "65x65"])
    assert result.exit_code == 2
    assert "has more than 4160 nodes" in result.stderr


def test_mobius_leaves_symbolic_layers_unloaded(tmp_path, fresh_python):
    # mobius imports only cli and surface: coeff, frame, rumin, contact and
    # sampling are neither compiled nor loaded.
    code = (
        "import runpy, sys\n"
        f"sys.argv = ['heiscalc', 'mobius', '-R', '0.2', '-w', '0.15', '--grid', '64x64',"
        f" '--out', {str(tmp_path)!r}]\n"
        "try:\n"
        "    runpy.run_module('heiscalc.cli', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
        "names = ('coeff', 'frame', 'rumin', 'contact', 'sampling')\n"
        "loaded = [m for m in names if 'heiscalc.' + m in sys.modules]\n"
        "assert not loaded, loaded\n"
    )
    fresh_python(["-c", code], check=True, stdout=subprocess.DEVNULL)
