"""Command line interface: formats, exit codes, schema conformance."""

from __future__ import annotations

import csv
import errno
import hashlib
import io
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from jsonschema import Draft202012Validator

from heiscalc.coeff import MAX_EXPONENT

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


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
@pytest.mark.parametrize("command", ["dims", "complex --n 2", "verify --n 1 --trials 3",
                                     "commute --map dilation:r=2 --n 1 --trials 3"])
def test_out_file_holds_what_stdout_would(run_cli, tmp_path, command, fmt):
    args = [*command.split(" "), "--format", fmt]
    printed = run_cli(args)
    assert printed.exit_code == 0, printed.output
    target = tmp_path / "out.txt"
    written = run_cli([*args, "--out", str(target)])
    assert written.exit_code == 0, written.output
    assert written.stdout == written.stderr == ""
    assert target.read_bytes() == printed.stdout.encode()


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


def _verify_n2_on_one_and_two_cpus(run_cli, validator, monkeypatch) -> dict:
    """`verify --n 2 --trials 3 --seed 1 --format json` on one and then two
    CPUs: both exit 1 with an empty stderr and the same schema-valid
    failing JSON, which is returned."""
    import heiscalc.cli as cli_mod

    outputs = []
    for cpus in (1, 2):
        monkeypatch.setattr(cli_mod, "_cpus", lambda cpus=cpus: cpus)
        result = run_cli(["verify", "--n", "2", "--trials", "3", "--seed", "1", "--format", "json"])
        assert (result.exit_code, result.stderr) == (1, ""), cpus
        assert isinstance(result.exception, SystemExit)
        payload = json.loads(result.stdout)
        _assert_valid(validator, payload)
        assert payload["passed"] is False
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1]
    return payload


def _failed_checks(payload: dict) -> list[dict]:
    failed = [c for s in payload["suites"] for c in s["checks"] if not c["passed"]]
    assert all("input" in c["counterexample"] for c in failed)
    return failed


def test_verify_reports_a_broken_lift_on_one_and_two_cpus(run_cli, validator, monkeypatch):
    # D's own check of its output fires on the flipped lift correction;
    # every suite reports it as a counterexample, in this process and in
    # the forked worker alike, so the run exits 1 with no traceback.
    import heiscalc.rumin as rumin_mod
    from test_mutants import _lift_flipped

    monkeypatch.setattr(rumin_mod, "lift", _lift_flipped)
    failed = _failed_checks(_verify_n2_on_one_and_two_cpus(run_cli, validator, monkeypatch))
    # the lifting suite's own check fails first; every other failure is D's error
    errors = {c["counterexample"].get("error") for c in failed}
    assert errors == {None, "D output escaped J^{n+1}; the lifting is broken"}


def test_verify_reports_an_unlifted_D_on_one_and_two_cpus(run_cli, validator, monkeypatch):
    # Plain d in place of D leaves J^{n+1}; d_Q_high's check of its input
    # refuses the result, and the suite reports that refusal as the
    # counterexample rather than letting it escape as a traceback.
    import heiscalc.rumin as rumin_mod
    from heiscalc.frame import exterior_derivative

    monkeypatch.setattr(rumin_mod, "D_second_order", exterior_derivative)
    failed = _failed_checks(_verify_n2_on_one_and_two_cpus(run_cli, validator, monkeypatch))
    errors = {c["name"]: c["counterexample"].get("error") for c in failed}
    assert errors["d_Q(3) o D"] == "d_Q_high input does not lie in J^k"


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
    # one line, like every other refusal
    assert result.stdout == ""
    assert result.stderr == "Error: map poly:[w1, w2, 2*w3] is not contact: A(1, f) = -1/2·w2^1 != 0\n"


# Strict contactomorphisms (f* theta = theta) that are neither group
# translations nor dilations: the shears S_phi, y -> y + grad phi(x),
# t -> t + <x, grad phi(x)>/2 - phi(x), and one composed after the
# symplectic swap (x, y) -> (y, -x).
_STRICT_CONTACT_MAPS = {
    "shear x1^4": "poly:[w1, w2, w3 + 4*w1^3, w4, w5 + w1^4]",
    "shear x1^2 x2": "poly:[w1, w2, w3 + 2*w1*w2, w4 + w1^2, w5 + w1^2*w2/2]",
    "shear x1^2 x2 after swap": (
        "compose:poly:[w1, w2, w3 + 2*w1*w2, w4 + w1^2, w5 + w1^2*w2/2];poly:[w3, w4, -w1, -w2, w5]"
    ),
}


@pytest.mark.parametrize("literal", list(_STRICT_CONTACT_MAPS.values()), ids=list(_STRICT_CONTACT_MAPS))
def test_commute_passes_on_strict_contactomorphisms(run_cli, literal):
    result = run_cli(["commute", "--map", literal, "--n", "2", "--trials", "10", "--format", "json"])
    assert result.exit_code == 0, result.output
    payload = json.loads(result.stdout)
    assert payload["passed"] is True
    assert [r["k"] for r in payload["reports"]] == [0, 1, 2, 3, 4]


def test_commute_rejects_a_shear_without_its_y_term(run_cli):
    # the t-term of S_phi for phi = x^3/3 without its y-term y + x^2:
    # f* theta picks up a dx term
    result = run_cli(["commute", "--map", "poly:[w1, w2, w3 + w1^3/6]", "--n", "1"])
    assert result.exit_code == 2
    assert "is not contact" in result.stderr


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
    "verify --n 3 --trials 5 --format json": "80f540cb3c110ab24260880d2a8df821646b639884c234ad45c846ab5be2b1d2",
    "commute --map dilation:r=2 --n 2 --format json": "d9f0d4083c2c215d3856013dc5d277991bb65bdb24782df8ac915f52b81d0e76",
    "commute --map compose:dilation:r=1/3;translate:q=1,2,3 --n 1 --format json": (
        "157828b0518a47c48508945d8fbe3736ecb5749ef9b7c8b23962f1c55eb8e8f3"
    ),
    "complex --n 3 --format json": "68f20869aca253754506f9253fe2e2d6a902d9901e61f6086dd3f3580f154c6b",
    "complex --n 4 --format json": "406d5c988f7456ed597472431aea10ba525b74887ddaf39377a842cd8dc3beb7",
    "complex --n 2 --format csv": "d0d32dffe4631a7a3ad8c76b07c917022d41adeb6944020f28349b249040e613",
    "complex --n 2 --format text": "d287c2364011cfef81de5e5214e02838b6ab4dabfd4e3299e5695f6a7850162b",
    "dims --format csv": "3fb8b68015c20c2db9b579e2ae93d2b0cc593efafd546740a8887f05935e0ca6",
    "commute --map 'compose:translate:q=1/2,1,3/2,2,1/3;poly:[w1, w2, w3 + w1^2, w4, w5 + w1^3/6]' "
    "--n 2 --trials 5 --format json": "4d61f3f936574660c3515b91c158a43af53992bf94cb0af02cd35ef2d8238bfb",
}


@pytest.mark.parametrize("command", list(_PINNED_STDOUT))
def test_stdout_matches_pinned_digest(run_cli, command):
    result = run_cli(shlex.split(command))
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
    from heiscalc.rumin import d_Q_low as real

    def broken(alpha):
        out = real(alpha)
        return out + dx(out.n)

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
    # worker is an error with the part's name and the worker's reason,
    # never a changed output, and the worker itself prints nothing
    from fractions import Fraction

    from heiscalc import cli

    jobs = [("k=0", lambda: {"passed": True}), ("k=1", lambda: {"value": Fraction(1, 2)})]
    with pytest.raises(cli._Failure) as failure:
        cli._run_jobs("commute", jobs, in_worker=[1])
    assert str(failure.value) == (
        "commute failed: the worker for k=1 exited with status 1: ValueError: unmarshallable object")
    assert len(forks) == 1
    assert capfd.readouterr().err == ""
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


@pytest.mark.parametrize("command", [
    # the literal itself: w1^(10^8) is past the limit
    ["commute", "--map", "poly:[(w1^10000)^10000, w2, w3]", "--n", "1"],
    # a representable map whose checks would pass the limit
    ["commute", "--map", "poly:[w1^1000000*w1^1000000, w2, w3, w4, w5]", "--n", "2"],
    ["commute", "--map", "dilation:r=2", "--n", "1", "--degree", str(MAX_EXPONENT + 1)],
    ["verify", "--n", "1", "--degree", str(MAX_EXPONENT + 1)],
])
def test_unrepresentable_exponent_exits_two_before_forking(run_cli, forks, command):
    result = run_cli(command)
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert result.stderr.startswith("Error: ") and result.stderr.count("\n") == 1
    assert f"{MAX_EXPONENT}, the largest" in result.stderr
    assert result.stdout == ""
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
    # every refusal names the spec and the expected form
    for spec in ("junk", "axb", "64x", "x64", "64xb", "1x2x3"):
        result = run_cli(["mobius", "--radius", "0.3", "--half-width", "0.2", "--grid", spec,
                          "--out", str(tmp_path)])
        assert (result.exit_code, result.stderr) == (
            2, f"Error: cannot parse grid {spec!r}; expected e.g. 1024x512\n"), spec
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


def test_mobius_accepts_a_wide_strip(run_cli, tmp_path):
    result = run_cli(["mobius", "-R", "1e4", "-w", "7.5e3", "--grid", "64x64", "--out", str(tmp_path),
                      "--format", "json"])
    assert result.exit_code == 0, result.stderr
    assert json.loads(result.stdout)["R"] == 1e4


def test_mobius_refuses_a_strip_whose_normal_overflows(fresh_python, tmp_path):
    # A fresh process, so numpy's warnings, the forked workers' too, would
    # reach the stderr captured here.
    out = tmp_path / "huge"
    result = fresh_python(["-m", "heiscalc.cli", "mobius", "-R", "1e160", "-w", "1e10", "--grid", "64x64",
                           "--out", str(out)], capture_output=True, text=True)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith("Error: N1 is not finite at grid node (0, 0)")
    assert result.stderr.count("\n") == 1
    assert not (out / "mobius_scan.csv").exists()
    assert not (out / "mobius_points.json").exists()


@pytest.mark.parametrize("failure", ["overflow", "crash"])
@pytest.mark.parametrize("existing", [None, "a"])
def test_refused_mobius_removes_the_directories_it_made(run_cli, tmp_path, monkeypatch, existing, failure):
    # --out a/b below tmp_path: a failed scan removes the directories this
    # run made, leaf first, and only those; one that was there stays,
    # empty or not.
    from heiscalc import surface

    if existing:
        (tmp_path / existing).mkdir()
    if failure == "crash":
        def crash(*args, **kwargs):
            raise RuntimeError("injected failure in the search")

        monkeypatch.setattr(surface, "find_characteristic_points", crash)
    strip = {"overflow": ["-R", "1e160", "-w", "1e10"], "crash": ["-R", "0.2", "-w", "0.15"]}[failure]
    result = run_cli(["mobius", *strip, "--grid", "64x64", "--out", str(tmp_path / "a" / "b")])
    if failure == "overflow":
        assert result.exit_code == 2
        assert "N1 is not finite" in result.stderr
    else:
        assert isinstance(result.exception, RuntimeError)
    assert [p.relative_to(tmp_path) for p in tmp_path.rglob("*")] == ([Path(existing)] if existing else [])


def test_mobius_accepts_a_strip_just_below_overflow(run_cli, tmp_path):
    result = run_cli(["mobius", "-R", "1e154", "-w", "1e10", "--grid", "64x64", "--out", str(tmp_path)])
    assert result.exit_code == 0, result.stderr
    assert "0 characteristic point(s)" in result.stdout
    assert (tmp_path / "mobius_scan.csv").exists()


def test_mobius_surface_refused_exits_two(run_cli, tmp_path, monkeypatch):
    from heiscalc import surface

    def wrong_partials(R, w):
        return surface.ParamSurface((0.0, 1.0), (0.0, 1.0), gamma=lambda r, s: (r * r, s, 0.0 * r),
                                    gamma_r=lambda r, s: (1.0 + 0 * r, 0.0 * r, 0.0 * r),
                                    gamma_s=lambda r, s: (0.0 * s, 1.0 + 0 * s, 0.0 * s))

    monkeypatch.setattr(surface, "mobius_surface", wrong_partials)
    out = tmp_path / "out"
    result = run_cli(["mobius", "-R", "0.2", "-w", "0.15", "--grid", "64x64", "--out", str(out)])
    assert result.exit_code == 2
    assert "disagrees with finite differences" in result.stderr
    assert isinstance(result.exception, SystemExit)
    assert not out.exists()


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


@pytest.mark.parametrize("grid", [(65, 64), (128, 64), (100, 300), (7, 4100)])
@pytest.mark.parametrize("parts", [1, 2, 3, 7])
def test_scan_csv_parts_byte_identical(tmp_path, monkeypatch, grid, parts):
    # Forked workers format all parts but the first; the appended file
    # must be the single-writer bytes whatever the split.  The scan's
    # tiles are bands of 32 r-rows at n_s = 64 and of 6 at n_s = 300, so
    # most part bounds fall inside a band; 4100 s-nodes are three tiles
    # per r-row.  The first part is written from its own tiles, and then
    # from a search's pass over every tile of the grid, as mobius does.
    from heiscalc import cli
    from heiscalc.surface import _scan_blocks, mobius_surface, scan_grid

    def search(on_tile):
        for tile in _scan_blocks(surface, grid):
            on_tile(*tile)
        return "searched"

    surface = mobius_surface(0.2, 0.15)
    data = scan_grid(surface, grid)
    path = tmp_path / "mobius_scan.csv"
    monkeypatch.setattr(cli, "_scan_csv_parts", lambda rows: parts)
    with open(path, "wb") as out:
        cli._write_scan_csv(out, surface, grid)
    assert path.read_bytes() == _reference_scan_csv(data)
    assert os.listdir(tmp_path) == ["mobius_scan.csv"]
    with open(path, "wb") as out:
        assert cli._write_scan_csv(out, surface, grid, search) == "searched"
    assert path.read_bytes() == _reference_scan_csv(data)
    assert os.listdir(tmp_path) == ["mobius_scan.csv"]


def test_scan_csv_writes_one_axis_components(tmp_path, monkeypatch):
    # The plane t = 0 has the constant normal component N3 = 1.
    from heiscalc import cli
    from heiscalc.surface import ParamSurface, scan_grid

    plane = ParamSurface(
        r_range=(-1.0, 1.0), s_range=(0.0, 1.0),
        gamma=lambda r, s: (r + 0 * s, s + 0 * r, 0.0 * r * s),
        gamma_r=lambda r, s: (1.0, 0.0, 0.0 * r),
        gamma_s=lambda r, s: (0.0, 1.0, 0.0 * s),
    )
    data = scan_grid(plane, (64, 64))
    path = tmp_path / "mobius_scan.csv"
    monkeypatch.setattr(cli, "_scan_csv_parts", lambda rows: 2)
    with open(path, "wb") as out:
        cli._write_scan_csv(out, plane, (64, 64))
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


@pytest.mark.parametrize("bad_row, search_step", [
    (100, None), (10, None), (None, "_newton_2d"), (None, "_sign_span"),
], ids=["worker", "parent", "search", "search-scan"])
def test_mobius_scan_csv_failure_cleans_up(run_cli, tmp_path, monkeypatch, bad_row, search_step):
    # 128 r-rows in 3 parts: rows 0..41 are formatted in this process from
    # the search's tiles, 42..84 and 85..127 by forked workers.  The
    # search fails in its Newton step, after it has written rows 0..41,
    # or in the sign test of its first tile.
    from heiscalc import cli, surface

    make_writer = cli._scan_rows_writer

    def failing(handle, surface, grid, hi):
        write = make_writer(handle, surface, grid, hi)

        def write_until_bad_row(i, j, values):
            if bad_row is not None and i <= bad_row < min(i + len(values[0]), hi):
                write(i, j, tuple(v[:bad_row - i] for v in values))
                raise RuntimeError(f"injected failure at r-row {bad_row}")
            write(i, j, values)

        return write_until_bad_row

    def failing_step(*args):
        raise RuntimeError(f"injected failure in {search_step}")

    forked = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(cli, "_scan_rows_writer", failing)
    if search_step:
        monkeypatch.setattr(surface, search_step, failing_step)
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
        assert "injected failure" in str(result.exception)


def test_mobius_evaluates_each_node_once(run_cli, tmp_path, monkeypatch):
    # On one CPU the single CSV part is written from the search's own
    # tiles, so the normal evaluator receives each of the n_r * n_s nodes
    # once; a CSV that scanned the grid again would double that.  Newton
    # evaluates at scalar points, which are not nodes.
    import numpy as np

    from heiscalc import cli, surface

    grid = (128, 64)
    expected = _reference_scan_csv(surface.scan_grid(surface.mobius_surface(0.2, 0.15), grid))
    make_normal = surface.surface_normal
    nodes = []

    def counting_normal(surf):
        normal = make_normal(surf)

        def counted(r, s):
            if np.ndim(r) or np.ndim(s):
                nodes.append(np.broadcast(r, s).size)
            return normal(r, s)

        return counted

    monkeypatch.setattr(surface, "surface_normal", counting_normal)
    monkeypatch.setattr(cli, "_cpus", lambda: 1)
    result = run_cli(["mobius", "-R", "0.2", "-w", "0.15", "--grid", "128x64",
                      "--out", str(tmp_path), "--format", "json"])
    assert result.exit_code == 0, result.output
    assert len(json.loads(result.stdout)["points"]) == 1
    assert sum(nodes) == grid[0] * grid[1]
    assert (tmp_path / "mobius_scan.csv").read_bytes() == expected


# Each case: the command, with OUT for the test's directory, and the
# directories and the file it makes there first.
_UNUSABLE_OUT = {
    "mobius-scan-csv-is-a-directory": (
        "mobius -R 0.2 -w 0.15 --grid 64x64 --out OUT/d", ["d/mobius_scan.csv"], None),
    "mobius-points-json-is-a-directory": (
        "mobius -R 0.2 -w 0.15 --grid 64x64 --out OUT/d", ["d/mobius_points.json"], None),
    "mobius-below-a-file": ("mobius -R 0.2 -w 0.15 --grid 64x64 --out OUT/f/sub", [], "f"),
    "mobius-deep-below-a-file": ("mobius -R 0.2 -w 0.15 --grid 64x64 --out OUT/f/a/b", [], "f"),
    "mobius-empty": ("mobius -R 0.2 -w 0.15 --grid 64x64 --out=", [], None),
    "dims-missing-directory": ("dims --out OUT/missing/dir/x", [], None),
    "complex-missing-directory": ("complex --n 1 --out OUT/missing/dir/x", [], None),
    "verify-missing-directory": ("verify --n 1 --trials 1 --out OUT/missing/dir/x", [], None),
    "commute-missing-directory": (
        "commute --map dilation:r=2 --n 1 --trials 1 --out OUT/missing/dir/x", [], None),
    "verify-below-a-file": ("verify --n 1 --trials 1 --out OUT/f/x", [], "f"),
    "dims-empty": ("dims --out=", [], None),
}


@pytest.mark.parametrize("case", _UNUSABLE_OUT)
def test_unusable_out_exits_two_before_any_work(run_cli, tmp_path, monkeypatch, case):
    # The parser refuses the path, so no command runs and nothing is
    # written: one usage error line, exit 2, no traceback.
    from heiscalc import cli

    command, directories, file = _UNUSABLE_OUT[case]
    for directory in directories:
        (tmp_path / directory).mkdir(parents=True)
    if file:
        (tmp_path / file).write_text("kept\n")
    before = sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*"))

    def no_work(**options):
        raise AssertionError("the command ran")

    for name in ("dims", "complex_cmd", "verify", "commute", "mobius"):
        monkeypatch.setattr(cli, name, no_work)
    result = run_cli(command.replace("OUT", str(tmp_path)).split(" "))
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit), result.exception
    assert "Traceback" not in result.stderr
    assert [line for line in result.stderr.splitlines() if "error:" in line.lower()] == [
        result.stderr.splitlines()[-1]]
    assert "argument --out: " in result.stderr
    assert sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*")) == before
    if file:
        assert (tmp_path / file).read_text() == "kept\n"


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


def test_mobius_loads_neither_dataclasses_nor_copy(fresh_python, tmp_path):
    # surface's records are NamedTuples and a slotted class, so mobius
    # loads neither module; numpy itself brings inspect and pickle.
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "from heiscalc import cli\n"
        "args = ['mobius', '-R', '0.2', '-w', '0.15', '--grid', '64x64', '--out', sys.argv[1]]\n"
        "assert cli.main(args, standalone_mode=False) == 0\n"
        "new = set(sys.modules) - before\n"
        "assert 'heiscalc.surface' in new\n"
        "loaded = [m for m in ('dataclasses', 'copy') if m in new]\n"
        "assert not loaded, loaded\n"
    )
    result = fresh_python(["-c", code, str(tmp_path)], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "mobius_scan.csv").exists()


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


# -- a failed write ---------------------------------------------------------------

# /dev/full refuses every write with ENOSPC.
_NEEDS_DEV_FULL = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")


@_NEEDS_DEV_FULL
@pytest.mark.parametrize("target", ["--out", "stdout"])
def test_failed_output_write_is_one_error_line(fresh_python, target):
    args = ["-m", "heiscalc.cli", "verify", "--n", "1", "--trials", "2"]
    with open("/dev/full", "wb") as full:
        if target == "--out":
            result = fresh_python([*args, "--out", "/dev/full"], capture_output=True, text=True)
        else:
            result = fresh_python(args, stdout=full, stderr=subprocess.PIPE, text=True)
    name = "/dev/full" if target == "--out" else "stdout"
    assert result.returncode == 1
    assert result.stderr == f"Error: cannot write {name}: {os.strerror(errno.ENOSPC)}\n"


@pytest.mark.parametrize("cpus", [1, 2])
def test_mobius_past_the_file_size_limit_cleans_up(fresh_python, tmp_path, cpus):
    # The CSV passes RLIMIT_FSIZE, set in the child only, in this process's
    # part (EFBIG through the search's on_tile) and, split, in the
    # worker's.  The run removes what it wrote and the directories it made.
    import resource

    def limit_file_size():
        resource.setrlimit(resource.RLIMIT_FSIZE, (65536, 65536))

    out = tmp_path / "made" / "out"
    code = "import sys\nfrom heiscalc import cli\ncli._cpus = lambda: int(sys.argv[1])\ncli.main(sys.argv[2:])\n"
    result = fresh_python(["-c", code, str(cpus), "mobius", "-R", "0.2", "-w", "0.15", "--grid", "64x64",
                           "--out", str(out)], preexec_fn=limit_file_size, capture_output=True, text=True)
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    assert result.stderr.count("Error: ") == 1
    assert result.stderr.endswith(
        f"Error: cannot write {out / 'mobius_scan.csv'}: {os.strerror(errno.EFBIG)}\n")
    assert os.listdir(tmp_path) == []


@_NEEDS_DEV_FULL
def test_mobius_failed_points_write_removes_both_artifacts(run_cli, tmp_path, monkeypatch):
    from heiscalc import cli

    def points_on_dev_full(path, *args, **kwargs):
        return open("/dev/full" if str(path).endswith("mobius_points.json") else path, *args, **kwargs)

    monkeypatch.setattr(cli, "open", points_on_dev_full, raising=False)
    out = tmp_path / "made" / "out"
    result = run_cli(["mobius", "-R", "0.2", "-w", "0.15", "--grid", "64x64", "--out", str(out)])
    assert result.exit_code == 1
    assert result.stderr == (
        f"Error: cannot write {out / 'mobius_points.json'}: {os.strerror(errno.ENOSPC)}\n")
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("command, limit", [("dims", 0), ("complex --n 3", 4096)])
def test_failed_out_write_removes_the_file(fresh_python, tmp_path, command, limit):
    # RLIMIT_FSIZE, set in the child only, stops the --out file empty (dims)
    # or after 4 KiB of its 5.3 KB (complex --n 3); the run removes it.
    import resource

    def limit_file_size():
        resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit))

    out = tmp_path / "out.txt"
    result = fresh_python(["-m", "heiscalc.cli", *command.split(" "), "--out", str(out)],
                          preexec_fn=limit_file_size, capture_output=True, text=True)
    assert result.returncode == 1
    assert result.stderr == f"Error: cannot write {out}: {os.strerror(errno.EFBIG)}\n"
    assert os.listdir(tmp_path) == []


def test_out_file_that_cannot_be_opened_keeps_its_bytes(run_cli, tmp_path, monkeypatch):
    from heiscalc import cli

    def refusing(path, *args, **kwargs):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(path))

    out = tmp_path / "kept.txt"
    out.write_bytes(b"written before the run\n")
    monkeypatch.setattr(cli, "open", refusing, raising=False)
    result = run_cli(["dims", "--out", str(out)])
    assert result.exit_code == 1
    assert result.stderr == f"Error: cannot write {out}: {os.strerror(errno.EACCES)}\n"
    assert out.read_bytes() == b"written before the run\n"


@_NEEDS_DEV_FULL
@pytest.mark.parametrize("target", ["/dev/full", "regular", "link"])
def test_failed_output_removes_only_a_regular_file(tmp_path, monkeypatch, target):
    # A recording stand-in for os.remove: a failed write must never ask
    # to remove /dev/full, nor a link to a regular file (as /dev/stdout
    # is when stdout goes to one), while a regular file's is removed.
    from heiscalc import cli

    removed = []
    monkeypatch.setattr(os, "remove", removed.append)
    path = {"/dev/full": "/dev/full", "regular": str(tmp_path / "out.txt"),
            "link": str(tmp_path / "link.txt")}[target]
    if target == "link":
        os.symlink(tmp_path / "out.txt", path)
    with pytest.raises(cli._Failure) as failure:
        with cli._output(path) as handle:
            handle.write("text")
            if target != "/dev/full":
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
    assert str(failure.value) == f"cannot write {path}: {os.strerror(errno.ENOSPC)}"
    assert removed == ([path] if target == "regular" else [])


def test_library_value_error_exits_two_and_other_errors_propagate(run_cli, monkeypatch):
    # Bad input is a ValueError wherever a command finds it, the library
    # included; any other exception is a fault and is not turned into exit 2.
    import heiscalc.rumin as rumin_mod

    def refusing(k, n):
        raise ValueError("injected refusal")

    monkeypatch.setattr(rumin_mod, "basis_I", refusing)
    result = run_cli(["complex", "--n", "2"])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == "Error: injected refusal\n"

    def crashing(k, n):
        raise RuntimeError("injected failure")

    monkeypatch.setattr(rumin_mod, "basis_I", crashing)
    result = run_cli(["complex", "--n", "2"])
    assert isinstance(result.exception, RuntimeError)
    assert result.stderr == ""


def test_mobius_worker_past_the_file_size_limit_is_one_line(fresh_python, tmp_path):
    # Only the worker (r-rows 32..63) has RLIMIT_FSIZE: its reason joins
    # the one Error line, and the worker prints nothing of its own.
    script = (
        "import resource, sys\n"
        "from heiscalc import cli\n"
        "cli._cpus = lambda: 2\n"
        "part = cli._scan_csv_part\n"
        "def limited(surface, grid, lo, hi, out, search=None):\n"
        "    if lo:\n"
        "        resource.setrlimit(resource.RLIMIT_FSIZE, (65536, 65536))\n"
        "    return part(surface, grid, lo, hi, out, search=search)\n"
        "cli._scan_csv_part = limited\n"
        "cli.main(sys.argv[1:])\n"
    )
    out = tmp_path / "made"
    result = fresh_python(["-c", script, "mobius", "-R", "0.2", "-w", "0.15", "--grid", "64x64",
                           "--out", str(out)], capture_output=True, text=True)
    assert result.returncode == 1
    assert result.stderr == (
        f"Error: writing {out / 'mobius_scan.csv'} failed: the worker for r-rows 32..63 exited "
        f"with status 1: OSError: [Errno {errno.EFBIG}] {os.strerror(errno.EFBIG)}\n")
    assert os.listdir(tmp_path) == []


def test_mobius_out_directory_that_cannot_be_made_is_one_error_line(fresh_python, tmp_path):
    # The last component passes NAME_MAX: makedirs makes mk and mk/made,
    # then fails; the run prints one line and removes both.
    out = tmp_path / "mk" / "made" / ("a" * 300)
    result = fresh_python(["-m", "heiscalc.cli", "mobius", "-R", "0.2", "-w", "0.15", "--grid", "64x64",
                           "--out", str(out)], capture_output=True, text=True)
    assert result.returncode == 1
    assert result.stderr == f"Error: cannot write {out}: {os.strerror(errno.ENAMETOOLONG)}\n"
    assert os.listdir(tmp_path) == []


# -- the exit without teardown ----------------------------------------------------

# OUT stands for a directory of the test's own; the exit code follows each command.
_EXIT_COMMANDS = [
    ("dims", 0),
    ("complex --n 4 --format json", 0),
    ("verify --n 1 --trials 2", 0),
    ("verify --n 1 --trials 2 --out OUT/verify.txt", 0),
    ("commute --map dilation:r=2 --n 1 --trials 2", 0),
    ("mobius -R 0.2 -w 0.15 --grid 64x64 --out OUT", 0),
    ("verify --n 5", 2),
]


def _artifacts(directory: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in directory.iterdir()}


@pytest.mark.parametrize("command, code", _EXIT_COMMANDS)
def test_exit_without_teardown_loses_no_byte(run_cli, fresh_python, tmp_path, command, code):
    # `python -m heiscalc.cli` flushes stdout and stderr and leaves through
    # os._exit; it prints, writes and exits as the in-process run does.
    args = command.replace("OUT", str(tmp_path)).split(" ")
    here = run_cli(args)
    assert here.exit_code == code, here.output
    written = _artifacts(tmp_path)
    for path in tmp_path.iterdir():
        path.unlink()
    process = fresh_python(["-m", "heiscalc.cli", *args], capture_output=True)
    assert process.returncode == code, process.stderr
    assert process.stdout == here.stdout.encode()
    assert process.stderr == here.stderr.encode()
    assert _artifacts(tmp_path) == written


def test_commands_leave_nothing_open(fresh_python, tmp_path):
    # The exit without teardown flushes only stdout and stderr, so every
    # file a command opens must be closed when main returns.  Under -X dev
    # a file left to the collector raises a ResourceWarning, which this
    # error filter makes an exception that is printed to stderr.
    commands = [(command.replace("OUT", str(tmp_path)).split(" "), code)
                for command, code in _EXIT_COMMANDS]
    script = (
        "import gc, sys\n"
        "from heiscalc import cli\n"
        f"for args, code in {commands!r}:\n"
        "    assert cli.main(args, standalone_mode=False) == code, args\n"
        "    gc.collect()\n"
    )
    result = fresh_python(["-X", "dev", "-W", "error::ResourceWarning", "-c", script],
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    assert result.returncode == 0, result.stderr
    # nothing but the message of `verify --n 5`
    assert result.stderr == "Error: verification suites support n in {1, 2, 3}\n"


def _imported_modules(stderr: str) -> set[str]:
    """The modules that `python -X importtime` listed in `stderr`."""
    return {line.rsplit("|", 1)[1].strip() for line in stderr.splitlines()
            if line.startswith("import time:")}


def test_mobius_refuses_oversized_grid_before_loading_numpy(tmp_path, fresh_python):
    # 10^20 nodes: the node bound exits 2 before surface or numpy is
    # imported, so nothing is allocated and no artifact is written.  The
    # command line leaves through os._exit, so the modules it loaded are
    # read from -X importtime rather than from sys.modules afterwards.
    out = tmp_path / "out"
    args = ["mobius", "-R", "0.2", "-w", "0.15", "--grid", "10000000000x10000000000",
            "--out", str(out)]
    result = fresh_python(["-X", "importtime", "-m", "heiscalc.cli", *args],
                          capture_output=True, text=True)
    assert result.returncode == 2, result.stderr
    assert "Traceback" not in result.stderr
    assert "Error: grid 10000000000x10000000000 has more than 16777216 nodes\n" in result.stderr
    imported = _imported_modules(result.stderr)
    assert "heiscalc" in imported  # cli itself runs as __main__
    loaded = [m for m in ("numpy", "heiscalc.surface") if m in imported]
    assert not loaded, loaded
    assert not out.exists()


def test_mobius_grid_node_bound(run_cli, tmp_path, monkeypatch):
    from heiscalc import cli

    monkeypatch.setattr(cli, "_MAX_GRID_NODES", 64 * 65)
    args = ["mobius", "-R", "0.2", "-w", "0.15", "--out", str(tmp_path)]
    assert run_cli([*args, "--grid", "64x65"]).exit_code == 0
    result = run_cli([*args, "--grid", "65x65"])
    assert result.exit_code == 2
    assert "has more than 4160 nodes" in result.stderr


# Runs `python -m heiscalc.cli ARGS` in a child of this small interpreter
# and prints the child's exit code and peak RSS in KiB.  A child spawned
# straight from pytest would report at least pytest's own peak, which a
# vfork-exec carries over.
_PEAK_RSS = """
import os, sys
pid = os.fork()
if pid == 0:
    os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
    os.execv(sys.executable, [sys.executable, "-m", "heiscalc.cli", *sys.argv[1:]])
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in KiB on Linux")
def test_mobius_memory_does_not_grow_with_the_grid(tmp_path, fresh_python):
    # The scan, the search and the CSV parts read the grid in tiles of a
    # fixed number of nodes, so 32 or 64 times the nodes costs well under
    # 4 MB more, however wide the grid.  Holding the three result grids
    # cost about 17 MB more at 1024x512, and evaluating whole r-rows
    # about 60 MB more at 64x16384.
    peaks = []
    for grid in ("128x128", "1024x512", "64x16384"):
        args = ["mobius", "-R", "0.2", "-w", "0.15", "--grid", grid, "--out", str(tmp_path)]
        result = fresh_python(["-c", _PEAK_RSS, *args], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        code, peak_kib = map(int, result.stdout.split())
        assert code == 0
        peaks.append(peak_kib / 1024)
    assert max(peaks[1:]) - peaks[0] < 4, peaks


def test_mobius_leaves_symbolic_layers_unloaded(tmp_path, fresh_python):
    # mobius imports only cli and surface: coeff, frame, rumin, contact and
    # sampling are neither compiled nor loaded.
    args = ["mobius", "-R", "0.2", "-w", "0.15", "--grid", "64x64", "--out", str(tmp_path)]
    result = fresh_python(["-X", "importtime", "-m", "heiscalc.cli", *args],
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    assert result.returncode == 0, result.stderr
    imported = _imported_modules(result.stderr)
    assert "heiscalc.surface" in imported
    names = ("coeff", "frame", "rumin", "contact", "sampling")
    loaded = [m for m in names if "heiscalc." + m in imported]
    assert not loaded, loaded
