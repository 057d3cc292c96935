"""Shared test helpers."""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest


class CliResult:
    """One in-process run of `heiscalc.cli.main` with its output captured.

    `exception` is what would end the process: a SystemExit carrying a
    non-zero exit code, or the exception that escaped the command; it
    is None on exit 0.
    """

    def __init__(self, args: list[str]) -> None:
        from heiscalc.cli import main

        stdout, stderr = io.StringIO(), io.StringIO()
        self.exception: BaseException | None = None
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                self.exit_code = main(args, standalone_mode=False)
            except SystemExit as exc:  # a usage error or --help, raised by argparse
                self.exit_code = exc.code
            except Exception as exc:
                self.exit_code, self.exception = 1, exc
        if self.exit_code and self.exception is None:
            self.exception = SystemExit(self.exit_code)
        self.stdout, self.stderr = stdout.getvalue(), stderr.getvalue()
        self.output = self.stdout + self.stderr


@pytest.fixture()
def run_cli():
    """`run_cli(args)` runs the command line in-process and returns a CliResult."""
    return CliResult


def _fresh_python(args: list[str], **kwargs) -> subprocess.CompletedProcess:
    """`python *args` in a new interpreter that imports heiscalc from the
    same source tree as this test run; keyword arguments go to
    subprocess.run."""
    import heiscalc

    src = str(Path(heiscalc.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, *args], env=env, **kwargs)


@pytest.fixture()
def fresh_python():
    """`fresh_python(args, **kwargs)` runs Python in a new process; see _fresh_python."""
    return _fresh_python
