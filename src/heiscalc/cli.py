"""Command-line front end.

Subcommands: dims (dimension tables), complex (subspace bases),
verify (exactness, lifting, subspace and d_c suites), commute
(pullback commutation for a map literal), mobius (characteristic-point
scan).  Output is text, CSV, or JSON; rationals stay "p/q" strings in
JSON so nothing exact is rounded.  Exit codes: 0 success, 1 a
verification check failed or a forked worker (verify, commute, the
mobius scan CSV) failed, 2 bad input or precondition.

The parser is the standard library's argparse: it loads in a fraction
of the time a third-party one would, and start-up is a large share of
each short run.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import marshal
import math
import os
import sys
from functools import partial
from typing import TYPE_CHECKING, BinaryIO, Callable, Iterator, NoReturn

if TYPE_CHECKING:
    from .frame import Form

# The symbolic layers (frame, rumin, contact) are imported inside the
# subcommands that use them, so `mobius` starts without compiling them.


class _Failure(Exception):
    """Ends a command with `Error: <message>` on stderr and exit `code`:
    2 for bad input, 1 for a failed forked worker."""

    def __init__(self, message: str, code: int) -> None:
        super().__init__(message)
        self.code = code


def _form_text(alpha: Form) -> str:
    from .frame import _term_text

    return " + ".join(_term_text(alpha.n, blade, coeff) for blade, coeff in alpha.sorted_items()) or "0"


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _json_dump(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _csv_text(header: list[str], rows: list[list]) -> str:
    import csv

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


# ---------------------------------------------------------------------------
# forked parts


def _cpus() -> int:
    """CPUs this process may run on; 1 where fork or the affinity mask is missing."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


@contextlib.contextmanager
def _forked(what: str, parts: list[tuple[str, Callable[[BinaryIO], None]]],
            tmp_dir: str | None = None) -> Iterator[Callable[[BinaryIO], None]]:
    """Run each (name, part) of `parts` in a forked worker while the
    with-block runs in this process.

    Each worker calls its part on an unnamed temporary file in `tmp_dir`
    and leaves through os._exit, so it never returns into the caller's
    stack (the command line, a test runner, a tracer).  The block gets
    `append_to(out)`, which reaps the workers in order and appends each
    one's file to `out`; a worker that failed raises a _Failure (exit 1)
    naming its part.  However the block ends, every worker is
    reaped and the temporary files vanish with their descriptors.
    """
    workers = []  # [pid, temporary file, name]; pid is None unless a child is running

    def append_to(out: BinaryIO) -> None:
        for worker in workers:
            pid, output, name = worker
            status = os.waitpid(pid, 0)[1]
            worker[0] = None
            code = os.waitstatus_to_exitcode(status)
            if code != 0:
                raise _Failure(
                    f"{what} failed: the worker for {name} exited with status {code}", 1)
            output.seek(0)
            # 64 KiB at a time, as shutil.copyfileobj reads on Linux
            while chunk := output.read(65536):
                out.write(chunk)

    try:
        for name, part in parts:
            import tempfile  # only a run that forks loads it
            workers.append([None, tempfile.TemporaryFile(dir=tmp_dir), name])
            pid = os.fork()
            if pid == 0:
                _worker(part, workers[-1][1].fileno(), f"{what}: the worker for {name}")
            workers[-1][0] = pid
        yield append_to
    finally:
        for pid, output, _ in workers:
            if pid is not None:
                os.waitpid(pid, 0)
            output.close()


def _worker(part: Callable[[BinaryIO], None], fd: int, label: str) -> NoReturn:
    # Runs in a forked child and leaves only through os._exit.  The part
    # gets a write-only handle: a text layer over a readable one would
    # reset its decoder on every write.
    status = 1
    try:
        with open(fd, "wb", closefd=False) as handle:
            part(handle)
        status = 0
    except BaseException as exc:
        os.write(2, f"{label}: {exc!r}\n".encode())
    finally:
        os._exit(status)


def _run_jobs(what: str, jobs: list[tuple[str, Callable]], in_worker: list[int]) -> list:
    """The results of `jobs`, (name, callable) pairs, in job order.

    With a second CPU the jobs at the indices `in_worker` run in one
    forked worker while the others run here; otherwise all run here, in
    order.  The split is fixed, so this process makes the same calls on
    every run.  Each job seeds its own generator, so no result depends
    on the split.

    Every part's results, this process's too, travel by the built-in
    `marshal`: it round-trips dict, list, str, int, bool and None
    exactly and raises on other types, which in the worker is a
    _Failure (exit 1) naming the part.
    """

    def dump(part: list[int], out: BinaryIO) -> None:
        marshal.dump([jobs[i][1]() for i in part], out)

    every = range(len(jobs))
    if in_worker and _cpus() > 1:
        parts = [[i for i in every if i not in in_worker], in_worker]
    else:
        parts = [list(every)]
    out = io.BytesIO()
    with _forked(what, [(", ".join(jobs[i][0] for i in part), partial(dump, part))
                        for part in parts[1:]]) as append_to:
        dump(parts[0], out)
        append_to(out)
    out.seek(0)
    results = {}
    for part in parts:
        results.update(zip(part, marshal.load(out)))
    return [results[i] for i in every]


# ---------------------------------------------------------------------------
# dims


def _parse_n_range(spec: str) -> tuple[int, int]:
    spec = spec.strip()
    if ".." in spec:
        lo_text, hi_text = spec.split("..", 1)
        lo, hi = int(lo_text), int(hi_text)
    else:
        lo = hi = int(spec)
    if not (1 <= lo <= hi <= 8):
        raise _Failure(f"n range must lie within 1..8, got {spec!r}", 2)
    return lo, hi


def dims(n_spec: str, fmt: str, out: str | None) -> None:
    """Dimension table of the complex: rows (n, k, dim Omega, dim I, dim quotient)."""
    try:
        lo, hi = _parse_n_range(n_spec)
    except ValueError:
        raise _Failure(f"cannot parse n range {n_spec!r}", 2)
    from . import rumin

    rows = []
    for n in range(lo, hi + 1):
        for k in range(1, n + 1):
            dim_omega, dim_i, dim_quotient, _ = rumin.dims(k, n)
            rows.append([n, k, dim_omega, dim_i, dim_quotient])
    if fmt == "json":
        payload = [
            {"n": r[0], "k": r[1], "dim_omega": r[2], "dim_I": r[3], "dim_quotient": r[4]}
            for r in rows
        ]
        _emit(_json_dump(payload), out)
    elif fmt == "csv":
        _emit(_csv_text(["n", "k", "dim_omega", "dim_I", "dim_quotient"], rows), out)
    else:
        lines = [f"{'n':>2} {'k':>2} {'dim Omega^k':>12} {'dim I^k':>8} {'dim Omega/I':>12}"]
        lines += [f"{r[0]:>2} {r[1]:>2} {r[2]:>12} {r[3]:>8} {r[4]:>12}" for r in rows]
        _emit("\n".join(lines) + "\n", out)


# ---------------------------------------------------------------------------
# complex


def complex_cmd(n: int, k: int | None, fmt: str, out: str | None) -> None:
    """Bases of I^k, J^k, and the quotient complement per degree."""
    if n not in (1, 2, 3, 4):
        raise _Failure("complex listing supports n in {1, 2, 3, 4}", 2)
    top = 2 * n + 1
    if k is not None and not 1 <= k <= top:
        raise _Failure(f"degree k must lie in 1..{top}", 2)
    degrees = [k] if k is not None else list(range(1, top + 1))
    from . import rumin

    entries = []
    for deg in degrees:
        basis_i = rumin.basis_I(deg, n)
        basis_j = rumin.basis_J(deg, n)
        entry = {
            "k": deg,
            "dim_omega": math.comb(top, deg),
            "dim_I": basis_i.dim,
            "dim_J": basis_j.dim,
            "I": [_form_text(e) for e in basis_i.elements],
            "J": [_form_text(e) for e in basis_j.elements],
        }
        if deg <= n:
            quotient = rumin.basis_quotient(deg, n)
            entry["dim_quotient"] = quotient.dim
            entry["quotient"] = [_form_text(e) for e in quotient.elements]
        entries.append(entry)
    payload = {"n": n, "degrees": entries}
    if fmt == "json":
        _emit(_json_dump(payload), out)
    elif fmt == "csv":
        rows = []
        for entry in entries:
            for space in ("I", "J", "quotient"):
                for idx, text in enumerate(entry.get(space, [])):
                    rows.append([entry["k"], space, idx, text])
        _emit(_csv_text(["k", "space", "index", "form"], rows), out)
    else:
        lines = [f"Rumin complex data for H^{n}"]
        for entry in entries:
            lines.append(
                f"degree {entry['k']}: dim Omega = {entry['dim_omega']}, "
                f"dim I = {entry['dim_I']}, dim J = {entry['dim_J']}"
                + (f", dim Omega/I = {entry['dim_quotient']}" if "dim_quotient" in entry else "")
            )
            for space in ("I", "J", "quotient"):
                if entry.get(space):
                    lines.append(f"  {space}^{entry['k']}:")
                    lines.extend(f"    {text}" for text in entry[space])
        _emit("\n".join(lines) + "\n", out)


# ---------------------------------------------------------------------------
# verify


def verify(n: int, trials: int, seed: int, degree: int, fmt: str, out: str | None) -> int:
    """Run the exactness, lifting, subspace-preservation, and d_c suites."""
    if n not in (1, 2, 3):
        raise _Failure("verification suites support n in {1, 2, 3}", 2)
    if trials < 1 or degree < 0:
        raise _Failure("trials must be >= 1 and degree >= 0", 2)
    from . import contact, rumin

    sampled = {"trials": trials, "seed": seed, "degree": degree}
    jobs = [
        ("complex-exactness", partial(rumin.verify_complex, n, **sampled)),
        ("lifting", partial(rumin.verify_lifting, n, **sampled)),
        ("subspace-preservation", partial(contact.verify_subspaces, n, seed=seed)),
        ("dc-agreement", partial(rumin.verify_dc, n, **sampled)),
    ]
    # The first three cost about what d_c costs alone; d_c, whose d0/P
    # layers no other suite runs, stays in this process.
    suites = _run_jobs("verify", jobs, in_worker=[0, 1, 2])
    passed = all(s["passed"] for s in suites)
    payload = {"command": "verify", "n": n, "trials": trials, "seed": seed,
               "passed": passed, "suites": suites}
    if fmt == "json":
        _emit(_json_dump(payload), out)
    elif fmt == "csv":
        rows = []
        for s in suites:
            for c in s.get("checks", [{"name": s["suite"], "passed": s["passed"]}]):
                rows.append([s["suite"], c["name"], "pass" if c["passed"] else "FAIL"])
        _emit(_csv_text(["suite", "check", "status"], rows), out)
    else:
        lines = []
        for s in suites:
            status = "pass" if s["passed"] else "FAIL"
            lines.append(f"{s['suite']} (n={n}): {status}")
            for c in s.get("checks", []):
                mark = "pass" if c["passed"] else "FAIL"
                lines.append(f"  {c['name']}: {mark}")
                if not c["passed"] and c.get("counterexample"):
                    lines.append(f"    counterexample: {json.dumps(c['counterexample'])}")
        lines.append(f"overall: {'pass' if passed else 'FAIL'}")
        _emit("\n".join(lines) + "\n", out)
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# commute


def commute(map_literal: str, n: int, k: int | None, trials: int, seed: int,
            degree: int, fmt: str, out: str | None) -> int:
    """Check that pullback by a contact map commutes with the Rumin operators."""
    if n not in (1, 2, 3):
        raise _Failure("commutation checks support n in {1, 2, 3}", 2)
    if trials < 1 or degree < 0:
        raise _Failure("trials must be >= 1 and degree >= 0", 2)
    from . import contact

    try:
        f = contact.parse_map(map_literal, n)
    except ValueError as exc:
        raise _Failure(str(exc), 2)
    try:
        contact._require_contact(f)
    except ValueError as exc:
        sys.stderr.write(f"{exc}\n")
        return 2
    if k is not None and not 0 <= k <= 2 * n:
        raise _Failure(f"degree k must lie in 0..{2 * n}", 2)
    degrees = [k] if k is not None else list(range(0, 2 * n + 1))
    jobs = [
        (f"k={deg}", partial(contact.commute_check, f, deg, trials=trials, seed=seed, degree=degree))
        for deg in degrees
    ]
    # Even k here and odd k in the worker cost about the same.
    reports = _run_jobs("commute", jobs, in_worker=list(range(1, len(jobs), 2)))
    passed = all(r["passed"] for r in reports)
    payload = {"command": "commute", "map": f.label(), "n": n, "passed": passed,
               "reports": reports}
    if fmt == "json":
        _emit(_json_dump(payload), out)
    elif fmt == "csv":
        rows = [[r["k"], r["operator"], "pass" if r["passed"] else "FAIL"] for r in reports]
        _emit(_csv_text(["k", "operator", "status"], rows), out)
    else:
        lines = [f"commutation for {f.label()} on H^{n}:"]
        for r in reports:
            mark = "pass" if r["passed"] else "FAIL"
            lines.append(f"  k={r['k']} ({r['operator']}): {mark}")
            if not r["passed"]:
                lines.append(f"    counterexample: {json.dumps(r['counterexample'])}")
        lines.append(f"overall: {'pass' if passed else 'FAIL'}")
        _emit("\n".join(lines) + "\n", out)
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# mobius


def _parse_grid(spec: str) -> tuple[int, int]:
    for sep in ("x", "X", ","):
        if sep in spec:
            a, b = spec.split(sep, 1)
            return int(a), int(b)
    raise ValueError(f"cannot parse grid {spec!r}; expected e.g. 1024x512")


# The scan holds three float64 grids and the CSV takes about 100 bytes a
# node: 2^24 nodes need about 0.6 GB of memory and write 1.7 GB.
_MAX_GRID_NODES = 2**24


def _import_surface():
    # numpy is imported here, not at module level, so the symbolic
    # subcommands start without it.  Its OpenBLAS pool is held to one
    # thread: the scan makes no BLAS call, and _write_scan_csv forks,
    # which Python >= 3.12 warns about in a multi-threaded process.  Only
    # the first numpy import reads the variable; the caller's value is
    # restored.
    saved = os.environ.get("OPENBLAS_NUM_THREADS")
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        from . import surface
    finally:
        if saved is None:
            del os.environ["OPENBLAS_NUM_THREADS"]
        else:
            os.environ["OPENBLAS_NUM_THREADS"] = saved
    return surface


def _write_scan_rows(handle, data: dict, lo: int, hi: int) -> None:
    # r-rows lo..hi-1 as 5-column lines, one writelines per r-row, with
    # shortest round-trip reprs.  No field holds a comma or quote, so the
    # bytes are those csv.writer would write.
    s_texts = [repr(s) for s in data["s"].tolist()]
    n1, n2, n3 = data["N1"], data["N2"], data["N3"]
    for i, r in enumerate(data["r"][lo:hi].tolist(), lo):
        r_text = repr(r)
        handle.writelines(
            f"{r_text},{s},{a!r},{b!r},{c!r}\n"
            for s, a, b, c in zip(s_texts, n1[i].tolist(), n2[i].tolist(), n3[i].tolist())
        )


def _scan_csv_parts(rows: int) -> int:
    # One part per CPU this process may run on, never more than rows.
    return max(1, min(_cpus(), rows))


def _write_scan_csv(path: str, data: dict, parts: int | None = None) -> None:
    """Write the scan grid as CSV, formatting contiguous r-row parts in parallel.

    Float reprs dominate the cost, so each part but the first is
    formatted by a forked worker (`_forked`) into a temporary file next
    to `path` while this process formats the first straight into
    `path`.  The workers start before `path` is opened, so they overlap
    the truncation of an earlier CSV.  `parts` defaults to one per
    available CPU.  If anything fails, the partial CSV is removed.
    """
    rows = len(data["r"])
    if parts is None:
        parts = _scan_csv_parts(rows)
    bounds = [rows * k // parts for k in range(parts + 1)]
    workers = [(f"r-rows {lo}..{hi - 1}", partial(_scan_csv_part, data, lo, hi))
               for lo, hi in zip(bounds[1:], bounds[2:])]
    try:
        with _forked(f"writing {path}", workers, os.path.dirname(path) or ".") as append_to, \
                open(path, "wb") as out:
            out.write(b"r,s,N1,N2,N3\n")
            _scan_csv_part(data, 0, bounds[1], out)
            append_to(out)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)
        raise


def _scan_csv_part(data: dict, lo: int, hi: int, out: BinaryIO) -> None:
    text = io.TextIOWrapper(out, encoding="ascii")
    try:
        _write_scan_rows(text, data, lo, hi)
    finally:
        text.detach()  # flushes, and leaves `out` open


def mobius(radius: float, half_width: float, grid_spec: str, tol: float,
           out: str, fmt: str) -> None:
    """Scan the Mobius strip for characteristic points and write scan artifacts."""
    if not 0 < half_width < radius:
        raise _Failure(f"need 0 < w < R, got R={radius}, w={half_width}", 2)
    if not (math.isfinite(radius) and math.isfinite(half_width)):
        raise _Failure(f"R and w must be finite, got R={radius}, w={half_width}", 2)
    try:
        grid = _parse_grid(grid_spec)
    except ValueError as exc:
        raise _Failure(str(exc), 2)
    if grid[0] < 64 or grid[1] < 64:
        raise _Failure("grid must be at least 64x64", 2)
    if grid[0] * grid[1] > _MAX_GRID_NODES:
        raise _Failure(f"grid {grid[0]}x{grid[1]} has more than {_MAX_GRID_NODES} nodes", 2)
    if not tol > 0:
        raise _Failure("tolerance must be positive", 2)
    if not math.isfinite(tol):
        raise _Failure("tolerance must be finite", 2)
    surface = _import_surface()
    surf = surface.mobius_surface(radius, half_width)
    result = surface.find_characteristic_points(surf, grid=grid, tol=tol)

    os.makedirs(out, exist_ok=True)
    scan_path = os.path.join(out, "mobius_scan.csv")
    points_path = os.path.join(out, "mobius_points.json")
    _write_scan_csv(scan_path, result.grid)
    with open(points_path, "w") as handle:
        handle.write(_json_dump(result.to_json()))

    payload = {
        "command": "mobius", "R": radius, "w": half_width,
        "grid": list(grid), "tol": tol,
        "points": result.to_json(),
        "failures": list(result.failures),
        "scan_csv": scan_path, "points_json": points_path,
    }
    if fmt == "json":
        sys.stdout.write(_json_dump(payload))
    elif fmt == "csv":
        rows = [[p["r"], p["s"], p["residual"], p["boundary"]] for p in result.to_json()]
        sys.stdout.write(_csv_text(["r", "s", "residual", "boundary"], rows))
    else:
        lines = [f"Mobius strip R={radius}, w={half_width}: "
                 f"{len(result.points)} characteristic point(s)"]
        for p in result.points:
            lines.append(f"  (r, s) = ({p.r:.12g}, {p.s:.12g}), residual {p.residual:.3g}"
                         + (", on boundary" if p.boundary else ""))
        if result.failures:
            lines.append(f"  {len(result.failures)} candidate cell(s) did not converge")
        lines.append(f"scan written to {scan_path}, points to {points_path}")
        sys.stdout.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# command line


def _file_path(text: str) -> str:
    # --out of dims, complex, verify and commute: a file, maybe not there yet
    if os.path.isdir(text):
        raise argparse.ArgumentTypeError(f"File {text!r} is a directory.")
    if os.path.exists(text) and not os.access(text, os.W_OK):
        raise argparse.ArgumentTypeError(f"File {text!r} is not writable.")
    return text


def _dir_path(text: str) -> str:
    # --out of mobius: a directory, maybe not there yet
    if os.path.exists(text) and not os.path.isdir(text):
        raise argparse.ArgumentTypeError(f"Directory {text!r} is a file.")
    return text


_DEFAULT = "(default: %(default)s)"


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heiscalc", allow_abbrev=False,
        description="Exact Rumin-complex calculator on the Heisenberg group H^n.")
    commands = parser.add_subparsers(metavar="COMMAND", required=True)

    def command(run: Callable, name: str) -> argparse.ArgumentParser:
        sub = commands.add_parser(name, allow_abbrev=False, help=run.__doc__,
                                  description=run.__doc__)
        sub.set_defaults(run=run)
        return sub

    def sampling(sub: argparse.ArgumentParser, trials: int) -> None:
        sub.add_argument("--trials", type=int, default=trials, help=_DEFAULT)
        sub.add_argument("--seed", type=int, default=42, help=_DEFAULT)
        sub.add_argument("--degree", type=int, default=3,
                         help=f"degree bound for random polynomial coefficients {_DEFAULT}")

    def formats(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--format", dest="fmt", choices=["json", "csv", "text"], default="text",
                         help=f"output format {_DEFAULT}")

    def output(sub: argparse.ArgumentParser) -> None:
        formats(sub)
        sub.add_argument("--out", type=_file_path, metavar="FILE",
                         help="write output to a file instead of stdout")

    sub = command(dims, "dims")
    sub.add_argument("--n", dest="n_spec", metavar="N", default="1..5",
                     help=f"ambient parameter, a single value or a range lo..hi {_DEFAULT}")
    output(sub)

    sub = command(complex_cmd, "complex")
    sub.add_argument("--n", type=int, required=True, help="ambient parameter (1, 2, 3, or 4)")
    sub.add_argument("--k", type=int, help="restrict to one degree")
    output(sub)

    sub = command(verify, "verify")
    sub.add_argument("--n", type=int, required=True, help="ambient parameter (1, 2, or 3)")
    sampling(sub, 100)
    output(sub)

    sub = command(commute, "commute")
    sub.add_argument("--map", dest="map_literal", metavar="MAP", required=True,
                     help='map literal, e.g. "dilation:r=2" or "compose:dilation:r=2;translate:q=1,0,0"')
    sub.add_argument("--n", type=int, required=True, help="ambient parameter (1, 2, or 3)")
    sub.add_argument("--k", type=int, help="restrict to one degree (default: all)")
    sampling(sub, 50)
    output(sub)

    sub = command(mobius, "mobius")
    sub.add_argument("-R", "--radius", type=float, required=True, help="midcircle radius R")
    sub.add_argument("-w", "--half-width", type=float, required=True, help="strip half-width w")
    sub.add_argument("--grid", dest="grid_spec", metavar="GRID", default="1024x512", help=_DEFAULT)
    sub.add_argument("--tol", type=float, default=1e-10, help=_DEFAULT)
    sub.add_argument("--out", type=_dir_path, metavar="DIRECTORY", default=".",
                     help=f"directory receiving mobius_scan.csv and mobius_points.json {_DEFAULT}")
    formats(sub)
    return parser


def main(args: list[str] | None = None, standalone_mode: bool = True) -> int:
    """Run one command on `args` (default: sys.argv[1:]).

    Exits the process with the command's code, or with standalone_mode
    false returns it.  Usage errors the parser finds exit 2 either way,
    and --help exits 0, as argparse does.
    """
    options = vars(_parser().parse_args(args))
    run = options.pop("run")
    try:
        code = run(**options) or 0
        sys.stdout.flush()
    except _Failure as exc:
        sys.stderr.write(f"Error: {exc}\n")
        code = exc.code
    except BrokenPipeError:
        # The reader of stdout has gone: exit 1, and send what is still
        # buffered to devnull, or the flush at exit fails again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    if standalone_mode:
        sys.exit(code)
    return code


if __name__ == "__main__":
    main()
