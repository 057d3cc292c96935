"""Command-line front end.

Subcommands: dims (dimension tables), complex (subspace bases),
verify (exactness, lifting, subspace and d_c suites), commute
(pullback commutation for a map literal), mobius (characteristic-point
scan).  Output is text, CSV, or JSON; rationals stay "p/q" strings in
JSON so nothing exact is rounded.  Exit codes: 0 success, 1 a
verification check failed, a forked worker (verify, commute, the
mobius scan CSV) failed or an output could not be written, 2 bad input
or precondition.

Each command is a function from its arguments to (exit code, output
text), the text rendered by `_render` in the chosen format; `main`
alone writes it, to stdout or to the --out file.  Every output file is
opened by `_output`, which removes it if its write fails.  Bad input
raises a ValueError wherever it is found, a failed worker or write a
_Failure; `main` prints either as one `Error: <message>` line, with
exit 2 or 1.

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
import stat
import sys
from functools import partial
from typing import TYPE_CHECKING, BinaryIO, Callable, NoReturn

if TYPE_CHECKING:
    from .surface import ParamSurface

# The symbolic layers (frame, rumin, contact) are imported inside the
# subcommands that use them, so `mobius` starts without compiling them.


class _Failure(Exception):
    """A failed forked worker or write: `main` prints `Error: <message>`
    on stderr and exits 1.  Bad input is a ValueError, which exits 2."""


_MARK = {True: "pass", False: "FAIL"}


def _render(fmt: str, payload, header: list[str], rows: list[list], lines: list[str]) -> str:
    """A command's output in `fmt`: `payload` as JSON, `header` and
    `rows` as CSV, or `lines` as text."""
    if fmt == "json":
        return json.dumps(payload, indent=2) + "\n"
    if fmt == "text":
        return "\n".join(lines) + "\n"
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


def _in_parts(what: str, parts: list[tuple[str, Callable[[BinaryIO], object]]], out: BinaryIO,
              tmp_dir: str | None = None):
    """Run each (name, part) of `parts` on `out`, in order, and return
    what the first part returns.

    Every part but the first runs in a forked worker on an unnamed
    temporary file in `tmp_dir`, and leaves through os._exit, so it
    never returns into the caller's stack (the command line, a test
    runner, a tracer).  The first part runs here, straight into `out`;
    then the workers are reaped in order and each one's file is
    appended to `out`.  A worker that failed raises a _Failure (exit 1)
    naming its part and, if it exited with status 1, the reason it left
    in its file.  However this ends, every worker is reaped and the
    temporary files vanish with their descriptors.
    """
    workers = []  # [pid, temporary file, name]; pid is None unless a child is running
    try:
        for name, part in parts[1:]:
            import tempfile  # only a run that forks loads it
            workers.append([None, tempfile.TemporaryFile(dir=tmp_dir), name])
            pid = os.fork()
            if pid == 0:
                _worker(part, workers[-1][1].fileno())
            workers[-1][0] = pid
        result = parts[0][1](out)
        for worker in workers:
            pid, output, name = worker
            worker[0] = None
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            output.seek(0)
            if code != 0:
                reason = output.read().decode(errors="replace") if code == 1 else ""
                raise _Failure(f"{what} failed: the worker for {name} exited with status {code}"
                               + (f": {reason}" if reason else ""))
            # 64 KiB at a time, as shutil.copyfileobj reads on Linux
            while chunk := output.read(65536):
                out.write(chunk)
        return result
    finally:
        for pid, output, _ in workers:
            if pid is not None:
                os.waitpid(pid, 0)
            output.close()


def _worker(part: Callable[[BinaryIO], None], fd: int) -> NoReturn:
    # Runs in a forked child and leaves only through os._exit.  The part
    # gets a write-only handle: a text layer over a readable one would
    # reset its decoder on every write.  A part that fails leaves the
    # reason in the file in place of its output and exits 1; the parent
    # prints it, so nothing here writes to stderr.
    status = 1
    try:
        with open(fd, "wb", closefd=False) as handle:
            part(handle)
        status = 0
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.ftruncate(fd, 0)
            os.pwrite(fd, f"{type(exc).__name__}: {exc}".encode(), 0)
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
    _in_parts(what, [(", ".join(jobs[i][0] for i in part), partial(dump, part)) for part in parts], out)
    out.seek(0)
    results = {}
    for part in parts:
        results.update(zip(part, marshal.load(out)))
    return [results[i] for i in every]


# ---------------------------------------------------------------------------
# dims


def _parse_n_range(spec: str) -> tuple[int, int]:
    text = spec.strip()
    try:
        bounds = [int(part) for part in text.split("..", 1)]
    except ValueError:
        raise ValueError(f"cannot parse n range {spec!r}")
    lo, hi = bounds[0], bounds[-1]
    if not (1 <= lo <= hi <= 8):
        raise ValueError(f"n range must lie within 1..8, got {text!r}")
    return lo, hi


def dims(n_spec: str, fmt: str) -> tuple[int, str]:
    """Dimension table of the complex: rows (n, k, dim Omega, dim I, dim quotient)."""
    lo, hi = _parse_n_range(n_spec)
    from . import rumin

    header = ["n", "k", "dim_omega", "dim_I", "dim_quotient"]
    rows = [[n, k, *rumin.dims(k, n)[:3]] for n in range(lo, hi + 1) for k in range(1, n + 1)]
    lines = [f"{'n':>2} {'k':>2} {'dim Omega^k':>12} {'dim I^k':>8} {'dim Omega/I':>12}"]
    lines += [f"{r[0]:>2} {r[1]:>2} {r[2]:>12} {r[3]:>8} {r[4]:>12}" for r in rows]
    return 0, _render(fmt, [dict(zip(header, r)) for r in rows], header, rows, lines)


# ---------------------------------------------------------------------------
# complex


def complex_cmd(n: int, k: int | None, fmt: str) -> tuple[int, str]:
    """Bases of I^k, J^k, and the quotient complement per degree."""
    if n not in (1, 2, 3, 4):
        raise ValueError("complex listing supports n in {1, 2, 3, 4}")
    top = 2 * n + 1
    if k is not None and not 1 <= k <= top:
        raise ValueError(f"degree k must lie in 1..{top}")
    degrees = [k] if k is not None else list(range(1, top + 1))
    from . import rumin

    entries, rows, lines = [], [], [f"Rumin complex data for H^{n}"]
    for deg in degrees:
        basis_i, basis_j = rumin.basis_I(deg, n), rumin.basis_J(deg, n)
        spaces = {"I": [str(e) for e in basis_i.elements], "J": [str(e) for e in basis_j.elements]}
        entry = {"k": deg, "dim_omega": math.comb(top, deg), "dim_I": basis_i.dim,
                 "dim_J": basis_j.dim, **spaces}
        summary = f"degree {deg}: dim Omega = {entry['dim_omega']}, dim I = {basis_i.dim}, dim J = {basis_j.dim}"
        if deg <= n:
            quotient = rumin.basis_quotient(deg, n)
            spaces["quotient"] = [str(e) for e in quotient.elements]
            entry.update(dim_quotient=quotient.dim, quotient=spaces["quotient"])
            summary += f", dim Omega/I = {quotient.dim}"
        entries.append(entry)
        lines.append(summary)
        for space, texts in spaces.items():
            rows += [[deg, space, idx, text] for idx, text in enumerate(texts)]
            if texts:
                lines.append(f"  {space}^{deg}:")
                lines += [f"    {text}" for text in texts]
    return 0, _render(fmt, {"n": n, "degrees": entries}, ["k", "space", "index", "form"], rows, lines)


# ---------------------------------------------------------------------------
# verify and commute


def _require_representable(what: str, degree: int) -> None:
    """Exit 2 unless a polynomial of total degree `degree` fits the
    ring's monomial keys; `what` names where that degree comes from."""
    from .coeff import MAX_EXPONENT

    if degree > MAX_EXPONENT:
        raise ValueError(f"{what} = {degree} passes {MAX_EXPONENT}, "
                         "the largest exponent a monomial key holds")


def _check_sampling(what: str, n: int, trials: int, degree: int) -> None:
    """Exit 2 unless n, trials and degree suit the sampled checks that
    `what` names."""
    if n not in (1, 2, 3):
        raise ValueError(f"{what} support n in {{1, 2, 3}}")
    if trials < 1 or degree < 0:
        raise ValueError("trials must be >= 1 and degree >= 0")


def verify(n: int, trials: int, seed: int, degree: int, fmt: str) -> tuple[int, str]:
    """Run the exactness, lifting, subspace-preservation, and d_c suites."""
    _check_sampling("verification suites", n, trials, degree)
    from . import contact, rumin

    # The suites' operators never raise a total degree past the inputs'.
    _require_representable("--degree", degree)

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
    rows, lines = [], []
    for s in suites:
        lines.append(f"{s['suite']} (n={n}): {_MARK[s['passed']]}")
        for c in s["checks"]:
            rows.append([s["suite"], c["name"], _MARK[c["passed"]]])
            lines.append(f"  {c['name']}: {_MARK[c['passed']]}")
            if not c["passed"]:
                lines.append(f"    counterexample: {json.dumps(c['counterexample'])}")
    lines.append(f"overall: {_MARK[passed]}")
    return (0 if passed else 1), _render(fmt, payload, ["suite", "check", "status"], rows, lines)


def commute(map_literal: str, n: int, k: int | None, trials: int, seed: int,
            degree: int, fmt: str) -> tuple[int, str]:
    """Check that pullback by a contact map commutes with the Rumin operators."""
    _check_sampling("commutation checks", n, trials, degree)
    from . import contact

    f = contact.parse_map(map_literal, n)
    # A frame matrix entry has degree at most 2m for a map of degree m,
    # so a pulled-back input at most m (degree + 2 (2n+1)); the operators
    # never raise a total degree.
    _require_representable("--degree", degree)
    m = max(c.total_degree() for c in f.components)
    _require_representable(f"the map's degree {m} times (--degree + {4 * n + 2})",
                           m * (degree + 4 * n + 2))
    contact._require_contact(f)
    if k is not None and not 0 <= k <= 2 * n:
        raise ValueError(f"degree k must lie in 0..{2 * n}")
    degrees = [k] if k is not None else list(range(0, 2 * n + 1))
    jobs = [
        (f"k={deg}", partial(contact.commute_check, f, deg, trials=trials, seed=seed, degree=degree))
        for deg in degrees
    ]
    # Even k here and odd k in the worker cost about the same.
    reports = _run_jobs("commute", jobs, in_worker=list(range(1, len(jobs), 2)))
    passed = all(r["passed"] for r in reports)
    label = f.label()
    payload = {"command": "commute", "map": label, "n": n, "passed": passed, "reports": reports}
    rows, lines = [], [f"commutation for {label} on H^{n}:"]
    for r in reports:
        rows.append([r["k"], r["operator"], _MARK[r["passed"]]])
        lines.append(f"  k={r['k']} ({r['operator']}): {_MARK[r['passed']]}")
        if not r["passed"]:
            lines.append(f"    counterexample: {json.dumps(r['counterexample'])}")
    lines.append(f"overall: {_MARK[passed]}")
    return (0 if passed else 1), _render(fmt, payload, ["k", "operator", "status"], rows, lines)


# ---------------------------------------------------------------------------
# mobius


def _parse_grid(spec: str) -> tuple[int, int]:
    for sep in ("x", "X", ","):
        if sep in spec:
            a, b = spec.split(sep, 1)
            try:
                return int(a), int(b)
            except ValueError:
                break
    raise ValueError(f"cannot parse grid {spec!r}; expected e.g. 1024x512")


# The scan is streamed in tiles of a fixed number of nodes, so memory
# grows with neither axis but for about 34 bytes an s-node (the search's
# carried row and the node arrays: 37.5 MB peak RSS at 64x262144); what
# the bound caps is the CSV, about 100 bytes a node: 2^24 nodes write
# 1.7 GB.
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


# CSV lines joined into one string for one write: an r-row of a grid
# 256 wide.  Joining the 2048-line r-rows of a wider grid's tiles raised
# the peak RSS of `--grid 64x16384` by 0.9 MB.
_CSV_LINES = 256


def _scan_rows_writer(handle, surface: ParamSurface, grid: tuple[int, int],
                      hi: int) -> Callable[[int, int, tuple], None]:
    # A consumer of the scan's (i, j, (N1, N2, N3)) tiles, which come in
    # row-major order: it writes their r-rows below hi as 5-column lines
    # with shortest round-trip reprs.  The s-reprs of a tile's columns
    # are made once and kept as one comma-joined string, about 20 bytes
    # an s-node, which is split into a list only while the writer is on
    # that tile's columns.  No field holds a comma or quote, so the bytes
    # are those csv.writer would write.
    from .surface import _grid_nodes

    r_nodes, s_nodes = _grid_nodes(surface, grid)
    joined: dict[int, str] = {}
    texts_at, s_texts = None, []

    def write(i: int, j: int, values: tuple) -> None:
        nonlocal texts_at, s_texts
        if i >= hi:
            return
        n1, n2, n3 = values
        cols = n1.shape[1]
        if j != texts_at:
            if j not in joined:
                joined[j] = ",".join(map(repr, s_nodes[j:j + cols].tolist()))
            texts_at, s_texts = j, joined[j].split(",")
        for k, r in enumerate(r_nodes[i:min(i + len(n1), hi)].tolist()):
            r_text = repr(r)
            for start in range(0, cols, _CSV_LINES):
                run = slice(start, start + _CSV_LINES)
                handle.write("".join([
                    f"{r_text},{s},{a!r},{b!r},{c!r}\n" for s, a, b, c in zip(
                        s_texts[run], n1[k, run].tolist(), n2[k, run].tolist(), n3[k, run].tolist())
                ]))

    return write


def _scan_csv_parts(rows: int) -> int:
    # One part per CPU this process may run on, never more than rows.
    return max(1, min(_cpus(), rows))


def _write_scan_csv(out: BinaryIO, surface: ParamSurface, grid: tuple[int, int],
                    search: Callable | None = None):
    """Write the scan of `surface` on `grid` as CSV to `out`, formatting
    contiguous r-row parts in parallel, and return what `search` returns.

    Float reprs dominate the cost, so the r-rows are cut into one
    contiguous part per available CPU (`_scan_csv_parts`) and handed to
    `_in_parts`: each part but the first is formatted by a forked worker
    into a temporary file next to `out`, while this process formats the
    first straight into `out` as `search(on_tile)` runs here.  `search`
    must hand `on_tile` every tile of the scan, as
    `find_characteristic_points` does, so the first part is written
    from the search's own pass and no node is evaluated twice here;
    without a search, this process reads the first part's own tiles.
    Every part evaluates its rows tile by tile, so no process holds the
    grid, and a band that a part bound cuts is evaluated whole on both
    sides, so the bytes do not depend on the split.  If anything fails,
    every worker is reaped; the partial CSV is the caller's to remove.
    """
    rows = grid[0]
    parts = _scan_csv_parts(rows)
    bounds = [rows * k // parts for k in range(parts + 1)]
    out.write(b"r,s,N1,N2,N3\n")
    out.flush()  # before the workers fork, so none holds the header in its buffer
    return _in_parts(f"writing {out.name}", [
        (f"r-rows {lo}..{hi - 1}",
         partial(_scan_csv_part, surface, grid, lo, hi, search=search if lo == 0 else None))
        for lo, hi in zip(bounds, bounds[1:])], out, os.path.dirname(out.name) or ".")


def _scan_csv_part(surface: ParamSurface, grid: tuple[int, int], lo: int, hi: int,
                   out: BinaryIO, search: Callable | None = None):
    # Formats the r-rows lo..hi-1 into `out`, from the tiles that
    # search(on_tile) hands over or else from this part's own, and
    # returns what search returns.
    text = io.TextIOWrapper(out, encoding="ascii")
    try:
        write = _scan_rows_writer(text, surface, grid, hi)
        if search is not None:
            return search(write)
        from .surface import _scan_blocks

        for i, j, values in _scan_blocks(surface, grid, lo, hi):
            write(i, j, values)
    finally:
        text.detach()  # flushes, and leaves `out` open


def mobius(radius: float, half_width: float, grid_spec: str, tol: float,
           directory: str, fmt: str) -> tuple[int, str]:
    """Scan the Mobius strip for characteristic points and write scan artifacts."""
    # The CSV workers fork as soon as the surface is built, and the
    # search here writes the first part of the CSV from its own tiles
    # (`_write_scan_csv`), so its Newton steps overlap their formatting.
    grid = _parse_grid(grid_spec)
    if grid[0] < 64 or grid[1] < 64:
        raise ValueError("grid must be at least 64x64")
    if grid[0] * grid[1] > _MAX_GRID_NODES:
        raise ValueError(f"grid {grid[0]}x{grid[1]} has more than {_MAX_GRID_NODES} nodes")
    if not tol > 0:
        raise ValueError("tolerance must be positive")
    if not math.isfinite(tol):
        raise ValueError("tolerance must be finite")
    surface = _import_surface()
    surf = surface.mobius_surface(radius, half_width)

    # A failed run removes both artifacts (the points are written in the
    # CSV's block), then the directories it made, which that empties.
    created, _ = _missing_directories(directory)
    scan_path = os.path.join(directory, "mobius_scan.csv")
    points_path = os.path.join(directory, "mobius_points.json")
    try:
        try:
            os.makedirs(directory, exist_ok=True)
        except OSError as exc:
            raise _cannot_write(directory, exc)
        with _output(scan_path, "wb") as out:
            result = _write_scan_csv(out, surf, grid, search=lambda on_tile: (
                surface.find_characteristic_points(surf, grid=grid, tol=tol, on_tile=on_tile)))
            points = result.to_json()
            with _output(points_path) as handle:
                handle.write(json.dumps(points, indent=2) + "\n")
    except BaseException:
        for path in created:
            with contextlib.suppress(OSError):
                os.rmdir(path)
        raise

    payload = {
        "command": "mobius", "R": radius, "w": half_width,
        "grid": list(grid), "tol": tol,
        "points": points,
        "failures": list(result.failures),
        "scan_csv": scan_path, "points_json": points_path,
    }
    rows = [[p["r"], p["s"], p["residual"], p["boundary"]] for p in points]
    lines = [f"Mobius strip R={radius}, w={half_width}: {len(result.points)} characteristic point(s)"]
    for p in result.points:
        lines.append(f"  (r, s) = ({p.r:.12g}, {p.s:.12g}), residual {p.residual:.3g}"
                     + (", on boundary" if p.boundary else ""))
    if result.failures:
        lines.append(f"  {len(result.failures)} candidate cell(s) did not converge")
    lines.append(f"scan written to {scan_path}, points to {points_path}")
    return 0, _render(fmt, payload, ["r", "s", "residual", "boundary"], rows, lines)


# ---------------------------------------------------------------------------
# command line


def _file_path(text: str) -> str:
    # --out of dims, complex, verify and commute: a file, maybe not there
    # yet, in a directory that is there
    if not text:
        raise argparse.ArgumentTypeError("The path is empty.")
    if os.path.isdir(text):
        raise argparse.ArgumentTypeError(f"File {text!r} is a directory.")
    if os.path.exists(text) and not os.access(text, os.W_OK):
        raise argparse.ArgumentTypeError(f"File {text!r} is not writable.")
    parent = os.path.dirname(text) or "."
    if not os.path.isdir(parent):
        raise argparse.ArgumentTypeError(f"Directory {parent!r} does not exist.")
    return text


@contextlib.contextmanager
def _output(path: str, mode: str = "w"):
    """The file `path`, opened in `mode` for the block to write.  If the
    block or the close fails, the file goes if this run opened it, it is
    a regular file and `path` names it, not a link to it (such as
    /dev/stdout); an OSError becomes a _Failure naming `path`."""
    opened = None
    try:
        with open(path, mode) as handle:
            opened = os.fstat(handle.fileno())
            yield handle
    except BaseException as exc:
        if opened is not None and stat.S_ISREG(opened.st_mode):
            with contextlib.suppress(OSError):
                if os.path.samestat(opened, os.lstat(path)):
                    os.remove(path)
        if isinstance(exc, OSError):
            raise _cannot_write(path, exc)
        raise


def _cannot_write(name: str, exc: OSError) -> _Failure:
    return _Failure(f"cannot write {name}: {exc.strerror or exc}")


def _missing_directories(path: str) -> tuple[list[str], str]:
    """The directories from `path` up that do not exist, leaf first, as
    absolute paths, and the nearest ancestor that does."""
    walk = [os.path.abspath(path)]
    while not os.path.lexists(walk[-1]):
        walk.append(os.path.dirname(walk[-1]))
    return walk[:-1], walk[-1]


def _dir_path(text: str) -> str:
    # --out of mobius: a directory, maybe not there yet, whose nearest
    # existing ancestor is a directory, and in which neither artifact is
    # a directory
    if not text:
        raise argparse.ArgumentTypeError("The path is empty.")
    _, ancestor = _missing_directories(text)
    if not os.path.isdir(ancestor):
        raise argparse.ArgumentTypeError(f"{ancestor!r} is a file, not a directory.")
    for name in ("mobius_scan.csv", "mobius_points.json"):
        if os.path.isdir(os.path.join(text, name)):
            raise argparse.ArgumentTypeError(f"{os.path.join(text, name)!r} is a directory.")
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
    sub.add_argument("--out", dest="directory", type=_dir_path, metavar="DIRECTORY", default=".",
                     help=f"directory receiving mobius_scan.csv and mobius_points.json {_DEFAULT}")
    formats(sub)
    return parser


def main(args: list[str] | None = None, standalone_mode: bool = True) -> int:
    """Run one command on `args` (default: sys.argv[1:]).

    Writes the command's text to its --out file or to stdout, then exits
    the process with its code, or with standalone_mode false returns it.
    Usage errors the parser finds exit 2 either way, and --help exits 0,
    as argparse does; an uncaught exception propagates.

    The exit flushes stdout and stderr and leaves through os._exit, as
    the forked workers do: every artifact is closed by its with-block
    and every worker reaped by then, so tearing the interpreter down
    (freeing the cached tables, and numpy for mobius) would only cost
    time.
    """
    options = vars(_parser().parse_args(args))
    run, out = options.pop("run"), options.pop("out", None)
    try:
        try:
            code, text = run(**options)
        except ValueError as exc:  # bad input, wherever the command found it
            sys.stderr.write(f"Error: {exc}\n")
            code, text, out = 2, "", None  # no output, and no --out file
        if out:
            with _output(out) as handle:
                handle.write(text)
        else:
            try:
                sys.stdout.write(text)
                sys.stdout.flush()
            except OSError as exc:
                # The unwritten text goes to devnull, or the exit's flush
                # fails again; a reader that has gone means exit 1, quietly.
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
                if not isinstance(exc, BrokenPipeError):
                    raise _cannot_write("stdout", exc)
                code = 1
    except _Failure as exc:
        sys.stderr.write(f"Error: {exc}\n")
        code = 1
    if not standalone_mode:
        return code
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    main()
