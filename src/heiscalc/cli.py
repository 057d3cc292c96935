"""Command-line front end.

Subcommands: dims (dimension tables), complex (subspace bases),
verify (exactness, lifting, subspace and d_c suites), commute
(pullback commutation for a map literal), mobius (characteristic-point
scan).  Output is text, CSV, or JSON; rationals stay "p/q" strings in
JSON so nothing exact is rounded.  Exit codes: 0 success, 1 a
verification check failed, 2 bad input or precondition.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import sys

import click

from . import contact, rumin
from .frame import Form, blade_name


def _form_text(alpha: Form) -> str:
    items = alpha.sorted_items()
    if not items:
        return "0"
    parts = [
        f"({coeff.to_text()}) {blade_name(alpha.n, blade)}"
        for blade, coeff in items
    ]
    return " + ".join(parts)


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as handle:
            handle.write(text)
    else:
        click.echo(text, nl=False)


def _json_dump(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _csv_text(header: list[str], rows: list[list]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


format_option = click.option(
    "--format", "fmt", type=click.Choice(["json", "csv", "text"]), default="text",
    show_default=True, help="output format",
)
out_option = click.option("--out", type=click.Path(dir_okay=False, writable=True),
                          default=None, help="write output to a file instead of stdout")


@click.group()
def main() -> None:
    """Exact Rumin-complex calculator on the Heisenberg group H^n."""


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
        raise click.UsageError(f"n range must lie within 1..8, got {spec!r}")
    return lo, hi


@main.command()
@click.option("--n", "n_spec", default="1..5", show_default=True,
              help="ambient parameter, a single value or a range lo..hi")
@format_option
@out_option
def dims(n_spec: str, fmt: str, out: str | None) -> None:
    """Dimension table of the complex: rows (n, k, dim Omega, dim I, dim quotient)."""
    try:
        lo, hi = _parse_n_range(n_spec)
    except ValueError:
        raise click.UsageError(f"cannot parse n range {n_spec!r}")
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


@main.command(name="complex")
@click.option("--n", type=int, required=True, help="ambient parameter (1, 2, or 3)")
@click.option("--k", type=int, default=None, help="restrict to one degree")
@format_option
@out_option
def complex_cmd(n: int, k: int | None, fmt: str, out: str | None) -> None:
    """Bases of I^k, J^k, and the quotient complement per degree."""
    if n not in (1, 2, 3):
        raise click.UsageError("complex listing supports n in {1, 2, 3}")
    top = 2 * n + 1
    if k is not None and not 1 <= k <= top:
        raise click.UsageError(f"degree k must lie in 1..{top}")
    degrees = [k] if k is not None else list(range(1, top + 1))
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


@main.command()
@click.option("--n", type=int, required=True, help="ambient parameter (1 or 2)")
@click.option("--trials", type=int, default=100, show_default=True)
@click.option("--seed", type=int, default=42, show_default=True)
@click.option("--degree", type=int, default=3, show_default=True,
              help="degree bound for random polynomial coefficients")
@format_option
@out_option
@click.pass_context
def verify(ctx, n: int, trials: int, seed: int, degree: int, fmt: str, out: str | None) -> None:
    """Run the exactness, lifting, subspace-preservation, and d_c suites."""
    if n not in (1, 2):
        raise click.UsageError("verification suites support n in {1, 2}")
    if trials < 1 or degree < 0:
        raise click.UsageError("trials must be >= 1 and degree >= 0")
    suites = [
        rumin.verify_complex(n, trials=trials, seed=seed, degree=degree),
        rumin.verify_lifting(n, trials=trials, seed=seed, degree=degree),
        contact.verify_subspaces(n, seed=seed),
        rumin.verify_dc(n, trials=trials, seed=seed, degree=degree),
    ]
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
    if not passed:
        ctx.exit(1)


# ---------------------------------------------------------------------------
# commute


@main.command()
@click.option("--map", "map_literal", required=True,
              help='map literal, e.g. "dilation:r=2" or "compose:dilation:r=2;translate:q=1,0,0"')
@click.option("--n", type=int, required=True, help="ambient parameter (1, 2, or 3)")
@click.option("--k", type=int, default=None, help="restrict to one degree (default: all)")
@click.option("--trials", type=int, default=50, show_default=True)
@click.option("--seed", type=int, default=42, show_default=True)
@click.option("--degree", type=int, default=3, show_default=True)
@format_option
@out_option
@click.pass_context
def commute(ctx, map_literal: str, n: int, k: int | None, trials: int, seed: int,
            degree: int, fmt: str, out: str | None) -> None:
    """Check that pullback by a contact map commutes with the Rumin operators."""
    if n not in (1, 2, 3):
        raise click.UsageError("commutation checks support n in {1, 2, 3}")
    if trials < 1 or degree < 0:
        raise click.UsageError("trials must be >= 1 and degree >= 0")
    try:
        f = contact.parse_map(map_literal, n)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    try:
        contact._require_contact(f)
    except ValueError as exc:
        click.echo(str(exc), err=True)
        ctx.exit(2)
    if k is not None and not 0 <= k <= 2 * n:
        raise click.UsageError(f"degree k must lie in 0..{2 * n}")
    degrees = [k] if k is not None else list(range(0, 2 * n + 1))
    reports = [
        contact.commute_check(f, deg, trials=trials, seed=seed, degree=degree)
        for deg in degrees
    ]
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
    if not passed:
        ctx.exit(1)


# ---------------------------------------------------------------------------
# mobius


def _parse_grid(spec: str) -> tuple[int, int]:
    for sep in ("x", "X", ","):
        if sep in spec:
            a, b = spec.split(sep, 1)
            return int(a), int(b)
    raise ValueError(f"cannot parse grid {spec!r}; expected e.g. 1024x512")


def _write_scan_csv(path: str, data: dict) -> None:
    # One r-row of 5-column lines at a time, shortest round-trip reprs.
    # No field holds a comma or quote, so the bytes are those csv.writer
    # would write, without building the whole file in memory.
    s_texts = [repr(s) for s in data["s"].tolist()]
    n1, n2, n3 = data["N1"], data["N2"], data["N3"]
    with open(path, "w") as handle:
        handle.write("r,s,N1,N2,N3\n")
        for i, r in enumerate(data["r"].tolist()):
            r_text = repr(r)
            handle.writelines(
                f"{r_text},{s},{a!r},{b!r},{c!r}\n"
                for s, a, b, c in zip(s_texts, n1[i].tolist(), n2[i].tolist(), n3[i].tolist())
            )


@main.command()
@click.option("--radius", "-R", type=float, required=True, help="midcircle radius R")
@click.option("--half-width", "-w", type=float, required=True, help="strip half-width w")
@click.option("--grid", "grid_spec", default="1024x512", show_default=True)
@click.option("--tol", type=float, default=1e-10, show_default=True)
@click.option("--out", type=click.Path(file_okay=False), default=".", show_default=True,
              help="directory receiving mobius_scan.csv and mobius_points.json")
@format_option
@click.pass_context
def mobius(ctx, radius: float, half_width: float, grid_spec: str, tol: float,
           out: str, fmt: str) -> None:
    """Scan the Mobius strip for characteristic points and write scan artifacts."""
    if not 0 < half_width < radius:
        raise click.UsageError(f"need 0 < w < R, got R={radius}, w={half_width}")
    if not (math.isfinite(radius) and math.isfinite(half_width)):
        raise click.UsageError(f"R and w must be finite, got R={radius}, w={half_width}")
    try:
        grid = _parse_grid(grid_spec)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    if grid[0] < 64 or grid[1] < 64:
        raise click.UsageError("grid must be at least 64x64")
    if not tol > 0:
        raise click.UsageError("tolerance must be positive")
    if not math.isfinite(tol):
        raise click.UsageError("tolerance must be finite")
    # numpy is imported here, not at module level, so the symbolic
    # subcommands start without it.
    from . import surface

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
        click.echo(_json_dump(payload), nl=False)
    elif fmt == "csv":
        rows = [[p["r"], p["s"], p["residual"], p["boundary"]] for p in result.to_json()]
        click.echo(_csv_text(["r", "s", "residual", "boundary"], rows), nl=False)
    else:
        lines = [f"Mobius strip R={radius}, w={half_width}: "
                 f"{len(result.points)} characteristic point(s)"]
        for p in result.points:
            lines.append(f"  (r, s) = ({p.r:.12g}, {p.s:.12g}), residual {p.residual:.3g}"
                         + (", on boundary" if p.boundary else ""))
        if result.failures:
            lines.append(f"  {len(result.failures)} candidate cell(s) did not converge")
        lines.append(f"scan written to {scan_path}, points to {points_path}")
        click.echo("\n".join(lines))
    ctx.exit(0)


if __name__ == "__main__":
    main()
