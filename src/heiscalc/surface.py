"""Characteristic points and normal fields of parametrized surfaces in H^1.

A point of a surface is characteristic when the tangent plane equals
the horizontal plane there, i.e. when the Heisenberg normal
N = gamma_r x_H gamma_s has vanishing X and Y components.  This module
rewrites ambient tangent vectors in the left-invariant frame, forms the
frame cross product, and locates zeros of (N_1, N_2) numerically: a
vectorized grid scan flags sign-change cells, then a 2-D Newton
iteration with a finite-difference Jacobian refines each candidate.
The Mobius strip of the characteristic-point analysis ships with
analytic partials and closed-form normal components that double as an
independent oracle for the constructive path.

Root finding is the one deliberately numeric corner of the package
(the zero set involves radicals in cos(r/2), not rationals), and this
module holds only numeric code: it imports no symbolic layer.  The
exact normal-field conversions between the Euclidean and horizontal
frames live in `frame`.

The scan samples the closed parameter rectangle, so a root on a seam
is seen on both edge columns, and the two parameter preimages are
merged by their ambient images.  This covers plain r-periodicity and
the Mobius strip's half twist, gamma(2 pi, s) = gamma(0, -s), alike.
"""

from __future__ import annotations

import math
from random import Random
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

Triple = tuple  # (x, y, t) triples of floats or numpy arrays

# Sample points and tolerance of the finite-difference check of partials.
# The tolerance scales with max(1, the largest |gamma| component at the two
# points differenced), whose rounding reaches the quotient as eps |gamma| / h.
_PARTIALS_SAMPLES = 100
_PARTIALS_TOL = 1e-6
_NEWTON_MAX_ITER = 60  # Newton steps before a candidate counts as a failure


class CharPoint(NamedTuple):
    """A located characteristic point with its residual max(|N1|, |N2|)."""

    r: float
    s: float
    residual: float
    ambient: tuple[float, float, float]
    boundary: bool = False

    def to_json(self) -> dict:
        return {
            "r": self.r,
            "s": self.s,
            "residual": self.residual,
            "ambient": list(self.ambient),
            "boundary": self.boundary,
        }


class ScanResult(NamedTuple):
    """Characteristic points plus any Newton candidates that failed to converge."""

    points: tuple[CharPoint, ...]
    failures: tuple[dict, ...]

    def to_json(self) -> list[dict]:
        return [p.to_json() for p in self.points]


class ParamSurface:
    """A parametrized surface (r, s) -> (x, y, t) with numeric partial evaluators.

    Evaluators must accept scalars, and numpy arrays that broadcast
    against each other: the scan passes r as an (rows, 1) column and
    s as a (1, n_s) row.  Each returned component may be a scalar or an
    array of any shape that broadcasts to (rows, n_s), so a component
    that is constant, or depends on one parameter only, need not be
    spread over the grid by the evaluator.

    Each evaluator is called once on such a column and row, and the
    partials are validated against central finite differences, on
    construction, so a surface that exists can be scanned and is
    internally consistent.  Every way to build one, copies and pickles
    included, goes through `__init__`; the fields cannot be assigned or
    deleted afterwards, and surfaces compare, hash and print by them.
    Seams need no declaration: the scan samples the closed rectangle.
    """

    __slots__ = ("r_range", "s_range", "gamma", "gamma_r", "gamma_s", "name")

    r_range: tuple[float, float]
    s_range: tuple[float, float]
    gamma: Callable
    gamma_r: Callable
    gamma_s: Callable
    name: str

    def __init__(self, r_range: tuple[float, float], s_range: tuple[float, float], gamma: Callable,
                 gamma_r: Callable, gamma_s: Callable, name: str = "surface") -> None:
        for field, value in zip(self.__slots__, (r_range, s_range, gamma, gamma_r, gamma_s, name)):
            object.__setattr__(self, field, value)
        if not (r_range[0] < r_range[1] and s_range[0] < s_range[1]):
            raise ValueError("parameter ranges must be nondegenerate")
        self._validate_partials()

    def _values(self) -> tuple:
        return tuple(getattr(self, field) for field in self.__slots__)

    def __setattr__(self, name: str, *value) -> None:
        raise AttributeError(f"cannot assign or delete field {name!r} of a {type(self).__name__}")

    __delattr__ = __setattr__

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{field}={value!r}" for field, value in zip(self.__slots__, self._values()))
        return f"{type(self).__name__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), self._values()

    def _validate_partials(self) -> None:
        # The scan passes arrays: refuse a scalar-only evaluator (one that
        # calls math.cos, say) here, not from inside a scan.
        r = np.array([[self.r_range[0]], [self.r_range[1]]])
        s = np.array([self.s_range])
        for which in ("gamma", "gamma_r", "gamma_s"):
            try:
                values = getattr(self, which)(r, s)
                for comp in range(3):
                    np.broadcast_to(np.asarray(values[comp], dtype=float), (2, 2))
            except (TypeError, ValueError, IndexError) as exc:
                raise ValueError(
                    f"{which} must accept a (2, 1) r-column and a (1, 2) s-row of numpy "
                    f"arrays and return 3 components that broadcast to (2, 2): {exc}"
                ) from exc
        rng = Random(1913)
        h = 1e-6
        for _ in range(_PARTIALS_SAMPLES):
            r = rng.uniform(*self.r_range)
            s = rng.uniform(*self.s_range)
            for which, partial in (("gamma_r", self.gamma_r), ("gamma_s", self.gamma_s)):
                if which == "gamma_r":
                    plus, minus = self.gamma(r + h, s), self.gamma(r - h, s)
                else:
                    plus, minus = self.gamma(r, s + h), self.gamma(r, s - h)
                exact = partial(r, s)
                scale = max(1.0, *map(abs, plus), *map(abs, minus))
                for comp in range(3):
                    fd = (plus[comp] - minus[comp]) / (2 * h)
                    if not abs(fd - exact[comp]) <= _PARTIALS_TOL * scale:  # nan fails too
                        raise ValueError(
                            f"{which} component {comp} disagrees with finite differences "
                            f"at (r, s) = ({r:.6f}, {s:.6f}): {exact[comp]!r} vs {fd!r}"
                        )


def heis_frame_components(v: Sequence, p: Sequence) -> Triple:
    """Rewrite an ambient tangent vector (v_x, v_y, v_t) at the point p
    (x, y, t) as its frame components (c_X, c_Y, c_T).

    X and Y share the horizontal components; the vertical one picks up
    c_T = v_t + y v_x / 2 - x v_y / 2 because the frame fields tilt out
    of the coordinate planes away from the origin.
    """
    x, y = p[0], p[1]
    return (v[0], v[1], v[2] + y * v[0] / 2 - x * v[1] / 2)


def heis_cross(a: Sequence, b: Sequence) -> Triple:
    """Formal determinant cross product with first row (X, Y, T) of
    two frame triples."""
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def surface_normal(surface: ParamSurface) -> Callable:
    """Evaluator (r, s) -> (N1, N2, N3) built from the frame cross product."""

    def normal(r, s):
        p = surface.gamma(r, s)
        u = heis_frame_components(surface.gamma_r(r, s), p)
        v = heis_frame_components(surface.gamma_s(r, s), p)
        return heis_cross(u, v)

    return normal


def mobius_surface(R: float, w: float) -> ParamSurface:
    """Mobius strip of finite midcircle radius R and half-width w, 0 < w < R.

    gamma(r, s) = ([R + s cos(r/2)] cos r, [R + s cos(r/2)] sin r, s sin(r/2))
    on [0, 2 pi] x [-w, w].  The partials are analytic, not finite
    differences.  The strip closes with a half twist; seam roots are
    caught on the sampled r = 0 and r = 2 pi columns and merged by
    ambient position.
    """
    if not 0 < w < R:
        raise ValueError(f"need 0 < w < R, got R={R}, w={w}")
    if not (math.isfinite(R) and math.isfinite(w)):
        raise ValueError(f"R and w must be finite, got R={R}, w={w}")

    def gamma(r, s):
        half = r / 2
        u = R + s * np.cos(half)
        return (u * np.cos(r), u * np.sin(r), s * np.sin(half))

    def gamma_r(r, s):
        half = r / 2
        u = R + s * np.cos(half)
        du = -s * np.sin(half) / 2
        return (
            du * np.cos(r) - u * np.sin(r),
            du * np.sin(r) + u * np.cos(r),
            s * np.cos(half) / 2,
        )

    def gamma_s(r, s):
        half = r / 2
        z = np.cos(half)
        return (z * np.cos(r), z * np.sin(r), np.sin(half))

    return ParamSurface(
        r_range=(0.0, 2 * math.pi),
        s_range=(-w, w),
        gamma=gamma,
        gamma_r=gamma_r,
        gamma_s=gamma_s,
        name=f"mobius:R={R},w={w}",
    )


def mobius_normal_components(R: float) -> Callable:
    """Closed-form (N1, N2, N3) for the Mobius strip of radius R.

    With u = R + s cos(r/2) and z = cos(r/2):
      N1 = -s sin(r)/2 + u cos(r) sin(r/2) + u^2 cos(r/2) sin(r)/2
      N2 = (-z^5 + z^3/2) s^2 + (-2(R+1) z^4 + (R+3) z^2 - 1/2) s
           - (R^2 + 2R) z^3 + (R^2/2 + 2R) z
      N3 = -u z
    These agree with the frame cross product of the analytic tangents;
    the quadratic N2(0, s) = -(s^2 + (2R-1)s + R^2)/2 drives the
    characteristic-point count.
    """

    def components(r, s):
        half = r / 2
        z = np.cos(half)
        u = R + s * z
        n1 = -s * np.sin(r) / 2 + u * np.cos(r) * np.sin(half) + u * u * z * np.sin(r) / 2
        n2 = (
            (-(z**5) + z**3 / 2) * s * s
            + (-2 * (R + 1) * z**4 + (R + 3) * z**2 - 0.5) * s
            - (R * R + 2 * R) * z**3
            + (R * R / 2 + 2 * R) * z
        )
        n3 = -u * z
        return (n1, n2, n3)

    return components


def mobius_characteristic_closed_form(R: float) -> tuple[float, float] | None:
    """The proof-side root (0, (1 - 2R - sqrt(1 - 4R))/2), or None for R >= 1/4."""
    if R >= 0.25:
        return None
    s = (1 - 2 * R - math.sqrt(1 - 4 * R)) / 2
    return (0.0, s)


# Nodes per evaluation tile: each temporary an evaluator makes, and each
# array a consumer of the tiles holds, is at most one tile in size, at
# any grid width.  On `mobius -R 0.2 -w 0.15 --grid 512x256` (8-row
# tiles, 2 vCPU), 1024, 2048 and 4096 nodes gave a peak RSS of 28.7,
# 28.8 and 29.0 MB and a search of 14, 10 and 7 ms.
_SCAN_NODES = 2048


def _grid_nodes(surface: ParamSurface, grid: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    # The r- and s-nodes of the closed parameter rectangle.
    n_r, n_s = grid
    if n_r < 2 or n_s < 2:
        raise ValueError("grid must have at least 2 nodes per axis")
    return np.linspace(*surface.r_range, n_r), np.linspace(*surface.s_range, n_s)


def _scan_blocks(surface: ParamSurface, grid: tuple[int, int], lo: int = 0,
                 hi: int | None = None) -> Iterator[tuple[int, int, tuple]]:
    """Yield (i, j, (N1, N2, N3)) for the r-rows lo..hi-1, tile by tile.

    Tiles hold at most `_SCAN_NODES` nodes and are aligned at (row 0,
    column 0): bands of `_SCAN_NODES // n_s` whole r-rows when a row
    fits, else single r-rows cut into runs of `_SCAN_NODES` s-columns.
    So the tiles come in row-major order of the nodes, and what one
    tile costs does not grow with the grid in either axis.  (i, j) is
    the grid index of a tile's first node.  Each tile is evaluated on
    broadcast axes, r as a (rows, 1) column and s as a (1, cols) row.
    A range that starts or ends inside a band evaluates the whole band
    and drops the rows outside it, so every node comes from the same
    numpy call wherever the range is cut.  Each component is a float
    (rows, cols) array, which may be a broadcast view of a constant or
    a one-axis one.  Overflow is not warned about: a component may be
    inf or nan, and the search refuses such a tile.
    """
    r_nodes, s_nodes = _grid_nodes(surface, grid)
    n_r, n_s = grid
    hi = n_r if hi is None else hi
    rows, cols = max(_SCAN_NODES // n_s, 1), min(n_s, _SCAN_NODES)
    normal = surface_normal(surface)
    for start in range(lo - lo % rows, hi, rows):
        r_col = r_nodes[start:start + rows, np.newaxis]
        keep = slice(max(lo - start, 0), min(hi - start, rows))
        for j in range(0, n_s, cols):
            s_row = s_nodes[np.newaxis, j:j + cols]
            shape = (len(r_col), s_row.shape[1])
            with np.errstate(over="ignore", invalid="ignore"):
                values = normal(r_col, s_row)
            yield start + keep.start, j, tuple(
                np.broadcast_to(np.asarray(v, dtype=float), shape)[keep] for v in values)


def scan_grid(surface: ParamSurface, grid: tuple[int, int]) -> dict:
    """Evaluate the normal components on the full parameter grid.

    Returns arrays r, s (1-D nodes) and N1, N2, N3 (2-D of shape
    (n_r, n_s), indexed [i_r, i_s]).  Both closed intervals are sampled,
    so seam columns are seen exactly.

    The grids are filled from the tiles of `_scan_blocks`, the one
    evaluation path the search and the command line's CSV read too;
    neither of those holds a grid.  A factor that depends on r alone is
    computed once per r-node of a tile, and a component that is
    constant, or depends on one parameter only, still fills its full
    2-D array.
    """
    r_nodes, s_nodes = _grid_nodes(surface, grid)
    n1, n2, n3 = (np.empty(grid) for _ in range(3))
    for i, j, values in _scan_blocks(surface, grid):
        rows, cols = values[0].shape
        for dest, tile in zip((n1, n2, n3), values):
            dest[i:i + rows, j:j + cols] = tile
    return {"r": r_nodes, "s": s_nodes, "N1": n1, "N2": n2, "N3": n3}


def _sign_span(values: np.ndarray) -> np.ndarray:
    # Cell admits a zero if its four corners straddle (or touch) zero.
    # The corner extremes are taken pairwise into one reused buffer, so
    # no stack of the four corner views is ever built.
    a, b, c, d = values[:-1, :-1], values[1:, :-1], values[:-1, 1:], values[1:, 1:]
    ext = np.minimum(a, b)
    np.minimum(ext, c, out=ext)
    np.minimum(ext, d, out=ext)
    span = ext <= 0
    np.maximum(a, b, out=ext)
    np.maximum(ext, c, out=ext)
    np.maximum(ext, d, out=ext)
    span &= ext >= 0
    return span


def _newton_2d(func: Callable, r: float, s: float, tol: float) -> tuple[float, float, float, bool]:
    h = 1e-6
    best = math.inf
    # An overflow in the normal shows as a non-finite det or step below,
    # which ends the candidate as a failure; numpy need not warn of it.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(_NEWTON_MAX_ITER):
            f1, f2, _ = func(r, s)
            res = max(abs(float(f1)), abs(float(f2)))
            best = min(best, res)
            if res < tol:
                return r, s, res, True
            a1p, a2p, _ = func(r + h, s)
            a1m, a2m, _ = func(r - h, s)
            b1p, b2p, _ = func(r, s + h)
            b1m, b2m, _ = func(r, s - h)
            j11 = (a1p - a1m) / (2 * h)
            j12 = (b1p - b1m) / (2 * h)
            j21 = (a2p - a2m) / (2 * h)
            j22 = (b2p - b2m) / (2 * h)
            det = j11 * j22 - j12 * j21
            if det == 0 or not math.isfinite(det):
                return r, s, best, False
            dr = (f1 * j22 - f2 * j12) / det
            ds = (j11 * f2 - j21 * f1) / det
            r, s = r - float(dr), s - float(ds)
            if not (math.isfinite(r) and math.isfinite(s)):
                return r, s, best, False
    return r, s, best, False


def find_characteristic_points(
    surface: ParamSurface,
    grid: tuple[int, int] = (1024, 512),
    tol: float = 1e-10,
    on_tile: Callable[[int, int, tuple], None] | None = None,
) -> ScanResult:
    """Locate zeros of (N1, N2) on the surface.

    Sign-change cells of the grid scan seed a 2-D Newton iteration
    (central finite-difference Jacobian, step 1e-6).  Converged roots
    are kept when they land inside the parameter domain, deduplicated
    within 1e-6 in parameters and by ambient position, and flagged as
    boundary points when |s| is within tol of the strip edge.
    Non-convergent candidates are returned in `failures` rather than
    dropped.  A tile with a non-finite N1, N2 or N3, where the surface's
    scale overflows floats, raises a ValueError naming the node.  The
    scan is read in tiles of at most `_SCAN_NODES` nodes and only the
    candidate cells are kept, so no grid-sized array is held: from tile
    to tile the search carries one row of N1 and N2 and the previous
    tile's last column.  `on_tile`, if given, is called
    with each (i, j, (N1, N2, N3)) tile once its cells are tested, so a
    caller can consume the scan without evaluating it a second time.
    """
    n_r, n_s = grid
    if n_r < 64 or n_s < 64:
        raise ValueError("grid must be at least 64 x 64")
    if tol <= 0:
        raise ValueError("tolerance must be positive")

    # Cells are found tile by tile, in row-major order.  The last row of
    # N1 and N2 already scanned is carried for every column, and so is
    # the previous tile's last column with the row above it, so the
    # cells across every tile edge are tested too.
    r_nodes, s_nodes = _grid_nodes(surface, grid)
    cells: list[tuple[int, int]] = []
    above = np.empty((2, n_s))
    left = None
    for i, j, values in _scan_blocks(surface, grid):
        for name, component in zip(("N1", "N2", "N3"), values):
            # nan and inf show in the extremes; np.isfinite on every tile
            # raised the peak RSS of `mobius --grid 512x256` by 0.1 MB.
            if not (math.isfinite(component.min()) and math.isfinite(component.max())):
                a, b = (int(x) for x in np.argwhere(~np.isfinite(component))[0])
                raise ValueError(f"{name} is not finite at grid node ({i + a}, {j + b}), (r, s) = "
                                 f"({float(r_nodes[i + a])!r}, {float(s_nodes[j + b])!r}): "
                                 "the surface overflows floats")
        n1, n2 = values[:2]
        cols = n1.shape[1]
        tile = np.stack((n1, n2))
        if i:
            tile = np.concatenate((above[:, np.newaxis, j:j + cols], tile), axis=1)
        if j:
            tile = np.concatenate((left, tile), axis=2)
        candidates = _sign_span(tile[0]) & _sign_span(tile[1])
        top, first = i - (i > 0), j - (j > 0)
        cells.extend((int(a) + top, int(b) + first) for a, b in zip(*np.nonzero(candidates)))
        left = tile[:, :, -1:].copy()
        above[:, j:j + cols] = tile[:, -1, -cols:]
        # The search's arrays are freed before on_tile runs, so what it
        # allocates does not stack on them: handing the tile over first
        # raised the peak RSS of `mobius --grid 512x256` by 0.1 MB.
        del tile, candidates
        if on_tile is not None:
            on_tile(i, j, values)

    normal = surface_normal(surface)
    r0, r1 = surface.r_range
    s0, s1 = surface.s_range
    dr = float(r_nodes[1] - r_nodes[0])
    ds = float(s_nodes[1] - s_nodes[0])

    margin = 1e-6
    points: list[CharPoint] = []
    failures: list[dict] = []
    for i, j in cells:
        r_start = float(r_nodes[i]) + dr / 2
        s_start = float(s_nodes[j]) + ds / 2
        r, s, res, ok = _newton_2d(normal, r_start, s_start, tol)
        if not ok:
            failures.append(
                {"cell": [i, j], "start": [r_start, s_start], "residual": res,
                 "reason": "newton did not converge"}
            )
            continue
        if not (r0 - margin <= r <= r1 + margin and s0 - margin <= s <= s1 + margin):
            continue
        boundary = min(abs(s - s0), abs(s - s1)) <= tol
        gx, gy, gt = surface.gamma(r, s)
        points.append(CharPoint(r, s, res, (float(gx), float(gy), float(gt)), boundary))

    points.sort(key=lambda p: (p.r, p.s))
    kept: list[CharPoint] = []
    for p in points:
        if not any((abs(p.r - q.r) <= 1e-6 and abs(p.s - q.s) <= 1e-6)
                   or max(abs(a - b) for a, b in zip(p.ambient, q.ambient)) <= 1e-6 for q in kept):
            kept.append(p)
    return ScanResult(points=tuple(kept), failures=tuple(failures))
