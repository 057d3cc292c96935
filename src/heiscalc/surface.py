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
(the zero set involves radicals in cos(r/2), not rationals); the exact
symbolic machinery still owns the normal-conversion formulas, which
accept polynomial components and are checked symbolically.

The Mobius strip is glued with a half twist, gamma(2 pi, s) =
gamma(0, -s), so its seam is not plain r-periodicity and the scan
treats the closed parameter rectangle instead, merging the two
parameter preimages of a seam root by their ambient images.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from random import Random
from typing import Callable, Sequence

import numpy as np

from .coeff import PolyCoeff, Point
from .frame import MultiVector, frame_apply, hodge_star

Triple = tuple  # (x, y, t) triples of floats or numpy arrays


@dataclass(frozen=True)
class HeisVector:
    """Tangent vector written in the left-invariant frame (X, Y, T)."""

    c_X: object
    c_Y: object
    c_T: object

    def __post_init__(self) -> None:
        for c in (self.c_X, self.c_Y, self.c_T):
            if isinstance(c, (int, float)) and not math.isfinite(c):
                raise ValueError(f"non-finite frame component {c!r}")

    def as_tuple(self) -> tuple:
        return (self.c_X, self.c_Y, self.c_T)


@dataclass(frozen=True)
class CharPoint:
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


@dataclass(frozen=True)
class ScanResult:
    """Characteristic points plus any Newton candidates that failed to converge.

    `grid` is the scan_grid dict the points were seeded from; it takes
    no part in equality or repr.
    """

    points: tuple[CharPoint, ...]
    failures: tuple[dict, ...]
    grid: dict | None = field(default=None, compare=False, repr=False)

    def to_json(self) -> list[dict]:
        return [p.to_json() for p in self.points]


@dataclass(frozen=True)
class ParamSurface:
    """A parametrized surface (r, s) -> (x, y, t) with numeric partial evaluators.

    Evaluators must accept scalars or numpy arrays.  Partials are
    validated against central finite differences on construction, so a
    surface that exists is internally consistent.  `periodic` marks
    plain periodicity of the first parameter; identifications that flip
    the second parameter (the Mobius seam) are not periodic in this
    sense and rely on the scan sampling the closed rectangle.
    """

    r_range: tuple[float, float]
    s_range: tuple[float, float]
    gamma: Callable
    gamma_r: Callable
    gamma_s: Callable
    periodic: bool = False
    name: str = "surface"

    def __post_init__(self) -> None:
        if not (self.r_range[0] < self.r_range[1] and self.s_range[0] < self.s_range[1]):
            raise ValueError("parameter ranges must be nondegenerate")
        self._validate_partials()

    def _validate_partials(self, samples: int = 100, tol: float = 1e-6) -> None:
        rng = Random(1913)
        h = 1e-6
        for _ in range(samples):
            r = rng.uniform(*self.r_range)
            s = rng.uniform(*self.s_range)
            for which, partial in (("gamma_r", self.gamma_r), ("gamma_s", self.gamma_s)):
                if which == "gamma_r":
                    plus, minus = self.gamma(r + h, s), self.gamma(r - h, s)
                else:
                    plus, minus = self.gamma(r, s + h), self.gamma(r, s - h)
                exact = partial(r, s)
                for comp in range(3):
                    fd = (plus[comp] - minus[comp]) / (2 * h)
                    if abs(fd - exact[comp]) > tol:
                        raise ValueError(
                            f"{which} component {comp} disagrees with finite differences "
                            f"at (r, s) = ({r:.6f}, {s:.6f}): {exact[comp]!r} vs {fd!r}"
                        )


def heis_frame_components(v: Sequence, p: Point | Sequence) -> HeisVector:
    """Rewrite an ambient tangent vector (v_x, v_y, v_t) at p in the frame.

    X and Y share the horizontal components; the vertical one picks up
    c_T = v_t + y v_x / 2 - x v_y / 2 because the frame fields tilt out
    of the coordinate planes away from the origin.
    """
    coords = p.coords if isinstance(p, Point) else tuple(p)
    x, y = coords[0], coords[1]
    return HeisVector(v[0], v[1], v[2] + y * v[0] / 2 - x * v[1] / 2)


def heis_cross(u: HeisVector | Sequence, v: HeisVector | Sequence) -> HeisVector:
    """Formal determinant cross product with first row (X, Y, T)."""
    a = u.as_tuple() if isinstance(u, HeisVector) else tuple(u)
    b = v.as_tuple() if isinstance(v, HeisVector) else tuple(v)
    return HeisVector(
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def surface_normal(surface: ParamSurface) -> Callable:
    """Evaluator (r, s) -> (N1, N2, N3) built from the frame cross product."""

    def normal(r, s):
        x, y, _ = surface.gamma(r, s)
        gr = surface.gamma_r(r, s)
        gs = surface.gamma_s(r, s)
        u = (gr[0], gr[1], gr[2] + y * gr[0] / 2 - x * gr[1] / 2)
        v = (gs[0], gs[1], gs[2] + y * gs[0] / 2 - x * gs[1] / 2)
        return (
            u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0],
        )

    return normal


def mobius_surface(R: float, w: float) -> ParamSurface:
    """Mobius strip of finite midcircle radius R and half-width w, 0 < w < R.

    gamma(r, s) = ([R + s cos(r/2)] cos r, [R + s cos(r/2)] sin r, s sin(r/2))
    on [0, 2 pi] x [-w, w].  The partials are analytic, not finite
    differences.  The strip closes with a half twist, so `periodic` is
    False; seam roots are caught on the sampled r = 0 and r = 2 pi
    columns and merged by ambient position.
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
        periodic=False,
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


def scan_grid(surface: ParamSurface, grid: tuple[int, int]) -> dict:
    """Evaluate the normal components on the full parameter grid.

    Returns arrays r, s (1-D nodes) and N1, N2, N3 (2-D, indexed [i_r, i_s]).
    Periodic surfaces get half-open r nodes; otherwise the closed
    interval is sampled so seam columns are seen exactly.
    """
    n_r, n_s = grid
    if n_r < 2 or n_s < 2:
        raise ValueError("grid must have at least 2 nodes per axis")
    r0, r1 = surface.r_range
    s0, s1 = surface.s_range
    if surface.periodic:
        r_nodes = r0 + (r1 - r0) * np.arange(n_r) / n_r
    else:
        r_nodes = np.linspace(r0, r1, n_r)
    s_nodes = np.linspace(s0, s1, n_s)
    rr, ss = np.meshgrid(r_nodes, s_nodes, indexing="ij")
    normal = surface_normal(surface)
    n1, n2, n3 = normal(rr, ss)
    return {"r": r_nodes, "s": s_nodes, "N1": np.asarray(n1), "N2": np.asarray(n2), "N3": np.asarray(n3)}


def _sign_span(values: np.ndarray) -> np.ndarray:
    # Cell admits a zero if its four corners straddle (or touch) zero.
    corners = [values[:-1, :-1], values[1:, :-1], values[:-1, 1:], values[1:, 1:]]
    lo = np.minimum.reduce(corners)
    hi = np.maximum.reduce(corners)
    return (lo <= 0) & (hi >= 0)


def _newton_2d(func: Callable, r: float, s: float, tol: float, max_iter: int = 60) -> tuple[float, float, float, bool]:
    h = 1e-6
    best = math.inf
    for _ in range(max_iter):
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
) -> ScanResult:
    """Locate zeros of (N1, N2) on the surface.

    Sign-change cells of the grid scan seed a 2-D Newton iteration
    (central finite-difference Jacobian, step 1e-6).  Converged roots
    are kept when they land inside the parameter domain, deduplicated
    within 1e-6 in parameters (circular in r for periodic surfaces) and
    by ambient position, and flagged as boundary points when |s| is
    within tol of the strip edge.  Non-convergent candidates are
    returned in `failures` rather than dropped, and the scanned grid is
    returned in `grid`.
    """
    n_r, n_s = grid
    if n_r < 64 or n_s < 64:
        raise ValueError("grid must be at least 64 x 64")
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    data = scan_grid(surface, grid)
    r_nodes, s_nodes = data["r"], data["s"]
    n1, n2 = data["N1"], data["N2"]

    candidates = _sign_span(n1) & _sign_span(n2)
    cells = [(int(i), int(j)) for i, j in zip(*np.nonzero(candidates))]
    if surface.periodic:
        # One extra column of cells joins the last node back to the first.
        wrap_n1 = np.stack([n1[-1, :], n1[0, :]])
        wrap_n2 = np.stack([n2[-1, :], n2[0, :]])
        wrap = (_sign_span(wrap_n1) & _sign_span(wrap_n2))[0]
        cells.extend((n_r - 1, int(j)) for j in np.nonzero(wrap)[0])

    normal = surface_normal(surface)
    r0, r1 = surface.r_range
    s0, s1 = surface.s_range
    period = r1 - r0
    dr = float(r_nodes[1] - r_nodes[0]) if len(r_nodes) > 1 else period
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
        if surface.periodic:
            r = r0 + (r - r0) % period
        if not (r0 - margin <= r <= r1 + margin and s0 - margin <= s <= s1 + margin):
            continue
        boundary = min(abs(s - s0), abs(s - s1)) <= tol
        gx, gy, gt = surface.gamma(r, s)
        points.append(CharPoint(r, s, res, (float(gx), float(gy), float(gt)), boundary))

    points.sort(key=lambda p: (p.r, p.s))
    kept: list[CharPoint] = []
    for p in points:
        duplicate = False
        for q in kept:
            dr_abs = abs(p.r - q.r)
            if surface.periodic:
                dr_abs = min(dr_abs, period - dr_abs)
            if dr_abs <= 1e-6 and abs(p.s - q.s) <= 1e-6:
                duplicate = True
                break
            if max(abs(a - b) for a, b in zip(p.ambient, q.ambient)) <= 1e-6:
                duplicate = True
                break
        if not duplicate:
            kept.append(p)
    return ScanResult(points=tuple(kept), failures=tuple(failures), grid=data)


# ---------------------------------------------------------------------------
# Normal-field conversions between Euclidean and horizontal frames


def _conversion_vars(components: Sequence, p) -> tuple:
    if p is None:
        polys = [c for c in components if isinstance(c, PolyCoeff)]
        if not polys:
            raise ValueError("symbolic conversion needs PolyCoeff components or a point")
        n = polys[0].n
        x = [PolyCoeff.var(n, i) for i in range(1, n + 1)]
        y = [PolyCoeff.var(n, n + i) for i in range(1, n + 1)]
        return n, x, y
    coords = p.coords if isinstance(p, Point) else tuple(p)
    if len(coords) % 2 == 0 or len(coords) < 3:
        raise ValueError("a point of H^n has an odd number >= 3 of coordinates")
    n = (len(coords) - 1) // 2
    return n, list(coords[:n]), list(coords[n:2 * n])


def _halve(value):
    if isinstance(value, PolyCoeff):
        return value.scale(Fraction(1, 2))
    return value / 2


def orientability_e_to_h(nE: Sequence, p: Point | Sequence | None = None) -> tuple:
    """Convert a Euclidean normal to its horizontal projection components.

    n_{H,i} = n_{E,i} - y_i n_{E,2n+1} / 2 and n_{H,n+i} = n_{E,n+i} +
    x_i n_{E,2n+1} / 2.  Pass a point for numeric components, or omit it
    to treat PolyCoeff components as fields of the coordinates.  An
    all-zero result marks a characteristic point; it is a value, not an
    error.
    """
    n, xs, ys = _conversion_vars(nE, p)
    if len(nE) != 2 * n + 1:
        raise ValueError(f"expected {2 * n + 1} Euclidean components, got {len(nE)}")
    last = nE[2 * n]
    horiz = []
    for i in range(n):
        horiz.append(nE[i] - _halve(ys[i] * last))
    for i in range(n):
        horiz.append(nE[n + i] + _halve(xs[i] * last))
    return tuple(horiz)


def orientability_h_to_e(nH: Sequence[PolyCoeff]) -> tuple[PolyCoeff, ...]:
    """Recover a Euclidean normal field from a horizontal one.

    The vertical component is reconstructed from the frame divergence
    n_{E,2n+1} = (1/n) sum_j (X_j n_{H,n+j} - Y_j n_{H,j}), then the
    horizontal components are untilted.  Components must be polynomial
    so the derivatives are exact.
    """
    if len(nH) % 2 != 0 or not nH:
        raise ValueError(f"expected 2n horizontal components, got {len(nH)}")
    n = len(nH) // 2
    for c in nH:
        if not isinstance(c, PolyCoeff):
            raise TypeError("horizontal components must be PolyCoeff")
        if c.n != n:
            raise ValueError(f"component ambient H^{c.n} does not match 2n = {2 * n}")
    total = PolyCoeff.zero(n)
    for j in range(1, n + 1):
        total = total + frame_apply(j, nH[n + j - 1]) - frame_apply(n + j, nH[j - 1])
    last = total.scale(Fraction(1, n))
    out = []
    for i in range(1, n + 1):
        y_i = PolyCoeff.var(n, n + i)
        out.append(nH[i - 1] + (y_i * last).scale(Fraction(1, 2)))
    for i in range(1, n + 1):
        x_i = PolyCoeff.var(n, i)
        out.append(nH[n + i - 1] - (x_i * last).scale(Fraction(1, 2)))
    out.append(last)
    return tuple(out)


def is_characteristic_normal(nH: Sequence, tol: float = 0.0) -> bool:
    """Whether a converted horizontal normal vanishes (all components)."""
    for c in nH:
        if isinstance(c, PolyCoeff):
            if not c.is_zero():
                return False
        elif abs(c) > tol:
            return False
    return True


def heis_tangent_bivector(nH: Sequence) -> MultiVector:
    """Tangent 2-vector of a noncharacteristic surface point in H^1.

    The Hodge star of the horizontal normal n_{H,1} X + n_{H,2} Y,
    which is n_{H,1} Y ^ T - n_{H,2} X ^ T.
    """
    if len(nH) != 2:
        raise ValueError("expected 2 horizontal components (n = 1)")
    vec = MultiVector(1, 1, {(1,): nH[0], (2,): nH[1]})
    return hodge_star(vec)
