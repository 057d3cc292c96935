"""Characteristic-point location and horizontal normal conversions."""

from __future__ import annotations

import copy
import math
import pickle
import warnings
from fractions import Fraction

import numpy as np
import pytest

from heiscalc.coeff import PolyCoeff
from heiscalc.frame import (
    MultiVector,
    frame_apply,
    heis_tangent_bivector,
    is_characteristic_normal,
    orientability_e_to_h,
    orientability_h_to_e,
    wedge,
)
from heiscalc.surface import (
    CharPoint,
    ParamSurface,
    ScanResult,
    find_characteristic_points,
    heis_cross,
    heis_frame_components,
    mobius_characteristic_closed_form,
    mobius_normal_components,
    mobius_surface,
    scan_grid,
    surface_normal,
)
from heiscalc.sampling import random_poly, seeded_rng


def _var(i):
    return PolyCoeff.var(1, i)


# -- frame conversion of tangent vectors --------------------------------------


def test_heis_frame_components_oracle():
    # v = v_x dx + v_y dy + v_t dt at p has T-component v_t + y v_x / 2 - x v_y / 2
    c_X, c_Y, c_T = heis_frame_components((1.0, 2.0, 3.0), (10.0, 20.0, 0.0))
    assert c_X == 1.0
    assert c_Y == 2.0
    assert c_T == pytest.approx(3.0 + 20.0 * 1.0 / 2 - 10.0 * 2.0 / 2)


def test_heis_cross_frame_basis():
    X, Y, T = (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)
    assert heis_cross(X, Y) == (0.0, 0.0, 1.0)
    assert heis_cross(Y, T) == (1.0, 0.0, 0.0)
    assert heis_cross(T, X) == (0.0, 1.0, 0.0)
    assert heis_cross(X, X) == (0.0, 0.0, 0.0)


# -- the Mobius strip ----------------------------------------------------------


def test_mobius_surface_validation():
    with pytest.raises(ValueError):
        mobius_surface(0.2, 0.2)  # needs w < R
    with pytest.raises(ValueError):
        mobius_surface(0.2, 0.0)
    for R, w in ((math.inf, 0.15), (0.2, math.nan), (math.nan, 0.15)):
        with pytest.raises(ValueError):
            mobius_surface(R, w)


def test_mobius_gamma_oracle():
    surf = mobius_surface(0.5, 0.25)
    x, y, t = surf.gamma(0.0, 0.1)
    assert x == pytest.approx(0.6)
    assert y == pytest.approx(0.0)
    assert t == pytest.approx(0.0)


def test_mobius_half_twist_seam():
    # gamma(2 pi, s) = gamma(0, -s): one loop flips the width coordinate
    surf = mobius_surface(0.4, 0.3)
    for s in (-0.25, 0.0, 0.2):
        a = surf.gamma(2 * math.pi, s)
        b = surf.gamma(0.0, -s)
        assert a == pytest.approx(b, abs=1e-12)


@pytest.mark.parametrize("R", [0.1, 0.2, 0.5, 1.0])
def test_closed_form_normal_matches_constructive(R):
    """The polynomial normal formulas agree with frame-cross evaluation."""
    surf = mobius_surface(R, 0.75 * R)
    constructive = surface_normal(surf)
    closed = mobius_normal_components(R)
    rng = np.random.default_rng(2026)
    rs = rng.uniform(0.0, 2 * math.pi, 400)
    ss = rng.uniform(-0.75 * R, 0.75 * R, 400)
    got = constructive(rs, ss)
    want = closed(rs, ss)
    for g, w in zip(got, want):
        assert np.max(np.abs(g - w)) < 1e-9


def test_mobius_normal_seam_section():
    # along r = 0 the second component is the quadratic -s^2/2 + (1/2 - R)s - R^2/2
    R = 0.2
    closed = mobius_normal_components(R)
    for s in (-0.1, 0.0, 0.05, 0.12):
        _, n2, _ = closed(0.0, s)
        assert n2 == pytest.approx(-0.5 * s * s + (0.5 - R) * s - 0.5 * R * R, abs=1e-14)


def test_mobius_closed_form_root():
    for R in (0.05, 0.1, 0.2, 0.24):
        root = mobius_characteristic_closed_form(R)
        assert root is not None
        r0, s0 = root
        assert r0 == 0.0
        # solves the seam quadratic
        assert -0.5 * s0 * s0 + (0.5 - R) * s0 - 0.5 * R * R == pytest.approx(0.0, abs=1e-15)
        assert 0.0 < s0 < 0.75 * R
    for R in (0.25, 0.26, 0.5, 1.0):
        assert mobius_characteristic_closed_form(R) is None


def test_scan_grid_shapes():
    surf = mobius_surface(0.2, 0.15)
    data = scan_grid(surf, (64, 64))
    for key in ("N1", "N2", "N3"):
        assert data[key].shape == (64, 64)
    assert data["r"].shape == (64,) and data["s"].shape == (64,)
    # non-periodic surfaces sample the closed rectangle
    assert data["r"][0] == pytest.approx(0.0)
    assert data["r"][-1] == pytest.approx(2 * math.pi)


def _meshgrid_scan(surface, grid):
    # One evaluation on the full np.meshgrid: the independent reference
    # that the blocked, broadcast scan must match bit for bit.
    r_nodes = np.linspace(*surface.r_range, grid[0])
    s_nodes = np.linspace(*surface.s_range, grid[1])
    rr, ss = np.meshgrid(r_nodes, s_nodes, indexing="ij")
    return [np.broadcast_to(c, grid) for c in surface_normal(surface)(rr, ss)]


@pytest.mark.parametrize("R", [0.18, 0.2, 0.22, 0.3])
@pytest.mark.parametrize("grid", [(64, 64), (65, 64), (511, 257), (512, 256),
                                  (5, 4100), (3, 2049)])
def test_scan_grid_matches_full_meshgrid_bits(R, grid):
    # The last two grids are wider than a tile: each r-row is evaluated
    # in runs of _SCAN_NODES s-columns, the last one short.
    surf = mobius_surface(R, 0.75 * R)
    data = scan_grid(surf, grid)
    for key, expected in zip(("N1", "N2", "N3"), _meshgrid_scan(surf, grid)):
        assert data[key].dtype == np.float64 and data[key].shape == grid
        assert data[key].tobytes() == np.ascontiguousarray(expected).tobytes(), key


# Planes parametrized so that a normal component comes out as a (rows, 1)
# column, a (1, n_s) row or a scalar on broadcast axes: x = 0 twice, t = 0.
_ONE_AXIS_PLANES = {
    "r-only": ParamSurface(
        r_range=(-1.0, 1.0), s_range=(0.0, 1.0),
        gamma=lambda r, s: (0.0, r, s + r * r),
        gamma_r=lambda r, s: (0.0, 1.0, 2 * r),
        gamma_s=lambda r, s: (0.0, 0.0, 1.0),
    ),
    "s-only": ParamSurface(
        r_range=(-1.0, 1.0), s_range=(0.0, 1.0),
        gamma=lambda r, s: (0.0, s, r + s * s),
        gamma_r=lambda r, s: (0.0, 0.0, 1.0),
        gamma_s=lambda r, s: (0.0, 1.0, 2 * s),
    ),
    "constant": ParamSurface(
        r_range=(-1.0, 1.0), s_range=(0.0, 1.0),
        gamma=lambda r, s: (r + 0 * s, s + 0 * r, 0.0 * r * s),
        gamma_r=lambda r, s: (1.0, 0.0, 0.0 * r),
        gamma_s=lambda r, s: (0.0, 1.0, 0.0 * s),
    ),
}


@pytest.mark.parametrize("name, low_shape", [("r-only", (5, 1)), ("s-only", (1, 64)),
                                             ("constant", ())])
def test_scan_grid_fills_one_axis_components(name, low_shape):
    surf = _ONE_AXIS_PLANES[name]
    shapes = {np.shape(c) for c in surface_normal(surf)(np.zeros((5, 1)), np.zeros((1, 64)))}
    assert low_shape in shapes  # the evaluator really returns a lower-dimensional component
    for grid in ((64, 64), (65, 64)):
        data = scan_grid(surf, grid)
        for key, expected in zip(("N1", "N2", "N3"), _meshgrid_scan(surf, grid)):
            assert data[key].shape == grid, key
            assert np.array_equal(data[key], expected), key


def _sign_span_reference(values):
    corners = [values[:-1, :-1], values[1:, :-1], values[:-1, 1:], values[1:, 1:]]
    return (np.minimum.reduce(corners) <= 0) & (np.maximum.reduce(corners) >= 0)


@pytest.mark.parametrize("seed", range(4))
def test_sign_span_matches_corner_reduce(seed):
    from heiscalc.surface import _sign_span

    rng = np.random.default_rng(seed)
    values = rng.choice([-1.5, -0.0, 0.0, 2.0, 1e-300, -1e-300, np.nan], size=(67, 33))
    values[rng.random(values.shape) < 0.3] *= rng.random()
    span = _sign_span(values)
    assert span.shape == (66, 32) and span.dtype == bool
    assert np.array_equal(span, _sign_span_reference(values))


def test_find_peak_memory_stays_under_six_grids():
    # One tile's temporaries, the carried row of N1 and N2 (16 bytes an
    # s-node) and the node arrays: under one float64 grid of 512x256,
    # at that grid and at one 64 times as wide.  Evaluating whole rows
    # of 64x16384 took about 60 MB.
    import tracemalloc

    surf = mobius_surface(0.2, 0.15)
    for grid in ((512, 256), (64, 16384)):
        tracemalloc.start()
        try:
            find_characteristic_points(surf, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 512 * 256 * 8, grid


def test_find_characteristic_points_mobius():
    R = 0.2
    result = find_characteristic_points(mobius_surface(R, 0.75 * R), grid=(256, 128))
    assert isinstance(result, ScanResult)
    assert len(result.points) == 1
    assert not result.failures
    p = result.points[0]
    r0, s0 = mobius_characteristic_closed_form(R)
    assert abs(p.r - r0) < 1e-8
    assert abs(p.s - s0) < 1e-8
    assert p.residual < 1e-10
    assert not p.boundary
    assert p.ambient[0] == pytest.approx(0.5 - math.sqrt(0.25 - R), abs=1e-8)
    assert p.ambient[1] == pytest.approx(0.0, abs=1e-8)
    assert p.ambient[2] == pytest.approx(0.0, abs=1e-8)
    # the third frame component does not vanish there: the point is
    # characteristic, not singular
    n3 = mobius_normal_components(R)(p.r, p.s)[2]
    assert abs(n3) > 1e-3


def test_periodic_surface_goes_through_the_closed_scan():
    # The band traversed twice has period 4 pi in r.  Its one
    # characteristic point has the parameters (0, s*), (2 pi, -s*) and
    # (4 pi, s*); the scan sees them all and reports the point once.
    R = 0.2
    band = mobius_surface(R, 0.15)
    twice = ParamSurface((0.0, 4 * math.pi), band.s_range, band.gamma, band.gamma_r, band.gamma_s)
    result = find_characteristic_points(twice, grid=(512, 128))
    _, s_star = mobius_characteristic_closed_form(R)
    assert not result.failures
    assert len(result.points) == 1
    p = result.points[0]
    assert abs(p.r) < 1e-8
    assert abs(p.s - s_star) < 1e-8
    for r, s in ((0.0, s_star), (2 * math.pi, -s_star), (4 * math.pi, s_star)):
        assert np.allclose(twice.gamma(r, s), p.ambient, atol=1e-12)


def test_find_characteristic_points_empty_above_quarter():
    result = find_characteristic_points(mobius_surface(0.5, 0.375), grid=(256, 128))
    assert result.points == ()


@pytest.mark.parametrize("R", [0.24, 0.249, 0.2499, 0.24999])
def test_scan_near_root_merge(R):
    # As R -> 1/4 the two roots of N2(0, s) merge; with w just below R the
    # scanner still finds the single point at the closed-form s*.
    result = find_characteristic_points(mobius_surface(R, R - 1e-3), grid=(256, 128))
    assert not result.failures
    assert len(result.points) == 1
    p = result.points[0]
    r0, s0 = mobius_characteristic_closed_form(R)
    assert abs(p.r - r0) < 1e-8
    assert abs(p.s - s0) < 1e-8


def test_newton_reports_non_finite_normal_as_failure():
    # Far out in s the frame component c_T overflows, and N with it;
    # Newton must report a failed candidate, neither raise nor make
    # numpy warn.
    from heiscalc.surface import _newton_2d

    normal = surface_normal(mobius_surface(0.2, 0.15))
    with np.errstate(over="ignore", invalid="ignore"):
        assert not math.isfinite(normal(1.0, 1e160)[0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = _newton_2d(normal, 1.0, 1e160, 1e-10)
    assert result == (1.0, 1e160, math.inf, False)


def test_grid_minimum_enforced():
    with pytest.raises(ValueError):
        find_characteristic_points(mobius_surface(0.2, 0.15), grid=(32, 128))


def _junction_plane(n_r: int, row: float, n_s: int = 64, col: float = 31.5) -> ParamSurface:
    # The plane t = 0 has horizontal normal (-s/2, r/2): its one zero,
    # (0, 0), lies at r-row `row` and s-column `col` of the grid, midway
    # between two nodes for a half-integer and on a node for an integer.
    step = 1 / 64
    return ParamSurface(
        r_range=(-row * step, (n_r - 1 - row) * step),
        s_range=(-col * step, (n_s - 1 - col) * step),
        gamma=lambda r, s: (r + 0 * s, s + 0 * r, 0.0 * r * s),
        gamma_r=lambda r, s: (1.0, 0.0, 0.0 * r),
        gamma_s=lambda r, s: (0.0, 1.0, 0.0 * s),
        name="junction plane",
    )


@pytest.mark.parametrize("surf, grid, nodes", [
    (mobius_surface(0.2, 0.15), (128, 64), None),
    (mobius_surface(0.2, 0.15), (97, 70), None),
    (mobius_surface(0.24, 0.18), (65, 64), None),
    (mobius_surface(0.1, 0.09), (200, 100), None),
    (_junction_plane(64, 31.5), (64, 64), None),
    (_junction_plane(97, 63.5), (97, 64), None),
    (mobius_surface(0.2, 0.15), (97, 70), 32),
    (_junction_plane(64, 40.5, 70, 31.5), (64, 70), 32),
    (_junction_plane(64, 40, 70, 32), (64, 70), 32),
    (_junction_plane(64, 0.5, 70, 63.5), (64, 70), 32),
], ids=["mobius-128", "mobius-97", "mobius-65", "mobius-200", "plane-31|32", "plane-63|64",
        "mobius-97-tiles-of-32", "plane-cols-31|32", "plane-corner-40,32", "plane-row-0|1-cols-63|64"])
def test_streamed_candidates_match_full_grid(surf, grid, nodes, monkeypatch):
    # The search keeps no grid: its Newton starts must be those of the
    # sign-change cells of scan_grid's full arrays, in the same order.
    # By default a 64-wide grid is scanned in bands of 32 r-rows.  With
    # tiles of `nodes` = 32, each r-row of a 70-wide grid is three tiles,
    # 32, 32 and 6 columns wide.
    from heiscalc import surface as surface_module
    from heiscalc.surface import _sign_span

    if nodes is not None:
        monkeypatch.setattr(surface_module, "_SCAN_NODES", nodes)
    newton = surface_module._newton_2d
    starts = []

    def recording(func, r, s, tol):
        starts.append((r, s))
        return newton(func, r, s, tol)

    monkeypatch.setattr(surface_module, "_newton_2d", recording)
    result = find_characteristic_points(surf, grid)
    data = scan_grid(surf, grid)
    r_nodes, s_nodes = data["r"], data["s"]
    dr, ds = float(r_nodes[1] - r_nodes[0]), float(s_nodes[1] - s_nodes[0])
    cells = np.nonzero(_sign_span(data["N1"]) & _sign_span(data["N2"]))
    expected = [(float(r_nodes[i]) + dr / 2, float(s_nodes[j]) + ds / 2) for i, j in zip(*cells)]
    assert expected and starts == expected
    if surf.name == "junction plane":  # its one zero is found from the cells at the edge
        assert [(p.r, p.s) for p in result.points] == [(pytest.approx(0.0, abs=1e-12),
                                                        pytest.approx(0.0, abs=1e-12))]


def test_char_point_json_shape():
    p = CharPoint(r=1.0, s=-0.5, residual=1e-12, ambient=(0.1, 0.2, 0.3), boundary=True)
    assert p.to_json() == {
        "r": 1.0, "s": -0.5, "residual": 1e-12,
        "ambient": [0.1, 0.2, 0.3], "boundary": True,
    }


def test_flat_graph_boundary_point():
    # the plane t = 0 has horizontal normal (-s/2, r/2, .): characteristic at
    # the origin, which sits on the s-boundary of this window
    surf = ParamSurface(
        r_range=(-1.0, 1.0),
        s_range=(0.0, 1.0),
        gamma=lambda r, s: (np.asarray(r, dtype=float) + 0 * s, np.asarray(s, dtype=float) + 0 * r, 0.0 * r * s),
        gamma_r=lambda r, s: (1.0 + 0 * r, 0.0 * r, 0.0 * r * s),
        gamma_s=lambda r, s: (0.0 * s, 1.0 + 0 * s, 0.0 * r * s),
        name="flat-graph",
    )
    result = find_characteristic_points(surf, grid=(64, 64), tol=1e-10)
    assert len(result.points) == 1
    p = result.points[0]
    assert abs(p.r) < 1e-9 and abs(p.s) < 1e-9
    assert p.boundary


def test_partial_validation_rejects_wrong_derivative():
    with pytest.raises(ValueError, match="finite differences"):
        ParamSurface(
            r_range=(0.0, 1.0),
            s_range=(0.0, 1.0),
            gamma=lambda r, s: (r * r, s, 0.0 * r),
            gamma_r=lambda r, s: (1.0 + 0 * r, 0.0 * r, 0.0 * r),  # should be 2r
            gamma_s=lambda r, s: (0.0 * s, 1.0 + 0 * s, 0.0 * s),
        )


def test_partial_validation_rejects_wrong_derivative_at_scale():
    # The tolerance grows with |gamma|, but a wrong partial of a large
    # surface is off by far more than that.
    with pytest.raises(ValueError, match="finite differences"):
        ParamSurface(
            r_range=(0.0, 1.0),
            s_range=(0.0, 1.0),
            gamma=lambda r, s: (1e4 * r * r, 1e4 * s, 0.0 * r),
            gamma_r=lambda r, s: (1e4 + 0 * r, 0.0 * r, 0.0 * r),  # should be 2e4 r
            gamma_s=lambda r, s: (0.0 * s, 1e4 + 0 * s, 0.0 * s),
        )


def test_partial_validation_rejects_a_nan_partial():
    # nan compares false with any tolerance, so it must fail the test
    with pytest.raises(ValueError, match="^gamma_r component 0 disagrees with finite differences"):
        ParamSurface(
            r_range=(0.0, 1.0),
            s_range=(0.0, 1.0),
            gamma=lambda r, s: (r + 0 * s, s + 0 * r, 0.0 * r * s),
            gamma_r=lambda r, s: (np.nan + 0 * r * s, 0.0 * r, 0.0 * r),
            gamma_s=lambda r, s: (0.0 * s, 1.0 + 0 * s, 0.0 * s),
        )


@pytest.mark.parametrize("R, w", [(1e4, 7.5e3), (1e6, 7.5e5)])
def test_wide_mobius_strips_pass_partial_validation(R, w):
    # The rounding error of the finite differences grows like eps R / h.
    surface = mobius_surface(R, w)
    assert surface.s_range == (-w, w)


def test_search_refuses_a_normal_that_overflows():
    # At R = 1e160 the frame components reach 1e320: N is inf or nan on
    # every node, and the search names the first one, not "0 points".
    with pytest.raises(ValueError, match=r"N1 is not finite at grid node \(0, 0\)"):
        find_characteristic_points(mobius_surface(1e160, 1e10), grid=(64, 64))
    assert find_characteristic_points(mobius_surface(1e154, 1e10), grid=(64, 64)).points == ()


@pytest.mark.parametrize("which", ["gamma", "gamma_r", "gamma_s"])
def test_construction_rejects_scalar_only_evaluators(which):
    # math.cos takes no array; scan_grid would fail inside the evaluator
    evaluators = {
        "gamma": lambda r, s: (np.cos(r) + 0 * s, s + 0 * r, 0.0 * r * s),
        "gamma_r": lambda r, s: (-np.sin(r), 0.0, 0.0),
        "gamma_s": lambda r, s: (0.0, 1.0, 0.0),
    }
    scalar_only = {
        "gamma": lambda r, s: (math.cos(r), s, 0.0),
        "gamma_r": lambda r, s: (-math.sin(r), 0.0, 0.0),
        "gamma_s": lambda r, s: (0.0, 1.0, 0.0 * math.cos(s)),
    }
    ParamSurface((0.0, 1.0), (0.0, 1.0), **evaluators)
    evaluators[which] = scalar_only[which]
    with pytest.raises(ValueError, match=f"^{which} must accept"):
        ParamSurface((0.0, 1.0), (0.0, 1.0), **evaluators)


def test_construction_rejects_components_of_the_wrong_shape():
    with pytest.raises(ValueError, match="^gamma_s must accept"):
        ParamSurface((0.0, 1.0), (0.0, 1.0),
                     gamma=lambda r, s: (r + 0 * s, s + 0 * r, 0.0),
                     gamma_r=lambda r, s: (1.0, 0.0, 0.0),
                     gamma_s=lambda r, s: (0.0, 1.0, np.zeros(3)))

# -- the records ----------------------------------------------------------------

# The plane t = 0, with module-level evaluators so that pickle can send it.
def _plane_gamma(r, s):
    return (r + 0 * s, s + 0 * r, 0.0 * r * s)


def _plane_gamma_r(r, s):
    return (1.0 + 0 * r, 0.0 * r, 0.0 * r)


def _plane_gamma_s(r, s):
    return (0.0 * s, 1.0 + 0 * s, 0.0 * s)


def _wrong_gamma_r(r, s):  # should be (1, 0, 0)
    return (2.0 + 0 * r, 0.0 * r, 0.0 * r)


_PLANE = ((0.0, 1.0), (0.0, 1.0), _plane_gamma, _plane_gamma_r, _plane_gamma_s, "plane")
_FIELDS = ("r_range", "s_range", "gamma", "gamma_r", "gamma_s", "name")


def _records() -> list:
    point = CharPoint(r=1.0, s=-0.5, residual=1e-12, ambient=(0.1, 0.2, 0.3))
    return [point, ScanResult(points=(point,), failures=()), ParamSurface(*_PLANE)]


_RECORD_NAMES = ["CharPoint", "ScanResult", "ParamSurface"]


@pytest.mark.parametrize("index", range(3), ids=_RECORD_NAMES)
def test_records_refuse_assignment_and_deletion(index):
    record = _records()[index]
    fields = _FIELDS if isinstance(record, ParamSurface) else record._fields
    for field in fields:
        value = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, value)
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert getattr(record, field) is value
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("index", range(3), ids=_RECORD_NAMES)
def test_records_with_equal_fields_compare_equal_and_hash_alike(index):
    first, second = _records()[index], _records()[index]
    assert first is not second and first == second and hash(first) == hash(second)


def test_surfaces_compare_by_all_six_fields():
    plane = ParamSurface(*_PLANE)
    assert ParamSurface(*_PLANE[:5]) == ParamSurface(*_PLANE[:5], name="surface")
    assert plane != ParamSurface(*_PLANE[:5]) and plane != ParamSurface((0.0, 2.0), *_PLANE[1:])
    assert plane != _PLANE and len({plane, ParamSurface(*_PLANE)}) == 1


def test_record_reprs_name_every_field():
    point = CharPoint(1.0, -0.5, 1e-12, (0.1, 0.2, 0.3), True)
    assert repr(point) == "CharPoint(r=1.0, s=-0.5, residual=1e-12, ambient=(0.1, 0.2, 0.3), boundary=True)"
    assert repr(ParamSurface(*_PLANE)) == (
        f"ParamSurface(r_range=(0.0, 1.0), s_range=(0.0, 1.0), gamma={_plane_gamma!r}, "
        f"gamma_r={_plane_gamma_r!r}, gamma_s={_plane_gamma_s!r}, name='plane')")


def _forged(*fields) -> ParamSurface:
    # A surface whose fields were set around __init__, so never validated.
    surface = object.__new__(ParamSurface)
    for field, value in zip(_FIELDS, fields):
        object.__setattr__(surface, field, value)
    return surface


@pytest.mark.parametrize("build", [
    lambda *f: ParamSurface(*f),
    lambda *f: ParamSurface(**dict(zip(_FIELDS, f))),
    lambda r, s, gamma, gamma_r, gamma_s, name: ParamSurface(r, s, gamma, gamma_r, gamma_s=gamma_s, name=name),
    lambda *f: copy.copy(_forged(*f)),
    lambda *f: copy.deepcopy(_forged(*f)),
    lambda *f: pickle.loads(pickle.dumps(_forged(*f))),
], ids=["positional", "keyword", "mixed", "copy", "deepcopy", "pickle"])
def test_every_way_to_build_a_surface_validates_its_partials(build):
    # A surface is built only through __init__; no _replace or _make skips it.
    assert build(*_PLANE) == ParamSurface(*_PLANE)
    wrong = _PLANE[:3] + (_wrong_gamma_r,) + _PLANE[4:]
    with pytest.raises(ValueError, match="^gamma_r component 0 disagrees with finite differences"):
        build(*wrong)
    with pytest.raises(ValueError, match="^parameter ranges must be nondegenerate"):
        build((1.0, 0.0), *_PLANE[1:])
    assert not hasattr(ParamSurface, "_replace") and not hasattr(ParamSurface, "_make")


# -- orientation field conversions ----------------------------------------------


def test_e_to_h_matches_horizontal_gradient():
    rng = seeded_rng(53)
    for _ in range(10):
        g = random_poly(rng, 1, max_degree=3)
        grad_e = tuple(g.partial(i) for i in (1, 2, 3))
        nH = orientability_e_to_h(grad_e)
        assert nH == (frame_apply(1, g), frame_apply(2, g))


def test_h_to_e_reconstructs_euclidean_gradient():
    rng = seeded_rng(59)
    for _ in range(10):
        g = random_poly(rng, 1, max_degree=3)
        nH = (frame_apply(1, g), frame_apply(2, g))
        nE = orientability_h_to_e(nH)
        assert nE == tuple(g.partial(i) for i in (1, 2, 3))


def test_round_trip_conversions():
    rng = seeded_rng(61)
    for _ in range(5):
        g = random_poly(rng, 1, max_degree=3)
        grad_e = tuple(g.partial(i) for i in (1, 2, 3))
        assert orientability_h_to_e(orientability_e_to_h(grad_e)) == grad_e


def test_is_characteristic_normal():
    zero = (PolyCoeff.zero(1), PolyCoeff.zero(1))
    assert is_characteristic_normal(zero)
    assert not is_characteristic_normal((PolyCoeff.var(1, 1), PolyCoeff.zero(1)))
    assert is_characteristic_normal(tuple(PolyCoeff.zero(2) for _ in range(4)))


@pytest.mark.parametrize("components, error, message", [
    ((), ValueError, "^expected 2n horizontal components, got 0$"),
    ((PolyCoeff.zero(1),), ValueError, "^expected 2n horizontal components, got 1$"),
    ((PolyCoeff.zero(1), PolyCoeff.zero(2)), ValueError,
     r"^component ambient H\^2 does not match 2n = 2$"),
    ((PolyCoeff.zero(1), 0.0), TypeError, "^horizontal components must be PolyCoeff$"),
], ids=["empty", "odd", "mixed-n", "float"])
def test_is_characteristic_normal_checks_its_components(components, error, message):
    # the checks and errors of orientability_h_to_e, which reads the same fields
    for check in (is_characteristic_normal, orientability_h_to_e):
        with pytest.raises(error, match=message):
            check(components)


@pytest.mark.parametrize("components, error, message", [
    ((PolyCoeff.zero(1), PolyCoeff.zero(1)), ValueError,
     "^expected 2n \\+ 1 Euclidean components, got 2$"),
    ((PolyCoeff.zero(1), PolyCoeff.zero(1), 2.0), TypeError,
     "^Euclidean components must be PolyCoeff$"),
    ((1.0, 0.0, 2.0), TypeError, "^Euclidean components must be PolyCoeff$"),
    ((PolyCoeff.zero(1), PolyCoeff.zero(2), PolyCoeff.zero(1)), ValueError,
     r"^component ambient H\^2 does not match 2n = 2$"),
], ids=["even", "float-vertical", "all-float", "mixed-n"])
def test_e_to_h_checks_its_components(components, error, message):
    with pytest.raises(error, match=message):
        orientability_e_to_h(components)


def test_heis_tangent_bivector():
    a, b = _var(1), _var(2)
    bivec = heis_tangent_bivector((a, b))
    expected = wedge(MultiVector.from_blade(1, (2,)), MultiVector.from_blade(1, (3,))).scale(a) \
        - wedge(MultiVector.from_blade(1, (1,)), MultiVector.from_blade(1, (3,))).scale(b)
    assert bivec == expected
