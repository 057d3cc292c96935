"""Acceptance suite: one test per shipped guarantee, at the stated tolerance.

Each test is self-contained and asserts exact equality unless a numeric
tolerance is part of the guarantee itself (the surface scan).  Criteria
that freeze published closed forms carry the frozen data inline; the
middle-degree operator test also certifies the exact discrepancy set
between the module operator and a sign-slipped variant of it, with a
witness showing the variant breaks exactness.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from fractions import Fraction
from math import comb

import pytest

from heiscalc.coeff import PolyCoeff
from heiscalc.contact import (
    A_coefficient,
    SmoothMap,
    builtin_dilation,
    builtin_left_translation,
    commute_check,
    compose,
    lambda_coefficient,
    verify_subspaces,
)
from heiscalc.frame import (
    Form,
    MultiVector,
    all_blades,
    contact_form,
    dx,
    dy,
    exterior_derivative,
    frame_apply,
    hodge_star,
    inner,
    wedge,
)
from heiscalc.rumin import (
    D_second_order,
    L_inverse,
    QuotientClass,
    basis_I,
    basis_J,
    d_Q_high,
    d_Q_low,
    dc_operator,
    dims,
    project_quotient,
    strip_theta,
    verify_complex,
    verify_dc,
)
from heiscalc.sampling import random_poly, seeded_rng
from heiscalc.surface import (
    find_characteristic_points,
    mobius_characteristic_closed_form,
    mobius_surface,
    orientability_e_to_h,
    orientability_h_to_e,
)

# Dimension table for n = 1..5: (n, k, dim Omega^k, dim I^k, dim Omega^k/I^k).
DIMENSION_TABLE = [
    (1, 1, 3, 1, 2),
    (2, 1, 5, 1, 4),
    (2, 2, 10, 5, 5),
    (3, 1, 7, 1, 6),
    (3, 2, 21, 7, 14),
    (3, 3, 35, 21, 14),
    (4, 1, 9, 1, 8),
    (4, 2, 36, 9, 27),
    (4, 3, 84, 36, 48),
    (4, 4, 126, 84, 42),
    (5, 1, 11, 1, 10),
    (5, 2, 55, 11, 44),
    (5, 3, 165, 55, 110),
    (5, 4, 330, 165, 165),
    (5, 5, 462, 330, 132),
]


def _monomials(n: int, max_degree: int):
    """All monomial coefficients of total degree <= max_degree."""
    width = 2 * n + 1
    out = []
    for total in range(max_degree + 1):
        for exps in itertools.combinations_with_replacement(range(width), total):
            key = [0] * width
            for e in exps:
                key[e] += 1
            out.append(PolyCoeff(n, {tuple(key): Fraction(1)}))
    return out


def test_c01_dimension_table(run_cli):
    """The dims command reproduces the full dimension table exactly, under 1 s."""
    start = time.perf_counter()
    result = run_cli(["dims", "--n", "1..5", "--format", "json"])
    elapsed = time.perf_counter() - start
    assert result.exit_code == 0
    payload = json.loads(result.stdout)
    got = [(r["n"], r["k"], r["dim_omega"], r["dim_I"], r["dim_quotient"]) for r in payload]
    assert got == DIMENSION_TABLE
    assert (4, 4, 126, 84, 42) in got
    assert (5, 5, 462, 330, 132) in got
    assert elapsed < 1.0, f"dims took {elapsed:.3f}s"


def test_c02_binomial_identity_and_row_reduction():
    """C(2n+1,k) - C(2n+1,k-1) equals the quotient closed form for k <= n <= 8,
    and the row-reduced bases reproduce the closed-form dimensions for n <= 4.
    Under 10 s."""
    start = time.perf_counter()
    for n in range(1, 9):
        width = 2 * n + 1
        for k in range(1, n + 1):
            lhs = comb(width, k) - comb(width, k - 1)
            product = Fraction(comb(width, k)) * (2 * n + 2 - 2 * k) / (2 * n + 2 - k)
            assert product.denominator == 1
            assert lhs == product
            assert dims(k, n)[2] == lhs
    for n in range(1, 5):
        width = 2 * n + 1
        for k in range(1, n + 1):
            assert len(basis_I(k, n).elements) == comb(width, k - 1)
            assert len(basis_J(width - k, n).elements) == dims(k, n)[2]
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"row reduction took {elapsed:.3f}s"


def test_c03_complex_exactness():
    """Every adjacent operator composition vanishes exactly on 100 seeded
    polynomial inputs per degree (coefficients of degree <= 3, integer
    coefficients in [-5, 5]), for n = 1 and n = 2. Under 60 s."""
    start = time.perf_counter()
    for n in (1, 2):
        report = verify_complex(n, trials=100, seed=42, degree=3)
        assert report["passed"], report
        names = [c["name"] for c in report["checks"]]
        if n == 1:
            assert names == ["D o d_Q(0)", "d_Q(2) o D"]
        else:
            assert names == [
                "d_Q(1) o d_Q(0)", "D o d_Q(1)", "d_Q(3) o D", "d_Q(4) o d_Q(3)",
            ]
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"exactness sweep took {elapsed:.3f}s"


def _frame_ops(n):
    return [lambda p, i=i: frame_apply(i, p) for i in range(1, 2 * n + 2)]


def test_c04_middle_operator_closed_forms():
    """The module operators match the published closed forms exactly.

    n = 1: d_Q and D match on every monomial coefficient of degree <= 4;
    both sides are linear in the coefficient functions, so this decides
    every polynomial instance of that degree.

    n = 2: the module D matches the corrected table on every monomial of
    degree <= 3.  The published table as printed differs from the module
    on the second-order entries; the test certifies the exact discrepancy,
    2 (db)|_h ^ theta with b the lifting correction, and exhibits a witness
    where the printed rows break D o d_Q = 0 while the module stays exact.
    The correction-sign analysis lives in the project decisions ledger.
    """
    # --- n = 1 ---------------------------------------------------------
    n = 1
    theta = contact_form(n)
    X, Y, T = _frame_ops(n)
    for m in _monomials(n, 4):
        # d_Q on functions
        got = d_Q_low(QuotientClass(n, 0, Form.function(m)))
        want = project_quotient(dx(n).scale(X(m)) + dy(n).scale(Y(m)))
        assert got == want
        # D[a dx + b dy] = (XXb - XYa - Ta) dx^th + (YXb - YYa - Tb) dy^th,
        # checked one slot at a time
        cls_a = project_quotient(dx(n).scale(m))
        want_a = wedge(dx(n), theta).scale(-X(Y(m)) - T(m)) + wedge(dy(n), theta).scale(-Y(Y(m)))
        assert D_second_order(cls_a) == want_a
        cls_b = project_quotient(dy(n).scale(m))
        want_b = wedge(dx(n), theta).scale(X(X(m))) + wedge(dy(n), theta).scale(Y(X(m)) - T(m))
        assert D_second_order(cls_b) == want_b
        # d_Q on J^2, slot by slot
        got_dx = d_Q_high(wedge(dx(n), theta).scale(m))
        assert got_dx == wedge(wedge(dx(n), dy(n)), theta).scale(-Y(m))
        got_dy = d_Q_high(wedge(dy(n), theta).scale(m))
        assert got_dy == wedge(wedge(dx(n), dy(n)), theta).scale(X(m))

    # --- n = 2 ---------------------------------------------------------
    n = 2
    theta = contact_form(n)
    X1, X2, Y1, Y2, T = _frame_ops(n)
    zero = PolyCoeff.zero(n)

    def alpha_of(a1, a3, a4, a6, b):
        return Form(n, 2, {(1, 2): a1, (1, 4): a3, (2, 3): a4, (3, 4): a6,
                           (1, 3): b, (2, 4): -b})

    def corrected_table(a1, a3, a4, a6, b):
        mixed = Y1(Y2(a1)) - Y1(X2(a3)) + X1(Y2(a4)) + X1(X2(a6)) + T(b).scale(2)
        return Form(n, 3, {
            (1, 2, 5): X1(Y1(a1)) + Y2(X2(a1)) + T(a1).scale(2)
                       - X2(X2(a3)) + X1(X1(a4)) - X1(X2(b)).scale(2),
            (1, 4, 5): Y2(Y2(a1)) + X1(Y1(a3)) - X2(Y2(a3)) + T(a3).scale(2)
                       - X1(X1(a6)) - X1(Y2(b)).scale(2),
            (2, 3, 5): -Y1(Y1(a1)) + Y2(X2(a4)) - Y1(X1(a4)) + T(a4).scale(2)
                       + X2(X2(a6)) + X2(Y1(b)).scale(2),
            (3, 4, 5): Y1(Y1(a3)) - Y2(Y2(a4)) + T(a6).scale(2)
                       - Y1(X1(a6)) - X2(Y2(a6)) - Y1(Y2(b)).scale(2),
            (1, 3, 5): mixed,
            (2, 4, 5): -mixed,
        })

    def printed_table(a1, a3, a4, a6, b):
        # verbatim transcription of the published rows; the garbled
        # "(X2 Y2 a3 - X1 Y1) a3" entry is read as (X2 Y2 - X1 Y1) a3,
        # and the mixed row carries no beta term as printed
        mixed = -Y1(Y2(a1)) + Y1(X2(a3)) - X1(Y2(a4)) - X1(X2(a6))
        return Form(n, 3, {
            (1, 2, 5): -X1(Y1(a1)) - Y2(X2(a1)) + X2(X2(a3)) - X1(X1(a4))
                       + X1(X2(b)).scale(2),
            (1, 4, 5): -Y2(Y2(a1)) + X2(Y2(a3)) - X1(Y1(a3)) + X1(X1(a6))
                       + X1(Y2(b)).scale(2),
            (2, 3, 5): Y1(Y1(a1)) + Y1(X1(a4)) - Y2(X2(a4)) - X2(X2(a6))
                       - X2(Y1(b)).scale(2),
            (3, 4, 5): -Y1(Y1(a3)) + Y2(Y2(a4)) + Y1(X1(a6)) + X2(Y2(a6))
                       + Y1(Y2(b)).scale(2),
            (1, 3, 5): mixed,
            (2, 4, 5): -mixed,
        })

    # module D equals the corrected table on every monomial in every slot
    for slot in range(5):
        for m in _monomials(n, 3):
            coeffs = [zero] * 5
            coeffs[slot] = m
            cls = project_quotient(alpha_of(*coeffs))
            assert D_second_order(cls) == corrected_table(*coeffs), (slot, m.to_text())

    # the printed rows differ from the module by exactly 2 (db)|_h ^ theta,
    # b = L^-1((d alpha)|_h): the full coefficient-level mismatch set
    rng = seeded_rng(4242)
    for _ in range(6):
        coeffs = [random_poly(rng, n, max_degree=3) for _ in range(5)]
        alpha = alpha_of(*coeffs)
        true_d = D_second_order(project_quotient(alpha))
        printed = printed_table(*coeffs)
        b_corr = L_inverse(strip_theta(exterior_derivative(alpha)))
        db_h = strip_theta(exterior_derivative(b_corr))
        assert true_d - printed == wedge(db_h, theta).scale(2)
        assert true_d == corrected_table(*coeffs)

    # witness: on d_Q of the class of t^2 dx1 the module composes to zero,
    # the printed rows do not
    t = PolyCoeff.var(n, 5)
    u = project_quotient(dx(n, 1).scale(t * t))
    gamma = d_Q_low(u)
    rep = gamma.representative
    a1 = rep.coeffs.get((1, 2), zero)
    a3 = rep.coeffs.get((1, 4), zero)
    a4 = rep.coeffs.get((2, 3), zero)
    a6 = rep.coeffs.get((3, 4), zero)
    b = rep.coeffs.get((1, 3), zero)
    assert rep.coeffs.get((2, 4), zero) == -b  # canonical trace-free shape
    assert D_second_order(gamma).is_zero()
    assert not printed_table(a1, a3, a4, a6, b).is_zero()

    # J-side formulas, transcribed with their slot conventions
    rng = seeded_rng(777)
    for _ in range(5):
        a1, a2, a3, a4, a5 = (random_poly(rng, n, max_degree=3) for _ in range(5))
        j3 = Form(n, 3, {(1, 2, 5): a1, (1, 4, 5): a2, (2, 3, 5): a3,
                         (3, 4, 5): a4, (1, 3, 5): a5, (2, 4, 5): -a5})
        assert d_Q_high(j3) == Form(n, 4, {
            (1, 2, 3, 5): Y1(a1) + X1(a3) - X2(a5),
            (1, 2, 4, 5): Y2(a1) - X2(a2) - X1(a5),
            (1, 3, 4, 5): -Y1(a2) + X1(a4) + Y2(a5),
            (2, 3, 4, 5): Y2(a3) + X2(a4) + Y1(a5),
        })
        b1, b2, b3, b4 = (random_poly(rng, n, max_degree=3) for _ in range(4))
        j4 = Form(n, 4, {(1, 2, 3, 5): b1, (1, 2, 4, 5): b2,
                         (1, 3, 4, 5): b3, (2, 3, 4, 5): b4})
        assert d_Q_high(j4) == Form(n, 5, {
            (1, 2, 3, 4, 5): -Y2(b1) + Y1(b2) - X2(b3) + X1(b4),
        })


def _translation_from_seed(n, seed):
    rng = seeded_rng(seed)
    coords = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(2 * n + 1)]
    return builtin_left_translation(coords, n)


def test_c05_pullback_commutation():
    """f* commutes with the full chain (including the middle-degree
    second-order operator) for two dilations, three seeded translations,
    and a dilation-translation composite, on 50 seeded inputs per degree,
    exactly, for n = 1 and n = 2."""
    for n in (1, 2):
        maps = [
            builtin_dilation(2, n),
            builtin_dilation(Fraction(1, 3), n),
            _translation_from_seed(n, 42),
            _translation_from_seed(n, 43),
            _translation_from_seed(n, 44),
        ]
        maps.append(compose(maps[0], maps[2]))
        for f in maps:
            for k in range(0, 2 * n + 1):
                report = commute_check(f, k, trials=50, seed=42, degree=3)
                assert report["passed"], (f.label(), k, report["counterexample"])


def test_c06_contactness_ledger():
    """Contact coefficients match their closed forms symbolically:
    dilations have A(j) = 0 with vertical coefficient r^2, translations are
    contact with coefficient 1, the map (x, y, 2t) fails with A(1) = -y/2,
    and lambda is independent of the probing direction."""
    for n in (1, 2):
        for r in (2, Fraction(1, 3)):
            f = builtin_dilation(r, n)
            for j in range(1, 2 * n + 1):
                assert A_coefficient(j, f).is_zero()
            assert A_coefficient(2 * n + 1, f) == PolyCoeff.const(n, Fraction(r) ** 2)
        tr = _translation_from_seed(n, 42)
        for j in range(1, 2 * n + 1):
            assert A_coefficient(j, tr).is_zero()
        assert A_coefficient(2 * n + 1, tr) == PolyCoeff.const(n, 1)

    witness = SmoothMap(1, (PolyCoeff.var(1, 1), PolyCoeff.var(1, 2),
                            PolyCoeff.var(1, 3).scale(2)))
    assert A_coefficient(1, witness) == PolyCoeff.var(1, 2).scale(Fraction(-1, 2))

    n = 2
    tested = [
        builtin_dilation(2, n),
        builtin_dilation(Fraction(1, 3), n),
        _translation_from_seed(n, 42),
        compose(builtin_dilation(2, n), _translation_from_seed(n, 42)),
    ]
    for f in tested:
        assert lambda_coefficient(1, f) == lambda_coefficient(2, f)


def test_c07_subspace_preservation():
    """Pullback by every built-in contact map keeps the ideal and its
    annihilator: projection residuals onto the complements vanish exactly
    for all degrees, n <= 2."""
    for n in (1, 2):
        report = verify_subspaces(n, seed=42)
        assert report["passed"], report
        # one check per (map, subspace kind)
        assert len(report["checks"]) == 8
        for check in report["checks"]:
            assert check["passed"], check


def test_c08_dc_agreement():
    """The unified operator agrees with the assembled chain on 50 seeded
    inputs per degree for n = 1, 2 exactly; at the degree below the volume,
    where the weight-preserving part of d vanishes identically, it equals
    plain d.  At degree zero the projection removes the vertical derivative
    (d_c f = df - (Tf) theta), which the agreement suite pins down."""
    for n in (1, 2):
        report = verify_dc(n, trials=50, seed=42, degree=3)
        assert report["passed"], report
    # d0 == 0 at the top: d_c is plain d there
    rng = seeded_rng(29)
    for n in (1, 2):
        k = 2 * n
        basis = basis_J(k, n).elements
        for _ in range(10):
            coeffs = [random_poly(rng, n, max_degree=3) for _ in basis]
            a = Form.zero(n, k)
            for c, el in zip(coeffs, basis):
                a = a + el.scale(c)
            assert dc_operator(a) == exterior_derivative(a)
    # degree-zero edge
    f = PolyCoeff.var(1, 3) * PolyCoeff.var(1, 1)
    df = exterior_derivative(Form.function(f))
    assert dc_operator(Form.function(f)) == df - contact_form(1).scale(frame_apply(3, f))


def test_c09_hodge_properties():
    """The Hodge star squares to the identity on every basis blade and
    preserves the inner product of constant multivectors, n <= 3, exactly."""
    for n in (1, 2, 3):
        for k in range(0, 2 * n + 2):
            for blade in all_blades(n, k):
                v = MultiVector.from_blade(n, blade)
                assert hodge_star(hodge_star(v)) == v
    rng = seeded_rng(31)
    for n in (1, 2, 3):
        for k in range(0, 2 * n + 2):
            blades = all_blades(n, k)
            for _ in range(10):
                a = MultiVector(n, k, {b: Fraction(rng.randint(-5, 5)) for b in blades})
                b = MultiVector(n, k, {bl: Fraction(rng.randint(-5, 5)) for bl in blades})
                assert inner(hodge_star(a), hodge_star(b)) == inner(a, b)


def test_c10_mobius_reproduction():
    """On the standard 1024x512 grid each small radius yields exactly one
    characteristic point at the closed-form location (1e-8 in parameters
    and in ambient coordinates, residual below 1e-10), radii past the
    threshold yield none, and every radius completes in under 5 s."""
    for R in (0.05, 0.1, 0.2, 0.24):
        start = time.perf_counter()
        result = find_characteristic_points(
            mobius_surface(R, 0.75 * R), grid=(1024, 512), tol=1e-10)
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"R={R} took {elapsed:.3f}s"
        assert len(result.points) == 1, (R, result.points)
        p = result.points[0]
        r0, s0 = mobius_characteristic_closed_form(R)
        assert abs(p.r - r0) <= 1e-8
        assert abs(p.s - s0) <= 1e-8
        assert p.residual < 1e-10
        ambient_want = (0.5 - math.sqrt(0.25 - R), 0.0, 0.0)
        for got, want in zip(p.ambient, ambient_want):
            assert abs(got - want) <= 1e-8
    for R in (0.26, 0.5, 1.0):
        start = time.perf_counter()
        result = find_characteristic_points(
            mobius_surface(R, 0.75 * R), grid=(1024, 512), tol=1e-10)
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"R={R} took {elapsed:.3f}s"
        assert result.points == (), (R, result.points)


def test_c11_normal_field_conversions():
    """Euclidean-to-horizontal and horizontal-to-Euclidean normal
    conversions invert each other on gradients: 20 seeded polynomials of
    degree <= 3 at n = 1, exact equality both ways."""
    rng = seeded_rng(42)
    for _ in range(20):
        g = random_poly(rng, 1, max_degree=3)
        grad_e = tuple(g.partial(i) for i in (1, 2, 3))
        nH = orientability_e_to_h(grad_e)
        assert nH == (frame_apply(1, g), frame_apply(2, g))
        assert orientability_h_to_e(nH) == grad_e
