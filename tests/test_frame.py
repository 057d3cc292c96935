"""Left-invariant frame, exterior algebra, and Hodge duality."""

from __future__ import annotations

from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from heiscalc.coeff import PolyCoeff
from heiscalc.frame import (
    Form,
    MultiVector,
    all_blades,
    blade_name,
    contact_form,
    d_contact_form,
    dx,
    dy,
    exterior_derivative,
    form_from_json,
    form_to_json,
    frame_apply,
    hodge_star,
    horizontal_gradient,
    inner,
    pairing,
    theta_index,
    twist_polynomial,
    wedge,
)
from heiscalc.sampling import random_form, random_poly, seeded_rng


def _var(n, i):
    return PolyCoeff.var(n, i)


# -- frame fields --------------------------------------------------------


def test_frame_on_coordinates_n1():
    # X = d/dx - (y/2) d/dt, Y = d/dy + (x/2) d/dt, T = d/dt
    x, y, t = (_var(1, i) for i in (1, 2, 3))
    assert frame_apply(1, x) == PolyCoeff.const(1, 1)
    assert frame_apply(1, y).is_zero()
    assert frame_apply(1, t) == y.scale(Fraction(-1, 2))
    assert frame_apply(2, t) == x.scale(Fraction(1, 2))
    assert frame_apply(3, t) == PolyCoeff.const(1, 1)
    assert frame_apply(3, x).is_zero()


def test_frame_on_coordinates_n2():
    t = _var(2, 5)
    assert frame_apply(1, t) == _var(2, 3).scale(Fraction(-1, 2))  # X1 t = -y1/2
    assert frame_apply(4, t) == _var(2, 2).scale(Fraction(1, 2))   # Y2 t = x2/2
    assert frame_apply(2, _var(2, 1)).is_zero()                    # X2 x1 = 0


@pytest.mark.parametrize("n", [1, 2])
def test_commutators(n):
    """[X_j, Y_j] = T and all other frame brackets vanish."""
    rng = seeded_rng(7)
    width = 2 * n + 1
    for _ in range(10):
        f = random_poly(rng, n, max_degree=3)
        tf = frame_apply(width, f)
        for i in range(1, width):
            for j in range(1, width):
                bracket = frame_apply(i, frame_apply(j, f)) - frame_apply(j, frame_apply(i, f))
                if j == i + n and i <= n:
                    assert bracket == tf
                elif i == j + n and j <= n:
                    assert bracket == -tf
                else:
                    assert bracket.is_zero()


def test_twist_polynomial():
    # w~_i = w_{n+i} for i <= n, -w_{i-n} for n < i <= 2n
    assert twist_polynomial(2, 1) == _var(2, 3)
    assert twist_polynomial(2, 2) == _var(2, 4)
    assert twist_polynomial(2, 3) == -_var(2, 1)
    assert twist_polynomial(2, 4) == -_var(2, 2)
    assert theta_index(2) == 5


# -- wedge algebra -------------------------------------------------------


def test_wedge_anticommutes_on_one_forms():
    a, b = dx(2, 1), dy(2, 2)
    assert wedge(a, b) == -wedge(b, a)
    assert wedge(a, a).is_zero()


def test_wedge_graded_commutativity():
    n = 2
    rng = seeded_rng(11)
    for k in (1, 2):
        for l in (1, 2):
            a = random_form(rng, n, k, max_degree=2)
            b = random_form(rng, n, l, max_degree=2)
            sign = (-1) ** (k * l)
            assert wedge(a, b) == wedge(b, a).scale(sign)


def test_wedge_associativity_and_bilinearity():
    n = 2
    rng = seeded_rng(13)
    a = random_form(rng, n, 1, max_degree=2)
    b = random_form(rng, n, 1, max_degree=2)
    c = random_form(rng, n, 2, max_degree=2)
    assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))
    assert wedge(a + b, c) == wedge(a, c) + wedge(b, c)


# -- exterior derivative -------------------------------------------------


def test_d_on_functions_pairs_with_frame():
    # the coefficient of theta_i in df is W_i f
    rng = seeded_rng(17)
    for n in (1, 2):
        for _ in range(5):
            f = random_poly(rng, n, max_degree=3)
            df = exterior_derivative(Form.function(f))
            for i in range(1, 2 * n + 2):
                basis_vec = MultiVector.from_blade(n, (i,))
                assert pairing(df, basis_vec) == frame_apply(i, f)


def test_d_oracle():
    # d(x^2 y) = 2xy dx + x^2 dy at n=1 (no vertical component)
    x, y = _var(1, 1), _var(1, 2)
    df = exterior_derivative(Form.function(x ** 2 * y))
    expected = dx(1).scale(2 * x * y) + dy(1).scale(x ** 2)
    assert df == expected


def test_d_contact_form_matches():
    for n in (1, 2, 3):
        assert exterior_derivative(contact_form(n)) == d_contact_form(n)
        # dtheta = -sum dx_j ^ dy_j
        expected = Form.zero(n, 2)
        for j in range(1, n + 1):
            expected = expected + wedge(dx(n, j), dy(n, j)).scale(-1)
        assert d_contact_form(n) == expected


def test_d_squared_is_zero():
    rng = seeded_rng(19)
    for n in (1, 2):
        for k in range(0, 2 * n + 1):
            for _ in range(5):
                a = random_form(rng, n, k, max_degree=3)
                assert exterior_derivative(exterior_derivative(a)).is_zero()


def test_leibniz_rule():
    rng = seeded_rng(23)
    n = 2
    for k in (0, 1, 2):
        a = random_form(rng, n, k, max_degree=2)
        b = random_form(rng, n, 1, max_degree=2)
        lhs = exterior_derivative(wedge(a, b))
        rhs = wedge(exterior_derivative(a), b) + wedge(a, exterior_derivative(b)).scale((-1) ** k)
        assert lhs == rhs


def _poly_strategy(n: int):
    # Denominators up to 6 (3, 4, 5, 6 and their mixtures, not only 1 and 2):
    # d works over twice the lcm of its input denominators.
    width = 2 * n + 1
    exps = st.tuples(*(st.integers(0, 2) for _ in range(width)))
    coeff = st.fractions(min_value=-4, max_value=4, max_denominator=6).filter(bool)
    return st.dictionaries(exps, coeff, min_size=1, max_size=3).map(lambda t: PolyCoeff(n, t))


@st.composite
def _forms(draw, ns=(1, 2, 3)):
    """A sparse random form: any n in ns, any degree 0..2n+1."""
    n = draw(st.sampled_from(ns))
    degree = draw(st.integers(0, 2 * n + 1))
    blades = draw(
        st.lists(st.sampled_from(all_blades(n, degree)), min_size=1, max_size=4, unique=True)
    )
    return Form(n, degree, {blade: draw(_poly_strategy(n)) for blade in blades})


def _d_termwise(a: Form) -> Form:
    """d(c . blade) = sum_i (W_i c) theta_i ^ blade + c . d(blade), one
    Form and one wedge per term; d(rest ^ theta) = (-1)^|rest| rest ^ dtheta."""
    n = a.n
    width = 2 * n + 1
    dtheta = Form(n, 2, {(j, n + j): -1 for j in range(1, n + 1)})
    total = Form.zero(n, a.degree + 1)
    for blade, c in a.coeffs.items():
        for i in range(1, width + 1):
            w_c = Form.from_blade(n, (i,), frame_apply(i, c))
            total = total + wedge(w_c, Form.from_blade(n, blade))
        if width in blade:
            rest = blade[:-1]
            total = total + wedge(Form.from_blade(n, rest, c), dtheta).scale((-1) ** len(rest))
    return total


@settings(max_examples=150, deadline=None)
@given(_forms())
def test_d_matches_termwise_reference(a):
    d_a = exterior_derivative(a)
    assert d_a == _d_termwise(a)
    assert d_a.degree == a.degree + 1


@settings(max_examples=40, deadline=None)
@given(_forms(ns=(3,)))
def test_d_squared_is_zero_n3(a):
    assert exterior_derivative(exterior_derivative(a)).is_zero()


def test_d_theta_tail_sign():
    # d(dx1 ^ theta) = -dx1 ^ dtheta = dx1 ^ dx2 ^ dy2 at n=2
    n = 2
    a = wedge(dx(n, 1), contact_form(n))
    expected = wedge(wedge(dx(n, 1), dx(n, 2)), dy(n, 2))
    assert exterior_derivative(a) == expected


# -- pairing and inner product -------------------------------------------


def test_coframe_frame_duality():
    for n in (1, 2):
        width = 2 * n + 1
        for i in range(1, width + 1):
            omega = Form.from_blade(n, (i,))
            for j in range(1, width + 1):
                v = MultiVector.from_blade(n, (j,))
                expected = PolyCoeff.const(n, 1 if i == j else 0)
                assert pairing(omega, v) == expected


def test_inner_orthonormal_blades():
    n = 2
    for k in (1, 2, 3):
        blades = all_blades(n, k)
        for b1 in blades:
            for b2 in blades:
                a = Form.from_blade(n, b1)
                b = Form.from_blade(n, b2)
                expected = PolyCoeff.const(n, 1 if b1 == b2 else 0)
                assert inner(a, b) == expected


def test_horizontal_gradient_components():
    rng = seeded_rng(29)
    for n in (1, 2):
        f = random_poly(rng, n, max_degree=3)
        grad = horizontal_gradient(f)
        for i in range(1, 2 * n + 1):
            assert pairing(Form.from_blade(n, (i,)), grad) == frame_apply(i, f)
        # no vertical component
        assert pairing(Form.from_blade(n, (2 * n + 1,)), grad).is_zero()


# -- Hodge star ----------------------------------------------------------


def test_hodge_involution_all_blades():
    for n in (1, 2, 3):
        for k in range(0, 2 * n + 2):
            for blade in all_blades(n, k):
                v = MultiVector.from_blade(n, blade)
                assert hodge_star(hodge_star(v)) == v


def test_hodge_oracle_n1():
    X = MultiVector.from_blade(1, (1,))
    Y = MultiVector.from_blade(1, (2,))
    T = MultiVector.from_blade(1, (3,))
    assert hodge_star(X) == wedge(Y, T)
    assert hodge_star(Y) == -wedge(X, T)
    assert hodge_star(T) == wedge(X, Y)
    vol = wedge(wedge(X, Y), T)
    assert hodge_star(MultiVector.from_blade(1, ())) == vol
    assert hodge_star(vol) == MultiVector.from_blade(1, ())


def test_hodge_preserves_inner_product():
    rng = seeded_rng(31)
    for n in (1, 2, 3):
        for k in range(0, 2 * n + 2):
            blades = all_blades(n, k)
            for _ in range(5):
                a = MultiVector(n, k, {b: Fraction(rng.randint(-5, 5)) for b in blades})
                b = MultiVector(n, k, {b2: Fraction(rng.randint(-5, 5)) for b2 in blades})
                assert inner(hodge_star(a), hodge_star(b)) == inner(a, b)


# -- naming and serialization ---------------------------------------------


def test_blade_name():
    assert blade_name(1, (1,)) == "dx"
    assert blade_name(1, (2,)) == "dy"
    assert blade_name(1, (3,)) == "theta"
    assert blade_name(1, (1, 2, 3)) == "dx^dy^theta"
    assert blade_name(2, (1, 4, 5)) == "dx1^dy2^theta"
    assert blade_name(2, (2,), vector=True) == "X2"
    assert blade_name(1, (3,), vector=True) == "T"
    assert blade_name(1, ()) == "1"


def test_repr_terms():
    # The empty blade prints as a bare "(coeff)", not "(coeff) 1".
    x = _var(2, 1)
    assert repr(Form(2, 0, {(): x.scale(Fraction(1, 2))})) == "Form(n=2, (1/2·w1^1))"
    coeffs = {(1, 3): 3, (2, 5): x}
    assert repr(Form(2, 2, coeffs)) == "Form(n=2, (3/1) dx1^dy1 + (1/1·w1^1) dx2^theta)"
    assert repr(MultiVector(2, 2, coeffs)) == "MultiVector(n=2, (3/1) X1^Y1 + (1/1·w1^1) X2^T)"
    assert repr(MultiVector.zero(2, 1)) == "MultiVector(n=2, 0)"


def test_all_blades_counts():
    for n in (1, 2, 3):
        for k in range(0, 2 * n + 2):
            blades = all_blades(n, k)
            assert len(blades) == comb(2 * n + 1, k)
            assert blades == sorted(blades)


def test_form_json_round_trip():
    rng = seeded_rng(37)
    for n in (1, 2):
        for k in (0, 1, 2):
            a = random_form(rng, n, k, max_degree=3)
            data = form_to_json(a)
            assert data["n"] == n and data["degree"] == k
            assert form_from_json(data) == a


def test_form_json_rational_text():
    a = dx(1).scale(Fraction(-1, 2))
    data = form_to_json(a)
    assert data["terms"] == [{"blade": [1], "coeff": "-1/2"}]
