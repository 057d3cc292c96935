"""The frame's exterior algebra against the coordinate chart of `conftest`.

The chart reads theta = dt - 1/2 sum_j (x_j dy_j - y_j dx_j) from the
paper and nothing of the frame, so these checks hold the frame's twist
and dtheta to the paper's conventions, not to one another.
"""

from __future__ import annotations

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from heiscalc.coeff import PolyCoeff
from heiscalc.contact import A_coefficient, SmoothMap, is_contact, lambda_coefficient, pullback_form
from heiscalc.frame import Form, contact_form, exterior_derivative
from heiscalc.sampling import seeded_rng

from conftest import contactomorphisms, d_chart, pullback_chart, random_form, to_chart, wedge_chart

_N = st.integers(1, 3)


def test_chart_reads_the_paper():
    # theta and dtheta = -sum_j dx_j ^ dy_j, written out in the coordinates
    n = 2
    x1, x2, y1, y2 = (PolyCoeff.var(n, i) for i in range(1, 5))
    half = Fraction(1, 2)
    theta = Form(n, 1, {(1,): y1.scale(half), (2,): y2.scale(half), (3,): x1.scale(-half),
                        (4,): x2.scale(-half), (5,): 1})
    assert to_chart(contact_form(n)) == theta
    assert d_chart(theta) == Form(n, 2, {(1, 3): -1, (2, 4): -1})
    assert d_chart(d_chart(theta)).is_zero()


@st.composite
def _maps(draw, n: int) -> tuple[SmoothMap, bool]:
    """(f, strict): a drawn contactomorphism, or, when strict is False,
    one with a term c w_i or c w_i w_j added to one component, which is
    mostly not contact."""
    f, _ = draw(contactomorphisms(n, max_degree=2, max_factors=2))
    if draw(st.booleans()):
        return f, True
    index = st.integers(1, 2 * n + 1)
    term = PolyCoeff.var(n, draw(index)).scale(draw(st.integers(-2, 2).filter(bool)))
    if draw(st.booleans()):
        term = term * PolyCoeff.var(n, draw(index))
    components = list(f.components)
    components[draw(index) - 1] += term
    return SmoothMap(n, components), False


@settings(max_examples=20, deadline=None)
@given(n=_N, degree=st.integers(0, 7), seed=st.integers(0, 2**16))
def test_exterior_derivative_agrees_with_the_chart(n, degree, seed):
    alpha = random_form(seeded_rng(seed), n, min(degree, 2 * n + 1), max_degree=2)
    assert to_chart(exterior_derivative(alpha)) == d_chart(to_chart(alpha))


@settings(max_examples=20, deadline=None)
@given(n=_N, degree=st.integers(0, 2), seed=st.integers(0, 2**16), data=st.data())
def test_pullback_form_agrees_with_the_chart(n, degree, seed, data):
    f, _ = data.draw(_maps(n))
    alpha = random_form(seeded_rng(seed), n, degree, max_degree=2)
    assert to_chart(pullback_form(f, alpha)) == pullback_chart(f, to_chart(alpha))


@settings(max_examples=20, deadline=None)
@given(n=_N, data=st.data())
def test_contact_factor_agrees_with_the_chart(n, data):
    # f* theta = A(2n+1, f) theta, and lambda_j(f) is that factor for every j
    f, lam = data.draw(contactomorphisms(n, max_degree=2, max_factors=2))
    theta = to_chart(contact_form(n))
    factor = A_coefficient(2 * n + 1, f)
    assert factor == PolyCoeff.const(n, lam)
    assert pullback_chart(f, theta) == theta.scale(factor)
    assert all(lambda_coefficient(j, f) == factor for j in range(1, n + 1))


@settings(max_examples=30, deadline=None)
@given(n=_N, data=st.data())
def test_is_contact_agrees_with_the_chart(n, data):
    # f is contact exactly when (f* theta) ^ theta = 0
    f, strict = data.draw(_maps(n))
    theta = to_chart(contact_form(n))
    assert is_contact(f) == wedge_chart(pullback_chart(f, theta), theta).is_zero()
    assert is_contact(f) or not strict
