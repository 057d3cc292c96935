"""Exact polynomial coefficient arithmetic."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from heiscalc.coeff import Point, PolyCoeff, evaluate_at
from heiscalc.contact import parse_map
from heiscalc.frame import Form, all_blades, exterior_derivative, form_from_json


def _poly_terms(n: int, max_degree: int = 2, max_terms: int = 3):
    width = 2 * n + 1
    exps = st.tuples(*(st.integers(0, max_degree) for _ in range(width)))
    coeff = st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(bool)
    return st.dictionaries(exps, coeff, max_size=max_terms)


def polys(n: int = 1, max_degree: int = 2):
    return _poly_terms(n, max_degree).map(lambda terms: PolyCoeff(n, terms))


# -- construction -------------------------------------------------------


def test_const_var_zero():
    assert PolyCoeff.const(1, Fraction(3, 2)).to_text() == "3/2"
    assert PolyCoeff.var(1, 2).to_text() == "1/1·w2^1"
    assert PolyCoeff.zero(2).is_zero()
    assert PolyCoeff.const(1, 0).is_zero()


def test_var_index_range():
    with pytest.raises(IndexError):
        PolyCoeff.var(1, 4)
    with pytest.raises(IndexError):
        PolyCoeff.var(1, 0)


def test_mixed_arity_rejected():
    with pytest.raises(ValueError):
        PolyCoeff.var(1, 1) + PolyCoeff.var(2, 1)


def test_int_and_fraction_coercion():
    x = PolyCoeff.var(1, 1)
    assert x + 1 == PolyCoeff(1, {(0, 0, 0): Fraction(1), (1, 0, 0): Fraction(1)})
    assert 2 * x == x + x
    assert Fraction(1, 2) * x == x.scale(Fraction(1, 2))
    assert 1 - x == -(x - 1)


# -- ring laws ----------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), polys())
def test_ring_laws(p, q, r):
    assert p + q == q + p
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + (-p) == PolyCoeff.zero(1)


@settings(max_examples=30, deadline=None)
@given(polys())
def test_pow_matches_repeated_product(p):
    assert p ** 0 == PolyCoeff.const(1, 1)
    assert p ** 1 == p
    assert p ** 3 == p * p * p


@settings(max_examples=40, deadline=None)
@given(polys(), polys())
def test_partial_is_a_derivation(p, q):
    for i in (1, 2, 3):
        left = (p * q).partial(i)
        right = p.partial(i) * q + p * q.partial(i)
        assert left == right


def test_partial_oracle():
    # d/dw1 (w1^2 w2) = 2 w1 w2, d/dw2 = w1^2, d/dw3 = 0
    p = PolyCoeff.var(1, 1) ** 2 * PolyCoeff.var(1, 2)
    assert p.partial(1) == 2 * PolyCoeff.var(1, 1) * PolyCoeff.var(1, 2)
    assert p.partial(2) == PolyCoeff.var(1, 1) ** 2
    assert p.partial(3).is_zero()


def test_total_degree():
    assert PolyCoeff.zero(1).total_degree() == -1
    assert PolyCoeff.const(1, 5).total_degree() == 0
    p = PolyCoeff.var(1, 1) ** 2 * PolyCoeff.var(1, 3) + PolyCoeff.var(1, 2)
    assert p.total_degree() == 3


# -- evaluation and substitution ----------------------------------------


@settings(max_examples=40, deadline=None)
@given(polys(), polys())
def test_eval_exact_is_a_homomorphism(p, q):
    pt = (Fraction(1, 2), Fraction(-2), Fraction(3, 4))
    assert (p * q).eval_exact(pt) == p.eval_exact(pt) * q.eval_exact(pt)
    assert (p + q).eval_exact(pt) == p.eval_exact(pt) + q.eval_exact(pt)


def test_evaluate_float():
    p = PolyCoeff.var(1, 1) ** 2 + PolyCoeff.const(1, Fraction(1, 4))
    assert p.evaluate((0.5, 0.0, 0.0)) == pytest.approx(0.5)


@settings(max_examples=30, deadline=None)
@given(polys(), polys())
def test_substitute_is_a_homomorphism(p, q):
    # composition with a fixed polynomial map respects + and *
    comps = (
        PolyCoeff.var(1, 2),
        PolyCoeff.var(1, 1) + PolyCoeff.const(1, 1),
        PolyCoeff.var(1, 3) * PolyCoeff.var(1, 1),
    )
    assert (p + q).substitute(comps) == p.substitute(comps) + q.substitute(comps)
    assert (p * q).substitute(comps) == p.substitute(comps) * q.substitute(comps)


def test_substitute_oracle():
    # w1 -> w1 + w2 in w1^2 gives w1^2 + 2 w1 w2 + w2^2
    w1, w2, w3 = (PolyCoeff.var(1, i) for i in (1, 2, 3))
    assert (w1 ** 2).substitute((w1 + w2, w2, w3)) == w1 ** 2 + 2 * w1 * w2 + w2 ** 2


# -- canonical results of the trusted fast paths ------------------------


def _assert_canonical_poly(p: PolyCoeff, n: int) -> None:
    """Width 2n+1 keys, nonzero int numerators over a reduced positive
    denominator; equal to a validated rebuild from its Fraction values."""
    assert type(p) is PolyCoeff and p.n == n
    assert type(p.den) is int and p.den >= 1
    assert math.gcd(p.den, *p.num.values()) == 1
    assert p.num or p.den == 1
    for exps, c in p.num.items():
        assert type(exps) is tuple and len(exps) == 2 * n + 1
        assert all(type(e) is int and e >= 0 for e in exps)
        assert type(c) is int and c != 0
    terms = {exps: Fraction(c, p.den) for exps, c in p.num.items()}
    rebuilt = PolyCoeff(n, terms)
    assert rebuilt == p and (rebuilt.num, rebuilt.den) == (p.num, p.den)


def _assert_canonical_form(a: Form, n: int) -> None:
    assert type(a) is Form and a.n == n
    for blade, coeff in a.coeffs.items():
        assert type(blade) is tuple and len(blade) == a.degree
        assert all(1 <= i <= 2 * n + 1 for i in blade)
        assert all(blade[k] < blade[k + 1] for k in range(len(blade) - 1))
        assert not coeff.is_zero()
        _assert_canonical_poly(coeff, n)
    rebuilt = Form(n, a.degree, a.coeffs)
    assert rebuilt == a and rebuilt.coeffs == a.coeffs


@st.composite
def _forms(draw, n: int, degree: int):
    blades = draw(st.lists(st.sampled_from(all_blades(n, degree)), max_size=3, unique=True))
    return Form(n, degree, {blade: draw(polys(n)) for blade in blades})


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from([1, 2]))
def test_fast_paths_stay_canonical(data, n):
    p, q = data.draw(polys(n)), data.draw(polys(n))
    factor = data.draw(st.fractions(min_value=-3, max_value=3, max_denominator=4))
    results = [p + q, p - q, p - p, -p, p * q, (p + q) * (p - q), p.scale(factor),
               p ** data.draw(st.integers(0, 3)), 2 * p + 1, 1 - p]
    results += [p.partial(i) for i in range(1, 2 * n + 2)]
    comps = [data.draw(polys(1)) for _ in range(2 * n + 1)]
    results.append(p.substitute(comps))
    for result in results[:-1]:
        _assert_canonical_poly(result, n)
    _assert_canonical_poly(results[-1], 1)

    k = data.draw(st.integers(0, 2 * n))
    l = data.draw(st.integers(0, 2 * n + 1 - k))
    a, b = data.draw(_forms(n, k)), data.draw(_forms(n, k))
    c = data.draw(_forms(n, l))
    for form in (a + b, a - b, a - a, -a, a.wedge(c), c.wedge(a), exterior_derivative(a)):
        _assert_canonical_form(form, n)


# -- integer numerators against a plain Fraction reference ----------------
#
# The reference keeps every polynomial as a dict {exps: Fraction} with no
# zero values and does each operation term by term.


def _ref_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for exps, c in b.items():
        out[exps] = out.get(exps, 0) + c
    return {exps: c for exps, c in out.items() if c}


def _ref_scale(a: dict, factor: Fraction) -> dict:
    return {exps: c * factor for exps, c in a.items() if c * factor}


def _ref_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            exps = tuple(x + y for x, y in zip(ea, eb))
            out = _ref_add(out, {exps: ca * cb})
    return out


def _ref_partial(a: dict, i: int) -> dict:
    out = {}
    for exps, c in a.items():
        if exps[i - 1]:
            lowered = list(exps)
            lowered[i - 1] -= 1
            out[tuple(lowered)] = c * exps[i - 1]
    return out


def _ref_substitute(a: dict, comps: list[dict], width: int) -> dict:
    out: dict = {}
    for exps, c in a.items():
        term = {(0,) * width: c}
        for comp, e in zip(comps, exps):
            for _ in range(e):
                term = _ref_mul(term, comp)
        out = _ref_add(out, term)
    return out


def _raw_terms(n: int):
    # Denominators up to 12 make the lcm and gcd paths meet unequal,
    # non-coprime denominators.
    width = 2 * n + 1
    exps = st.tuples(*(st.integers(0, 2) for _ in range(width)))
    coeff = st.fractions(min_value=-6, max_value=6, max_denominator=12)
    return st.dictionaries(exps, coeff, max_size=4)


def _nonzero(raw: dict) -> dict:
    return {exps: Fraction(c) for exps, c in raw.items() if c}


def _assert_matches(p: PolyCoeff, n: int, ref: dict) -> None:
    _assert_canonical_poly(p, n)
    assert {exps: Fraction(c, p.den) for exps, c in p.num.items()} == ref


@settings(max_examples=150, deadline=None)
@given(st.data(), st.sampled_from([1, 2]))
def test_ring_ops_match_fraction_reference(data, n):
    raw_a, raw_b = data.draw(_raw_terms(n)), data.draw(_raw_terms(n))
    a, b = PolyCoeff(n, raw_a), PolyCoeff(n, raw_b)
    ra, rb = _nonzero(raw_a), _nonzero(raw_b)
    factor = data.draw(st.fractions(min_value=-4, max_value=4, max_denominator=9))
    _assert_matches(a, n, ra)
    _assert_matches(a + b, n, _ref_add(ra, rb))
    _assert_matches(a - b, n, _ref_add(ra, _ref_scale(rb, Fraction(-1))))
    _assert_matches(-a, n, _ref_scale(ra, Fraction(-1)))
    _assert_matches(a * b, n, _ref_mul(ra, rb))
    _assert_matches(a.scale(factor), n, _ref_scale(ra, factor))
    for i in range(1, 2 * n + 2):
        _assert_matches(a.partial(i), n, _ref_partial(ra, i))
    c = data.draw(st.integers(-5, 5))
    d = data.draw(st.integers(1, 6))
    expected = _ref_scale(_ref_add(_ref_scale(ra, Fraction(c)), rb), Fraction(1, d))
    _assert_matches(PolyCoeff.combine(n, [(c, a), (1, b)], d), n, expected)


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from([1, 2]))
def test_substitute_matches_fraction_reference(data, n):
    raw = data.draw(_raw_terms(n))
    width = 2 * n + 1
    raw_comps = [data.draw(_raw_terms(1)) for _ in range(width)]
    comps = [PolyCoeff(1, r) for r in raw_comps]
    expected = _ref_substitute(_nonzero(raw), [_nonzero(r) for r in raw_comps], 3)
    _assert_matches(PolyCoeff(n, raw).substitute(comps), 1, expected)


def test_substitute_takes_high_powers_without_recursion():
    w1, w2, w3 = (PolyCoeff.var(1, i) for i in (1, 2, 3))
    expected = PolyCoeff(1, {(1500, 0, 0): 2 ** 1500})
    assert (w1 ** 1500).substitute((2 * w1, w2, w3)) == expected


# -- text format --------------------------------------------------------


def test_to_text_format():
    w1, w2 = PolyCoeff.var(2, 1), PolyCoeff.var(2, 2)
    p = w1 ** 2 * w2.scale(Fraction(3, 2)) + PolyCoeff.const(2, Fraction(-1, 3))
    assert p.to_text() == "3/2·w1^2·w2^1 + -1/3"
    assert PolyCoeff.zero(2).to_text() == "0/1"


@settings(max_examples=40, deadline=None)
@given(polys(n=2, max_degree=3))
def test_text_round_trip(p):
    assert PolyCoeff.from_text(2, p.to_text()) == p


def test_text_round_trip_past_4300_digits():
    # str(int) and int(str) refuse more than 4,300 digits
    p = PolyCoeff.var(1, 1).scale(Fraction(9**5000, 7))
    text = p.to_text()
    assert text.endswith("/7·w1^1") and len(text) == 4772 + len("/7·w1^1")
    assert PolyCoeff.from_text(1, text) == p
    assert PolyCoeff.from_text(1, "9^5000*w1/7") == p
    q = PolyCoeff.const(1, -(10**5000) - 1)  # zeros where the digits are split
    assert q.to_text() == "-1" + "0" * 4999 + "1/1"
    assert PolyCoeff.from_text(1, q.to_text()) == q


def test_from_text_accepts_star_and_bare_exponent():
    assert PolyCoeff.from_text(1, "2*w1") == 2 * PolyCoeff.var(1, 1)
    assert PolyCoeff.from_text(1, "1/2·w3") == PolyCoeff.var(1, 3).scale(Fraction(1, 2))


def test_from_text_rejects_bad_input():
    with pytest.raises(ValueError):
        PolyCoeff.from_text(1, "1/1·z2^1")
    with pytest.raises(ValueError):
        PolyCoeff.from_text(1, "1/1·w4^1")  # w4 needs n >= 2
    with pytest.raises(ValueError, match="zero denominator"):
        PolyCoeff.from_text(1, "1/0·w1")


@settings(max_examples=40, deadline=None)
@given(polys(n=2), polys(n=2), polys(n=2))
def test_from_text_agrees_with_arithmetic(a, b, c):
    text = f"({a.to_text()}) * ({b.to_text()}) - ({c.to_text()})"
    assert PolyCoeff.from_text(2, text) == a * b - c
    assert PolyCoeff.from_text(2, f"-({a.to_text()})^2") == -(a ** 2)


# The power bound keeps every text this short under a second: a power
# whose result would be too large is refused before it is expanded.
@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="0123456789w+-*/^()· x", max_size=12))
def test_parser_raises_only_value_error(text):
    """Any text either parses or raises ValueError, alone and as a map component."""
    for parse in (lambda: PolyCoeff.from_text(1, text), lambda: parse_map(f"poly:[{text}, w2, w3]", 1)):
        try:
            parse()
        except ValueError:
            pass


def test_form_from_json_reads_the_poly_grammar():
    data = {"n": 1, "degree": 0, "terms": [{"blade": [], "coeff": "1/2·w1^1 - w2"}]}
    w1, w2 = PolyCoeff.var(1, 1), PolyCoeff.var(1, 2)
    assert form_from_json(data) == Form.function(w1.scale(Fraction(1, 2)) - w2)


# -- points -------------------------------------------------------------


def test_point_validation():
    assert Point((1.0, 2.0, 3.0)).n == 1
    assert Point((0.0,) * 5).n == 2
    with pytest.raises(ValueError):
        Point((1.0, 2.0))
    with pytest.raises(ValueError):
        Point((1.0, float("nan"), 0.0))


def test_evaluate_at_point():
    p = PolyCoeff.var(1, 1) * PolyCoeff.var(1, 2)
    assert evaluate_at(p, Point((2.0, 3.0, 0.0))) == pytest.approx(6.0)
    assert evaluate_at(p, (2.0, 3.0, 0.0)) == pytest.approx(6.0)
