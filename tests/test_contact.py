"""Smooth maps of H^n: pushforward, contactness, pullback, commutation."""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from heiscalc.coeff import PolyCoeff
from heiscalc.contact import (
    A_coefficient,
    SmoothMap,
    builtin_dilation,
    builtin_left_translation,
    commute_check,
    compose,
    identity_map,
    is_contact,
    lambda_coefficient,
    parse_map,
    pullback_J,
    pullback_form,
    pullback_quotient,
    pushforward,
    suite_maps,
    verify_subspaces,
)
from heiscalc.frame import (
    Form,
    all_blades,
    contact_form,
    dx,
    dy,
    exterior_derivative,
    wedge,
)
from heiscalc.rumin import basis_J, in_subspace, project_quotient
from heiscalc.sampling import random_form, random_poly, seeded_rng


def _var(n, i):
    return PolyCoeff.var(n, i)


def _const(n, v):
    return PolyCoeff.const(n, v)


# -- map construction -------------------------------------------------------


def test_smooth_map_validation():
    with pytest.raises(ValueError):
        SmoothMap(1, (PolyCoeff.var(1, 1),))  # needs 2n+1 components
    with pytest.raises(ValueError):
        SmoothMap(1, tuple(PolyCoeff.var(2, i) for i in (1, 2, 3)))  # arity mismatch


def test_identity_map():
    f = identity_map(2)
    for l in range(1, 6):
        assert f.component(l) == _var(2, l)
    m = f.frame_matrix
    for l in range(1, 6):
        for j in range(1, 6):
            assert m.entry(l, j) == _const(2, 1 if l == j else 0)


def test_dilation_frame_matrix():
    # the anisotropic dilation acts diagonally: r on the horizontal rows,
    # r^2 on the vertical one
    n, r = 2, Fraction(3, 2)
    m = builtin_dilation(r, n).frame_matrix
    for l in range(1, 2 * n + 1):
        for j in range(1, 2 * n + 2):
            assert m.entry(l, j) == _const(n, r if l == j else 0)
    for j in range(1, 2 * n + 1):
        assert m.entry(2 * n + 1, j).is_zero()
    assert m.entry(2 * n + 1, 2 * n + 1) == _const(n, r * r)


def test_translation_frame_matrix_is_identity():
    # left translations leave the left-invariant frame unchanged
    n = 2
    f = builtin_left_translation([Fraction(1, 2), 1, -2, Fraction(2, 3), 3], n)
    m = f.frame_matrix
    for l in range(1, 2 * n + 2):
        for j in range(1, 2 * n + 2):
            assert m.entry(l, j) == _const(n, 1 if l == j else 0)


def test_dilation_requires_positive_ratio():
    with pytest.raises(ValueError):
        builtin_dilation(0, 1)
    with pytest.raises(ValueError):
        builtin_dilation(Fraction(-1, 2), 1)


def test_translation_rejects_floats_and_bad_arity():
    with pytest.raises((TypeError, ValueError)):
        builtin_left_translation([0.5, 0, 0], 1)
    with pytest.raises(ValueError):
        builtin_left_translation([1, 0], 1)


# -- contactness -------------------------------------------------------------


def test_dilation_contact_coefficients():
    for n in (1, 2):
        for r in (2, Fraction(1, 3)):
            f = builtin_dilation(r, n)
            assert is_contact(f)
            for j in range(1, 2 * n + 1):
                assert A_coefficient(j, f).is_zero()
            assert A_coefficient(2 * n + 1, f) == _const(n, r * r)


def test_translation_contact_coefficients():
    n = 2
    f = builtin_left_translation([1, Fraction(-1, 2), 0, 2, Fraction(1, 3)], n)
    assert is_contact(f)
    for j in range(1, 2 * n + 1):
        assert A_coefficient(j, f).is_zero()
    assert A_coefficient(2 * n + 1, f) == _const(n, 1)


def test_non_contact_witness():
    # (x, y, 2t) fails at the first frame direction with -y/2
    f = SmoothMap(1, (_var(1, 1), _var(1, 2), _var(1, 3).scale(2)))
    assert not is_contact(f)
    assert A_coefficient(1, f) == _var(1, 2).scale(Fraction(-1, 2))


def test_lambda_is_j_independent():
    n = 2
    for f in suite_maps(n):
        assert lambda_coefficient(1, f) == lambda_coefficient(2, f)


def test_lambda_values():
    assert lambda_coefficient(1, builtin_dilation(3, 1)) == _const(1, 9)
    tr = builtin_left_translation([2, -1, Fraction(1, 2)], 1)
    assert lambda_coefficient(1, tr) == _const(1, 1)


def test_lambda_multiplicative_under_composition():
    n = 1
    g = builtin_dilation(2, n)
    f = builtin_left_translation([1, -2, Fraction(1, 3)], n)
    gf = compose(g, f)
    lam_g = lambda_coefficient(1, g).substitute(f.components)
    lam_f = lambda_coefficient(1, f)
    assert lambda_coefficient(1, gf) == lam_g * lam_f


# -- pushforward and chain rule ----------------------------------------------


def test_pushforward_returns_frame_matrix():
    f = builtin_dilation(2, 1)
    assert pushforward(f) is f.frame_matrix


def test_chain_rule():
    # M_{g o f}(p) = M_g(f(p)) . M_f(p)
    n = 1
    g = builtin_dilation(2, n)
    f = builtin_left_translation([1, Fraction(-1, 2), 2], n)
    gf = compose(g, f)
    mg, mf, mgf = g.frame_matrix, f.frame_matrix, gf.frame_matrix
    width = 2 * n + 1
    for l in range(1, width + 1):
        for j in range(1, width + 1):
            acc = PolyCoeff.zero(n)
            for m in range(1, width + 1):
                acc = acc + mg.entry(l, m).substitute(f.components) * mf.entry(m, j)
            assert mgf.entry(l, j) == acc


def test_frame_matrix_json():
    data = builtin_dilation(2, 1).frame_matrix.to_json()
    assert data["n"] == 1
    assert len(data["entries"]) == 3
    assert data["entries"][0][0] == "2/1"


# -- pullback ----------------------------------------------------------------


def test_pullback_of_function_is_substitution():
    n = 1
    f = builtin_left_translation([1, 2, Fraction(1, 2)], n)
    p = _var(n, 1) ** 2 + _var(n, 3)
    pulled = pullback_form(f, Form.function(p))
    assert pulled == Form.function(p.substitute(f.components))


def test_pullback_scales_contact_form_by_lambda():
    for n in (1, 2):
        for f in suite_maps(n):
            lam = lambda_coefficient(1, f)
            assert pullback_form(f, contact_form(n)) == contact_form(n).scale(lam)


def test_pullback_is_an_algebra_morphism():
    rng = seeded_rng(41)
    n = 1
    f = compose(builtin_dilation(2, n), builtin_left_translation([1, -1, Fraction(1, 2)], n))
    for k, l in ((0, 1), (1, 1), (1, 2)):
        a = random_form(rng, n, k, max_degree=2)
        b = random_form(rng, n, l, max_degree=2)
        assert pullback_form(f, wedge(a, b)) == wedge(pullback_form(f, a), pullback_form(f, b))


def test_pullback_commutes_with_d_even_for_non_contact_maps():
    # the transpose-coframe pullback is the honest coordinate pullback,
    # so naturality needs no contactness
    rng = seeded_rng(43)
    maps = [
        parse_map("poly:[w1, w2, 2*w3]", 1),
        parse_map("poly:[w1 + w2^2, w2, w3 - w1*w2]", 1),
    ]
    for f in maps:
        for k in (0, 1, 2):
            a = random_form(rng, 1, k, max_degree=2)
            assert pullback_form(f, exterior_derivative(a)) == exterior_derivative(pullback_form(f, a))


def _fresh_pullback(f: SmoothMap, alpha: Form) -> Form:
    """Pullback rebuilt per call: a fresh `substitute` for every coefficient
    and the coframe images read from the frame matrix."""
    n = f.n
    mat = pushforward(f)
    gens = [
        Form(n, 1, {(j,): mat.entry(m, j) for j in range(1, 2 * n + 2)})
        for m in range(1, 2 * n + 2)
    ]
    out = Form.zero(n, alpha.degree)
    for blade, coeff in alpha.coeffs.items():
        piece = Form.function(coeff.substitute(f.components))
        for idx in blade:
            piece = wedge(piece, gens[idx - 1])
        out = out + piece
    return out


def _assert_tables_hold_their_own_images(f: SmoothMap) -> None:
    """Every cached blade and monomial image is f's own, recomputed here."""
    one = Form.function(_const(f.n, 1))
    for blade, image in f._blade_images.items():
        expected = one
        for idx in blade:
            expected = wedge(expected, f._coframe_pullbacks[idx - 1])
        assert image == expected, blade
    for exps, image in f._monomial_images.items():
        assert image == PolyCoeff(f.n, {exps: 1}).substitute(f.components), exps


def test_pullback_tables_stay_with_their_map():
    # Two maps alternate over the same forms; each keeps its own
    # coframe, blade and monomial images, so neither may see the
    # other's entries.
    n = 2
    rng = seeded_rng(47)
    maps = [
        builtin_dilation(Fraction(3, 2), n),
        compose(builtin_left_translation([1, Fraction(-1, 2), 2, Fraction(1, 3), -1], n),
                parse_map("poly:[w1, w2, w3 + w1^2, w4, w5 + w1^3/6]", n)),
    ]
    forms = [random_form(rng, n, k, max_degree=3) for k in (0, 1, 2, 3)]
    for _ in range(2):  # the second pass reads tables the first one filled
        for alpha in forms:
            for f in maps:
                assert pullback_form(f, alpha) == _fresh_pullback(f, alpha)
    first, second = maps
    for table in ("_blade_images", "_monomial_images"):
        assert getattr(first, table) is not getattr(second, table), table
    for f in maps:
        # blades up to degree 3, and the monomials of every coefficient
        assert len(f._blade_images) > 2 * n + 2
        assert f._monomial_images.keys() == {e for a in forms for c in a.coeffs.values() for e in c.num}
        _assert_tables_hold_their_own_images(f)


def _shear(n: int) -> SmoothMap:
    """The contact shear y1 -> y1 + x1^2, t -> t + x1^3/6 after a translation."""
    if n == 2:
        return parse_map("compose:translate:q=1/2,-1,3/2,-2,1/3;"
                         "poly:[w1, w2, w3 + w1^2, w4, w5 + w1^3/6]", n)
    return parse_map("compose:translate:q=1/2,-1,1/3;poly:[w1, w2 + w1^2, w3 + w1^3/6]", n)


# Built once, so that successive examples share (and test) each map's tables.
_PULLBACK_MAPS = {n: suite_maps(n) + [_shear(n)] for n in (1, 2)}


@st.composite
def _map_and_form(draw):
    n = draw(st.sampled_from([1, 2]))
    f = draw(st.sampled_from(_PULLBACK_MAPS[n]))
    degree = draw(st.integers(0, 2 * n + 1))
    width = 2 * n + 1
    blades = draw(st.lists(st.sampled_from(all_blades(n, degree)), min_size=1, max_size=4,
                           unique=True))
    exps = st.tuples(*(st.integers(0, 2) for _ in range(width)))
    coeff = st.fractions(min_value=-4, max_value=4, max_denominator=6).filter(bool)
    poly = st.dictionaries(exps, coeff, min_size=1, max_size=3).map(lambda t: PolyCoeff(n, t))
    return f, Form(n, degree, {blade: draw(poly) for blade in blades})


@settings(max_examples=150, deadline=None)
@given(_map_and_form())
def test_pullback_matches_untabled_reference(case):
    f, alpha = case
    pulled = pullback_form(f, alpha)
    assert pulled == _fresh_pullback(f, alpha)
    assert pulled.degree == alpha.degree


def test_pullback_quotient_well_defined():
    n = 1
    f = builtin_dilation(2, n)
    a = dy(n).scale(_var(n, 1) ** 2)
    shifted = a + contact_form(n).scale(_var(n, 2))
    assert pullback_quotient(f, project_quotient(a)) == pullback_quotient(f, project_quotient(shifted))


def test_pullback_J_oracle():
    # the dilation multiplies dx^theta by r * r^2
    n, r = 1, 3
    f = builtin_dilation(r, n)
    a = wedge(dx(n), contact_form(n))
    assert pullback_J(f, a) == a.scale(r ** 3)


def test_pullback_gates_on_contactness():
    n = 1
    bad = SmoothMap(1, (_var(1, 1), _var(1, 2), _var(1, 3).scale(2)))
    with pytest.raises(ValueError, match="not contact"):
        pullback_quotient(bad, project_quotient(dx(n)))
    with pytest.raises(ValueError, match="not contact"):
        pullback_J(bad, wedge(dx(n), contact_form(n)))


def test_pullback_J_validates_membership():
    f = builtin_dilation(2, 1)
    with pytest.raises(ValueError):
        pullback_J(f, dx(1))  # dx is not in J^1


# -- map literals ------------------------------------------------------------


def test_parse_identity_and_dilation():
    f = parse_map("identity", 2)
    assert f.components == identity_map(2).components
    g = parse_map("dilation:r=2", 1)
    assert g.component(3) == _var(1, 3).scale(4)
    h = parse_map("dilation:r=1/3", 1)
    assert h.component(1) == _var(1, 1).scale(Fraction(1, 3))


def test_parse_translation():
    f = parse_map("translate:q=1/2,0,3", 1)
    assert f.component(1) == _var(1, 1) + _const(1, Fraction(1, 2))
    assert f.component(2) == _var(1, 2)
    # t-component carries the group cocycle
    expected_t = _var(1, 3) + _const(1, 3) + (
        _var(1, 2).scale(Fraction(1, 4)) - _var(1, 1).scale(0)
    )
    assert f.component(3) == expected_t


def test_parse_poly_and_expression_grammar():
    f = parse_map("poly:[w1, w2, 2*w3]", 1)
    assert f.component(3) == _var(1, 3).scale(2)
    g = parse_map("poly:[w1 + w2^2, -w2, (w3 - w1)/2]", 1)
    assert g.component(1) == _var(1, 1) + _var(1, 2) ** 2
    assert g.component(2) == -_var(1, 2)
    assert g.component(3) == (_var(1, 3) - _var(1, 1)).scale(Fraction(1, 2))


def test_parse_compose_applies_rightmost_first():
    f = parse_map("compose:dilation:r=2;translate:q=1,0,0", 1)
    # at the origin the translation acts first, then the dilation
    values = [c.eval_exact((0, 0, 0)) for c in f.components]
    assert values == [2, 0, 0]
    # the opposite order dilates the origin (a fixed point) first
    g = parse_map("compose:translate:q=1,0,0;dilation:r=2", 1)
    assert [c.eval_exact((0, 0, 0)) for c in g.components] == [1, 0, 0]


def test_parse_compose_n_ary():
    f = parse_map("compose:dilation:r=2;dilation:r=3;dilation:r=1/6", 1)
    assert f.component(1) == _var(1, 1)
    assert f.component(3) == _var(1, 3)


def test_parse_map_errors():
    for text in (
        "unknown:stuff",
        "dilation:r=0",
        "dilation:r=-2",
        "translate:q=1,0",          # wrong arity
        "poly:[w1, w2]",            # wrong arity
        "poly:[w1, w2, w9]",        # coordinate out of range
        "poly:[w1, w2, w3 / w1]",   # division by a non-constant
        "poly:[w1, w2, 0.5*w3]",    # floats are not exact
        "poly:[w1, w2, 2*]",
        "poly:[9^99999999, w2, w3]",        # powers too large to expand
        "poly:[((w1+w2)^99)^99, w2, w3]",
        "poly:[(w1+1)^99999, w2, w3]",
        "dilation:r=0.25",                  # one grammar for every rational
        "translate:q=1e3,0,0",
        "dilation:r=w1",                    # not a constant
    ):
        with pytest.raises(ValueError):
            parse_map(text, 1)


def test_map_labels():
    assert builtin_dilation(2, 1).label() == "dilation:r=2"
    assert parse_map("identity", 1).label() == "identity"
    comp = compose(builtin_dilation(2, 1), builtin_left_translation([1, 0, 0], 1))
    assert comp.label().startswith("compose:dilation:r=2;translate:q=")


# -- commutation and subspace preservation ------------------------------------


def test_commute_check_report_shape():
    f = builtin_dilation(2, 1)
    report = commute_check(f, 1, trials=10, seed=42, degree=2)
    assert report["suite"] == "pullback-commutation"
    assert report["map"] == "dilation:r=2"
    assert report["n"] == 1 and report["k"] == 1
    assert report["trials"] == 10 and report["seed"] == 42
    assert report["passed"] and report["counterexample"] is None


@pytest.mark.parametrize("k", [0, 1, 2])
def test_commute_dilation_n1(k):
    report = commute_check(builtin_dilation(2, 1), k, trials=15, seed=42, degree=3)
    assert report["passed"], report["counterexample"]


def test_commute_check_detects_a_broken_operator(monkeypatch):
    # sabotage the low operator with a constant offset; a dilation rescales
    # the offset on one side of the square but not the other
    import heiscalc.rumin as rumin_mod
    from heiscalc.rumin import QuotientClass, d_Q_low as real

    def broken(cls):
        out = real(cls)
        return QuotientClass(out.n, out.k, out.representative + dx(out.n))

    monkeypatch.setattr(rumin_mod, "d_Q_low", broken)
    report = commute_check(builtin_dilation(2, 1), 0, trials=10, seed=42, degree=3)
    assert not report["passed"]
    assert report["counterexample"] is not None
    assert "input" in report["counterexample"]


def test_commute_check_failing_report_is_pinned(monkeypatch):
    # the same sabotage; the whole report, serialized, keeps the digest
    # it had before the sampled suites shared one runner
    import heiscalc.rumin as rumin_mod
    from heiscalc.rumin import QuotientClass, d_Q_low as real

    def broken(cls):
        out = real(cls)
        return QuotientClass(out.n, out.k, out.representative + dx(out.n))

    monkeypatch.setattr(rumin_mod, "d_Q_low", broken)
    report = commute_check(builtin_dilation(2, 1), 0, trials=10, seed=42, degree=3)
    assert report["counterexample"]["trial"] == 0
    text = json.dumps(report, indent=2) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "2ff24afbc63a11663b15c4bdf70014569c7a5a74faaa995fe31cdfbee9c9362c"
    )


def test_commute_check_argument_errors_in_order():
    # k is checked first, then trials, then contactness
    f = parse_map("poly:[w1, w2, 2*w3]", 1)
    with pytest.raises(ValueError, match="out of range"):
        commute_check(f, 3, trials=0)
    with pytest.raises(ValueError, match="trials must be >= 1"):
        commute_check(f, 0, trials=0)
    with pytest.raises(ValueError, match="is not contact"):
        commute_check(f, 0, trials=1)


def test_commute_computes_each_A_coefficient_once(monkeypatch):
    # contactness is read from the cached frame matrix, whose A row is
    # built from its own horizontal rows: neither the per-degree gate,
    # the per-trial pullback gates nor A(j, f) itself recompute any
    # frame derivative W_j f^l
    import heiscalc.contact as contact_mod

    calls = {}
    real = contact_mod.frame_apply

    def counting(j, p):
        calls[(j, id(p))] = calls.get((j, id(p)), 0) + 1
        return real(j, p)

    monkeypatch.setattr(contact_mod, "frame_apply", counting)
    n = 2
    dim = 2 * n + 1
    f = parse_map("compose:translate:q=1,-2,1,3,1/2;dilation:r=2", n)
    assert is_contact(f)
    for k in range(0, 2 * n + 1):
        report = commute_check(f, k, trials=2, seed=7, degree=2)
        assert report["passed"], report["counterexample"]
    assert A_coefficient(dim, f) == _const(n, 4)
    assert lambda_coefficient(1, f) == lambda_coefficient(2, f) == _const(n, 4)
    assert set(calls) == {(j, id(c)) for j in range(1, dim + 1) for c in f.components}
    assert max(calls.values()) == 1


def test_verify_subspaces_passes():
    for n in (1, 2):
        report = verify_subspaces(n, seed=42)
        assert report["suite"] == "subspace-preservation"
        assert report["passed"], report
        assert report["checks"]


def test_suite_maps_contents():
    maps = suite_maps(2, seed=42)
    labels = [f.label() for f in maps]
    assert labels[0] == "dilation:r=2"
    assert labels[1] == "dilation:r=1/3"
    assert labels[2].startswith("translate:q=")
    assert labels[3].startswith("compose:")
    # deterministic for a fixed seed
    again = suite_maps(2, seed=42)
    assert [f.components for f in maps] == [g.components for g in again]


# -- the five records -----------------------------------------------------------


def _records():
    from heiscalc.coeff import Point
    from heiscalc.rumin import QuotientClass, SubspaceBasis

    f = builtin_dilation(2, 1)
    return {
        "Point": (Point((1.0, 2.0, 3.0)), ["coords", "n"]),
        "SubspaceBasis": (basis_J(2, 1), ["n", "degree", "kind", "elements"]),
        "QuotientClass": (QuotientClass(1, 0, Form.function(_var(1, 1))),
                          ["n", "k", "representative", "relation"]),
        "SmoothMap": (f, ["n", "components", "description", "frame_matrix"]),
        "FrameMatrix": (f.frame_matrix, ["n", "entries"]),
    }


@pytest.mark.parametrize("name", ["Point", "SubspaceBasis", "QuotientClass", "SmoothMap", "FrameMatrix"])
def test_record_fields_cannot_be_assigned(name):
    record, fields = _records()[name]
    for field in fields:
        before = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        assert getattr(record, field) is before
    with pytest.raises(AttributeError):
        record.extra = 1
    with pytest.raises(AttributeError):
        del record.n


def test_point_compares_and_hashes_by_coords():
    from heiscalc.coeff import Point

    a, b = Point((1.0, 2.0, 3.0)), Point((1.0, 2.0, 3.0))
    assert a == b and a is not b and hash(a) == hash(b)
    assert len({a, b, Point((1.0, 2.0, 4.0))}) == 2
    assert a != Point((1.0, 2.0, 4.0))
    assert a != (1.0, 2.0, 3.0)
    assert Point(coords=(0.0,) * 5).n == 2
    with pytest.raises(ValueError, match=r"^a point of H\^n needs an odd number >= 3 of coordinates, got 2$"):
        Point((1.0, 2.0))
    with pytest.raises(ValueError, match=r"^non-finite coordinate in \(1\.0, inf, 0\.0\)$"):
        Point((1.0, float("inf"), 0.0))


def test_maps_and_frame_matrices_compare_by_identity():
    f, g = builtin_dilation(2, 1), builtin_dilation(2, 1)
    assert f.components == g.components and f.label() == g.label()
    assert f != g and f == f
    assert len({f, g}) == 2
    assert f.frame_matrix.entries == g.frame_matrix.entries
    assert f.frame_matrix != g.frame_matrix and f.frame_matrix == f.frame_matrix


def test_quotient_class_equality_sees_relation():
    from heiscalc.rumin import QuotientClass

    rep = Form.function(_var(1, 1))
    assert QuotientClass(1, 0, rep) == QuotientClass(1, 0, rep, "I")
    assert QuotientClass(1, 0, rep).relation == "I"
    for other in (QuotientClass(1, 0, rep, relation="theta"),
                  QuotientClass(1, 0, Form.function(_var(1, 2)))):
        assert not QuotientClass(1, 0, rep) == other
        assert QuotientClass(1, 0, rep) != other


def test_frame_matrix_is_computed_once_per_map(monkeypatch):
    import heiscalc.contact as contact_mod

    calls = []
    real = contact_mod.frame_apply

    def counting(j, p):
        calls.append(j)
        return real(j, p)

    monkeypatch.setattr(contact_mod, "frame_apply", counting)
    f = builtin_left_translation((1, 2, 3), 1)
    first = f.frame_matrix
    assert len(calls) == 9  # W_j f^l for j, l = 1..3
    assert f.frame_matrix is first and pushforward(f) is first
    assert len(calls) == 9
    builtin_left_translation((1, 2, 3), 1).frame_matrix  # a second map builds its own
    assert len(calls) == 18
