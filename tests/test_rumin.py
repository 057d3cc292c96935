"""Subspaces, quotient classes, lifting, and the full differential chain."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from heiscalc.coeff import PolyCoeff
from heiscalc.frame import (
    Form,
    all_blades,
    contact_form,
    d_contact_form,
    dx,
    dy,
    exterior_derivative,
    frame_apply,
    theta_index,
    wedge,
)
from heiscalc import rumin
from heiscalc.rumin import (
    D_second_order,
    L_apply,
    L_inverse,
    QuotientClass,
    basis_E0,
    basis_I,
    basis_J,
    basis_quotient,
    d0_corrector,
    d0_inverse,
    d0_part,
    d_Q_high,
    d_Q_low,
    dc_operator,
    dims,
    in_subspace,
    lift,
    project_quotient,
    rumin_operator,
    strip_theta,
    theta_class,
    verify_complex,
    verify_dc,
    verify_lifting,
    weight_of,
)
from heiscalc.sampling import random_combination, random_form, random_poly, seeded_rng


def _var(n, i):
    return PolyCoeff.var(n, i)


# -- the dense reference construction ----------------------------------------
#
# The constant operators as rumin built them before the Lefschetz block
# kernel: dense Gauss-Jordan over every blade of a degree, Gram-Schmidt,
# and one solve per column, with d0 and L read off Form.wedge and
# d0_part on unit forms.  The block kernel must reproduce them exactly.


def _dot(u, v):
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def _rref(rows):
    mat = [list(row) for row in rows]
    if not mat:
        return [], []
    width = len(mat[0])
    pivots = []
    r = 0
    for c in range(width):
        pivot_row = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        mat[r] = [value / mat[r][c] for value in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                factor = mat[i][c]
                mat[i] = [a - factor * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def _perp(rows, width):
    """Basis of the orthogonal complement of the row span."""
    reduced, pivots = _rref(rows)
    basis = []
    for f in (c for c in range(width) if c not in pivots):
        vec = [Fraction(0)] * width
        vec[f] = Fraction(1)
        for row, p in zip(reduced, pivots):
            vec[p] = -row[f]
        basis.append(vec)
    return basis


def _gram_schmidt(rows):
    """Orthogonalize without normalizing; zero vectors are dropped."""
    ortho = []
    for row in rows:
        vec = list(row)
        for prev in ortho:
            coeff = _dot(vec, prev) / _dot(prev, prev)
            if coeff != 0:
                vec = [a - coeff * b for a, b in zip(vec, prev)]
        if any(value != 0 for value in vec):
            ortho.append(vec)
    return ortho


def _solve(rows, rhs):
    """One exact solution of A x = b, or None when inconsistent."""
    width = len(rows[0])
    reduced, pivots = _rref([list(row) + [b] for row, b in zip(rows, rhs)])
    solution = [Fraction(0)] * width
    for row, p in zip(reduced, pivots):
        if p == width:
            return None
        solution[p] = row[width]
    return solution


def _vector(alpha, blades):
    return [rumin._const_value(alpha.coeffs[b]) if b in alpha.coeffs else Fraction(0) for b in blades]


def _columns_to_matrix(columns, height):
    return [[col[i] for col in columns] for i in range(height)]


def _dense_basis(kind, k, n):
    """The reduced basis rows of I, J, the quotient or E0 at degree k."""
    blades = all_blades(n, k)
    width = len(blades)
    theta, dtheta = contact_form(n), d_contact_form(n)
    if kind == "I":
        rows = [_vector(Form.from_blade(n, b).wedge(theta), blades)
                for b in all_blades(n, k - 1) if 2 * n + 1 not in b]
        rows += [_vector(Form.from_blade(n, b).wedge(dtheta), blades) for b in all_blades(n, k - 2)]
    elif kind == "J":
        columns = [_vector(Form.from_blade(n, b).wedge(theta), all_blades(n, k + 1))
                   + _vector(Form.from_blade(n, b).wedge(dtheta), all_blades(n, k + 2)) for b in blades]
        rows = _perp(_columns_to_matrix(columns, len(columns[0])), width)
    elif kind == "quotient":
        if k == 0:
            return [[Fraction(1)]]
        rows = _perp(_dense_basis("I", k, n), width)
    else:
        kernel = _perp(_dense_d0(n, k), width)
        image = _dense_d0_image(n, k - 1)
        if image:
            # span(kernel) cap span(image)^perp, as the perp of the perps' sum
            rows = _perp(_perp(kernel, width) + image, width)
        else:
            rows = kernel
    return _rref(rows)[0]


def _dense_d0(n, k):
    """The matrix of d0 from degree k to k+1, rows on the (k+1)-blades."""
    source, target = all_blades(n, k), all_blades(n, k + 1)
    columns = [_vector(d0_part(Form.from_blade(n, b)), target) for b in source]
    return _columns_to_matrix(columns, len(target))


def _dense_d0_image(n, k):
    if k < 0:
        return []
    matrix = _dense_d0(n, k)
    return _rref(list(zip(*matrix)))[0] if matrix else []


def _dense_d0_pinv(n, k):
    """Pseudo-inverse of d0 at degree k by the old per-column solves."""
    source, target = all_blades(n, k), all_blades(n, k + 1)
    matrix = _dense_d0(n, k)
    image = _gram_schmidt(_dense_d0_image(n, k))
    coker = _perp(_perp(matrix, len(source)), len(source)) if matrix else []
    restricted = [[_dot(row, vec) for row in matrix] for vec in coker]
    stacked = _columns_to_matrix(restricted, len(target))
    columns = []
    for i in range(len(target)):
        projected = [Fraction(0)] * len(target)
        for u in image:
            factor = u[i] / _dot(u, u)
            projected = [p + factor * value for p, value in zip(projected, u)]
        if not any(projected) or not coker:
            columns.append([Fraction(0)] * len(source))
            continue
        solution = _solve(stacked, projected)
        preimage = [Fraction(0)] * len(source)
        for c, vec in zip(solution, coker):
            preimage = [p + c * b for p, b in zip(preimage, vec)]
        columns.append(preimage)
    return _columns_to_matrix(columns, len(source))


def _dense_projector(rows, width):
    """Orthogonal projection onto the row span, sum_r u_r u_r^T / |u_r|^2
    over the Gram-Schmidt rows u_r."""
    matrix = [[Fraction(0)] * width for _ in range(width)]
    for u in _gram_schmidt(rows):
        norm = _dot(u, u)
        for i in range(width):
            for j in range(width):
                matrix[i][j] += u[i] * u[j] / norm
    return matrix


def _dense_L_inverse(n):
    t_idx = 2 * n + 1
    source = [b for b in all_blades(n, n - 1) if t_idx not in b]
    target = [b for b in all_blades(n, n + 1) if t_idx not in b]
    dtheta = d_contact_form(n)
    rows = _columns_to_matrix([_vector(dtheta.wedge(Form.from_blade(n, b)), target) for b in source],
                              len(target))
    columns = [_solve(rows, [Fraction(int(r == i)) for r in range(len(target))]) for i in range(len(target))]
    return _columns_to_matrix(columns, len(source))


def _matmul(a, b, inner):
    return [[sum((row[t] * b[t][j] for t in range(inner)), Fraction(0)) for j in range(len(b[0]) if b else 0)]
            for row in a]


def _dense_pi_E0(n, k):
    """1 - d0+ d0 - d0 d0+ at degree k, from the dense d0 and its pseudo-inverse."""
    width = len(all_blades(n, k))
    result = [[Fraction(int(i == j)) for j in range(width)] for i in range(width)]
    products = []
    if k + 1 <= 2 * n + 1:
        products.append(_matmul(_dense_d0_pinv(n, k), _dense_d0(n, k), len(all_blades(n, k + 1))))
    if k >= 1:
        products.append(_matmul(_dense_d0(n, k - 1), _dense_d0_pinv(n, k - 1), len(all_blades(n, k - 1))))
    for product in products:
        result = [[a - b for a, b in zip(r, p)] for r, p in zip(result, product)]
    return result


def _op_matrix(op, outputs=None):
    """A _ConstOp as a dense matrix: its stored rows in order, or one row
    per blade of outputs, zero where the operator stores none."""
    rows = op.rows
    if outputs is not None:
        stored = dict(zip(op.outputs, op.rows))
        assert set(stored) <= set(outputs)
        rows = [stored.get(b, (1, (), ())) for b in outputs]
    matrix = []
    for den, columns, nums in rows:
        row = [Fraction(0)] * len(op.inputs)
        for i, c in zip(columns, nums):
            row[i] = Fraction(c, den)
        matrix.append(row)
    return matrix


# -- dimension bookkeeping -------------------------------------------------


def test_dims_sample_rows():
    assert dims(1, 1) == (3, 1, 2, 2)
    assert dims(2, 2) == (10, 5, 5, 5)
    assert dims(4, 4) == (126, 84, 42, 42)


def test_dims_rejects_out_of_range():
    with pytest.raises(ValueError):
        dims(3, 2)
    with pytest.raises(ValueError):
        dims(0, 2)


@pytest.mark.parametrize("n", [1, 2])
def test_basis_dimensions(n):
    width = 2 * n + 1
    for k in range(1, width + 1):
        bi = basis_I(k, n)
        bj = basis_J(k, n)
        if k <= n + 1:
            assert len(bi.elements) == comb(width, k - 1)
        if k <= n:
            assert len(bj.elements) == 0
            bq = basis_quotient(k, n)
            assert len(bq.elements) == comb(width, k) - comb(width, k - 1)
        # the two subspaces always fill the degree
        assert len(bi.elements) + len(bj.elements) >= 0
    # J dimensions above the middle match the quotient dimensions below by duality
    for k in range(1, n + 1):
        assert len(basis_J(width - k, n).elements) == dims(k, n)[2]


def test_E0_matches_rumin_spaces():
    # E0 realizes the quotient below the middle and J above it
    for n in (1, 2):
        for k in range(0, 2 * n + 2):
            e0 = len(basis_E0(k, n).elements)
            if 1 <= k <= n:
                assert e0 == dims(k, n)[2]
            elif k > n:
                assert e0 == len(basis_J(k, n).elements)
            else:
                assert e0 == 1  # constants at k = 0


def test_I_membership():
    n = 2
    theta = contact_form(n)
    dtheta = d_contact_form(n)
    rng = seeded_rng(3)
    for k in (1, 2, 3):
        f = random_form(rng, n, k - 1, max_degree=2)
        assert in_subspace("I", k, n, wedge(theta, f))
        if k >= 2:
            g = random_form(rng, n, k - 2, max_degree=2)
            assert in_subspace("I", k, n, wedge(dtheta, g))
    assert not in_subspace("I", 1, n, dx(n, 1))


_BASES = {"I": basis_I, "J": basis_J, "quotient": basis_quotient, "E0": basis_E0}


def _residual_rule(kind: str, k: int, n: int, alpha: Form) -> bool:
    """Membership by the projection residual, rebuilt from the bases:
    project onto the Gram-Schmidt rows and require alpha - projection = 0."""
    if alpha.is_zero():
        return True
    if alpha.degree != k:
        return False
    basis = _BASES[kind](k, n)
    blades = all_blades(n, k)
    vec = [alpha.coeffs.get(blade, PolyCoeff.zero(n)) for blade in blades]
    projection = Form.zero(n, k)
    for row in _gram_schmidt(basis.matrix()):
        norm = _dot(row, row)
        coeff = PolyCoeff.zero(n)
        for entry, poly in zip(row, vec):
            coeff = coeff + poly.scale(entry)
        projection = projection + Form(
            n, k, {blade: coeff.scale(entry / norm) for blade, entry in zip(blades, row) if entry}
        )
    return (alpha - projection).is_zero()


_MEMBERSHIP_CASES = [
    (kind, k, n)
    for n in (1, 2)
    for kind, degrees in (
        ("I", range(1, 2 * n + 2)),
        ("J", range(1, 2 * n + 2)),
        ("quotient", range(0, n + 1)),
        ("E0", range(0, 2 * n + 2)),
    )
    for k in degrees
]


@pytest.mark.parametrize("kind, k, n", _MEMBERSHIP_CASES)
def test_in_subspace_matches_residual_rule(kind, k, n):
    rng = seeded_rng(1000 * n + 10 * k + len(kind))
    elements = _BASES[kind](k, n).elements
    blades = all_blades(n, k)
    # S has constant coefficients, so p . blade lies in S for a nonzero
    # polynomial p exactly when the blade does: these perturbations
    # always leave S.
    outside = [b for b in blades if not _residual_rule(kind, k, n, Form.from_blade(n, b))]
    assert bool(outside) == (len(elements) < len(blades))

    def bump() -> PolyCoeff:
        p = random_poly(rng, n, 2)
        return PolyCoeff.const(n, 1) if p.is_zero() else p

    for _ in range(3):
        member = random_combination(rng, elements, max_degree=2) if elements else Form.zero(n, k)
        assert in_subspace(kind, k, n, member) and _residual_rule(kind, k, n, member)
        for blade in blades:
            perturbed = member + Form.from_blade(n, blade, bump())
            assert in_subspace(kind, k, n, perturbed) == _residual_rule(kind, k, n, perturbed)
        for blade in outside:
            assert not in_subspace(kind, k, n, member + Form.from_blade(n, blade, bump()))


def test_J_annihilator_property():
    # J^k elements are killed by wedging with theta and dtheta
    for n in (1, 2):
        theta = contact_form(n)
        dtheta = d_contact_form(n)
        for k in range(n + 1, 2 * n + 2):
            for el in basis_J(k, n).elements:
                assert wedge(theta, el).is_zero()
                assert wedge(dtheta, el).is_zero()


# -- quotient classes -------------------------------------------------------


def test_quotient_class_mod_I():
    n = 1
    a = dx(n).scale(_var(n, 3))
    shifted = a + contact_form(n).scale(random_poly(seeded_rng(5), n, max_degree=2))
    assert project_quotient(a) == project_quotient(shifted)
    assert project_quotient(a) != project_quotient(a + dx(n))


def test_project_quotient_idempotent():
    n = 2
    rng = seeded_rng(7)
    a = random_form(rng, n, 2, max_degree=2)
    cls = project_quotient(a)
    assert project_quotient(cls.representative) == cls
    # representative is theta-free
    assert strip_theta(cls.representative) == cls.representative


def test_theta_class():
    # canonical representative modulo {gamma ^ theta} is the theta-free part
    n = 1
    a = wedge(dx(n), contact_form(n)) + wedge(dx(n), dy(n))
    cls = theta_class(a)
    assert cls.representative == wedge(dx(n), dy(n))
    assert cls == theta_class(wedge(dx(n), dy(n)))


# -- Lefschetz maps ----------------------------------------------------------


def test_L_oracle_n2():
    n = 2
    assert L_apply(dx(n, 1)) == -wedge(wedge(dx(n, 1), dx(n, 2)), dy(n, 2))
    assert L_apply(dx(n, 2)) == wedge(wedge(dx(n, 1), dx(n, 2)), dy(n, 1))
    assert L_apply(dy(n, 1)) == wedge(wedge(dx(n, 2), dy(n, 1)), dy(n, 2))
    assert L_apply(dy(n, 2)) == -wedge(wedge(dx(n, 1), dy(n, 1)), dy(n, 2))


def test_L_inverse_inverts():
    rng = seeded_rng(11)
    for n in (1, 2):
        for _ in range(10):
            # horizontal (n-1)-form
            beta = strip_theta(random_form(rng, n, n - 1, max_degree=2))
            assert L_inverse(L_apply(beta)) == beta


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_sl2_commutator_on_horizontal_forms(n):
    """[L^T, L] = (n - j) Id on the theta-free j-forms, for every j.

    L is read from d_contact_form and Form.wedge, not from the block
    kernel, so this checks the sign conventions independently of it.
    """
    t_idx = 2 * n + 1
    dtheta = d_contact_form(n)
    h1 = [[b for b in all_blades(n, j) if t_idx not in b] for j in range(2 * n + 1)]

    def L(j):
        """The matrix of L from j- to (j+2)-forms, or None when one side is empty."""
        if j < 0 or j + 2 > 2 * n:
            return None
        columns = [_vector(dtheta.wedge(Form.from_blade(n, b)), h1[j + 2]) for b in h1[j]]
        return [[int(col[i]) for col in columns] for i in range(len(h1[j + 2]))]

    for j in range(2 * n + 1):
        size = len(h1[j])
        commutator = [[0] * size for _ in range(size)]
        up, down = L(j), L(j - 2)
        for a in range(size):
            for b in range(size):
                if up:
                    commutator[a][b] += sum(row[a] * row[b] for row in up)
                if down:
                    commutator[a][b] -= sum(x * y for x, y in zip(down[a], down[b]))
        assert commutator == [[(n - j) * (a == b) for b in range(size)] for a in range(size)], j


@pytest.mark.parametrize("n", [1, 2, 3])
def test_block_kernel_matches_dense_construction(n):
    """Every basis and constant table equals the dense construction exactly."""
    for k in range(0, 2 * n + 2):
        blades = tuple(all_blades(n, k))
        width = len(blades)
        kinds = (["I", "J"] if k else []) + (["quotient"] if k <= n else []) + ["E0"]
        for kind in kinds:
            dense = _dense_basis(kind, k, n)
            basis = rumin._basis(kind, k, n)
            assert (basis.n, basis.degree, basis.kind) == (n, k, kind)
            assert basis.matrix() == dense, (kind, k)
            annihilator = rumin._annihilator(kind, k, n)
            assert annihilator.inputs == blades
            assert _rref(_op_matrix(annihilator))[0] == _rref(_perp(dense, width))[0], (kind, k)
        pi = rumin._pi_E0(n, k)
        assert pi.inputs == blades
        assert _op_matrix(pi, blades) == _dense_pi_E0(n, k), k
        if 1 <= k <= n:
            assert _op_matrix(pi, blades) == _dense_projector(_dense_basis("quotient", k, n), width), k
        pinv = rumin._d0_pseudo_inverse(n, k)
        assert pinv.inputs == tuple(all_blades(n, k + 1))
        assert _op_matrix(pinv, blades) == _dense_d0_pinv(n, k), k
    source = [b for b in all_blades(n, n - 1) if 2 * n + 1 not in b]
    target = [b for b in all_blades(n, n + 1) if 2 * n + 1 not in b]
    columns = [_vector(L_inverse(Form.from_blade(n, b)), source) for b in target]
    assert _columns_to_matrix(columns, len(source)) == _dense_L_inverse(n)


# -- lifting -----------------------------------------------------------------


def test_lift_oracle_n1():
    # lift(x^2 dy) = x^2 dy + 2x theta
    n = 1
    x = _var(n, 1)
    cls = project_quotient(dy(n).scale(x ** 2))
    lifted = lift(cls)
    assert lifted == dy(n).scale(x ** 2) + contact_form(n).scale(2 * x)


@pytest.mark.parametrize("n", [1, 2])
def test_lift_defining_property(n):
    """d(lift) lands in J^{n+1} and the lift changes the class only by I."""
    rng = seeded_rng(13)
    theta = contact_form(n)
    dtheta = d_contact_form(n)
    for _ in range(10):
        rep = random_combination(rng, basis_quotient(n, n).elements, max_degree=3)
        cls = QuotientClass(n, n, rep)
        lifted = lift(cls)
        differential = exterior_derivative(lifted)
        assert differential.wedge(theta).is_zero()
        assert differential.wedge(dtheta).is_zero()
        assert in_subspace("I", n, n, lifted - rep)


# -- the chain ---------------------------------------------------------------


def test_d_Q_low_on_functions():
    n = 1
    f = _var(n, 1) ** 2 * _var(n, 2)
    cls = d_Q_low(QuotientClass(n, 0, Form.function(f)))
    expected = dx(n).scale(frame_apply(1, f)) + dy(n).scale(frame_apply(2, f))
    assert cls == project_quotient(expected)


def test_D_oracle_n1():
    # D[a dx + b dy] = (XXb - XYa - Ta) dx^theta + (YXb - YYa - Tb) dy^theta
    n = 1
    rng = seeded_rng(17)
    theta = contact_form(n)
    for _ in range(5):
        a = random_poly(rng, n, max_degree=3)
        b = random_poly(rng, n, max_degree=3)
        cls = project_quotient(dx(n).scale(a) + dy(n).scale(b))
        X = lambda p: frame_apply(1, p)
        Y = lambda p: frame_apply(2, p)
        T = lambda p: frame_apply(3, p)
        expected = (
            wedge(dx(n), theta).scale(X(X(b)) - X(Y(a)) - T(a))
            + wedge(dy(n), theta).scale(Y(X(b)) - Y(Y(a)) - T(b))
        )
        assert D_second_order(cls) == expected


def test_D_frozen_counterexamples_n2():
    """Two inputs that separate the true middle operator from sign slips.

    With alpha = t dx1^dy1 the operator returns dx1^dy1^theta - dx2^dy2^theta;
    with alpha = t dx1^dx2 it returns 2 dx1^dx2^theta. A lift built with the
    wrong correction sign sends both to zero.
    """
    n = 2
    t = _var(n, 5)
    theta = contact_form(n)

    alpha1 = wedge(dx(n, 1), dy(n, 1)).scale(t)
    expected1 = wedge(wedge(dx(n, 1), dy(n, 1)), theta) - wedge(wedge(dx(n, 2), dy(n, 2)), theta)
    assert D_second_order(project_quotient(alpha1)) == expected1

    alpha2 = wedge(dx(n, 1), dx(n, 2)).scale(t)
    expected2 = wedge(wedge(dx(n, 1), dx(n, 2)), theta).scale(2)
    assert D_second_order(project_quotient(alpha2)) == expected2


def test_d_Q_high_stays_in_J():
    rng = seeded_rng(19)
    for n in (1, 2):
        for k in range(n + 1, 2 * n + 1):
            basis = basis_J(k, n).elements
            for _ in range(5):
                a = random_combination(rng, basis, max_degree=3)
                out = d_Q_high(a)
                assert in_subspace("J", k + 1, n, out)


def test_complex_is_exact():
    for n in (1, 2):
        report = verify_complex(n, trials=25, seed=42, degree=3)
        assert report["passed"], report
        assert report["suite"] == "complex-exactness"
        assert len(report["checks"]) == 2 * n


def test_lifting_report():
    for n in (1, 2):
        report = verify_lifting(n, trials=25, seed=42, degree=3)
        assert report["passed"], report


def test_first_counterexample_stops_at_the_first_failure():
    seen = []

    def check(trial):
        seen.append(trial)
        return {"trial": trial} if trial >= 2 else None

    assert rumin._first_counterexample(10, check) == {"trial": 2}
    assert seen == [0, 1, 2]
    seen.clear()
    assert rumin._first_counterexample(5, lambda trial: seen.append(trial)) is None
    assert seen == [0, 1, 2, 3, 4]
    with pytest.raises(ValueError, match="trials must be >= 1"):
        rumin._first_counterexample(0, check)
    assert seen == [0, 1, 2, 3, 4]


@pytest.mark.parametrize("suite", [verify_complex, verify_lifting, verify_dc])
def test_suites_reject_zero_trials(suite):
    with pytest.raises(ValueError, match="trials must be >= 1"):
        suite(1, trials=0)


@pytest.mark.parametrize("n", [0, -1])
@pytest.mark.parametrize("suite", ["verify_complex", "verify_lifting", "verify_dc", "verify_subspaces"])
def test_suites_reject_n_below_one(suite, n):
    # n is checked before trials, so no suite reports an empty pass
    from heiscalc import contact

    run = getattr(rumin, suite, None) or getattr(contact, suite)
    extra = {} if suite == "verify_subspaces" else {"trials": 0}
    with pytest.raises(ValueError, match=f"ambient parameter n must be >= 1, got {n}"):
        run(n, **extra)


def test_rumin_operator_dispatch():
    n = 1
    f = QuotientClass(n, 0, Form.function(_var(n, 1)))
    assert rumin_operator(f) == d_Q_low(f)
    mid = project_quotient(dy(n).scale(_var(n, 1) ** 2))
    assert rumin_operator(mid) == D_second_order(mid)
    j2 = wedge(dx(n), contact_form(n))
    assert rumin_operator(j2) == d_Q_high(j2)
    with pytest.raises((TypeError, ValueError)):
        rumin_operator(dx(n))  # a raw form below the middle is ambiguous


# -- weight grading and d0 ----------------------------------------------------


def test_weight_of():
    n = 2
    assert weight_of(dx(n, 1)) == 1
    assert weight_of(contact_form(n)) == 2
    assert weight_of(wedge(dx(n, 1), contact_form(n))) == 3
    assert weight_of(dx(n, 1) + contact_form(n)) == "mixed"


def test_d0_weight_preserving_and_nilpotent():
    rng = seeded_rng(23)
    for n in (1, 2):
        for k in range(0, 2 * n + 1):
            for _ in range(5):
                a = random_form(rng, n, k, max_degree=2)
                out = d0_part(a)
                assert d0_part(out).is_zero()
    # d0 drops derivative terms entirely on pure functions
    assert d0_part(Form.function(_var(1, 1) ** 2)).is_zero()


def test_d0_oracle():
    n = 2
    # theta has weight 2 and d theta = -sum dx^dy keeps weight 2
    assert d0_part(contact_form(n)) == d_contact_form(n)
    # d(dx1 ^ theta) = dx1 ^ dx2 ^ dy2 is the weight-3 piece in degree 3
    a = wedge(dx(n, 1), contact_form(n))
    assert d0_part(a) == wedge(wedge(dx(n, 1), dx(n, 2)), dy(n, 2))


def _d0_by_wedges(alpha: Form) -> Form:
    """d0 built as before: (-1)^|rest| c . rest, wedged with dtheta, per
    theta-carrying blade, summed one Form at a time."""
    n = alpha.n
    t_idx = 2 * n + 1
    dtheta = d_contact_form(n)
    result = Form.zero(n, alpha.degree + 1)
    for blade, coeff in alpha.coeffs.items():
        if not blade or blade[-1] != t_idx:
            continue
        rest = blade[:-1]
        signed = coeff if len(rest) % 2 == 0 else -coeff
        result = result + Form.from_blade(n, rest, signed).wedge(dtheta)
    return result


@st.composite
def _sparse_forms(draw):
    """A form at any n in 1..3 and any degree 0..2n+1, on up to 5 blades,
    with rational polynomial coefficients."""
    n = draw(st.integers(1, 3))
    degree = draw(st.integers(0, 2 * n + 1))
    width = 2 * n + 1
    blades = draw(st.lists(st.sampled_from(all_blades(n, degree)), min_size=1, max_size=5,
                           unique=True))
    exps = st.tuples(*(st.integers(0, 2) for _ in range(width)))
    coeff = st.fractions(min_value=-4, max_value=4, max_denominator=6).filter(bool)
    poly = st.dictionaries(exps, coeff, min_size=1, max_size=3).map(lambda t: PolyCoeff(n, t))
    return Form(n, degree, {blade: draw(poly) for blade in blades})


@settings(max_examples=150, deadline=None)
@given(_sparse_forms())
def test_d0_part_matches_wedge_construction(alpha):
    out = d0_part(alpha)
    assert out == _d0_by_wedges(alpha)
    assert out.degree == alpha.degree + 1


def test_d0_inverse_is_exact_pseudo_inverse():
    from heiscalc.frame import all_blades

    for n in (1, 2):
        for k in range(0, 2 * n + 1):
            for blade in all_blades(n, k):
                a = Form.from_blade(n, blade)
                image = d0_part(a)
                back = d0_inverse(image)
                assert d0_part(back) == image


def test_d0_corrector_vanishes_on_E0():
    for n in (1, 2):
        for k in range(0, 2 * n + 2):
            for el in basis_E0(k, n).elements:
                assert d0_corrector(el).is_zero()


# -- jets: proofs over every input of bounded order ---------------------------
#
# An operator of order <= m with polynomial coefficients, applied to
# w^beta . b, gives beta! a_beta b plus terms of lower order in beta, so
# it vanishes on every smooth form exactly when it kills every monomial
# of degree <= m times every blade (the argument test_c04 uses).


def _jets(n, max_degree):
    """Every monomial w^beta with |beta| <= max_degree."""
    width = 2 * n + 1
    return [
        PolyCoeff(n, {tuple(sum(1 for i in factors if i == j) for j in range(width)): Fraction(1)})
        for total in range(max_degree + 1)
        for factors in combinations_with_replacement(range(width), total)
    ]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_d0_pseudo_inverse_lands_on_theta_blades(n):
    t_idx = theta_index(n)
    for k in range(0, 2 * n + 1):
        assert all(t_idx in blade for blade in rumin._d0_pseudo_inverse(n, k).outputs), k


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_d0_corrector_kills_theta_forms(n):
    # C = d0^{-1}(d - d0) has order 1, so killing w^beta . b for |beta| <= 1
    # and every theta blade b decides C = 0 on theta-supported forms.  With
    # the test above, C d0^{-1} = 0, P d0^{-1} = d0^{-1} and C C = 0.
    t_idx = theta_index(n)
    jets = _jets(n, 1)
    for k in range(1, 2 * n + 2):
        for blade in all_blades(n, k):
            if t_idx in blade:
                for m in jets:
                    assert d0_corrector(Form.from_blade(n, blade, m)).is_zero(), (blade, m)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_Pi_E_on_jets(n):
    # Pi_E has order 1, so both sides of each identity have order <= 2,
    # and the jets of degree <= 2 decide it on every smooth form.
    jets = _jets(n, 2)
    for k in range(0, 2 * n + 2):
        for blade in all_blades(n, k):
            for m in jets:
                a = Form.from_blade(n, blade, m)
                projected = rumin.Pi_E(a)
                assert rumin.Pi_E(projected) == projected, (blade, m)
                assert rumin.Pi_E(exterior_derivative(a)) == exterior_derivative(projected), (blade, m)
        for element in basis_E0(k, n).elements:
            for m in jets:
                alpha = element.scale(m)
                assert rumin.Pi_E(alpha) == alpha - d0_inverse(exterior_derivative(alpha)), (element, m)


# -- unified operator ---------------------------------------------------------


def test_dc_matches_chain():
    report1 = verify_dc(1, trials=20, seed=42, degree=3)
    report2 = verify_dc(2, trials=20, seed=42, degree=3)
    assert report1["passed"], report1
    assert report2["passed"], report2


def test_dc_degree_zero():
    # the unified operator projects out the vertical derivative at degree 0
    n = 1
    f = _var(n, 3) * _var(n, 1)  # t x has Tf = x
    out = dc_operator(Form.function(f))
    df = exterior_derivative(Form.function(f))
    expected = df - contact_form(n).scale(frame_apply(3, f))
    assert out == expected


def test_dc_equals_d_at_top_degree():
    # at degree 2n the weight-preserving part of d vanishes identically,
    # so the unified operator is plain d there
    rng = seeded_rng(29)
    for n in (1, 2):
        k = 2 * n
        basis = basis_J(k, n).elements
        for _ in range(10):
            a = random_combination(rng, basis, max_degree=3)
            assert dc_operator(a) == exterior_derivative(a)
