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
    verify_complex,
    verify_dc,
    verify_lifting,
)
from heiscalc.sampling import random_combination, random_poly, seeded_rng

from conftest import L_inverse, combination_by_scaling, random_form, rref, solve, theta_free


def _var(n, i):
    return PolyCoeff.var(n, i)


# -- the dense reference construction ----------------------------------------
#
# The constant operators as rumin built them before the Lefschetz block
# kernel: dense Gauss-Jordan over every blade of a degree, Gram-Schmidt,
# and one solve per column, with d0 read off Form.wedge on unit forms
# (L^-1 is conftest's dense oracle).  The block kernel must reproduce
# them exactly.


def _dot(u, v):
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def _perp(rows, width):
    """Basis of the orthogonal complement of the row span."""
    reduced, pivots = rref(rows)
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


def _vector(alpha, blades):
    """alpha's constant coefficients on the given blades."""
    vector = [alpha.coeffs[b]._constant() if b in alpha.coeffs else Fraction(0) for b in blades]
    assert None not in vector, f"{alpha} has a non-constant coefficient"
    return vector


def _matrix(basis):
    """The basis elements as rows over every blade of their degree."""
    return [_vector(element, all_blades(basis.n, basis.degree)) for element in basis.elements]


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
    return rref(rows)[0]


def _dense_d0(n, k):
    """The matrix of d0 from degree k to k+1, rows on the (k+1)-blades,
    by wedging: d0(rest ^ theta) = (-1)^|rest| rest ^ dtheta, and d0
    kills the theta-free blades.  No table of the library is read."""
    source, target = all_blades(n, k), all_blades(n, k + 1)
    columns = []
    for b in source:
        if theta_index(n) in b:
            image = Form.from_blade(n, b[:-1], (-1) ** (k - 1)).wedge(d_contact_form(n))
        else:
            image = Form.zero(n, k + 1)
        columns.append(_vector(image, target))
    return _columns_to_matrix(columns, len(target))


def _dense_d0_image(n, k):
    if k < 0:
        return []
    matrix = _dense_d0(n, k)
    return rref(list(zip(*matrix)))[0] if matrix else []


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
        solution = solve(stacked, projected)
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


@pytest.mark.parametrize("n", [1, 2, 3])
def test_I_holds_every_blade_above_the_middle(n):
    # dtheta ^ maps onto Omega^k from the middle up, so the theta- and
    # dtheta-multiples span all of Omega^k for k >= n + 1, and
    # dim I^k = min(C(2n+1, k-1), C(2n+1, k)) at every degree.
    width = 2 * n + 1
    for k in range(1, width + 1):
        assert basis_I(k, n).dim == min(comb(width, k - 1), comb(width, k)), k
    for k in range(n + 1, width + 1):
        size = comb(width, k)
        identity = [[Fraction(int(i == j)) for j in range(size)] for i in range(size)]
        assert _dense_basis("I", k, n) == identity, k
        assert _matrix(basis_I(k, n)) == identity, k


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


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_E0_halves_vanish_across_the_middle(n):
    # L = dtheta ^ is injective below the middle and onto above it, so
    # Ker K = 0 on every theta block of degree k <= n and on every
    # theta-free block of degree k > n: E0^k is the quotient complement
    # up to the middle and J^k above it, which `basis_J` and
    # `basis_quotient` rely on.
    for k in range(0, 2 * n + 2):
        for block in rumin._blocks(n, k):
            if block.theta == (k <= n):
                assert rref(rumin._span_rows("E0", block))[0] == [], (k, block.blades)


def _monomial_count(n, m):
    """Monomials of weighted degree m on H^n (x, y weigh 1, t weighs 2)."""
    return sum(comb(m - 2 * j + 2 * n - 1, 2 * n - 1) for j in range(m // 2 + 1)) if m >= 0 else 0


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_E0_weighted_euler_characteristic(n):
    # Every chain operator preserves the total weight W, the weighted
    # degree of the coefficient plus the blade weight w_k (k below the
    # middle, k + 1 above it, where E0^k carries theta), and the chain is
    # acyclic but for the constants.  So the alternating sum of the
    # dimensions of its weight-W pieces is [W = 0].
    for weight in range(0, 2 * n + 8):
        euler = sum(
            (-1) ** k * basis_E0(k, n).dim * _monomial_count(n, weight - (k if k <= n else k + 1))
            for k in range(0, 2 * n + 2)
        )
        assert euler == int(weight == 0), weight


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
    for row in _gram_schmidt(_matrix(basis)):
        norm = _dot(row, row)
        coeff = PolyCoeff.zero(n)
        for entry, poly in zip(row, vec):
            coeff = coeff + poly.scale(entry)
        projection = projection + Form(
            n, k, {blade: coeff.scale(entry / norm) for blade, entry in zip(blades, row) if entry}
        )
    return (alpha - projection).is_zero()


# J^k (nonzero only above the middle) and the quotient complement are
# E0^k on their ranges, so `in_subspace` asks E0 for their membership.
_MEMBERSHIP_KIND = {"I": "I", "J": "E0", "quotient": "E0", "E0": "E0"}

_MEMBERSHIP_CASES = [
    (space, k, n)
    for n in (1, 2)
    for space, degrees in (
        ("I", range(1, 2 * n + 2)),
        ("J", range(n + 1, 2 * n + 2)),
        ("quotient", range(0, n + 1)),
        ("E0", range(0, 2 * n + 2)),
    )
    for k in degrees
]


@pytest.mark.parametrize("space, k, n", _MEMBERSHIP_CASES)
def test_in_subspace_matches_residual_rule(space, k, n):
    """`in_subspace` agrees with the projection residual onto the space's
    basis; space names the basis, and the membership is asked of I or E0."""
    rng = seeded_rng(1000 * n + 10 * k + len(space))
    kind = _MEMBERSHIP_KIND[space]
    elements = _BASES[space](k, n).elements
    blades = all_blades(n, k)
    # S has constant coefficients, so p . blade lies in S for a nonzero
    # polynomial p exactly when the blade does: these perturbations
    # always leave S.
    outside = [b for b in blades if not _residual_rule(space, k, n, Form.from_blade(n, b))]
    assert bool(outside) == (len(elements) < len(blades))

    def bump() -> PolyCoeff:
        p = random_poly(rng, n, 2)
        return PolyCoeff.const(n, 1) if p.is_zero() else p

    for _ in range(3):
        member = combination_by_scaling(rng, elements, 2) if elements else Form.zero(n, k)
        assert in_subspace(kind, k, n, member) and _residual_rule(space, k, n, member)
        for blade in blades:
            perturbed = member + Form.from_blade(n, blade, bump())
            assert in_subspace(kind, k, n, perturbed) == _residual_rule(space, k, n, perturbed)
        for blade in outside:
            assert not in_subspace(kind, k, n, member + Form.from_blade(n, blade, bump()))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_E0_membership_needs_both_halves(n):
    # E0 = Ker d0 cap Ker d0+.  dtheta = d0(-theta) is theta-free, so d0
    # kills it, but it lies in Im d0 and d0+ does not; d0+ kills every
    # 1-form, theta included, but d0 theta = dtheta.  Membership must ask
    # both halves, also of a form that is an E0 element plus one of these.
    theta, dtheta = contact_form(n), d_contact_form(n)
    assert d0_part(dtheta).is_zero() and not d0_inverse(dtheta).is_zero()
    assert d0_inverse(theta).is_zero() and not d0_part(theta).is_zero()
    for outsider in (theta, dtheta):
        k = outsider.degree
        assert not in_subspace("E0", k, n, outsider)
        for element in basis_E0(k, n).elements:
            assert not in_subspace("E0", k, n, element + outsider)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_chain_span_keeps_the_pivot_coordinates(n):
    # The chain draws' coordinates: a form on the pivot blades of the
    # row-reduced basis of E0^k spans an element of E0^k with the same
    # coefficients on those blades.
    rng = seeded_rng(47 + n)
    for k in range(0, 2 * n + 2):
        span = rumin._chain_span(n, k)
        assert span.inputs == tuple(min(element.coeffs) for element in basis_E0(k, n).elements)
        for _ in range(3):
            coordinates = random_combination(rng, n, k, span.inputs, 2)
            spanned = rumin._apply(span, coordinates, k)
            assert in_subspace("E0", k, n, spanned)
            assert {b: spanned.coeffs[b] for b in span.inputs if b in spanned.coeffs} == coordinates.coeffs


@pytest.mark.parametrize("kind, k, message", [
    ("X", 1, r"^unknown subspace kind 'X'$"),
    ("I", 0, r"^degree k=0 out of range 1\.\.3 for I\^k$"),
    ("E0", 9, r"^degree k=9 out of range 0\.\.3 for E0\^k$"),
])
def test_in_subspace_checks_its_arguments_before_the_form(kind, k, message):
    # a zero form, which every subspace holds, must not hide a bad kind or k
    with pytest.raises(ValueError, match=message):
        in_subspace(kind, k, 1, Form.zero(1, 1))


@pytest.mark.parametrize("kind, alpha", [
    ("E0", contact_form(2)),
    ("I", contact_form(2)),
    ("E0", Form.zero(2, 1)),
])
def test_in_subspace_refuses_a_form_of_another_n(kind, alpha):
    # the H^1 tables never read H^2's blades, so a form of another n
    # must not be answered, and a zero one must not slip through either
    with pytest.raises(ValueError, match=r"^form lives in H\^2, subspace in H\^1$"):
        in_subspace(kind, 1, 1, alpha)


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
    assert project_quotient(cls) == cls
    # representative is theta-free
    assert theta_free(cls) == cls


def test_theta_class():
    # canonical representative modulo {gamma ^ theta} is the theta-free part
    n = 1
    a = wedge(dx(n), contact_form(n)) + wedge(dx(n), dy(n))
    cls = theta_free(a)
    assert cls == wedge(dx(n), dy(n))
    assert cls == theta_free(wedge(dx(n), dy(n)))


# -- Lefschetz maps ----------------------------------------------------------


def test_L_oracle_n2():
    n = 2
    L = d_contact_form(n).wedge
    assert L(dx(n, 1)) == -wedge(wedge(dx(n, 1), dx(n, 2)), dy(n, 2))
    assert L(dx(n, 2)) == wedge(wedge(dx(n, 1), dx(n, 2)), dy(n, 1))
    assert L(dy(n, 1)) == wedge(wedge(dx(n, 2), dy(n, 1)), dy(n, 2))
    assert L(dy(n, 2)) == -wedge(wedge(dx(n, 1), dy(n, 1)), dy(n, 2))


def test_L_inverse_inverts():
    # d0+ at degree n inverts L up to the sign `lift` rests on:
    # d0+ (dtheta ^ beta) = (-1)^(n-1) beta ^ theta for theta-free beta,
    # and the oracle inverts L outright.
    rng = seeded_rng(11)
    for n in (1, 2, 3):
        d0_plus = rumin._d0_pseudo_inverse(n, n)
        for _ in range(10):
            # horizontal (n-1)-form
            beta = theta_free(random_form(rng, n, n - 1, max_degree=2))
            gamma = d_contact_form(n).wedge(beta)
            assert rumin._apply(d0_plus, gamma, n) == beta.wedge(contact_form(n)).scale((-1) ** (n - 1))
            assert L_inverse(gamma) == beta


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
            basis = _BASES[kind](k, n)
            assert (basis.n, basis.degree, basis.kind) == (n, k, kind)
            assert _matrix(basis) == dense, (kind, k)
        pi = rumin._pi_E0(n, k)
        assert pi.inputs == blades
        assert _op_matrix(pi, blades) == _dense_pi_E0(n, k), k
        if 1 <= k <= n:
            assert _op_matrix(pi, blades) == _dense_projector(_dense_basis("quotient", k, n), width), k
        assert _op_matrix(rumin._d0_table(n, k), all_blades(n, k + 1)) == _dense_d0(n, k), k
        pinv = rumin._d0_pseudo_inverse(n, k)
        assert pinv.inputs == tuple(all_blades(n, k + 1))
        assert _op_matrix(pinv, blades) == _dense_d0_pinv(n, k), k
    # d0+ sends each theta-free (n+1)-blade gamma to (-1)^(n-1) L^-1 gamma ^ theta
    d0_plus = rumin._d0_pseudo_inverse(n, n)
    for b in all_blades(n, n + 1):
        if 2 * n + 1 not in b:
            gamma = Form.from_blade(n, b)
            expected = L_inverse(gamma).wedge(contact_form(n)).scale((-1) ** (n - 1))
            assert rumin._apply(d0_plus, gamma, n) == expected, b


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
        rep = combination_by_scaling(rng, basis_quotient(n, n).elements, 3)
        lifted = lift(rep)
        differential = exterior_derivative(lifted)
        assert differential.wedge(theta).is_zero()
        assert differential.wedge(dtheta).is_zero()
        assert in_subspace("I", n, n, lifted - rep)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_lift_ignores_the_theta_part(n):
    # u -> lift(u) - lift(theta_free(u)) has order 1, so by the jet
    # argument (see `_jets`) killing every monomial of degree <= 1 times
    # every degree-n blade proves lift(alpha + beta ^ theta) = lift(alpha)
    # on every smooth form, and with it D(alpha + beta ^ theta) = D(alpha).
    for blade in all_blades(n, n):
        for m in _jets(n, 1):
            a = Form.from_blade(n, blade, m)
            assert lift(a) == lift(theta_free(a)), (blade, m)
            assert D_second_order(a) == D_second_order(theta_free(a)), (blade, m)


# -- the chain ---------------------------------------------------------------


def test_d_Q_low_on_functions():
    n = 1
    f = _var(n, 1) ** 2 * _var(n, 2)
    cls = d_Q_low(Form.function(f))
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
                a = combination_by_scaling(rng, basis, 3)
                out = d_Q_high(a)
                assert in_subspace("E0", k + 1, n, out)


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

    assert rumin._first_counterexample(range(10), check) == {"trial": 2}
    assert seen == [0, 1, 2]
    seen.clear()
    assert rumin._first_counterexample(range(5), lambda trial: seen.append(trial)) is None
    assert seen == [0, 1, 2, 3, 4]
    with pytest.raises(ValueError, match="trials must be >= 1"):
        rumin._chain_draws(seeded_rng(0), 1, 1, 3, 0)
    assert seen == [0, 1, 2, 3, 4]
    seen.clear()

    def broken(trial):
        # an operator's failed output check is the input's counterexample
        seen.append(trial)
        if trial == 3:
            raise AssertionError("output escaped")

    failure = rumin._first_counterexample(range(10), broken, lambda trial: {"trial": trial})
    assert failure == {"trial": 3, "error": "output escaped"}
    assert seen == [0, 1, 2, 3]
    seen.clear()

    def refused(trial):
        # so is an operator's refusal of what a broken operator fed it
        seen.append(trial)
        if trial == 1:
            raise ValueError("input does not lie in J^k")

    failure = rumin._first_counterexample(range(10), refused, lambda trial: {"trial": trial})
    assert failure == {"trial": 1, "error": "input does not lie in J^k"}
    assert seen == [0, 1]


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
    f = Form.function(_var(n, 1))
    assert rumin_operator(f) == d_Q_low(f)
    mid = project_quotient(dy(n).scale(_var(n, 1) ** 2))
    assert rumin_operator(mid) == D_second_order(mid)
    j2 = wedge(dx(n), contact_form(n))
    assert rumin_operator(j2) == d_Q_high(j2)
    # a form below the middle stands for its class
    assert rumin_operator(dx(n)) == D_second_order(project_quotient(dx(n)))


def _class_operators(n, k):
    """The operators a form of degree k <= n is handed to, by name."""
    own = ("d_Q_low", d_Q_low) if k < n else ("D", D_second_order)
    return [own, ("rumin_operator", rumin_operator)]


@pytest.mark.parametrize("n", [1, 2])
def test_operators_are_functions_of_the_class(n):
    # Every monomial of degree <= 2 times every element of I^k: the
    # operators have order <= 2, so by the jet argument below (see
    # `_jets`) this decides that they kill I^k, and with it that every
    # representative of a class gives the same form.
    rng = seeded_rng(31 + n)
    for k in range(0, n + 1):
        alpha = random_form(rng, n, k, max_degree=2)
        canonical = project_quotient(alpha)
        shifts = [e.scale(m) for m in _jets(n, 2) for e in basis_I(k, n).elements] if k else []
        for name, op in _class_operators(n, k):
            expected = op(alpha)
            assert op(canonical) == expected, (name, k)
            for i in shifts:
                assert op(alpha + i) == expected, (name, k, i)


def test_operators_are_functions_of_the_class_n3():
    n = 3
    rng = seeded_rng(37)
    for k in range(1, n + 1):
        elements = basis_I(k, n).elements
        for _ in range(3):
            alpha = random_form(rng, n, k, max_degree=2)
            i = combination_by_scaling(rng, elements, 2)
            for name, op in _class_operators(n, k):
                expected = op(alpha)
                assert op(project_quotient(alpha)) == expected, (name, k)
                assert op(alpha + i) == expected, (name, k)


# -- weight grading and d0 ----------------------------------------------------


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
            a = combination_by_scaling(rng, basis, 3)
            assert dc_operator(a) == exterior_derivative(a)
