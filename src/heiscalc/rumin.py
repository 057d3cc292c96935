"""The Rumin complex of H^n.

The chain runs

    C^inf -> Omega^1/I^1 -> ... -> Omega^n/I^n -> J^{n+1} -> ... -> J^{2n+1}

with first-order differentials d_Q away from the middle and the
second-order operator D across it.  I^k is the ideal generated by theta
and dtheta, J^k its annihilator.  Quotient classes are represented by
the orthogonal complement of I^k under the blade-orthonormal inner
product; for H^2 this reproduces the usual basis {dx1^dx2, dx1^dy2,
dx2^dy1, dy1^dy2, dx1^dy1 - dx2^dy2} with the mixed generator carrying
the coefficient (a2 - a5)/2 when a2 dx1^dy1 + a5 dx2^dy2 is projected.

The module also carries the weight machinery: d0 is the part of the
exterior derivative that preserves blade weight (dx, dy weigh 1, theta
weighs 2), so d0(c . blade) = c . d(blade).  Note the Koszul sign this
inherits: d0(c . rest^theta) = (-1)^{|rest|} c . rest^dtheta.  Dropping
that sign would give the corrector D0 = d0^{-1}(d - d0) a diagonal
block on even degrees and the series P = sum (-D0)^k would never
terminate, so the sign is load-bearing.  All subspace computations are
fraction-exact; no floating tolerance appears anywhere in this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, lcm
from typing import Iterator, Literal, NamedTuple, Sequence

from . import _linalg
from ._linalg import Mat, Vec
from .coeff import PolyCoeff
from .frame import (
    Blade,
    Form,
    _blade_tuple,
    _d_blade_part,
    blade_name,
    contact_form,
    d_contact_form,
    exterior_derivative,
    form_to_json,
    theta_index,
)
from .sampling import random_combination, random_poly, seeded_rng

__all__ = [
    "SubspaceBasis",
    "QuotientClass",
    "dims",
    "basis_I",
    "basis_J",
    "basis_quotient",
    "basis_E0",
    "project_quotient",
    "theta_class",
    "L_apply",
    "L_inverse",
    "lift",
    "d_Q_low",
    "d_Q_high",
    "D_second_order",
    "weight_of",
    "d0_part",
    "d0_inverse",
    "d0_corrector",
    "P_apply",
    "Q_apply",
    "Pi_E",
    "Pi_E0",
    "dc_operator",
    "rumin_operator",
    "verify_complex",
    "verify_lifting",
    "verify_dc",
]


# -- vector translation ----------------------------------------------------


def _const_value(p: PolyCoeff) -> Fraction:
    """The value of a constant polynomial; rejects genuine polynomials."""
    if p.is_zero():
        return Fraction(0)
    items = list(p.terms.items())
    if len(items) != 1 or any(items[0][0]):
        raise ValueError(f"expected a constant coefficient, got {p.to_text()}")
    return items[0][1]


def _const_vector(a: Form, blades: Sequence[Blade]) -> Vec:
    lookup = {blade: _const_value(c) for blade, c in a.coeffs.items()}
    return [lookup.get(blade, Fraction(0)) for blade in blades]


def _vector_to_form(n: int, degree: int, vec: Vec, blades: Sequence[Blade]) -> Form:
    coeffs = {blade: PolyCoeff.const(n, v) for blade, v in zip(blades, vec) if v != 0}
    return Form(n, degree, coeffs)


_IntRows = tuple[tuple[int, tuple[tuple[int, int], ...]], ...]


def _int_rows(matrix: Mat) -> _IntRows:
    """Each row as (den, ((column, int numerator), ...)) over its nonzero entries."""
    rows = []
    for row in matrix:
        den = lcm(*(v.denominator for v in row if v))
        entries = tuple((i, v.numerator * (den // v.denominator)) for i, v in enumerate(row) if v)
        rows.append((den, entries))
    return tuple(rows)


class _ConstOp(NamedTuple):
    """A constant matrix acting on the coefficient vectors of forms.

    Column i reads the coefficient on inputs[i]; row j, stored as in
    `_int_rows`, gives the coefficient on outputs[j].
    """

    inputs: tuple[Blade, ...]
    outputs: tuple[Blade, ...]
    rows: _IntRows


def _rows_times(op: _ConstOp, alpha: Form) -> Iterator[PolyCoeff]:
    """The rows of op times alpha's coefficient vector, one polynomial per row.

    Each entry is one `PolyCoeff.combine`: integer numerators accumulate
    over a common denominator and are reduced once.
    """
    n = alpha.n
    vec = [alpha.coeffs.get(blade) for blade in op.inputs]
    for den, entries in op.rows:
        yield PolyCoeff.combine(n, [(c, vec[i]) for i, c in entries if vec[i] is not None], den)


def _apply(op: _ConstOp, alpha: Form, degree: int) -> Form:
    """op applied to alpha, as a form of the given degree on op.outputs."""
    coeffs = {blade: c for blade, c in zip(op.outputs, _rows_times(op, alpha)) if not c.is_zero()}
    return Form(alpha.n, degree, coeffs)


# -- subspaces --------------------------------------------------------------


@dataclass(frozen=True)
class SubspaceBasis:
    """A row-reduced constant-coefficient basis of a form subspace."""

    n: int
    degree: int
    kind: Literal["I", "J", "quotient", "E0"]
    elements: tuple[Form, ...]

    @property
    def dim(self) -> int:
        return len(self.elements)

    def matrix(self) -> Mat:
        blades = _blade_tuple(self.n, self.degree)
        return [_const_vector(element, blades) for element in self.elements]

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "degree": self.degree,
            "kind": self.kind,
            "dim": self.dim,
            "elements": [form_to_json(element) for element in self.elements],
        }


def dims(k: int, n: int) -> tuple[int, int, int, int]:
    """(dim Omega^k, dim I^k, dim Omega^k/I^k, dim J^{2n+1-k}) for k <= n.

    The quotient dimension has the closed form
    C(2n+1,k) (2n+2-2k)/(2n+2-k), which always divides exactly.
    """
    if not 1 <= k <= n:
        raise ValueError(f"degree k={k} out of range 1..{n}")
    width = 2 * n + 1
    dim_omega = comb(width, k)
    dim_i = comb(width, k - 1)
    numerator = dim_omega * (2 * n + 2 - 2 * k)
    if numerator % (2 * n + 2 - k):
        raise AssertionError(f"dimension formula fails to divide at k={k}, n={n}")
    dim_j_dual = numerator // (2 * n + 2 - k)
    dim_quotient = dim_omega - dim_i
    if dim_quotient != dim_j_dual:
        raise AssertionError(f"quotient/J duality fails at k={k}, n={n}")
    return dim_omega, dim_i, dim_quotient, dim_j_dual


def _rows_to_basis(n: int, degree: int, kind: str, rows: Mat) -> SubspaceBasis:
    blades = _blade_tuple(n, degree)
    reduced, _ = _linalg.rref(rows)
    elements = tuple(_vector_to_form(n, degree, row, blades) for row in reduced)
    return SubspaceBasis(n, degree, kind, elements)  # type: ignore[arg-type]


@lru_cache(maxsize=None)
def basis_I(k: int, n: int) -> SubspaceBasis:
    """Row-reduced basis of I^k = {alpha^theta + beta^dtheta}.

    Defined for every 1 <= k <= 2n+1; the complex quotients by it only
    up to k = n.  The count C(2n+1, k-1) is exact while multiplication
    by dtheta is injective on the theta-free part, i.e. for k <= n+1;
    above that the rank drops and only the computed basis is trusted.
    """
    if not 1 <= k <= 2 * n + 1:
        raise ValueError(f"degree k={k} out of range 1..{2 * n + 1} for I^k")
    theta = contact_form(n)
    dtheta = d_contact_form(n)
    blades = _blade_tuple(n, k)
    t_idx = theta_index(n)
    rows: Mat = []
    for blade in _blade_tuple(n, k - 1):
        if t_idx in blade:
            continue
        rows.append(_const_vector(Form.from_blade(n, blade).wedge(theta), blades))
    for blade in _blade_tuple(n, k - 2):
        generated = Form.from_blade(n, blade).wedge(dtheta)
        if not generated.is_zero():
            rows.append(_const_vector(generated, blades))
    basis = _rows_to_basis(n, k, "I", rows)
    if k <= n + 1:
        expected = comb(2 * n + 1, k - 1)
        if basis.dim != expected:
            raise AssertionError(f"dim I^{k} = {basis.dim}, closed form says {expected}")
    return basis


@lru_cache(maxsize=None)
def basis_J(k: int, n: int) -> SubspaceBasis:
    """Basis of J^k = {alpha : alpha^theta = 0, alpha^dtheta = 0}.

    The complex lives on the range k >= n+1 where the dimension is
    C(2n+1, k) - C(2n+1, k+1); below the middle degree the two wedge
    conditions force J^k = 0, which the nullspace computation confirms.
    """
    if not 1 <= k <= 2 * n + 1:
        raise ValueError(f"degree k={k} out of range 1..{2 * n + 1} for J^k")
    theta = contact_form(n)
    dtheta = d_contact_form(n)
    source = _blade_tuple(n, k)
    target_theta = _blade_tuple(n, k + 1)
    target_dtheta = _blade_tuple(n, k + 2)
    columns: Mat = []
    for blade in source:
        base = Form.from_blade(n, blade)
        col = _const_vector(base.wedge(theta), target_theta)
        col += _const_vector(base.wedge(dtheta), target_dtheta)
        columns.append(col)
    stacked_rows = [[col[i] for col in columns] for i in range(len(columns[0]))]
    kernel = _linalg.nullspace(stacked_rows, len(source))
    basis = _rows_to_basis(n, k, "J", kernel)
    expected = max(0, comb(2 * n + 1, k) - comb(2 * n + 1, k + 1))
    if basis.dim != expected:
        raise AssertionError(f"dim J^{k} = {basis.dim}, closed form says {expected}")
    return basis


@lru_cache(maxsize=None)
def basis_quotient(k: int, n: int) -> SubspaceBasis:
    """Orthogonal complement of I^k inside Omega^k; representatives of
    the quotient.  k = 0 is allowed and gives the span of 1."""
    if k == 0:
        return SubspaceBasis(n, 0, "quotient", (Form.from_blade(n, ()),))
    if not 1 <= k <= n:
        raise ValueError(f"degree k={k} out of range 0..{n} for the quotient")
    width = len(_blade_tuple(n, k))
    complement = _linalg.orthogonal_complement(basis_I(k, n).matrix(), width)
    basis = _rows_to_basis(n, k, "quotient", complement)
    if basis.dim != dims(k, n)[2]:
        raise AssertionError(f"dim Omega^{k}/I^{k} basis mismatch at n={n}")
    return basis


@lru_cache(maxsize=None)
def basis_E0(k: int, n: int) -> SubspaceBasis:
    """E0^k = Ker d0 at degree k, intersected with (Im d0 at k-1)^perp.

    Computed from the d0 matrices directly; coincides with the quotient
    complement for k <= n and with J^k for k > n.
    """
    if not 0 <= k <= 2 * n + 1:
        raise ValueError(f"degree k={k} out of range 0..{2 * n + 1}")
    width = len(_blade_tuple(n, k))
    kernel_rows = _d0_kernel(n, k)
    image_rows = _d0_image(n, k - 1)
    if image_rows:
        perp = _linalg.orthogonal_complement(image_rows, width)
        rows = _intersect_coords(kernel_rows, perp, width)
    else:
        rows = kernel_rows
    return _rows_to_basis(n, k, "E0", rows)


def _intersect_coords(rows_a: Mat, rows_b: Mat, width: int) -> Mat:
    """Basis of span(rows_a) intersected with span(rows_b)."""
    perp_a = _linalg.orthogonal_complement(rows_a, width)
    perp_b = _linalg.orthogonal_complement(rows_b, width)
    return _linalg.orthogonal_complement(perp_a + perp_b, width)


def _basis(kind: str, k: int, n: int) -> SubspaceBasis:
    if kind == "I":
        return basis_I(k, n)
    if kind == "J":
        return basis_J(k, n)
    if kind == "quotient":
        return basis_quotient(k, n)
    if kind == "E0":
        return basis_E0(k, n)
    raise ValueError(f"unknown basis kind {kind!r}")


@lru_cache(maxsize=None)
def _quotient_projector(k: int, n: int) -> _ConstOp:
    """Orthogonal projection onto the quotient basis: sum_r u_r u_r^T / |u_r|^2
    over its Gram-Schmidt rows u_r."""
    blades = _blade_tuple(n, k)
    width = len(blades)
    matrix = [[Fraction(0)] * width for _ in range(width)]
    for u in _linalg.gram_schmidt(basis_quotient(k, n).matrix()):
        norm = _linalg.dot(u, u)
        for i, ui in enumerate(u):
            if ui:
                row = matrix[i]
                scaled = ui / norm
                for j, uj in enumerate(u):
                    if uj:
                        row[j] += scaled * uj
    return _ConstOp(blades, blades, _int_rows(matrix))


@lru_cache(maxsize=None)
def _annihilator(kind: str, k: int, n: int) -> _ConstOp:
    """Rows spanning the orthogonal complement of a cached subspace S.

    A form lies in S exactly when every row pairs with it to zero, since
    S = (S-perp)-perp over the rationals.  The rows label no blades.
    """
    blades = _blade_tuple(n, k)
    perp = _linalg.orthogonal_complement(_basis(kind, k, n).matrix(), len(blades))
    return _ConstOp(blades, (), _int_rows(perp))


def in_subspace(kind: str, k: int, n: int, alpha: Form) -> bool:
    """Exact membership: every row of the complement's basis pairs to zero.

    Stops at the first row that does not.
    """
    if alpha.is_zero():
        return True
    if alpha.degree != k:
        return False
    return all(p.is_zero() for p in _rows_times(_annihilator(kind, k, n), alpha))


# -- quotient classes --------------------------------------------------------


@dataclass(frozen=True)
class QuotientClass:
    """A class in Omega^k/I^k (relation "I") or modulo {gamma^theta}
    (relation "theta"), stored through its canonical representative."""

    n: int
    k: int
    representative: Form
    relation: Literal["I", "theta"] = "I"

    def is_zero(self) -> bool:
        return self.representative.is_zero()

    def __eq__(self, other) -> bool:
        if not isinstance(other, QuotientClass):
            return NotImplemented
        return (
            self.n == other.n
            and self.k == other.k
            and self.relation == other.relation
            and self.representative == other.representative
        )


def project_quotient(alpha: Form, k: int | None = None, n: int | None = None) -> QuotientClass:
    """Class of alpha in Omega^k/I^k; representative orthogonal to I^k."""
    n = alpha.n if n is None else n
    k = alpha.degree if k is None else k
    if alpha.n != n:
        raise ValueError(f"ambient mismatch: form has n={alpha.n}, requested n={n}")
    if alpha.degree != k and not alpha.is_zero():
        raise ValueError(f"degree mismatch: form degree {alpha.degree}, requested k={k}")
    if not 0 <= k <= n:
        raise ValueError(f"quotient degree k={k} out of range 0..{n}")
    if k == 0:
        return QuotientClass(n, 0, alpha)
    # The quotient basis spans the orthogonal complement of I^k, so this
    # is alpha minus its projection onto I^k.
    return QuotientClass(n, k, _apply(_quotient_projector(k, n), alpha, k))


def strip_theta(alpha: Form) -> Form:
    """Drop every blade containing theta; the canonical representative
    modulo {gamma ^ theta}."""
    t_idx = theta_index(alpha.n)
    kept = {blade: c for blade, c in alpha.coeffs.items() if t_idx not in blade}
    return Form(alpha.n, alpha.degree, kept)


def theta_class(alpha: Form) -> QuotientClass:
    """The class of alpha modulo {gamma ^ theta}."""
    return QuotientClass(alpha.n, alpha.degree, strip_theta(alpha), relation="theta")


# -- the isomorphism L and the lifting ---------------------------------------


def _h1_blades(n: int, k: int) -> list[Blade]:
    t_idx = theta_index(n)
    return [blade for blade in _blade_tuple(n, k) if t_idx not in blade]


def _check_horizontal(alpha: Form, expected_degree: int, label: str) -> None:
    if alpha.degree != expected_degree and not alpha.is_zero():
        raise ValueError(f"{label} expects degree {expected_degree}, got {alpha.degree}")
    t_idx = theta_index(alpha.n)
    for blade in alpha.coeffs:
        if t_idx in blade:
            raise ValueError(f"{label} expects no theta component, found {blade_name(alpha.n, blade)}")


def L_apply(beta: Form) -> Form:
    """L : Lambda^{n-1} h1 -> Lambda^{n+1} h1, beta -> dtheta ^ beta."""
    n = beta.n
    _check_horizontal(beta, n - 1, "L_apply")
    return d_contact_form(n).wedge(beta)


@lru_cache(maxsize=None)
def _L_inverse_op(n: int) -> _ConstOp:
    """Exact inverse of the matrix of L over the theta-free blades."""
    source = _h1_blades(n, n - 1)
    target = _h1_blades(n, n + 1)
    if len(source) != len(target):
        raise AssertionError("L must act between spaces of equal dimension")
    dtheta = d_contact_form(n)
    columns = [
        _const_vector(dtheta.wedge(Form.from_blade(n, blade)), target) for blade in source
    ]
    size = len(source)
    rows = [[columns[j][i] for j in range(size)] for i in range(size)]
    inverse_cols: Mat = []
    for i in range(size):
        unit = [Fraction(1) if r == i else Fraction(0) for r in range(size)]
        col = _linalg.solve(rows, unit)
        if col is None:
            raise AssertionError("L is not invertible; this cannot happen")
        inverse_cols.append(col)
    # inverse_cols[i] solves L x = e_i, so it is the i-th column of L^-1.
    inverse = [[inverse_cols[i][j] for i in range(size)] for j in range(size)]
    return _ConstOp(tuple(target), tuple(source), _int_rows(inverse))


def L_inverse(gamma: Form) -> Form:
    """Solve L beta = gamma for the unique theta-free beta."""
    n = gamma.n
    _check_horizontal(gamma, n + 1, "L_inverse")
    return _apply(_L_inverse_op(n), gamma, n - 1)


def lift(cls: QuotientClass) -> Form:
    """The unique representative whose differential lands in J^{n+1}.

    Writing the lift as alpha + b ^ theta with b theta-free of degree
    n-1, the theta-free part of its differential is (d alpha)|_h plus
    (-1)^{n-1} L(b), so killing it forces b = L^{-1}((-1)^n (d alpha)|_h).
    Here (.)|_h keeps only the theta-free blades and alpha is the
    theta-free representative of the class.
    """
    n = cls.n
    if cls.k != n:
        raise ValueError(f"lifting is defined at degree n={n}, got k={cls.k}")
    alpha = strip_theta(cls.representative)
    horizontal = strip_theta(exterior_derivative(alpha))
    correction = L_inverse(horizontal if n % 2 == 0 else -horizontal)
    return alpha + correction.wedge(contact_form(n))


# -- the Rumin differentials --------------------------------------------------


def d_Q_low(cls: QuotientClass) -> QuotientClass:
    """d_Q on Omega^k/I^k for k < n: the class of d(representative)."""
    if cls.k >= cls.n:
        raise ValueError(f"d_Q_low needs k < n, got k={cls.k}, n={cls.n}")
    return project_quotient(exterior_derivative(cls.representative), cls.k + 1, cls.n)


def d_Q_high(alpha: Form) -> Form:
    """d_Q = d restricted to J^k for k >= n+1; output verified in J^{k+1}."""
    n = alpha.n
    k = alpha.degree
    if not n + 1 <= k <= 2 * n + 1:
        raise ValueError(f"d_Q_high needs degree in {n + 1}..{2 * n + 1}, got {k}")
    if not in_subspace("J", k, n, alpha):
        raise ValueError("d_Q_high input does not lie in J^k")
    result = exterior_derivative(alpha)
    if k + 1 <= 2 * n + 1 and not in_subspace("J", k + 1, n, result):
        raise AssertionError("d(J^k) escaped J^{k+1}; the complex is broken")
    return result


def D_second_order(cls: QuotientClass) -> Form:
    """The second-order middle operator: d of the lift; lands in J^{n+1}."""
    n = cls.n
    if cls.k != n:
        raise ValueError(f"D is defined at degree n={n}, got k={cls.k}")
    result = exterior_derivative(lift(cls))
    if not in_subspace("J", n + 1, n, result):
        raise AssertionError("D output escaped J^{n+1}; the lifting is broken")
    return result


def rumin_operator(value: QuotientClass | Form):
    """Apply the Rumin differential appropriate to the input's degree."""
    if isinstance(value, QuotientClass):
        if value.k < value.n:
            return d_Q_low(value)
        if value.k == value.n:
            return D_second_order(value)
        raise ValueError("quotient classes only live at degrees k <= n")
    return d_Q_high(value)


# -- weights and the d0 machinery ---------------------------------------------


def weight_of(alpha: Form) -> int | Literal["mixed"]:
    """Total coframe weight when pure (theta weighs 2), else "mixed"."""
    if alpha.is_zero():
        raise ValueError("the zero form has no weight")
    t_idx = theta_index(alpha.n)
    weights = {len(blade) + (1 if t_idx in blade else 0) for blade in alpha.coeffs}
    if len(weights) == 1:
        return weights.pop()
    return "mixed"


def d0_part(alpha: Form) -> Form:
    """The weight-preserving part of d: c . blade -> c . d(blade).

    Only theta-carrying blades contribute, and the split-off of theta
    costs the Koszul sign (-1)^{len(blade)-1}.  d(blade) is read from
    the exterior derivative's per-blade table, so d and d0 share one
    definition of it.
    """
    return _d_blade_part(alpha)


@lru_cache(maxsize=None)
def _d0_matrix(n: int, k: int) -> Mat:
    """Matrix of d0 at degree k: rows = degree-(k+1) blades, columns =
    degree-k blades."""
    source = _blade_tuple(n, k)
    target = _blade_tuple(n, k + 1)
    columns = [
        _const_vector(d0_part(Form.from_blade(n, blade)), target) for blade in source
    ]
    return [[columns[j][i] for j in range(len(source))] for i in range(len(target))]


@lru_cache(maxsize=None)
def _d0_kernel(n: int, k: int) -> Mat:
    source_width = len(_blade_tuple(n, k))
    rows = _d0_matrix(n, k)
    if not rows:
        identity = [[Fraction(1 if i == j else 0) for i in range(source_width)] for j in range(source_width)]
        return identity
    return _linalg.nullspace(rows, source_width)


@lru_cache(maxsize=None)
def _d0_image(n: int, k: int) -> Mat:
    """Row basis of Im d0^{(k)} inside degree k+1; empty for k < 0."""
    if k < 0 or k > 2 * n + 1:
        return []
    rows = _d0_matrix(n, k)
    if not rows:
        return []
    columns = [[row[j] for row in rows] for j in range(len(rows[0]))]
    reduced, _ = _linalg.rref(columns)
    return reduced


@lru_cache(maxsize=None)
def _d0_pseudo_inverse(n: int, k: int) -> _ConstOp:
    """Exact pseudo-inverse of d0^{(k)}: kills (Im d0)^perp and returns
    the unique preimage orthogonal to Ker d0."""
    source = _blade_tuple(n, k)
    target = _blade_tuple(n, k + 1)
    matrix = _d0_matrix(n, k)
    image = _linalg.gram_schmidt(_d0_image(n, k))
    kernel = _d0_kernel(n, k)
    coker = _linalg.orthogonal_complement(kernel, len(source))
    restricted_columns = [
        _linalg.matvec(matrix, basis_vec) for basis_vec in coker
    ] if matrix else []
    stacked = [[col[r] for col in restricted_columns] for r in range(len(target))]
    columns: Mat = []
    for i in range(len(target)):
        unit = [Fraction(1 if r == i else 0) for r in range(len(target))]
        projected = [Fraction(0)] * len(target)
        for u in image:
            factor = _linalg.dot(unit, u) / _linalg.dot(u, u)
            if factor != 0:
                projected = [p + factor * value for p, value in zip(projected, u)]
        if all(value == 0 for value in projected) or not coker:
            columns.append([Fraction(0)] * len(source))
            continue
        solution = _linalg.solve(stacked, projected)
        if solution is None:
            raise AssertionError("pseudo-inverse system is inconsistent; impossible")
        preimage = [Fraction(0)] * len(source)
        for coeff_value, basis_vec in zip(solution, coker):
            preimage = [p + coeff_value * b for p, b in zip(preimage, basis_vec)]
        columns.append(preimage)
    inverse = [[columns[i][j] for i in range(len(target))] for j in range(len(source))]
    return _ConstOp(target, source, _int_rows(inverse))


def d0_inverse(beta: Form, source_degree: int | None = None) -> Form:
    """Apply the pseudo-inverse of d0 at the given source degree."""
    n = beta.n
    k = beta.degree - 1 if source_degree is None else source_degree
    if k < 0 or beta.is_zero():
        return Form.zero(n, max(k, 0))
    return _apply(_d0_pseudo_inverse(n, k), beta, k)


def d0_corrector(alpha: Form) -> Form:
    """The nilpotent corrector d0^{-1}(d - d0); degree-preserving.

    Named d0_corrector to keep it apart from the second-order D of the
    Rumin chain.  It raises weight, and weights at a fixed degree span
    two values, so its square vanishes.
    """
    difference = exterior_derivative(alpha) - d0_part(alpha)
    return d0_inverse(difference, alpha.degree)


_P_SERIES_CAP = 16


def P_apply(alpha: Form) -> Form:
    """P = sum_k (-d0_corrector)^k, evaluated until the terms die out."""
    acc = alpha
    term = alpha
    for _ in range(_P_SERIES_CAP):
        term = -d0_corrector(term)
        if term.is_zero():
            return acc
        acc = acc + term
    raise AssertionError("corrector series failed to terminate; d0 convention broken")


def Q_apply(alpha: Form) -> Form:
    """Q = P d0^{-1}, mapping degree k to k-1; zero on degree 0."""
    if alpha.degree == 0:
        return Form.zero(alpha.n, 0)
    return P_apply(d0_inverse(alpha, alpha.degree - 1))


def Pi_E(alpha: Form) -> Form:
    """The chain projection Id - Q d - d Q."""
    first = Q_apply(exterior_derivative(alpha))
    second = exterior_derivative(Q_apply(alpha)) if alpha.degree > 0 else Form.zero(alpha.n, alpha.degree)
    return alpha - first - second


def Pi_E0(alpha: Form) -> Form:
    """Orthogonal projection onto E0 = Ker d0 cap (Im d0)^perp."""
    k = alpha.degree
    first = d0_inverse(d0_part(alpha), k)
    second = d0_part(d0_inverse(alpha, k - 1)) if k > 0 else Form.zero(alpha.n, k)
    return alpha - first - second


def dc_operator(alpha: Form) -> Form:
    """d_c = Pi_E0 d Pi_E on E0^k; the unified Rumin differential."""
    n = alpha.n
    k = alpha.degree
    if not in_subspace("E0", k, n, alpha):
        raise ValueError(f"dc_operator input does not lie in E0^{k}")
    result = Pi_E0(exterior_derivative(Pi_E(alpha)))
    if k + 1 <= 2 * n + 1 and not in_subspace("E0", k + 1, n, result):
        raise AssertionError("d_c output escaped E0^{k+1}")
    return result


# -- verification suites -------------------------------------------------------


def _random_chain_input(rng, n: int, k: int, degree: int):
    """A random element of the degree-k chain space (class or J-form)."""
    if k <= n:
        basis = basis_quotient(k, n)
        rep = random_combination(rng, basis.elements, max_degree=degree)
        return QuotientClass(n, k, rep)
    basis = basis_J(k, n)
    return random_combination(rng, basis.elements, max_degree=degree)


def _result_form(value) -> Form:
    return value.representative if isinstance(value, QuotientClass) else value


def verify_complex(n: int, trials: int = 100, seed: int = 42, degree: int = 3) -> dict:
    """Check that adjacent Rumin operators compose to zero.

    Runs every adjacent pair along the chain on seeded random inputs
    with polynomial coefficients, and reports exact-zero status with a
    serialized counterexample on failure.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = seeded_rng(seed)
    checks = []
    for k in range(0, 2 * n):
        name_first = "D" if k == n else f"d_Q({k})"
        name_second = "D" if k + 1 == n else f"d_Q({k + 1})"
        name = f"{name_second} o {name_first}"
        failure = None
        for _ in range(trials):
            start = _random_chain_input(rng, n, k, degree)
            composed = _result_form(rumin_operator(rumin_operator(start)))
            if not composed.is_zero():
                failure = {
                    "input": form_to_json(_result_form(start)),
                    "residual": form_to_json(composed),
                }
                break
        checks.append({"name": name, "degree": k, "passed": failure is None, "counterexample": failure})
    return {
        "suite": "complex-exactness",
        "n": n,
        "trials": trials,
        "seed": seed,
        "passed": all(c["passed"] for c in checks),
        "checks": checks,
    }


def verify_lifting(n: int, trials: int = 100, seed: int = 42, degree: int = 3) -> dict:
    """Check theta ^ d(lift) = 0 and dtheta ^ d(lift) = 0 exactly."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = seeded_rng(seed)
    theta = contact_form(n)
    dtheta = d_contact_form(n)
    failure = None
    for _ in range(trials):
        rep = random_combination(rng, basis_quotient(n, n).elements, max_degree=degree)
        lifted = lift(QuotientClass(n, n, rep))
        differential = exterior_derivative(lifted)
        if not differential.wedge(theta).is_zero() or not differential.wedge(dtheta).is_zero():
            failure = {"input": form_to_json(rep), "lift": form_to_json(lifted)}
            break
    checks = [{"name": "lift lands in J^{n+1}", "passed": failure is None, "counterexample": failure}]
    return {
        "suite": "lifting",
        "n": n,
        "trials": trials,
        "seed": seed,
        "passed": failure is None,
        "checks": checks,
    }


def verify_dc(n: int, trials: int = 50, seed: int = 42, degree: int = 3) -> dict:
    """Check d_c against the assembled d_Q/D on E0 representatives.

    For k < n the quotient representative of d_Q is itself the E0
    projection of d, for k = n the operator must reproduce D, and for
    k > n it must act as plain d on J^k.  The k = 2n degree, where d0
    vanishes identically, doubles as the plain-d agreement check.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = seeded_rng(seed)
    checks = []
    for k in range(0, 2 * n + 1):
        failure = None
        for _ in range(trials):
            value = _random_chain_input(rng, n, k, degree)
            alpha = _result_form(value)
            via_dc = dc_operator(alpha)
            if k > n:
                expected = exterior_derivative(alpha)
            else:
                expected = _result_form(rumin_operator(value))
            if via_dc != expected:
                failure = {
                    "input": form_to_json(alpha),
                    "dc": form_to_json(via_dc),
                    "expected": form_to_json(expected),
                }
                break
        label = "d" if k > n else ("D" if k == n else f"d_Q({k})")
        checks.append({"name": f"d_c({k}) = {label}", "degree": k, "passed": failure is None, "counterexample": failure})
    return {
        "suite": "dc-agreement",
        "n": n,
        "trials": trials,
        "seed": seed,
        "passed": all(c["passed"] for c in checks),
        "checks": checks,
    }
