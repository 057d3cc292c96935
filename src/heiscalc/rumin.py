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
inherits: d0(c . rest^theta) = (-1)^{|rest|} c . rest^dtheta.  With it,
d - d0 raises weight, and so does the corrector C = d0^{-1}(d - d0).
d0^{-1} lands on theta blades, which carry the top weight k + 1 of their
degree k, so C d0^{-1} = 0: Q = P d0^{-1} is d0^{-1} itself, and the
chain projection is Pi_E = 1 - d0^{-1} d - d d0^{-1}.  Dropping the sign
would leave a weight-preserving remainder in d - d0 and break all of
this, so the sign is load-bearing.  All subspace computations are
fraction-exact; no floating tolerance appears anywhere in this module.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial
from math import comb
from typing import Iterator, Literal, NamedTuple, Sequence

from . import _linalg
from ._linalg import Mat, Vec
from .coeff import PolyCoeff, _check_n
from .frame import (
    Blade,
    Form,
    _IntRow,
    _blade_tuple,
    _d_table,
    _int_row,
    _rows_times,
    blade_name,
    contact_form,
    d_contact_form,
    exterior_derivative,
    form_to_json,
    theta_index,
)
from .sampling import random_combination, seeded_rng

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
    value = p._constant()
    if value is None:
        raise ValueError(f"expected a constant coefficient, got {p.to_text()}")
    return value


def _const_vector(a: Form, blades: Sequence[Blade]) -> Vec:
    lookup = {blade: _const_value(c) for blade, c in a.coeffs.items()}
    return [lookup.get(blade, Fraction(0)) for blade in blades]


class _ConstOp(NamedTuple):
    """A constant matrix acting on the coefficient vectors of forms.

    Column i reads the coefficient on inputs[i]; row j, stored as in
    `_int_row`, gives the coefficient on outputs[j].  Blades whose row
    is zero are left out of outputs.
    """

    inputs: tuple[Blade, ...]
    outputs: tuple[Blade, ...]
    rows: tuple[_IntRow, ...]


def _op_times(op: _ConstOp, alpha: Form) -> Iterator[PolyCoeff]:
    """The rows of op times alpha's coefficient vector, one polynomial per row."""
    zero = PolyCoeff.zero(alpha.n)
    return _rows_times(alpha.n, op.rows, [alpha.coeffs.get(blade, zero) for blade in op.inputs])


def _apply(op: _ConstOp, alpha: Form, degree: int) -> Form:
    """op applied to alpha, as a form of the given degree on op.outputs."""
    coeffs = {blade: c for blade, c in zip(op.outputs, _op_times(op, alpha)) if not c.is_zero()}
    return Form._from_clean(alpha.n, degree, coeffs)


def _block_op(inputs: tuple[Blade, ...], pieces) -> _ConstOp:
    """The block-diagonal operator with the given (output blades, input
    blades, matrix) pieces, its nonzero rows in blade order."""
    position = {blade: i for i, blade in enumerate(inputs)}
    rows = {}
    for outs, ins, matrix in pieces:
        for blade, row in zip(outs, matrix):
            entries = [(position[b], v) for b, v in zip(ins, row) if v]
            if entries:
                rows[blade] = _int_row(entries)
    outputs = tuple(sorted(rows))
    return _ConstOp(inputs, outputs, tuple(rows[blade] for blade in outputs))


# -- subspaces --------------------------------------------------------------


class SubspaceBasis(NamedTuple):
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


# -- the Lefschetz blocks -------------------------------------------------------


@lru_cache(maxsize=None)
def _h1_blocks(n: int, j: int) -> dict[tuple[int, ...], tuple[Blade, ...]]:
    """The theta-free j-blades grouped by their unpaired indices, the
    indices i or n + i of the j with exactly one of dx_j, dy_j in the
    blade; each group in lexicographic order."""
    t_idx = theta_index(n)
    groups: dict[tuple[int, ...], list[Blade]] = {}
    for blade in _blade_tuple(n, j):
        if t_idx not in blade:
            key = tuple(i for i in blade if (i + n if i <= n else i - n) not in blade)
            groups.setdefault(key, []).append(blade)
    return {key: tuple(blades) for key, blades in groups.items()}


def _L_rows(n: int, sources: Sequence[Blade], targets: Sequence[Blade]) -> Mat:
    """L = dtheta ^ as one row per theta-free source blade, over targets.

    dtheta ^ b = -sum_j dx_j ^ dy_j ^ b over the pairs j that b leaves
    empty, and moving dx_j ^ dy_j into place costs (-1)^m, where m counts
    the indices of b strictly between j and n + j.
    """
    column = {blade: c for c, blade in enumerate(targets)}
    rows = []
    for b in sources:
        row = [Fraction(0)] * len(targets)
        for j in range(1, n + 1):
            if j not in b and n + j not in b:
                between = sum(1 for i in b if j < i < n + j)
                row[column[tuple(sorted(b + (j, n + j)))]] = Fraction(1 if between % 2 else -1)
        rows.append(row)
    return rows


class _Block(NamedTuple):
    """One Lefschetz block of the degree-k blades.

    A theta-free block holds the blades with one set of unpaired indices,
    and K has one row per L-image of a (k-2)-blade with that set.  A theta
    block holds rest ^ theta over the (k-1)-rests with one set, and K is
    the matrix of L from those rests to the (k+1)-blades of the set, its
    targets; d0 on the block is (-1)^(k-1) K.  Either way E0^k meets the
    block in Ker K and the rows of K span the rest of it.
    """

    theta: bool
    blades: tuple[Blade, ...]
    targets: tuple[Blade, ...]
    K: Mat
    K_pinv: Mat


@lru_cache(maxsize=None)
def _blocks(n: int, k: int) -> tuple[_Block, ...]:
    """The Lefschetz blocks of the degree-k blades.  L, d0 and every
    projection and inverse built from them are block-diagonal."""
    t_idx = theta_index(n)
    blocks = []
    for key, blades in _h1_blocks(n, k).items():
        K = _L_rows(n, _h1_blocks(n, k - 2).get(key, ()), blades)
        blocks.append(_Block(False, blades, (), K, _linalg.pinv(K, len(blades))))
    for key, rests in _h1_blocks(n, k - 1).items():
        targets = _h1_blocks(n, k + 1).get(key, ())
        K = _linalg.transpose(_L_rows(n, rests, targets))
        blocks.append(_Block(True, tuple(r + (t_idx,) for r in rests), targets, K, _linalg.pinv(K, len(rests))))
    return tuple(blocks)


def _span_rows(kind: str, block: _Block) -> Mat:
    """Rows spanning the block's share of I^k, J^k, the quotient or E0^k.

    I^k = theta ^ Omega^{k-1} + dtheta ^ Omega^{k-2} takes every theta
    blade and the L-images; E0^k takes Ker K on every block, and J^k and
    the quotient are its theta and theta-free halves.
    """
    width = len(block.blades)
    if kind == "I":
        return [[Fraction(int(i == j)) for j in range(width)] for i in range(width)] if block.theta else block.K
    if (kind == "J" and not block.theta) or (kind == "quotient" and block.theta):
        return []
    return _linalg.nullspace(block.K, width)


def _block_basis(kind: str, k: int, n: int) -> SubspaceBasis:
    """The row-reduced basis, block by block.  Each reduced row vanishes
    off its block, so all of them, ordered by pivot blade, are the reduced
    row echelon form of the whole subspace."""
    rows = []
    for block in _blocks(n, k):
        reduced, pivots = _linalg.rref(_span_rows(kind, block))
        rows += [(block.blades[p], block.blades, row) for row, p in zip(reduced, pivots)]
    rows.sort(key=lambda r: r[0])
    elements = tuple(
        Form(n, k, {b: PolyCoeff.const(n, v) for b, v in zip(blades, row) if v}) for _, blades, row in rows
    )
    return SubspaceBasis(n, k, kind, elements)  # type: ignore[arg-type]


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
    basis = _block_basis("I", k, n)
    if k <= n + 1:
        expected = comb(2 * n + 1, k - 1)
        if basis.dim != expected:
            raise AssertionError(f"dim I^{k} = {basis.dim}, closed form says {expected}")
    return basis


@lru_cache(maxsize=None)
def basis_J(k: int, n: int) -> SubspaceBasis:
    """Basis of J^k = {alpha : alpha^theta = 0, alpha^dtheta = 0}.

    alpha^theta = 0 forces alpha = beta^theta with beta theta-free, and
    then alpha^dtheta = 0 asks L beta = 0.  The complex lives on the range
    k >= n+1 where the dimension is C(2n+1, k) - C(2n+1, k+1); below the
    middle degree L is injective and J^k = 0.
    """
    if not 1 <= k <= 2 * n + 1:
        raise ValueError(f"degree k={k} out of range 1..{2 * n + 1} for J^k")
    basis = _block_basis("J", k, n)
    expected = max(0, comb(2 * n + 1, k) - comb(2 * n + 1, k + 1))
    if basis.dim != expected:
        raise AssertionError(f"dim J^{k} = {basis.dim}, closed form says {expected}")
    return basis


@lru_cache(maxsize=None)
def basis_quotient(k: int, n: int) -> SubspaceBasis:
    """Orthogonal complement of I^k inside Omega^k; representatives of
    the quotient.  k = 0 is allowed and gives the span of 1."""
    if not 0 <= k <= n:
        raise ValueError(f"degree k={k} out of range 0..{n} for the quotient")
    basis = _block_basis("quotient", k, n)
    if k and basis.dim != dims(k, n)[2]:
        raise AssertionError(f"dim Omega^{k}/I^{k} basis mismatch at n={n}")
    return basis


@lru_cache(maxsize=None)
def basis_E0(k: int, n: int) -> SubspaceBasis:
    """E0^k = Ker d0 at degree k, intersected with (Im d0 at k-1)^perp.

    Coincides with the quotient complement for k <= n and with J^k for
    k > n.
    """
    if not 0 <= k <= 2 * n + 1:
        raise ValueError(f"degree k={k} out of range 0..{2 * n + 1}")
    return _block_basis("E0", k, n)


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
def _annihilator(kind: str, k: int, n: int) -> _ConstOp:
    """Rows spanning the orthogonal complement of a cached subspace S,
    block by block.

    A form lies in S exactly when every row pairs with it to zero, since
    S = (S-perp)-perp over the rationals.  The rows label no blades.
    """
    _basis(kind, k, n)  # validates kind and degree
    blades = _blade_tuple(n, k)
    position = {blade: i for i, blade in enumerate(blades)}
    rows = []
    for block in _blocks(n, k):
        for row in _linalg.nullspace(_span_rows(kind, block), len(block.blades)):
            rows.append(_int_row([(position[b], v) for b, v in zip(block.blades, row) if v]))
    return _ConstOp(blades, (), tuple(rows))


@lru_cache(maxsize=None)
def _pi_E0(n: int, k: int) -> _ConstOp:
    """Pi_E0 = 1 - d0+ d0 - d0 d0+ at degree k, the orthogonal projection
    onto E0^k: I - K+ K on each block."""
    blades = _blade_tuple(n, k)
    pieces = []
    for block in _blocks(n, k):
        size = len(block.blades)
        kk = _linalg.matmul(block.K_pinv, block.K) if block.K else [[0] * size] * size
        pieces.append((block.blades, block.blades, [[(i == j) - kk[i][j] for j in range(size)] for i in range(size)]))
    return _block_op(blades, pieces)


def in_subspace(kind: str, k: int, n: int, alpha: Form) -> bool:
    """Exact membership: every row of the complement's basis pairs to zero.

    Stops at the first row that does not.
    """
    if alpha.is_zero():
        return True
    if alpha.degree != k:
        return False
    return all(p.is_zero() for p in _op_times(_annihilator(kind, k, n), alpha))


# -- quotient classes --------------------------------------------------------


class QuotientClass(NamedTuple):
    """A class in Omega^k/I^k (relation "I") or modulo {gamma^theta}
    (relation "theta"), stored through its canonical representative."""

    n: int
    k: int
    representative: Form
    relation: Literal["I", "theta"] = "I"

    def is_zero(self) -> bool:
        return self.representative.is_zero()


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
    # Below the middle E0^k is the orthogonal complement of I^k, so this
    # is alpha minus its projection onto I^k.
    return QuotientClass(n, k, _apply(_pi_E0(n, k), alpha, k))


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


def L_inverse(gamma: Form) -> Form:
    """Solve L beta = gamma for the unique theta-free beta.

    At degree n, d0(b ^ theta) = (-1)^(n-1) L b, so beta ^ theta is
    (-1)^(n-1) d0+ gamma; the pseudo-inverse lands on theta blades only.
    """
    n = gamma.n
    _check_horizontal(gamma, n + 1, "L_inverse")
    image = _apply(_d0_pseudo_inverse(n, n), gamma, n)
    return Form._from_clean(n, n - 1, {b[:-1]: c if n % 2 else -c for b, c in image.coeffs.items()})


def lift(cls: QuotientClass) -> Form:
    """The unique representative whose differential lands in J^{n+1}.

    Write the lift as alpha + b ^ theta, with alpha the theta-free
    representative of the class and b theta-free of degree n-1.  Since
    d(b ^ theta) = db ^ theta + (-1)^(n-1) b ^ dtheta, the theta-free part
    of its differential is (d alpha)|_h + (-1)^(n-1) L b, where (.)|_h
    keeps only the theta-free blades.  Killing it forces
    b = L^{-1}((-1)^n (d alpha)|_h), and by `L_inverse` that makes
    b ^ theta = -d0+ (d alpha)|_h.  d0+ ignores theta blades, so the lift
    is alpha - d0+ (d alpha).
    """
    n = cls.n
    if cls.k != n:
        raise ValueError(f"lifting is defined at degree n={n}, got k={cls.k}")
    alpha = strip_theta(cls.representative)
    return alpha - _apply(_d0_pseudo_inverse(n, n), exterior_derivative(alpha), n)


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


@lru_cache(maxsize=None)
def _d0_table(n: int, k: int) -> _ConstOp:
    """d0 from degree k to k+1, read off the tails of the exterior
    derivative's per-blade table `_d_table`, so d and d0 share one
    definition of d(blade)."""
    inputs = _blade_tuple(n, k)
    entries: dict[Blade, list[tuple[int, int]]] = {}
    for i, blade in enumerate(inputs):
        for merged, sign in _d_table(n, blade)[1]:
            entries.setdefault(merged, []).append((i, sign))
    outputs = tuple(sorted(entries))
    return _ConstOp(inputs, outputs, tuple(_int_row(entries[blade]) for blade in outputs))


def d0_part(alpha: Form) -> Form:
    """The weight-preserving part of d: c . blade -> c . d(blade).

    Only theta-carrying blades contribute, and the split-off of theta
    costs the Koszul sign (-1)^{len(blade)-1}.
    """
    return _apply(_d0_table(alpha.n, alpha.degree), alpha, alpha.degree + 1)


@lru_cache(maxsize=None)
def _d0_pseudo_inverse(n: int, k: int) -> _ConstOp:
    """Exact pseudo-inverse of d0^{(k)}: kills (Im d0)^perp and returns
    the unique preimage orthogonal to Ker d0.  d0 is (-1)^(k-1) K on each
    theta block at degree k, so its pseudo-inverse is (-1)^(k-1) K+."""
    sign = 1 if k % 2 else -1
    pieces = [
        (block.blades, block.targets, [[sign * v for v in row] for row in block.K_pinv])
        for block in _blocks(n, k)
        if block.theta
    ]
    return _block_op(_blade_tuple(n, k + 1), pieces)


def d0_inverse(beta: Form) -> Form:
    """Apply the pseudo-inverse of d0, from degree beta.degree to one below."""
    n = beta.n
    k = beta.degree - 1
    if k < 0 or beta.is_zero():
        return Form.zero(n, max(k, 0))
    return _apply(_d0_pseudo_inverse(n, k), beta, k)


def d0_corrector(alpha: Form) -> Form:
    """The corrector C = d0^{-1}(d - d0); degree-preserving.

    Named d0_corrector to keep it apart from the second-order D of the
    Rumin chain.  It raises weight, so it kills the theta blades, the top
    weight of their degree, and with them every output of d0^{-1}:
    C d0^{-1} = 0 and C C = 0.
    """
    difference = exterior_derivative(alpha) - d0_part(alpha)
    return d0_inverse(difference)


def P_apply(alpha: Form) -> Form:
    """Rumin's P = sum_j (-C)^j for C = d0_corrector, which is 1 - C as
    C C = 0.  `Pi_E` does not need it: Q = P d0^{-1} is d0^{-1}."""
    return alpha - d0_corrector(alpha)


def Pi_E(alpha: Form) -> Form:
    """The chain projection 1 - Q d - d Q, with Q = P d0^{-1} = d0^{-1}
    (see `P_apply`); d0^{-1} of a function is the zero form."""
    return alpha - d0_inverse(exterior_derivative(alpha)) - exterior_derivative(d0_inverse(alpha))


def Pi_E0(alpha: Form) -> Form:
    """Orthogonal projection onto E0 = Ker d0 cap (Im d0)^perp."""
    return _apply(_pi_E0(alpha.n, alpha.degree), alpha, alpha.degree)


def dc_operator(alpha: Form) -> Form:
    """d_c = Pi_E0 d Pi_E on E0^k; the unified Rumin differential.

    E0^k is orthogonal to Im d0, so d0^{-1} kills it, and on E0^k this is
    Pi_E0 d (1 - d0^{-1} d).
    """
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
    basis = basis_quotient(k, n) if k <= n else basis_J(k, n)
    rep = random_combination(rng, basis.elements, max_degree=degree)
    return QuotientClass(n, k, rep) if k <= n else rep


def _result_form(value) -> Form:
    return value.representative if isinstance(value, QuotientClass) else value


def _first_counterexample(trials: int, check) -> dict | None:
    """The first counterexample check(trial) reports for trial = 0, 1, ...,
    trials - 1, or None.  Nothing is drawn after it, so the seed fixes it."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    return next((failure for failure in map(check, range(trials)) if failure is not None), None)


def _check_report(name: str, failure: dict | None, **extra) -> dict:
    return {"name": name, **extra, "passed": failure is None, "counterexample": failure}


def _suite_report(suite: str, n: int, seed: int, checks: list[dict], trials: int | None = None) -> dict:
    report = {"suite": suite, "n": n} if trials is None else {"suite": suite, "n": n, "trials": trials}
    return {**report, "seed": seed, "passed": all(c["passed"] for c in checks), "checks": checks}


def _operator_name(n: int, k: int) -> str:
    """The Rumin operator leaving degree k: D at the middle, else d_Q(k)."""
    return "D" if k == n else f"d_Q({k})"


def verify_complex(n: int, trials: int = 100, seed: int = 42, degree: int = 3) -> dict:
    """Check that adjacent Rumin operators compose to zero.

    Runs every adjacent pair along the chain on seeded random inputs
    with polynomial coefficients, and reports exact-zero status with a
    serialized counterexample on failure.
    """
    _check_n(n)
    rng = seeded_rng(seed)

    def check(k: int, trial: int) -> dict | None:
        start = _random_chain_input(rng, n, k, degree)
        composed = _result_form(rumin_operator(rumin_operator(start)))
        if not composed.is_zero():
            return {"input": form_to_json(_result_form(start)), "residual": form_to_json(composed)}

    checks = []
    for k in range(0, 2 * n):
        failure = _first_counterexample(trials, partial(check, k))
        checks.append(_check_report(f"{_operator_name(n, k + 1)} o {_operator_name(n, k)}", failure, degree=k))
    return _suite_report("complex-exactness", n, seed, checks, trials=trials)


def verify_lifting(n: int, trials: int = 100, seed: int = 42, degree: int = 3) -> dict:
    """Check theta ^ d(lift) = 0 and dtheta ^ d(lift) = 0 exactly."""
    _check_n(n)
    rng = seeded_rng(seed)
    theta, dtheta = contact_form(n), d_contact_form(n)

    def check(trial: int) -> dict | None:
        cls = _random_chain_input(rng, n, n, degree)
        lifted = lift(cls)
        differential = exterior_derivative(lifted)
        if not differential.wedge(theta).is_zero() or not differential.wedge(dtheta).is_zero():
            return {"input": form_to_json(cls.representative), "lift": form_to_json(lifted)}

    failure = _first_counterexample(trials, check)
    return _suite_report("lifting", n, seed, [_check_report("lift lands in J^{n+1}", failure)], trials=trials)


def verify_dc(n: int, trials: int = 50, seed: int = 42, degree: int = 3) -> dict:
    """Check d_c against the assembled d_Q/D on E0 representatives.

    For k < n the quotient representative of d_Q is itself the E0
    projection of d, for k = n the operator must reproduce D, and for
    k > n it must act as plain d on J^k.  The k = 2n degree, where d0
    vanishes identically, doubles as the plain-d agreement check.
    """
    _check_n(n)
    rng = seeded_rng(seed)

    def check(k: int, trial: int) -> dict | None:
        value = _random_chain_input(rng, n, k, degree)
        alpha = _result_form(value)
        via_dc = dc_operator(alpha)
        expected = exterior_derivative(alpha) if k > n else _result_form(rumin_operator(value))
        if via_dc != expected:
            return {"input": form_to_json(alpha), "dc": form_to_json(via_dc), "expected": form_to_json(expected)}

    checks = []
    for k in range(0, 2 * n + 1):
        failure = _first_counterexample(trials, partial(check, k))
        checks.append(_check_report(f"d_c({k}) = {'d' if k > n else _operator_name(n, k)}", failure, degree=k))
    return _suite_report("dc-agreement", n, seed, checks, trials=trials)
