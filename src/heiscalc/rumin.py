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
from functools import lru_cache
from itertools import chain
from math import comb, lcm
from typing import Iterable, Iterator, Literal, NamedTuple, Sequence

from . import _linalg
from ._linalg import Mat
from .coeff import PolyCoeff, _check_n
from .frame import (
    Blade,
    Form,
    _blade_tuple,
    _d_table,
    contact_form,
    d_contact_form,
    exterior_derivative,
    form_to_json,
    theta_index,
)
from .sampling import random_combination, seeded_rng

__all__ = [
    "SubspaceBasis",
    "dims",
    "basis_I",
    "basis_J",
    "basis_quotient",
    "basis_E0",
    "project_quotient",
    "lift",
    "d_Q_low",
    "d_Q_high",
    "D_second_order",
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

_IntRow = tuple[int, tuple[int, ...], tuple[int, ...]]


def _int_row(entries: Sequence[tuple[int, Fraction | int]]) -> _IntRow:
    """(den, columns, int numerators) of a constant row given by its
    nonzero (column, value) entries: value = numerator / den."""
    columns, values = zip(*entries)
    den = lcm(*[v.denominator for v in values])
    return den, columns, tuple([v.numerator * (den // v.denominator) for v in values])


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
    """The rows of op times alpha's coefficient vector, each entry one
    `PolyCoeff.combine`: the one place a constant matrix meets polynomials."""
    n = alpha.n
    zero = PolyCoeff.zero(n)
    pick = [alpha.coeffs.get(blade, zero) for blade in op.inputs].__getitem__
    for den, columns, nums in op.rows:
        yield PolyCoeff.combine(n, zip(nums, map(pick, columns)), den)


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


def _d0_block(n: int, rests: Sequence[Blade], targets: Sequence[Blade]) -> Mat:
    """d0 from the blades rest ^ theta to the targets, one row per target,
    read off the tails of `_d_table`, the exterior derivative's own table."""
    t_idx = theta_index(n)
    row = {blade: r for r, blade in enumerate(targets)}
    K = [[Fraction(0)] * len(rests) for _ in targets]
    for c, rest in enumerate(rests):
        for merged, sign in _d_table(n, rest + (t_idx,))[1]:
            K[row[merged]][c] = Fraction(sign)
    return K


class _Block(NamedTuple):
    """One Lefschetz block of the degree-k blades, and d0's share of it.

    A theta block holds rest ^ theta over the (k-1)-rests with one set of
    unpaired indices, and K is d0 from it to the (k+1)-blades of the set,
    its targets.  A theta-free block holds the k-blades with one set, and
    K is the transpose of d0 into it from the theta block of degree k-1.
    Either way E0^k = Ker d0 cap (Im d0)^perp meets the block in Ker K,
    and the rows of K span the rest of it.  P = 1 - K+ K is the
    orthogonal projection onto Ker K.
    """

    theta: bool
    blades: tuple[Blade, ...]
    targets: tuple[Blade, ...]
    K: Mat
    K_pinv: Mat
    P: Mat


@lru_cache(maxsize=None)
def _blocks(n: int, k: int) -> tuple[_Block, ...]:
    """The Lefschetz blocks of the degree-k blades.  d0 and every
    projection and inverse built from it are block-diagonal."""
    t_idx = theta_index(n)
    shares = [(False, blades, (), _linalg.transpose(_d0_block(n, _h1_blocks(n, k - 2).get(key, ()), blades)))
              for key, blades in _h1_blocks(n, k).items()]
    for key, rests in _h1_blocks(n, k - 1).items():
        targets = _h1_blocks(n, k + 1).get(key, ())
        shares.append((True, tuple(r + (t_idx,) for r in rests), targets, _d0_block(n, rests, targets)))
    blocks = []
    for theta, blades, targets, K in shares:
        size = len(blades)
        K_pinv = _linalg.pinv(K, size)
        P = [[int(i == j) - sum((a * row[j] for a, row in zip(K_pinv[i], K)), Fraction(0)) for j in range(size)]
             for i in range(size)]
        blocks.append(_Block(theta, blades, targets, K, K_pinv, P))
    return tuple(blocks)


def _span_rows(kind: str, block: _Block) -> Mat:
    """Rows spanning the block's share of I^k or E0^k.

    I^k = theta ^ Omega^{k-1} + dtheta ^ Omega^{k-2} takes every theta
    blade and the images of d0, the dtheta-multiples up to sign; E0^k
    takes Ker K, the rows of P, on every block.
    """
    width = len(block.blades)
    if kind == "I":
        return [[Fraction(int(i == j)) for j in range(width)] for i in range(width)] if block.theta else block.K
    if kind == "E0":
        return block.P
    raise ValueError(f"unknown subspace kind {kind!r}")


@lru_cache(maxsize=None)
def _reduced(kind: str, k: int, n: int) -> tuple[tuple[_Block, Mat, list[int]], ...]:
    """Each block of the degree-k blades with the reduced rows spanning
    its share of I^k or E0^k, and their pivot columns."""
    return tuple((block, *_linalg.rref(_span_rows(kind, block))) for block in _blocks(n, k))


def _block_basis(kind: str, k: int, n: int) -> SubspaceBasis:
    """The row-reduced basis, block by block.  Each reduced row vanishes
    off its block, so all of them, ordered by pivot blade, are the reduced
    row echelon form of the whole subspace."""
    rows = [(block.blades[p], block.blades, row)
            for block, reduced, pivots in _reduced(kind, k, n) for row, p in zip(reduced, pivots)]
    rows.sort(key=lambda r: r[0])
    elements = tuple(
        Form(n, k, {b: PolyCoeff.const(n, v) for b, v in zip(blades, row) if v}) for _, blades, row in rows
    )
    return SubspaceBasis(n, k, kind, elements)  # type: ignore[arg-type]


@lru_cache(maxsize=None)
def basis_I(k: int, n: int) -> SubspaceBasis:
    """Row-reduced basis of I^k = {alpha^theta + beta^dtheta}.

    Defined for every 1 <= k <= 2n+1; the complex quotients by it only
    up to k = n.  L = dtheta ^ is injective below the middle and onto
    above it, so dim I^k = min(C(2n+1, k-1), C(2n+1, k)): I^k is all of
    Omega^k from k = n+1 on.
    """
    if not 1 <= k <= 2 * n + 1:
        raise ValueError(f"degree k={k} out of range 1..{2 * n + 1} for I^k")
    basis = _block_basis("I", k, n)
    expected = min(comb(2 * n + 1, k - 1), comb(2 * n + 1, k))
    if basis.dim != expected:
        raise AssertionError(f"dim I^{k} = {basis.dim}, closed form says {expected}")
    return basis


@lru_cache(maxsize=None)
def basis_J(k: int, n: int) -> SubspaceBasis:
    """Basis of J^k = {alpha : alpha^theta = 0, alpha^dtheta = 0}, read off E0^k.

    alpha^theta = 0 forces alpha = beta^theta with beta theta-free, and
    then alpha^dtheta = 0 asks L beta = 0: J^k is E0^k's theta half.
    Below the middle L is injective and J^k = 0; above it E0^k has no
    theta-free half, so J^k = E0^k, of dimension C(2n+1, k) - C(2n+1, k+1).
    """
    if not 1 <= k <= 2 * n + 1:
        raise ValueError(f"degree k={k} out of range 1..{2 * n + 1} for J^k")
    basis = SubspaceBasis(n, k, "J", basis_E0(k, n).elements if k > n else ())
    expected = max(0, comb(2 * n + 1, k) - comb(2 * n + 1, k + 1))
    if basis.dim != expected:
        raise AssertionError(f"dim J^{k} = {basis.dim}, closed form says {expected}")
    return basis


@lru_cache(maxsize=None)
def basis_quotient(k: int, n: int) -> SubspaceBasis:
    """Orthogonal complement of I^k inside Omega^k; representatives of
    the quotient, E0^k's theta-free half, which is all of E0^k up to the
    middle.  k = 0 is allowed and gives the span of 1."""
    if not 0 <= k <= n:
        raise ValueError(f"degree k={k} out of range 0..{n} for the quotient")
    basis = SubspaceBasis(n, k, "quotient", basis_E0(k, n).elements)
    if k and basis.dim != dims(k, n)[2]:
        raise AssertionError(f"dim Omega^{k}/I^{k} basis mismatch at n={n}")
    return basis


@lru_cache(maxsize=None)
def basis_E0(k: int, n: int) -> SubspaceBasis:
    """E0^k = Ker d0 at degree k, intersected with (Im d0 at k-1)^perp:
    Ker K, the row space of P, on every block, the one chain space
    row-reduced here.

    It is the quotient complement for k <= n and J^k for k > n.
    """
    if not 0 <= k <= 2 * n + 1:
        raise ValueError(f"degree k={k} out of range 0..{2 * n + 1}")
    return _block_basis("E0", k, n)


@lru_cache(maxsize=None)
def _pi_E0(n: int, k: int) -> _ConstOp:
    """Pi_E0 = 1 - d0+ d0 - d0 d0+ at degree k, the orthogonal projection
    onto E0^k: P on each block."""
    return _block_op(_blade_tuple(n, k), [(block.blades, block.blades, block.P) for block in _blocks(n, k)])


def in_subspace(kind: Literal["I", "E0"], k: int, n: int, alpha: Form) -> bool:
    """Exact membership in S = I^k or E0^k (J^k and the quotient
    complement are E0^k on their ranges).  Stops at the first nonzero
    row.

    E0^k is Ker d0 cap Ker d0+, since Ker d0+ = (Im d0)^perp.  Up to the
    middle I^k is the orthogonal complement of E0^k, so alpha lies in it
    when Pi_E0 kills it; above the middle I^k is all of Omega^k.
    """
    if kind not in ("I", "E0"):
        raise ValueError(f"unknown subspace kind {kind!r}")
    lowest = int(kind == "I")
    if not lowest <= k <= 2 * n + 1:
        raise ValueError(f"degree k={k} out of range {lowest}..{2 * n + 1} for {kind}^k")
    if alpha.n != n:
        raise ValueError(f"form lives in H^{alpha.n}, subspace in H^{n}")
    if alpha.is_zero():
        return True
    if alpha.degree != k:
        return False
    if kind == "I":
        return k > n or all(p.is_zero() for p in _op_times(_pi_E0(n, k), alpha))
    d0_plus = _op_times(_d0_pseudo_inverse(n, k - 1), alpha) if k else ()
    return all(p.is_zero() for p in chain(_op_times(_d0_table(n, k), alpha), d0_plus))


# -- quotient classes --------------------------------------------------------
#
# A form of degree k <= n stands for its class in Omega^k/I^k: every
# operator below gives the same result on every representative.


def project_quotient(alpha: Form) -> Form:
    """The canonical representative of alpha's class in Omega^k/I^k, the
    one orthogonal to I^k."""
    n, k = alpha.n, alpha.degree
    if not 0 <= k <= n:
        raise ValueError(f"quotient degree k={k} out of range 0..{n}")
    # Up to the middle E0^k is the orthogonal complement of I^k, so this
    # is alpha minus its projection onto I^k.
    return Pi_E0(alpha)


# -- the lifting -------------------------------------------------------------


def lift(alpha: Form) -> Form:
    """The representative of alpha's class whose differential lands in
    J^{n+1}, alpha's theta-free part plus a theta blade.

    Write the lift as alpha_h + b ^ theta, with alpha_h alpha's theta-free
    part and b theta-free of degree n-1.  Since
    d(b ^ theta) = db ^ theta + (-1)^(n-1) b ^ dtheta, the theta-free part
    of its differential is (d alpha_h)|_h + (-1)^(n-1) L b, where (.)|_h
    keeps only the theta-free blades.  Killing it forces
    b = L^{-1}((-1)^n (d alpha_h)|_h).  At degree n,
    d0(b ^ theta) = (-1)^(n-1) L b, so d0+ sends a theta-free gamma to
    (-1)^(n-1) L^{-1} gamma ^ theta, and
    b ^ theta = -d0+ (d alpha_h)|_h.  d0+ ignores theta blades, and d0+ d0
    is the identity on the theta blades of degree n, so the lift is
    alpha - d0+ (d alpha).  d kills the lift of every form in I^n, so
    d of the lift does not depend on the representative.
    """
    n = alpha.n
    if alpha.degree != n:
        raise ValueError(f"lifting is defined at degree n={n}, got k={alpha.degree}")
    return alpha - _apply(_d0_pseudo_inverse(n, n), exterior_derivative(alpha), n)


# -- the Rumin differentials --------------------------------------------------


def d_Q_low(alpha: Form) -> Form:
    """d_Q on Omega^k/I^k for k < n: the canonical representative of d
    alpha's class.  d maps I^k into I^{k+1}, so any representative serves."""
    if alpha.degree >= alpha.n:
        raise ValueError(f"d_Q_low needs k < n, got k={alpha.degree}, n={alpha.n}")
    return project_quotient(exterior_derivative(alpha))


def d_Q_high(alpha: Form) -> Form:
    """d_Q = d restricted to J^k = E0^k for k >= n+1; output verified in J^{k+1}."""
    n = alpha.n
    k = alpha.degree
    if not n + 1 <= k <= 2 * n + 1:
        raise ValueError(f"d_Q_high needs degree in {n + 1}..{2 * n + 1}, got {k}")
    if not in_subspace("E0", k, n, alpha):
        raise ValueError("d_Q_high input does not lie in J^k")
    result = exterior_derivative(alpha)
    if k + 1 <= 2 * n + 1 and not in_subspace("E0", k + 1, n, result):
        raise AssertionError("d(J^k) escaped J^{k+1}; the complex is broken")
    return result


def D_second_order(alpha: Form) -> Form:
    """The second-order middle operator: d of the lift; lands in J^{n+1}."""
    n = alpha.n
    if alpha.degree != n:
        raise ValueError(f"D is defined at degree n={n}, got k={alpha.degree}")
    result = exterior_derivative(lift(alpha))
    if not in_subspace("E0", n + 1, n, result):
        raise AssertionError("D output escaped J^{n+1}; the lifting is broken")
    return result


def rumin_operator(alpha: Form) -> Form:
    """Apply the Rumin differential appropriate to the input's degree."""
    if alpha.degree < alpha.n:
        return d_Q_low(alpha)
    if alpha.degree == alpha.n:
        return D_second_order(alpha)
    return d_Q_high(alpha)


# -- the d0 machinery ---------------------------------------------------------


@lru_cache(maxsize=None)
def _d0_table(n: int, k: int) -> _ConstOp:
    """d0 from degree k to k+1: the K of every theta block, so d and d0
    share `_d_table`'s one definition of d(blade)."""
    pieces = [(block.targets, block.blades, block.K) for block in _blocks(n, k) if block.theta]
    return _block_op(_blade_tuple(n, k), pieces)


def d0_part(alpha: Form) -> Form:
    """The weight-preserving part of d: c . blade -> c . d(blade).

    Only theta-carrying blades contribute, and the split-off of theta
    costs the Koszul sign (-1)^{len(blade)-1}.
    """
    return _apply(_d0_table(alpha.n, alpha.degree), alpha, alpha.degree + 1)


@lru_cache(maxsize=None)
def _d0_pseudo_inverse(n: int, k: int) -> _ConstOp:
    """Exact pseudo-inverse of d0^{(k)}: kills (Im d0)^perp and returns
    the unique preimage orthogonal to Ker d0; K+ on every theta block."""
    pieces = [(block.blades, block.targets, block.K_pinv) for block in _blocks(n, k) if block.theta]
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


@lru_cache(maxsize=None)
def _chain_span(n: int, k: int) -> _ConstOp:
    """The span of the degree-k chain basis E0^k, the quotient's
    representatives below the middle and J^k above it: input i is the
    pivot blade of basis_E0(k, n).elements[i], and the output on a blade
    is that blade's coefficient in the combination of the elements with
    the inputs' coefficients.  The basis is row-reduced, so the output
    keeps every input's coefficient on its pivot."""
    pieces = [(block.blades, [block.blades[p] for p in pivots], _linalg.transpose(reduced))
              for block, reduced, pivots in _reduced("E0", k, n)]
    return _block_op(tuple(sorted(blade for _, ins, _ in pieces for blade in ins)), pieces)


def _chain_draws(rng, n: int, k: int, degree: int, trials: int) -> Iterator[Form]:
    """trials random elements of the degree-k chain space E0^k, drawn
    lazily from rng one at a time: each spans a random form on the
    basis' pivot blades."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    span = _chain_span(n, k)
    return (_apply(span, random_combination(rng, n, k, span.inputs, degree), k) for _ in range(trials))


def _first_counterexample(inputs: Iterable, check,
                          named=lambda alpha: {"input": form_to_json(alpha)}) -> dict | None:
    """The first counterexample check(input) reports over inputs, or None.
    Nothing is drawn after it, so the seed fixes it.  An operator's own
    AssertionError or ValueError, a failed check of its output or input,
    is a counterexample too: named(input), the input as the check's
    counterexamples name it, with the error's message.  So the suites
    refuse bad arguments before the first check."""
    for item in inputs:
        try:
            failure = check(item)
        except (AssertionError, ValueError) as exc:
            failure = {**named(item), "error": str(exc)}
        if failure is not None:
            return failure
    return None


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

    def check(start: Form) -> dict | None:
        composed = rumin_operator(rumin_operator(start))
        if not composed.is_zero():
            return {"input": form_to_json(start), "residual": form_to_json(composed)}

    checks = []
    for k in range(0, 2 * n):
        failure = _first_counterexample(_chain_draws(rng, n, k, degree, trials), check)
        checks.append(_check_report(f"{_operator_name(n, k + 1)} o {_operator_name(n, k)}", failure, degree=k))
    return _suite_report("complex-exactness", n, seed, checks, trials=trials)


def verify_lifting(n: int, trials: int = 100, seed: int = 42, degree: int = 3) -> dict:
    """Check theta ^ d(lift) = 0 and dtheta ^ d(lift) = 0 exactly."""
    _check_n(n)
    rng = seeded_rng(seed)
    theta, dtheta = contact_form(n), d_contact_form(n)

    def check(alpha: Form) -> dict | None:
        lifted = lift(alpha)
        differential = exterior_derivative(lifted)
        if not differential.wedge(theta).is_zero() or not differential.wedge(dtheta).is_zero():
            return {"input": form_to_json(alpha), "lift": form_to_json(lifted)}

    failure = _first_counterexample(_chain_draws(rng, n, n, degree, trials), check)
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

    def check(alpha: Form) -> dict | None:
        via_dc = dc_operator(alpha)
        expected = exterior_derivative(alpha) if alpha.degree > n else rumin_operator(alpha)
        if via_dc != expected:
            return {"input": form_to_json(alpha), "dc": form_to_json(via_dc), "expected": form_to_json(expected)}

    checks = []
    for k in range(0, 2 * n + 1):
        failure = _first_counterexample(_chain_draws(rng, n, k, degree, trials), check)
        checks.append(_check_report(f"d_c({k}) = {'d' if k > n else _operator_name(n, k)}", failure, degree=k))
    return _suite_report("dc-agreement", n, seed, checks, trials=trials)
