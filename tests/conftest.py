"""Shared test helpers."""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import product
from pathlib import Path

import pytest
from hypothesis import strategies as st

from heiscalc.coeff import PolyCoeff
from heiscalc.contact import SmoothMap, builtin_dilation, builtin_left_translation, compose
from heiscalc.frame import Form, all_blades, d_contact_form
from heiscalc.sampling import COEFF_RANGE, random_poly


def random_form(rng, n: int, degree: int, max_degree: int = 3) -> Form:
    """A random form with a `random_poly` coefficient on every blade,
    drawn in blade order."""
    return Form(n, degree, {blade: random_poly(rng, n, max_degree) for blade in all_blades(n, degree)})


def poly_by_fractions(rng, n, max_degree=3, max_terms=4, coeff_range=COEFF_RANGE):
    """random_poly as first written: a Fraction per term, the public constructor."""
    width = 2 * n + 1
    terms: dict[tuple[int, ...], int] = {}
    for _ in range(rng.randint(1, max_terms)):
        exponents = [0] * width
        for _ in range(rng.randint(0, max_degree)):
            exponents[rng.randrange(width)] += 1
        value = rng.randint(*coeff_range)
        key = tuple(exponents)
        terms[key] = terms.get(key, 0) + value
    return PolyCoeff(n, {key: Fraction(value) for key, value in terms.items() if value})


def combination_by_scaling(rng, elements, max_degree=3):
    """A random polynomial combination of the elements, as first
    written: scale each element by its own polynomial, in order, and add
    the Forms."""
    n, degree = elements[0].n, elements[0].degree
    result = Form.zero(n, degree)
    for element in elements:
        result = result + element.scale(poly_by_fractions(rng, n, max_degree))
    return result


# -- exact dense linear algebra ---------------------------------------------


def rref(rows):
    """(reduced rows, pivot columns) of a Fraction matrix by plain
    Gauss-Jordan elimination; zero rows are dropped."""
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


def solve(rows, rhs):
    """One exact solution of A x = b, or None when inconsistent."""
    width = len(rows[0])
    reduced, pivots = rref([list(row) + [b] for row, b in zip(rows, rhs)])
    solution = [Fraction(0)] * width
    for row, p in zip(reduced, pivots):
        if p == width:
            return None
        solution[p] = row[width]
    return solution


# -- an oracle for L^{-1} and the theta-free part -----------------------------
#
# L = dtheta ^ maps the theta-free (n-1)-forms one to one onto the
# theta-free (n+1)-forms.  Its inverse is solved here from Form.wedge
# alone, so a check of rumin's lift against it reads no table of rumin.


def theta_free(alpha: Form) -> Form:
    """alpha without its theta blades, its representative modulo {gamma ^ theta}."""
    t_idx = 2 * alpha.n + 1
    return Form(alpha.n, alpha.degree, {b: c for b, c in alpha.coeffs.items() if t_idx not in b})


@lru_cache(maxsize=None)
def dense_L_inverse(n: int):
    """(source, target, matrix): the matrix of L^{-1} from the theta-free
    (n+1)-blades (target, its columns) to the theta-free (n-1)-blades
    (source, its rows), one solve of dtheta ^ b = gamma per target blade."""
    t_idx = 2 * n + 1
    source = tuple(b for b in all_blades(n, n - 1) if t_idx not in b)
    target = tuple(b for b in all_blades(n, n + 1) if t_idx not in b)
    L = [[Fraction(0)] * len(source) for _ in target]
    for j, b in enumerate(source):
        for blade, c in d_contact_form(n).wedge(Form.from_blade(n, b)).coeffs.items():
            L[target.index(blade)][j] = c._constant()
    columns = [solve(L, [Fraction(int(r == i)) for r in range(len(target))]) for i in range(len(target))]
    return source, target, [[col[i] for col in columns] for i in range(len(source))]


def L_inverse(gamma: Form) -> Form:
    """The theta-free b of degree n - 1 with dtheta ^ b = gamma, for a
    theta-free gamma of degree n + 1."""
    n = gamma.n
    source, target, matrix = dense_L_inverse(n)
    if gamma.degree != n + 1 or not set(gamma.coeffs) <= set(target):
        raise ValueError("L_inverse expects a theta-free form of degree n + 1")
    zero = PolyCoeff.zero(n)
    column = [gamma.coeffs.get(b, zero) for b in target]
    return Form(n, n - 1, {b: sum((c.scale(v) for c, v in zip(column, row) if v), zero)
                           for b, row in zip(source, matrix)})


# -- an independent coordinate chart ------------------------------------------
#
# A second, deliberately naive picture of the forms on H^n, in the
# coordinates w_1..w_{2n+1} (x_j = w_j, y_j = w_{n+j}, t = w_{2n+1}).  A
# chart form is a Form used as a container only: its blade (i_1, ..., i_k)
# stands for dw_{i_1} ^ ... ^ dw_{i_k}.  The chart reads the contact form
# from the paper, theta = dt - 1/2 sum_j (x_j dy_j - y_j dx_j), and
# nothing of the frame: d is plain partial derivatives, pullback the plain
# Jacobian, and blade signs count inversions.  A slip in the frame's
# conventions, made in every place that reads them at once, still shows
# against it.


def _chart_form(n: int, degree: int, terms) -> Form:
    """sum c dw_{l_1} ^ ... ^ dw_{l_k} over (l, c) in terms, l any index
    sequence: its sign is the parity of the inversions that sort it, and
    a repeated index gives zero."""
    coeffs: dict[tuple[int, ...], PolyCoeff] = {}
    for indices, c in terms:
        if len(set(indices)) < len(indices):
            continue
        inversions = sum(a > b for i, a in enumerate(indices) for b in indices[i + 1:])
        blade = tuple(sorted(indices))
        coeffs[blade] = coeffs.get(blade, PolyCoeff.zero(n)) + (-c if inversions % 2 else c)
    return Form(n, degree, coeffs)


def _chart_image(alpha: Form, images, coefficient) -> Form:
    """sum coefficient(c) images[i_1] ^ ... ^ images[i_k] over the terms
    c e_{i_1} ^ ... ^ e_{i_k} of alpha, each image a chart 1-form given
    as its (index, coefficient) pairs."""
    terms = []
    for blade, c in alpha.coeffs.items():
        c = coefficient(c)
        for factors in product(*(images[i - 1] for i in blade)):
            value = c
            for _, p in factors:
                value = value * p
            terms.append((tuple(index for index, _ in factors), value))
    return _chart_form(alpha.n, alpha.degree, terms)


def to_chart(alpha: Form) -> Form:
    """A form of the frame's coframe in the chart: theta_i -> dw_i for
    i <= 2n, and theta -> dw_{2n+1} - 1/2 sum_j (w_j dw_{n+j} - w_{n+j} dw_j)."""
    n = alpha.n
    one, half = PolyCoeff.const(n, 1), Fraction(1, 2)
    theta = [(2 * n + 1, one)]
    for j in range(1, n + 1):
        theta += [(n + j, PolyCoeff.var(n, j).scale(-half)), (j, PolyCoeff.var(n, n + j).scale(half))]
    return _chart_image(alpha, [*([(i, one)] for i in range(1, 2 * n + 1)), theta], lambda c: c)


def wedge_chart(a: Form, b: Form) -> Form:
    """a ^ b of two chart forms: every pair of terms, blades concatenated."""
    return _chart_form(a.n, a.degree + b.degree, [(ia + ib, ca * cb) for ia, ca in a.coeffs.items()
                                                  for ib, cb in b.coeffs.items()])


def d_chart(alpha: Form) -> Form:
    """d of a chart form: d(c dw_I) = sum_j (d c / d w_j) dw_j ^ dw_I."""
    n = alpha.n
    return _chart_form(n, alpha.degree + 1, [((j, *blade), c.partial(j)) for blade, c in alpha.coeffs.items()
                                             for j in range(1, 2 * n + 2)])


def pullback_chart(f, alpha: Form) -> Form:
    """f* of a chart form: (c o f) df^{i_1} ^ ... ^ df^{i_k}, with
    df^l = sum_j (d f^l / d w_j) dw_j."""
    n = alpha.n
    jacobian = [[(j, p) for j in range(1, 2 * n + 2) if not (p := component.partial(j)).is_zero()]
                for component in f.components]
    return _chart_image(alpha, jacobian, lambda c: c.substitute(f.components))


# -- strict contactomorphisms -------------------------------------------------
#
# With x = w1..wn, y = w_{n+1}..w_{2n}, t = w_{2n+1} and theta = dt -
# 1/2 sum (x dy - y dx), each generator below pulls theta back to itself
# (lambda = 1), apart from the dilation, which scales it by r^2.
#   - A linear symplectic map M, lifted as (x, y, t) -> (M(x, y), t):
#     M preserves omega(u, u') = sum x y' - y x', hence sum x dy - y dx.
#     The transvection u -> u + c omega(v, u) v and the swap
#     (x, y) -> (y, -x) are such maps.
#   - The shear S_phi: y -> y + grad phi(x), t -> t + 1/2 <x, grad phi> -
#     phi.  Its theta picks up 1/2 d<x, grad phi> - dphi - 1/2 sum x_i
#     d(d_i phi) + 1/2 sum d_i phi dx_i, and since d<x, grad phi> =
#     sum d_i phi dx_i + sum x_i d(d_i phi), that is zero.

_SMALL = st.builds(Fraction, st.integers(-2, 2).filter(bool), st.integers(1, 3))


def _symplectic_lift(n: int, images, description: str) -> SmoothMap:
    return SmoothMap(n, (*images, PolyCoeff.var(n, 2 * n + 1)), description=description)


def _transvection(n: int, v, c: Fraction) -> SmoothMap:
    w = [PolyCoeff.var(n, i) for i in range(1, 2 * n + 1)]
    omega = PolyCoeff.zero(n)  # omega(v, w)
    for i in range(n):
        omega = omega + w[n + i].scale(v[i]) - w[i].scale(v[n + i])
    return _symplectic_lift(n, [w_l + omega.scale(c * v_l) for w_l, v_l in zip(w, v)],
                            f"transvection:v={list(v)},c={c}")


def _swap(n: int) -> SmoothMap:
    x = [PolyCoeff.var(n, i) for i in range(1, n + 1)]
    y = [PolyCoeff.var(n, n + i) for i in range(1, n + 1)]
    return _symplectic_lift(n, [*y, *(-c for c in x)], "swap")


def _shear(n: int, phi: PolyCoeff) -> SmoothMap:
    half = Fraction(1, 2)
    grad = [phi.partial(i) for i in range(1, n + 1)]
    x = [PolyCoeff.var(n, i) for i in range(1, n + 1)]
    t = PolyCoeff.var(n, 2 * n + 1) - phi
    for x_i, g_i in zip(x, grad):
        t = t + (x_i * g_i).scale(half)
    y = [PolyCoeff.var(n, n + i) + g_i for i, g_i in enumerate(grad, start=1)]
    return SmoothMap(n, (*x, *y, t), description=f"shear:phi={phi.to_text()}")


@st.composite
def _phi(draw, n: int, degree: int) -> PolyCoeff:
    """One or two monomials of x-degree 2..degree, small coefficients."""
    terms = {}
    for _ in range(draw(st.integers(1, 2))):
        factors = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=degree))
        exps = [0] * (2 * n + 1)
        for i in factors:
            exps[i] += 1
        terms[tuple(exps)] = draw(_SMALL)
    return PolyCoeff(n, terms)


@st.composite
def contactomorphisms(draw, n: int, max_degree: int = 4, max_factors: int = 3):
    """(f, lam): a composite of 1..max_factors strict contactomorphisms of
    H^n, or dilations, whose components have total degree at most
    max_degree, and lam = A(2n+1, f), the product of r^2 over its
    dilations.  The generators are drawn from transvections, the swap,
    shears S_phi, left translations and dilations."""
    f, lam, degree = None, Fraction(1), 1
    for _ in range(draw(st.integers(1, max_factors))):
        kinds = ["transvection", "swap", "translation", "dilation"]
        if 2 * degree <= max_degree:
            kinds.append("shear")
        kind = draw(st.sampled_from(kinds))
        if kind == "transvection":
            v = draw(st.lists(st.integers(-1, 2), min_size=2 * n, max_size=2 * n).filter(any))
            g = _transvection(n, v, draw(_SMALL))
        elif kind == "swap":
            g = _swap(n)
        elif kind == "translation":
            g = builtin_left_translation(draw(st.lists(_SMALL, min_size=2 * n + 1, max_size=2 * n + 1)), n)
        elif kind == "dilation":
            r = abs(draw(_SMALL))
            g = builtin_dilation(r, n)
            lam *= r * r
        else:
            phi_degree = min(3, max_degree // degree)
            g = _shear(n, draw(_phi(n, phi_degree)))
            degree *= phi_degree
        f = g if f is None else compose(g, f)
    return f, lam


class CliResult:
    """One in-process run of `heiscalc.cli.main` with its output captured.

    `exception` is what would end the process: a SystemExit carrying a
    non-zero exit code, or the exception that escaped the command; it
    is None on exit 0.
    """

    def __init__(self, args: list[str]) -> None:
        from heiscalc.cli import main

        stdout, stderr = io.StringIO(), io.StringIO()
        self.exception: BaseException | None = None
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                self.exit_code = main(args, standalone_mode=False)
            except SystemExit as exc:  # a usage error or --help, raised by argparse
                self.exit_code = exc.code
            except Exception as exc:
                self.exit_code, self.exception = 1, exc
        if self.exit_code and self.exception is None:
            self.exception = SystemExit(self.exit_code)
        self.stdout, self.stderr = stdout.getvalue(), stderr.getvalue()
        self.output = self.stdout + self.stderr


@pytest.fixture()
def run_cli():
    """`run_cli(args)` runs the command line in-process and returns a CliResult."""
    return CliResult


def _fresh_python(args: list[str], **kwargs) -> subprocess.CompletedProcess:
    """`python *args` in a new interpreter that imports heiscalc from the
    same source tree as this test run; keyword arguments go to
    subprocess.run."""
    import heiscalc

    src = str(Path(heiscalc.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, *args], env=env, **kwargs)


@pytest.fixture()
def fresh_python():
    """`fresh_python(args, **kwargs)` runs Python in a new process; see _fresh_python."""
    return _fresh_python
