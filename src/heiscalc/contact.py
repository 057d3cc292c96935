"""Smooth polynomial maps of H^n: pushforward, pullback, contactness.

A map is stored through its 2n+1 polynomial components f^1..f^{2n+1}.
Its derivative in the left-invariant frame is the (2n+1) x (2n+1)
matrix whose column j expands f_* W_j: the first 2n rows hold the
horizontal coefficients W_j f^l, and the last row holds the theta
components

    A(j, f) = W_j f^{2n+1} + 1/2 sum_l wtilde_l(f) W_j f^l.

The map is contact exactly when A(j, f) = 0 for every j <= 2n, i.e.
when the pushforward preserves the horizontal span.  Pullback of forms
is the transpose action on the coframe (theta_m pulls back through row
m of the matrix) extended as an algebra morphism, with coefficients
composed by polynomial substitution.  Everything here is exact: all
components are polynomials with rational coefficients, so contact
verdicts are decided symbolically, never sampled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .coeff import PolyCoeff, Point, Scalar, _as_fraction, _parse_fraction
from .frame import Blade, Form, _sum_columns, form_to_json, frame_apply, theta_index
from .rumin import (
    D_second_order,
    QuotientClass,
    basis_J,
    basis_quotient,
    d_Q_high,
    d_Q_low,
    in_subspace,
    project_quotient,
)
from .sampling import random_combination, seeded_rng


@dataclass(frozen=True, eq=False)
class SmoothMap:
    """A polynomial map of H^n given by its coordinate components.

    A map lazily owns the tables every pullback through it shares, each
    filled on first use and kept for the map's lifetime: the frame
    matrix, the coframe images f* theta_m, the component powers
    `PolyCoeff.substitute` memoizes, the blade images
    f* theta_{i1} ^ ... ^ f* theta_{ik}, and the monomial images
    w^e o f.  The components are fixed, so no entry ever goes stale;
    the tables are per map, never shared between maps.
    """

    n: int
    components: tuple[PolyCoeff, ...]
    description: str | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be a positive integer")
        comps = tuple(self.components)
        dim = theta_index(self.n)
        if len(comps) != dim:
            raise ValueError(f"expected {dim} components, got {len(comps)}")
        for l, c in enumerate(comps, start=1):
            if not isinstance(c, PolyCoeff):
                raise TypeError(f"component {l} is not a polynomial")
            if c.n != self.n:
                raise ValueError(f"component {l} lives in H^{c.n}, map in H^{self.n}")
        object.__setattr__(self, "components", comps)

    def component(self, l: int) -> PolyCoeff:
        """The l-th coordinate component, 1-indexed."""
        if not 1 <= l <= theta_index(self.n):
            raise ValueError(f"component index {l} out of range")
        return self.components[l - 1]

    @cached_property
    def frame_matrix(self) -> FrameMatrix:
        n = self.n
        dim = theta_index(n)
        rows = [
            tuple(frame_apply(j, self.components[l]) for j in range(1, dim + 1))
            for l in range(dim - 1)
        ]
        rows.append(tuple(A_coefficient(j, self) for j in range(1, dim + 1)))
        return FrameMatrix(n, tuple(rows))

    @cached_property
    def _coframe_pullbacks(self) -> tuple[Form, ...]:
        """f* theta_m for m = 1..2n+1: row m of the frame matrix as a 1-form."""
        return tuple(
            Form(self.n, 1, {(j,): c for j, c in enumerate(row, start=1) if not c.is_zero()})
            for row in self.frame_matrix.entries
        )

    @cached_property
    def _powers(self) -> list[dict[int, PolyCoeff]]:
        """The table `PolyCoeff.substitute` memoizes component powers in.

        Filled on demand and shared by every pullback through this map.
        """
        return [{} for _ in self.components]

    @cached_property
    def _blade_images(self) -> dict[Blade, Form]:
        """blade -> f* theta_{i1} ^ ... ^ f* theta_{ik}, filled by `_blade_image`.

        Starts with the unit function for the empty blade and the
        coframe images for the single ones.
        """
        images: dict[Blade, Form] = {(): Form.function(PolyCoeff.const(self.n, 1))}
        images.update(((m,), g) for m, g in enumerate(self._coframe_pullbacks, start=1))
        return images

    def _blade_image(self, blade: Blade) -> Form:
        """f* of a coframe blade; each longer blade is one wedge of its
        cached prefix's image with the last coframe image."""
        image = self._blade_images.get(blade)
        if image is None:
            image = self._blade_image(blade[:-1]).wedge(self._coframe_pullbacks[blade[-1] - 1])
            self._blade_images[blade] = image
        return image

    @cached_property
    def _monomial_images(self) -> dict[tuple[int, ...], PolyCoeff]:
        """exponent tuple -> that monomial substituted through the
        components, filled by `_monomial_image`."""
        return {}

    def _monomial_image(self, exps: tuple[int, ...]) -> PolyCoeff:
        image = self._monomial_images.get(exps)
        if image is None:
            monomial = PolyCoeff._from_clean(self.n, {exps: 1})
            image = monomial.substitute(self.components, self._powers)
            self._monomial_images[exps] = image
        return image

    def label(self) -> str:
        if self.description is not None:
            return self.description
        return "poly:[" + ", ".join(c.to_text() for c in self.components) + "]"


@dataclass(frozen=True, eq=False)
class FrameMatrix:
    """Derivative of a map in the frame basis.

    Rows follow the target frame W_1..W_2n, T and columns the source
    frame, so column j lists the coefficients of f_* W_j.  The last row
    therefore holds A(j, f), not the naive t-derivative.
    """

    n: int
    entries: tuple[tuple[PolyCoeff, ...], ...]

    def entry(self, l: int, j: int) -> PolyCoeff:
        """Coefficient of W_l in f_* W_j (1-indexed; l = 2n+1 means T)."""
        dim = theta_index(self.n)
        if not (1 <= l <= dim and 1 <= j <= dim):
            raise ValueError(f"entry ({l}, {j}) out of range for H^{self.n}")
        return self.entries[l - 1][j - 1]

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "entries": [[p.to_text() for p in row] for row in self.entries],
        }


def _twist_substituted(l: int, f: SmoothMap) -> PolyCoeff:
    # wtilde_l is +w_{n+l} or -w_{l-n}, so substitution is one component.
    n = f.n
    if l <= n:
        return f.components[n + l - 1]
    return -f.components[l - n - 1]


def A_coefficient(j: int, f: SmoothMap) -> PolyCoeff:
    """Theta component of f_* W_j.

    Vanishing of A(j, f) for every j <= 2n is the contact condition;
    A(2n+1, f) is the stretch factor of theta along T and agrees with
    the common value of lambda_coefficient for contact maps.
    """
    n = f.n
    dim = theta_index(n)
    if not 1 <= j <= dim:
        raise ValueError(f"frame index {j} out of range for H^{n}")
    total = frame_apply(j, f.components[dim - 1])
    half = Fraction(1, 2)
    for l in range(1, 2 * n + 1):
        total = total + (_twist_substituted(l, f) * frame_apply(j, f.components[l - 1])).scale(half)
    return total


def lambda_coefficient(j: int, f: SmoothMap) -> PolyCoeff:
    """Symplectic Jacobian coefficient sum_l (W_j f^l W_{n+j} f^{n+l} - W_{n+j} f^l W_j f^{n+l}).

    Defined for 1 <= j <= n.  For contact maps the value does not
    depend on j and equals A(2n+1, f), the theta stretch factor.
    """
    n = f.n
    if not 1 <= j <= n:
        raise ValueError(f"lambda index {j} out of range (1..{n})")
    total = PolyCoeff.zero(n)
    for l in range(1, n + 1):
        a = frame_apply(j, f.components[l - 1])
        b = frame_apply(n + j, f.components[n + l - 1])
        c = frame_apply(n + j, f.components[l - 1])
        d = frame_apply(j, f.components[n + l - 1])
        total = total + a * b - c * d
    return total


def _horizontal_A(f: SmoothMap) -> tuple[PolyCoeff, ...]:
    # A(j, f) for j <= 2n: the last row of the cached frame matrix.
    return f.frame_matrix.entries[-1][:-1]


def is_contact(f: SmoothMap) -> bool:
    """Whether f_* preserves the horizontal span, decided symbolically."""
    return all(a.is_zero() for a in _horizontal_A(f))


def _require_contact(f: SmoothMap) -> None:
    for j, a in enumerate(_horizontal_A(f), start=1):
        if not a.is_zero():
            raise ValueError(
                f"map {f.label()} is not contact: A({j}, f) = {a.to_text()} != 0"
            )


def pushforward(f: SmoothMap) -> FrameMatrix:
    """Frame derivative of f; column j expands f_* W_j = sum_l W_j f^l W_l + A(j, f) T."""
    return f.frame_matrix


def pullback_form(f: SmoothMap, alpha: Form) -> Form:
    """Pullback of a form: transpose coframe action plus coefficient substitution.

    Acts as an algebra morphism, so each term c * theta_{i1} ^ ... ^
    theta_{ik} maps to (c o f) * f*theta_{i1} ^ ... ^ f*theta_{ik}.  No
    contactness is assumed; for non-contact maps theta picks up
    horizontal terms sum_j A(j, f) theta_j.

    Both factors come from the map's tables: c o f is one
    `PolyCoeff.combine` over the cached images of c's monomials, and the
    blade image is wedged once per map.  The products are summed per
    output blade with one more `combine` each.
    """
    if alpha.n != f.n:
        raise ValueError(f"form lives in H^{alpha.n}, map in H^{f.n}")
    n = f.n
    image = f._monomial_image
    columns: dict[Blade, list[tuple[int, int, PolyCoeff]]] = {}
    for blade, coeff in alpha.coeffs.items():
        pulled = PolyCoeff.combine(n, [(c, image(exps)) for exps, c in coeff.num.items()], coeff.den)
        if pulled.is_zero():
            continue
        for out_blade, b in f._blade_image(blade).coeffs.items():
            columns.setdefault(out_blade, []).append((1, 1, pulled * b))
    return _sum_columns(n, alpha.degree, columns)


def pullback_quotient(f: SmoothMap, cls: QuotientClass) -> QuotientClass:
    """Pullback of a quotient class by a contact map.

    Contactness makes f* preserve the ideal generated by theta and
    d theta, so the class of the pulled-back representative is
    independent of the representative chosen.
    """
    _require_contact(f)
    if cls.n != f.n:
        raise ValueError(f"class lives in H^{cls.n}, map in H^{f.n}")
    pulled = pullback_form(f, cls.representative)
    return project_quotient(pulled, k=cls.k, n=f.n)


def pullback_J(f: SmoothMap, alpha: Form) -> Form:
    """Pullback of a form in J^k by a contact map; the result stays in J^k."""
    _require_contact(f)
    n, k = f.n, alpha.degree
    if alpha.n != n:
        raise ValueError(f"form lives in H^{alpha.n}, map in H^{n}")
    if not in_subspace("J", k, n, alpha):
        raise ValueError(f"input form is not in J^{k}")
    pulled = pullback_form(f, alpha)
    assert in_subspace("J", k, n, pulled), "contact pullback left J^k"
    return pulled


def identity_map(n: int) -> SmoothMap:
    comps = tuple(PolyCoeff.var(n, i) for i in range(1, theta_index(n) + 1))
    return SmoothMap(n, comps, description="identity")


def builtin_dilation(r: Scalar, n: int) -> SmoothMap:
    """The anisotropic dilation (x, y, t) -> (r x, r y, r^2 t)."""
    r = _as_fraction(r)
    if r <= 0:
        raise ValueError(f"dilation ratio must be positive, got {r}")
    comps = [PolyCoeff.var(n, i).scale(r) for i in range(1, 2 * n + 1)]
    comps.append(PolyCoeff.var(n, theta_index(n)).scale(r * r))
    return SmoothMap(n, tuple(comps), description=f"dilation:r={r}")


def builtin_left_translation(q: Point | Sequence[Scalar], n: int) -> SmoothMap:
    """Left translation w -> q * w in the group product.

    The horizontal components shift by constants; the t component picks
    up the bilinear correction 1/2 sum_j (x_{q,j} y_j - y_{q,j} x_j).
    """
    coords = tuple(_as_fraction(c) for c in (q.coords if isinstance(q, Point) else q))
    dim = theta_index(n)
    if len(coords) != dim:
        raise ValueError(f"expected {dim} coordinates, got {len(coords)}")
    comps = [
        PolyCoeff.var(n, i) + PolyCoeff.const(n, coords[i - 1])
        for i in range(1, 2 * n + 1)
    ]
    t_comp = PolyCoeff.var(n, dim) + PolyCoeff.const(n, coords[dim - 1])
    half = Fraction(1, 2)
    for j in range(1, n + 1):
        t_comp = t_comp + PolyCoeff.var(n, n + j).scale(half * coords[j - 1])
        t_comp = t_comp - PolyCoeff.var(n, j).scale(half * coords[n + j - 1])
    comps.append(t_comp)
    text = ",".join(str(c) for c in coords)
    return SmoothMap(n, tuple(comps), description=f"translate:q={text}")


def compose(outer: SmoothMap, inner: SmoothMap) -> SmoothMap:
    """The composition outer o inner (inner is applied first)."""
    if outer.n != inner.n:
        raise ValueError("cannot compose maps of different H^n")
    comps = tuple(c.substitute(inner.components) for c in outer.components)
    desc = None
    if outer.description is not None and inner.description is not None:
        desc = f"compose:{outer.description};{inner.description}"
    return SmoothMap(outer.n, comps, description=desc)


# ---------------------------------------------------------------------------
# Map literals


def _tokenize(text: str) -> list[str]:
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "+-*/^()":
            tokens.append(ch)
            i += 1
        elif text.startswith("·", i):
            tokens.append("*")
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(text[i:j])
            i = j
        elif ch == "w":
            j = i + 1
            while j < len(text) and text[j].isdigit():
                j += 1
            if j == i + 1:
                raise ValueError(f"bad variable at {text[i:]!r}")
            tokens.append(text[i:j])
            i = j
        else:
            raise ValueError(f"unexpected character {ch!r} in polynomial expression")
    return tokens


class _ExprParser:
    """Recursive-descent parser for +, -, *, /, ^ and w-variables."""

    def __init__(self, n: int, tokens: list[str]):
        self.n = n
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ValueError("unexpected end of polynomial expression")
        self.pos += 1
        return tok

    def parse(self) -> PolyCoeff:
        value = self.expr()
        if self.peek() is not None:
            raise ValueError(f"trailing tokens {self.tokens[self.pos:]!r}")
        return value

    def expr(self) -> PolyCoeff:
        value = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self) -> PolyCoeff:
        value = self.factor()
        while self.peek() in ("*", "/"):
            op = self.take()
            rhs = self.factor()
            if op == "*":
                value = value * rhs
            else:
                const = rhs.sorted_terms()
                if rhs.total_degree() > 0 or rhs.is_zero():
                    raise ValueError("division is only allowed by nonzero constants")
                value = value.scale(Fraction(1, 1) / const[0][1])
        return value

    def factor(self) -> PolyCoeff:
        tok = self.peek()
        if tok in ("+", "-"):
            self.take()
            inner = self.factor()
            return inner if tok == "+" else -inner
        value = self.atom()
        if self.peek() == "^":
            self.take()
            exp_tok = self.take()
            if not exp_tok.isdigit():
                raise ValueError(f"exponent must be a nonnegative integer, got {exp_tok!r}")
            value = value ** int(exp_tok)
        return value

    def atom(self) -> PolyCoeff:
        tok = self.take()
        if tok == "(":
            value = self.expr()
            if self.take() != ")":
                raise ValueError("unbalanced parentheses in polynomial expression")
            return value
        if tok.isdigit():
            return PolyCoeff.const(self.n, int(tok))
        if tok.startswith("w"):
            idx = int(tok[1:])
            if not 1 <= idx <= theta_index(self.n):
                raise ValueError(f"variable {tok} out of range for H^{self.n}")
            return PolyCoeff.var(self.n, idx)
        raise ValueError(f"unexpected token {tok!r} in polynomial expression")


def parse_poly_expression(n: int, text: str) -> PolyCoeff:
    """Parse an expression in w1..w_{2n+1} with +, -, *, /, ^ and parentheses."""
    return _ExprParser(n, _tokenize(text)).parse()


def _split_top_level(text: str, sep: str) -> list[str]:
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        elif ch == sep and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return parts


def parse_map(text: str, n: int) -> SmoothMap:
    """Build a map from a literal.

    Accepted forms: "dilation:r=<rational>", "translate:q=<c1>,...,<c_{2n+1}>",
    "compose:<m1>;<m2>[;<m3>...]" (rightmost applied first), "identity",
    and "poly:[<expr1>, ..., <expr_{2n+1}>]" with polynomial expressions
    in w1..w_{2n+1}.
    """
    text = text.strip()
    if text == "identity":
        return identity_map(n)
    if text.startswith("dilation:"):
        body = text[len("dilation:"):].strip()
        if not body.startswith("r="):
            raise ValueError(f"dilation literal must look like dilation:r=2, got {text!r}")
        return builtin_dilation(_parse_fraction(body[2:]), n)
    if text.startswith("translate:"):
        body = text[len("translate:"):].strip()
        if not body.startswith("q="):
            raise ValueError(f"translation literal must look like translate:q=1,0,0, got {text!r}")
        coords = [_parse_fraction(part) for part in body[2:].split(",")]
        return builtin_left_translation(coords, n)
    if text.startswith("compose:"):
        body = text[len("compose:"):]
        segments = _split_top_level(body, ";")
        if len(segments) < 2:
            raise ValueError("compose literal needs at least two maps separated by ';'")
        maps = [parse_map(seg, n) for seg in segments]
        result = maps[0]
        for m in maps[1:]:
            result = compose(result, m)
        return result
    if text.startswith("poly:"):
        body = text[len("poly:"):].strip()
        if not (body.startswith("[") and body.endswith("]")):
            raise ValueError("poly literal needs bracketed components, e.g. poly:[w1, w2, 2*w3]")
        parts = _split_top_level(body[1:-1], ",")
        comps = tuple(parse_poly_expression(n, part) for part in parts)
        return SmoothMap(n, comps, description=text)
    raise ValueError(
        f"unrecognized map literal {text!r}; expected dilation:, translate:, "
        "compose:, poly:, or identity"
    )


# ---------------------------------------------------------------------------
# Commutation harness


def commute_check(
    f: SmoothMap,
    k: int,
    n: int | None = None,
    trials: int = 50,
    seed: int = 42,
    degree: int = 3,
) -> dict:
    """Verify that pullback by a contact map commutes with the Rumin operator at degree k.

    Samples seeded random polynomial inputs (quotient classes for
    k <= n, forms in J^k above), computes pullback-then-operator and
    operator-then-pullback symbolically, and reports exact equality or
    the first counterexample.
    """
    n = f.n if n is None else n
    if n != f.n:
        raise ValueError(f"map lives in H^{f.n}, requested n={n}")
    if not 0 <= k <= 2 * n:
        raise ValueError(f"degree k={k} out of range 0..{2 * n}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    _require_contact(f)

    rng = seeded_rng(seed)
    if k < n:
        operator = f"d_Q({k})"
    elif k == n:
        operator = "D"
    else:
        operator = f"d_Q({k})"
    counterexample = None
    for trial in range(trials):
        if k <= n:
            sample = random_combination(rng, basis_quotient(k, n).elements, degree)
            cls = project_quotient(sample, k=k, n=n)
            if k < n:
                lhs_cls = pullback_quotient(f, d_Q_low(cls))
                rhs_cls = d_Q_low(pullback_quotient(f, cls))
                agree = lhs_cls == rhs_cls
                lhs_form, rhs_form = lhs_cls.representative, rhs_cls.representative
            else:
                lhs_form = pullback_J(f, D_second_order(cls))
                rhs_form = D_second_order(pullback_quotient(f, cls))
                agree = (lhs_form - rhs_form).is_zero()
            input_form = cls.representative
        else:
            sample = random_combination(rng, basis_J(k, n).elements, degree)
            lhs_form = pullback_J(f, d_Q_high(sample))
            rhs_form = d_Q_high(pullback_J(f, sample))
            agree = (lhs_form - rhs_form).is_zero()
            input_form = sample
        if not agree:
            counterexample = {
                "trial": trial,
                "input": form_to_json(input_form),
                "pullback_then_operator": form_to_json(rhs_form),
                "operator_then_pullback": form_to_json(lhs_form),
            }
            break
    return {
        "suite": "pullback-commutation",
        "map": f.label(),
        "n": n,
        "k": k,
        "operator": operator,
        "trials": trials,
        "seed": seed,
        "passed": counterexample is None,
        "counterexample": counterexample,
    }


def suite_maps(n: int, seed: int = 42) -> list[SmoothMap]:
    """Built-in contact maps exercised by the verification suites.

    Two dilations, a seeded left translation, and their composite; the
    translation coordinates are small rationals drawn from the seed so
    reruns are reproducible.
    """
    rng = seeded_rng(seed)
    coords = [
        Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        for _ in range(theta_index(n))
    ]
    d_up = builtin_dilation(2, n)
    d_down = builtin_dilation(Fraction(1, 3), n)
    tau = builtin_left_translation(coords, n)
    return [d_up, d_down, tau, compose(d_up, tau)]


def verify_subspaces(n: int, seed: int = 42) -> dict:
    """Check that contact pullback preserves I^k and J^k exactly.

    Pulls back every basis element of both families of subspaces by
    each built-in map and tests membership with zero residual.
    """
    from .rumin import basis_I, basis_J

    checks = []
    for f in suite_maps(n, seed):
        for kind, basis_fn in (("I", basis_I), ("J", basis_J)):
            failure = None
            for k in range(1, 2 * n + 2):
                for element in basis_fn(k, n).elements:
                    pulled = pullback_form(f, element)
                    if not in_subspace(kind, k, n, pulled):
                        failure = {
                            "k": k,
                            "element": form_to_json(element),
                            "image": form_to_json(pulled),
                        }
                        break
                if failure:
                    break
            checks.append(
                {
                    "name": f"{f.label()} preserves {kind}",
                    "passed": failure is None,
                    "counterexample": failure,
                }
            )
    return {
        "suite": "subspace-preservation",
        "n": n,
        "seed": seed,
        "passed": all(c["passed"] for c in checks),
        "checks": checks,
    }
