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

from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .coeff import PolyCoeff, Point, Scalar, _as_fraction, _check_n, _decimal, _Frozen
from .frame import Blade, Form, form_to_json, frame_apply, theta_index
from .rumin import (
    QuotientClass,
    _check_report,
    _first_counterexample,
    _operator_name,
    _random_chain_input,
    _result_form,
    _suite_report,
    basis_I,
    basis_J,
    in_subspace,
    project_quotient,
    rumin_operator,
)
from .sampling import seeded_rng


class SmoothMap(_Frozen):
    """A polynomial map of H^n given by its coordinate components.

    A map lazily owns the tables every pullback through it shares, each
    filled on first use and kept for the map's lifetime: the frame
    matrix, the coframe images f* theta_m, the blade images
    f* theta_{i1} ^ ... ^ f* theta_{ik}, and the monomial images
    w^e o f.  The components are fixed, so no entry ever goes stale;
    the tables are per map, never shared between maps, and maps compare
    by identity.
    """

    def __init__(self, n: int, components: Sequence[PolyCoeff], description: str | None = None) -> None:
        if n < 1:
            raise ValueError("n must be a positive integer")
        comps = tuple(components)
        dim = theta_index(n)
        if len(comps) != dim:
            raise ValueError(f"expected {dim} components, got {len(comps)}")
        for l, c in enumerate(comps, start=1):
            if not isinstance(c, PolyCoeff):
                raise TypeError(f"component {l} is not a polynomial")
            if c.n != n:
                raise ValueError(f"component {l} lives in H^{c.n}, map in H^{n}")
        self._set(n=n, components=comps, description=description)

    def component(self, l: int) -> PolyCoeff:
        """The l-th coordinate component, 1-indexed."""
        if not 1 <= l <= theta_index(self.n):
            raise ValueError(f"component index {l} out of range")
        return self.components[l - 1]

    @cached_property
    def frame_matrix(self) -> FrameMatrix:
        """Rows W_j f^l for l <= 2n, then the theta row A(j, f).

        The A row is read from W_j f^{2n+1} and the horizontal rows, so
        each W_j f^l is computed once.
        """
        n = self.n
        dim = theta_index(n)
        rows = [tuple(frame_apply(j, c) for j in range(1, dim + 1)) for c in self.components]
        t_row = rows.pop()
        # wtilde_l o f is +f^{n+l} for l <= n and -f^{l-n} above.
        twists = [*self.components[n:2 * n], *(-c for c in self.components[:n])]
        half = Fraction(1, 2)
        a_row = []
        for j in range(dim):
            total = t_row[j]
            for twist, row in zip(twists, rows):
                total = total + (twist * row[j]).scale(half)
            a_row.append(total)
        rows.append(tuple(a_row))
        return FrameMatrix(n, tuple(rows))

    @cached_property
    def _coframe_pullbacks(self) -> tuple[Form, ...]:
        """f* theta_m for m = 1..2n+1: row m of the frame matrix as a 1-form."""
        return tuple(
            Form(self.n, 1, {(j,): c for j, c in enumerate(row, start=1) if not c.is_zero()})
            for row in self.frame_matrix.entries
        )

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
            image = monomial.substitute(self.components)
            self._monomial_images[exps] = image
        return image

    def label(self) -> str:
        if self.description is not None:
            return self.description
        return "poly:[" + ", ".join(c.to_text() for c in self.components) + "]"


class FrameMatrix(_Frozen):
    """Derivative of a map in the frame basis.

    Rows follow the target frame W_1..W_2n, T and columns the source
    frame, so column j lists the coefficients of f_* W_j.  The last row
    therefore holds A(j, f), not the naive t-derivative.
    """

    def __init__(self, n: int, entries: tuple[tuple[PolyCoeff, ...], ...]) -> None:
        self._set(n=n, entries=entries)

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


def A_coefficient(j: int, f: SmoothMap) -> PolyCoeff:
    """Theta component of f_* W_j, the last row of the frame matrix.

    Vanishing of A(j, f) for every j <= 2n is the contact condition;
    A(2n+1, f) is the stretch factor of theta along T and agrees with
    the common value of lambda_coefficient for contact maps.
    """
    if not 1 <= j <= theta_index(f.n):
        raise ValueError(f"frame index {j} out of range for H^{f.n}")
    return f.frame_matrix.entries[-1][j - 1]


def lambda_coefficient(j: int, f: SmoothMap) -> PolyCoeff:
    """Symplectic Jacobian coefficient sum_l (W_j f^l W_{n+j} f^{n+l} - W_{n+j} f^l W_j f^{n+l}).

    Defined for 1 <= j <= n.  For contact maps the value does not
    depend on j and equals A(2n+1, f), the theta stretch factor.
    """
    n = f.n
    if not 1 <= j <= n:
        raise ValueError(f"lambda index {j} out of range (1..{n})")
    rows = f.frame_matrix.entries  # rows[l - 1][j - 1] = W_j f^l
    total = PolyCoeff.zero(n)
    for x, y in zip(rows[:n], rows[n:2 * n]):
        total = total + x[j - 1] * y[n + j - 1] - x[n + j - 1] * y[j - 1]
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
                f"map {f.label()} is not contact: A({j}, f) = {_brief_text(a)} != 0"
            )


def _brief_text(p: PolyCoeff) -> str:
    """p's text if it has at most 8 terms and every numerator and the
    denominator fit in 128 bits; otherwise its term count and degree.
    Decided from sizes, so a huge coefficient is never formatted."""
    if len(p.num) <= 8 and max(c.bit_length() for c in (p.den, *p.num.values())) <= 128:
        return p.to_text()
    terms = len(p.num)
    return f"<{terms} term{'s' * (terms > 1)} of degree {p.total_degree()}, too long to print>"


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
    columns: dict[Blade, list[tuple[int, PolyCoeff]]] = {}
    for blade, coeff in alpha.coeffs.items():
        pulled = PolyCoeff.combine(n, [(c, image(exps)) for exps, c in coeff.num.items()], coeff.den)
        if pulled.is_zero():
            continue
        for out_blade, b in f._blade_image(blade).coeffs.items():
            columns.setdefault(out_blade, []).append((1, pulled * b))
    sums = {blade: PolyCoeff.combine(n, column) for blade, column in columns.items()}
    return Form._from_clean(n, alpha.degree, {blade: p for blade, p in sums.items() if not p.is_zero()})


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
    return SmoothMap(n, tuple(comps), description=f"dilation:r={_decimal(r)}")


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
    text = ",".join(map(_decimal, coords))
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


def _parse_rational(text: str, n: int) -> Fraction:
    """A constant in the polynomial grammar, such as "3" or "-1/2"."""
    value = PolyCoeff.from_text(n, text)._constant()
    if value is None:
        raise ValueError(f"expected a rational number, got {text.strip()!r}")
    return value


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
        return builtin_dilation(_parse_rational(body[2:], n), n)
    if text.startswith("translate:"):
        body = text[len("translate:"):].strip()
        if not body.startswith("q="):
            raise ValueError(f"translation literal must look like translate:q=1,0,0, got {text!r}")
        coords = [_parse_rational(part, n) for part in body[2:].split(",")]
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
        comps = tuple(PolyCoeff.from_text(n, part) for part in parts)
        return SmoothMap(n, comps, description=text)
    raise ValueError(
        f"unrecognized map literal {text!r}; expected dilation:, translate:, "
        "compose:, poly:, or identity"
    )


# ---------------------------------------------------------------------------
# Commutation harness


def _pullback_chain(f: SmoothMap, value: QuotientClass | Form) -> QuotientClass | Form:
    """f* of a Rumin chain element: a quotient class or a form in J^k."""
    if isinstance(value, QuotientClass):
        return pullback_quotient(f, value)
    return pullback_J(f, value)


def commute_check(f: SmoothMap, k: int, trials: int = 50, seed: int = 42, degree: int = 3) -> dict:
    """Verify that pullback by a contact map commutes with the Rumin operator at degree k.

    Samples seeded random polynomial inputs (quotient classes for
    k <= n, forms in J^k above), computes pullback-then-operator and
    operator-then-pullback symbolically, and reports exact equality or
    the first counterexample.
    """
    n = f.n
    if not 0 <= k <= 2 * n:
        raise ValueError(f"degree k={k} out of range 0..{2 * n}")
    rng = seeded_rng(seed)

    def check(trial: int) -> dict | None:
        value = _random_chain_input(rng, n, k, degree)
        lhs = _pullback_chain(f, rumin_operator(value))  # refuses a non-contact map
        rhs = rumin_operator(_pullback_chain(f, value))
        if lhs != rhs:
            return {
                "trial": trial,
                "input": form_to_json(_result_form(value)),
                "pullback_then_operator": form_to_json(_result_form(rhs)),
                "operator_then_pullback": form_to_json(_result_form(lhs)),
            }

    counterexample = _first_counterexample(trials, check)
    return {
        "suite": "pullback-commutation",
        "map": f.label(),
        "n": n,
        "k": k,
        "operator": _operator_name(n, k),
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
    _check_n(n)
    checks = []
    for f in suite_maps(n, seed):
        for kind, basis_fn in (("I", basis_I), ("J", basis_J)):
            elements = [(k, element) for k in range(1, 2 * n + 2) for element in basis_fn(k, n).elements]

            def check(i: int) -> dict | None:
                k, element = elements[i]
                pulled = pullback_form(f, element)
                if not in_subspace(kind, k, n, pulled):
                    return {"k": k, "element": form_to_json(element), "image": form_to_json(pulled)}

            failure = _first_counterexample(len(elements), check)
            checks.append(_check_report(f"{f.label()} preserves {kind}", failure))
    return _suite_report("subspace-preservation", n, seed, checks)
