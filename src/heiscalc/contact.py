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

from .coeff import PolyCoeff, Scalar, _as_fraction, _check_n, _decimal
from .frame import Blade, Form, form_to_json, frame_apply, theta_index, twist_polynomial
from .rumin import (
    _check_report,
    _chain_draws,
    _first_counterexample,
    _operator_name,
    _suite_report,
    basis_E0,
    basis_I,
    in_subspace,
    project_quotient,
    rumin_operator,
)
from .sampling import seeded_rng


class _Frozen:
    """Refuses to assign or delete attributes; __init__ sets each once through `_set`."""

    __slots__ = ()

    def _set(self, **fields) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, *value) -> None:
        raise AttributeError(f"cannot assign or delete field {name!r} of a {type(self).__name__}")

    __delattr__ = __setattr__


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

    @cached_property
    def frame_matrix(self) -> tuple[tuple[PolyCoeff, ...], ...]:
        """The derivative of the map in the frame basis, as its tuple of rows.

        Rows follow the target frame W_1..W_2n, T and columns the source
        frame, so entry [l - 1][j - 1] is the coefficient of W_l in
        f_* W_j: W_j f^l for l <= 2n, and A(j, f), not the naive
        t-derivative, in the last row.  The A row is read from
        W_j f^{2n+1} and the horizontal rows, so each W_j f^l is
        computed once.
        """
        n = self.n
        dim = theta_index(n)
        rows = [tuple(frame_apply(j, c) for j in range(1, dim + 1)) for c in self.components]
        t_row = rows.pop()
        # wtilde_l o f for l = 1..2n
        twists = [twist_polynomial(n, l).substitute(self.components) for l in range(1, 2 * n + 1)]
        a_row = []
        for j in range(dim):
            twisted = [(1, c * row[j]) for c, row in zip(twists, rows)]
            a_row.append(PolyCoeff.combine(n, [(2, t_row[j]), *twisted], 2))
        rows.append(tuple(a_row))
        return tuple(rows)

    @cached_property
    def _coframe_pullbacks(self) -> tuple[Form, ...]:
        """f* theta_m for m = 1..2n+1: row m of the frame matrix as a 1-form."""
        return tuple(
            Form(self.n, 1, {(j,): c for j, c in enumerate(row, start=1) if not c.is_zero()})
            for row in self.frame_matrix
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
    def _monomial_images(self) -> dict[int, PolyCoeff]:
        """packed monomial key -> that monomial substituted through the
        components, filled by `_monomial_image`."""
        return {}

    def _monomial_image(self, key: int) -> PolyCoeff:
        image = self._monomial_images.get(key)
        if image is None:
            monomial = PolyCoeff._from_clean(self.n, {key: 1})
            image = monomial.substitute(self.components)
            self._monomial_images[key] = image
        return image

    def label(self) -> str:
        if self.description is not None:
            return self.description
        return "poly:[" + ", ".join(c.to_text() for c in self.components) + "]"


def A_coefficient(j: int, f: SmoothMap) -> PolyCoeff:
    """Theta component of f_* W_j, the last row of the frame matrix.

    Vanishing of A(j, f) for every j <= 2n is the contact condition;
    A(2n+1, f) is the stretch factor of theta along T and agrees with
    the common value of lambda_coefficient for contact maps.
    """
    if not 1 <= j <= theta_index(f.n):
        raise ValueError(f"frame index {j} out of range for H^{f.n}")
    return f.frame_matrix[-1][j - 1]


def lambda_coefficient(j: int, f: SmoothMap) -> PolyCoeff:
    """Symplectic Jacobian coefficient sum_l (W_j f^l W_{n+j} f^{n+l} - W_{n+j} f^l W_j f^{n+l}).

    Defined for 1 <= j <= n.  For contact maps the value does not
    depend on j and equals A(2n+1, f), the theta stretch factor.
    """
    n = f.n
    if not 1 <= j <= n:
        raise ValueError(f"lambda index {j} out of range (1..{n})")
    rows = f.frame_matrix  # rows[l - 1][j - 1] = W_j f^l
    pairs = []
    for x, y in zip(rows[:n], rows[n:2 * n]):
        pairs += [(1, x[j - 1] * y[n + j - 1]), (-1, x[n + j - 1] * y[j - 1])]
    return PolyCoeff.combine(n, pairs)


def _horizontal_A(f: SmoothMap) -> tuple[PolyCoeff, ...]:
    # A(j, f) for j <= 2n: the last row of the cached frame matrix.
    return f.frame_matrix[-1][:-1]


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
        pulled = PolyCoeff.combine(n, [(c, image(key)) for key, c in coeff.num.items()], coeff.den)
        if pulled.is_zero():
            continue
        for out_blade, b in f._blade_image(blade).coeffs.items():
            columns.setdefault(out_blade, []).append((1, pulled * b))
    sums = {blade: PolyCoeff.combine(n, column) for blade, column in columns.items()}
    return Form._from_clean(n, alpha.degree, {blade: p for blade, p in sums.items() if not p.is_zero()})


def pullback_quotient(f: SmoothMap, alpha: Form) -> Form:
    """Pullback of the quotient class alpha stands for, by a contact map;
    returns the class's canonical representative.

    Contactness makes f* preserve the ideal generated by theta and
    d theta, so the class of the pulled-back form is independent of the
    representative chosen.
    """
    _require_contact(f)
    if alpha.n != f.n:
        raise ValueError(f"class lives in H^{alpha.n}, map in H^{f.n}")
    return project_quotient(pullback_form(f, alpha))


def pullback_J(f: SmoothMap, alpha: Form) -> Form:
    """Pullback of a form in J^k by a contact map; the result stays in J^k,
    which is E0^k above the middle and zero up to it."""
    _require_contact(f)
    n, k = f.n, alpha.degree
    if alpha.n != n:
        raise ValueError(f"form lives in H^{alpha.n}, map in H^{n}")
    if not (alpha.is_zero() or k > n and in_subspace("E0", k, n, alpha)):
        raise ValueError(f"input form is not in J^{k}")
    pulled = pullback_form(f, alpha)
    if not in_subspace("E0", k, n, pulled):
        raise AssertionError("contact pullback left J^k")
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


def builtin_left_translation(q: Sequence[Scalar], n: int) -> SmoothMap:
    """Left translation w -> q * w in the group product.

    The horizontal components shift by constants; the t component picks
    up the bilinear correction 1/2 sum_i q_i wtilde_i, that is
    1/2 sum_j (x_{q,j} y_j - y_{q,j} x_j).
    """
    coords = tuple(_as_fraction(c) for c in q)
    dim = theta_index(n)
    if len(coords) != dim:
        raise ValueError(f"expected {dim} coordinates, got {len(coords)}")
    comps = [PolyCoeff.var(n, i) + PolyCoeff.const(n, coords[i - 1]) for i in range(1, dim + 1)]
    comps[-1] = PolyCoeff.combine(n, [
        (2, comps[-1]),
        *((1, twist_polynomial(n, i).scale(coords[i - 1])) for i in range(1, 2 * n + 1)),
    ], 2)
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


def _pullback_chain(f: SmoothMap, alpha: Form) -> Form:
    """f* of a Rumin chain element: a quotient class up to the middle
    degree, a form in J^k above it."""
    if alpha.degree <= f.n:
        return pullback_quotient(f, alpha)
    return pullback_J(f, alpha)


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
    draws = enumerate(_chain_draws(seeded_rng(seed), n, k, degree, trials))
    _require_contact(f)

    def check(drawn: tuple[int, Form]) -> dict | None:
        trial, alpha = drawn
        lhs = _pullback_chain(f, rumin_operator(alpha))
        rhs = rumin_operator(_pullback_chain(f, alpha))
        if lhs != rhs:
            return {
                "trial": trial,
                "input": form_to_json(alpha),
                "pullback_then_operator": form_to_json(rhs),
                "operator_then_pullback": form_to_json(lhs),
            }

    counterexample = _first_counterexample(draws, check,
                                           lambda drawn: {"trial": drawn[0], "input": form_to_json(drawn[1])})
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
    each built-in map and tests membership with zero residual.  I^k is
    all of Omega^k above the middle and J^k is zero up to it, so I is
    checked for k = 1..n and J, which is E0^k, for k = n+1..2n+1.
    """
    _check_n(n)
    checks = []
    for f in suite_maps(n, seed):
        for name, kind, basis_fn, degrees in (("I", "I", basis_I, range(1, n + 1)),
                                              ("J", "E0", basis_E0, range(n + 1, 2 * n + 2))):
            elements = [(k, element) for k in degrees for element in basis_fn(k, n).elements]

            def check(item: tuple[int, Form]) -> dict | None:
                k, element = item
                pulled = pullback_form(f, element)
                if not in_subspace(kind, k, n, pulled):
                    return {"k": k, "element": form_to_json(element), "image": form_to_json(pulled)}

            failure = _first_counterexample(elements, check,
                                            lambda item: {"k": item[0], "element": form_to_json(item[1])})
            checks.append(_check_report(f"{f.label()} preserves {name}", failure))
    return _suite_report("subspace-preservation", n, seed, checks)
