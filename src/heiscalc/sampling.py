"""Seeded random polynomials and forms for the verification suites.

Everything here is driven by a caller-supplied random.Random so that
suites are reproducible from a single seed; coefficients are small
integers so all downstream arithmetic stays exact.
"""

from __future__ import annotations

import random
from typing import Sequence

from .coeff import PolyCoeff
from .frame import Blade, Form, _blade_tuple, _sum_columns

COEFF_RANGE = (-5, 5)
MAX_TERMS = 4


def seeded_rng(seed: int) -> random.Random:
    return random.Random(seed)


def random_poly(rng: random.Random, n: int, max_degree: int = 3) -> PolyCoeff:
    """A random integer polynomial in w_1..w_{2n+1} of bounded degree:
    up to MAX_TERMS terms with coefficients drawn from COEFF_RANGE."""
    width = 2 * n + 1
    terms: dict[tuple[int, ...], int] = {}
    for _ in range(rng.randint(1, MAX_TERMS)):
        exponents = [0] * width
        for _ in range(rng.randint(0, max_degree)):
            exponents[rng.randrange(width)] += 1
        value = rng.randint(*COEFF_RANGE)
        key = tuple(exponents)
        terms[key] = terms.get(key, 0) + value
    return PolyCoeff._from_clean(n, {key: value for key, value in terms.items() if value})


def random_form(
    rng: random.Random,
    n: int,
    degree: int,
    max_degree: int = 3,
) -> Form:
    """A random form with a polynomial coefficient on every blade."""
    coeffs = {blade: random_poly(rng, n, max_degree) for blade in _blade_tuple(n, degree)}
    return Form(n, degree, coeffs)


def random_combination(
    rng: random.Random,
    elements: Sequence[Form],
    max_degree: int = 3,
) -> Form:
    """A random polynomial combination of the given constant forms.

    One random polynomial is drawn per element, in order.  Each blade's
    coefficient is one `PolyCoeff.combine` of those polynomials with the
    elements' constant coefficients on it; a non-constant element
    coefficient, or elements of another n or degree, raise ValueError.
    """
    if not elements:
        raise ValueError("cannot combine an empty basis")
    n = elements[0].n
    degree = elements[0].degree
    const_exps = (0,) * (2 * n + 1)
    columns: dict[Blade, list[tuple[int, int, PolyCoeff]]] = {}
    for element in elements:
        if element.n != n or element.degree != degree:
            raise ValueError("elements must share one n and one degree")
        p = random_poly(rng, n, max_degree)
        for blade, c in element.coeffs.items():
            if c.num.keys() != {const_exps}:
                raise ValueError(f"element coefficient {c.to_text()} is not constant")
            columns.setdefault(blade, []).append((c.num[const_exps], c.den, p))
    return _sum_columns(n, degree, columns)
