"""Seeded random polynomials and forms for the verification suites.

Everything here is driven by a caller-supplied random.Random so that
suites are reproducible from a single seed; coefficients are small
integers so all downstream arithmetic stays exact.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Sequence

from .coeff import PolyCoeff
from .frame import Form, _blade_tuple

COEFF_RANGE = (-5, 5)


def seeded_rng(seed: int) -> random.Random:
    return random.Random(seed)


def random_poly(
    rng: random.Random,
    n: int,
    max_degree: int = 3,
    max_terms: int = 4,
    coeff_range: tuple[int, int] = COEFF_RANGE,
) -> PolyCoeff:
    """A random integer polynomial in w_1..w_{2n+1} of bounded degree."""
    width = 2 * n + 1
    terms: dict[tuple[int, ...], int] = {}
    for _ in range(rng.randint(1, max_terms)):
        exponents = [0] * width
        for _ in range(rng.randint(0, max_degree)):
            exponents[rng.randrange(width)] += 1
        value = rng.randint(*coeff_range)
        key = tuple(exponents)
        terms[key] = terms.get(key, 0) + value
    cleaned = {key: Fraction(value) for key, value in terms.items() if value}
    return PolyCoeff(n, cleaned)


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
    """A random polynomial combination of the given constant forms."""
    if not elements:
        raise ValueError("cannot combine an empty basis")
    n = elements[0].n
    degree = elements[0].degree
    result = Form.zero(n, degree)
    for element in elements:
        result = result + random_poly(rng, n, max_degree) * element
    return result
