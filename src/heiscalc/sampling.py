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
from .frame import Blade, Form, _blade_tuple, _int_row, _rows_times

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
    coefficient is the row of the elements' constant coefficients on it
    times those polynomials; a non-constant element coefficient, or
    elements of another n or degree, raise ValueError.
    """
    if not elements:
        raise ValueError("cannot combine an empty basis")
    n = elements[0].n
    degree = elements[0].degree
    polys = []
    entries: dict[Blade, list[tuple[int, Fraction]]] = {}
    for i, element in enumerate(elements):
        if element.n != n or element.degree != degree:
            raise ValueError("elements must share one n and one degree")
        polys.append(random_poly(rng, n, max_degree))
        for blade, c in element.coeffs.items():
            value = c._constant()
            if value is None:
                raise ValueError(f"element coefficient {c.to_text()} is not constant")
            entries.setdefault(blade, []).append((i, value))
    sums = zip(entries, _rows_times(n, map(_int_row, entries.values()), polys))
    return Form._from_clean(n, degree, {blade: p for blade, p in sums if not p.is_zero()})
