"""Seeded random polynomials and forms for the verification suites.

Everything here is driven by a caller-supplied random.Random so that
suites are reproducible from a single seed; coefficients are small
integers so all downstream arithmetic stays exact.

Every number is drawn as `Random.randint` and `Random.randrange` draw
it, by `getrandbits(bound.bit_length())` until the value lies below the
bound.  Calling `getrandbits` directly skips their argument checks and
keeps their stream: a seed gives the same polynomials as it did through
`randint`.
"""

from __future__ import annotations

import random
from typing import Sequence

from .coeff import MAX_EXPONENT, PolyCoeff, _units
from .frame import Blade, Form

COEFF_RANGE = (-5, 5)
MAX_TERMS = 4


def seeded_rng(seed: int) -> random.Random:
    return random.Random(seed)


def random_poly(rng: random.Random, n: int, max_degree: int = 3) -> PolyCoeff:
    """A random integer polynomial in w_1..w_{2n+1} of bounded degree:
    up to MAX_TERMS terms with coefficients drawn from COEFF_RANGE.

    Each `x = bits(b); while x >= bound: x = bits(b)` below is
    `Random._randbelow(bound)`, which randint and randrange call.
    """
    if max_degree < 0:
        raise ValueError(f"max_degree must be >= 0, got {max_degree}")
    if max_degree > MAX_EXPONENT:
        # No exponent a draw makes passes max_degree.
        raise ValueError(
            f"max_degree {max_degree} passes {MAX_EXPONENT}, the largest exponent a monomial key holds"
        )
    bits = rng.getrandbits
    units = _units(n)
    width = len(units)
    low, high = COEFF_RANGE
    span = high - low + 1
    terms_bits, degree_bits = MAX_TERMS.bit_length(), (max_degree + 1).bit_length()
    width_bits, span_bits = width.bit_length(), span.bit_length()
    terms: dict[int, int] = {}
    count = bits(terms_bits)  # randint(1, MAX_TERMS) - 1
    while count >= MAX_TERMS:
        count = bits(terms_bits)
    for _ in range(count + 1):
        key = 0
        degree = bits(degree_bits)  # randint(0, max_degree)
        while degree > max_degree:
            degree = bits(degree_bits)
        for _ in range(degree):
            slot = bits(width_bits)  # randrange(width)
            while slot >= width:
                slot = bits(width_bits)
            key += units[slot]
        value = bits(span_bits)  # randint(*COEFF_RANGE) - low
        while value >= span:
            value = bits(span_bits)
        terms[key] = terms.get(key, 0) + low + value
    return PolyCoeff._from_clean(n, {key: value for key, value in terms.items() if value})


def random_combination(rng: random.Random, n: int, degree: int, blades: Sequence[Blade], max_degree: int) -> Form:
    """A random form of the given degree on the given blades: one
    `random_poly` per blade, drawn in order.  On a row-reduced basis'
    pivot blades these are the coordinates of a random combination of
    the basis (see `rumin._chain_span`)."""
    polys = [(blade, random_poly(rng, n, max_degree)) for blade in blades]
    return Form._from_clean(n, degree, {blade: p for blade, p in polys if not p.is_zero()})
