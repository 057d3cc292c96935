"""Seeded sampling: the draws are fixed by the seed alone."""

from __future__ import annotations

from fractions import Fraction

import pytest

from heiscalc.coeff import PolyCoeff
from heiscalc.frame import Form
from heiscalc.rumin import _chain_draws, basis_E0, basis_I, basis_J, basis_quotient
from heiscalc.sampling import COEFF_RANGE, combination_rows, random_combination, random_poly, seeded_rng


def _poly_by_fractions(rng, n, max_degree=3, max_terms=4, coeff_range=COEFF_RANGE):
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


def _combination_by_scaling(rng, elements, max_degree=3):
    """random_combination as first written: scale each element, add Forms."""
    n, degree = elements[0].n, elements[0].degree
    result = Form.zero(n, degree)
    for element in elements:
        result = result + element.scale(_poly_by_fractions(rng, n, max_degree))
    return result


def _bases(n):
    for k in range(0, 2 * n + 2):
        if k >= 1:
            yield basis_I(k, n)
            yield basis_J(k, n)
        if k <= n:
            yield basis_quotient(k, n)
        yield basis_E0(k, n)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_random_poly_draws_are_unchanged(n):
    # The rejection loops draw 3 bits for the term count, 4 for a
    # coefficient, 2 or 3 for a variable (width 3, 5 or 7), and 1 to 4 for
    # the degree (max_degree 0, 1, 3, 4 and 7 give bounds 1, 2, 4, 5, 8).
    for seed in range(200):
        rng, old = seeded_rng(seed), seeded_rng(seed)
        for max_degree in (0, 1, 3, 4, 7):
            p = random_poly(rng, n, max_degree)
            assert p == _poly_by_fractions(old, n, max_degree)
            assert p.den == 1 and all(p.num.values())
        assert rng.getstate() == old.getstate()


@pytest.mark.parametrize("n", [1, 2])
def test_random_combination_draws_are_unchanged(n):
    families = [b.elements for b in _bases(n) if b.elements]
    # The bases hold integer constants only; these add rational ones that
    # share blades, and a zero element, which still draws its polynomial.
    half, third = Fraction(1, 2), Fraction(-1, 3)
    families.append((
        Form(n, 1, {(1,): half, (2,): third}),
        Form(n, 1, {(2,): Fraction(5, 6), (2 * n + 1,): 4}),
        Form.zero(n, 1),
        Form(n, 1, {(1,): third}),
    ))
    for elements in families:
        for seed in range(25):
            rng, old = seeded_rng(seed), seeded_rng(seed)
            for max_degree in (0, 3):
                new = random_combination(rng, combination_rows(elements), max_degree)
                assert new == _combination_by_scaling(old, elements, max_degree)
                assert new.degree == elements[0].degree
            assert rng.getstate() == old.getstate()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_chain_inputs_draw_from_their_basis(n):
    # Every draw of the suites goes through _chain_draws, which
    # reads the basis rows from a table cached per (n, k).
    for k in range(0, 2 * n + 1):
        basis = basis_quotient(k, n) if k <= n else basis_J(k, n)
        for seed in range(20):
            rng, old = seeded_rng(seed), seeded_rng(seed)
            for max_degree in (0, 3):
                value = next(_chain_draws(rng, n, k, max_degree, 1))
                expected = _combination_by_scaling(old, basis.elements, max_degree)
                assert value == expected and (value.n, value.degree) == (n, k)
            assert rng.getstate() == old.getstate()


def test_random_combination_rejects_bad_elements():
    rng = seeded_rng(0)
    with pytest.raises(ValueError, match="empty"):
        combination_rows([])
    polynomial = Form.from_blade(1, (1,), PolyCoeff.var(1, 2))
    with pytest.raises(ValueError, match="not constant"):
        combination_rows([Form.from_blade(1, (2,)), polynomial])
    with pytest.raises(ValueError):
        combination_rows([Form.from_blade(1, (1,)), Form.from_blade(1, (1, 2))])
    with pytest.raises(ValueError, match="max_degree"):
        random_poly(rng, 1, -1)
