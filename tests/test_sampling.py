"""Seeded sampling: the draws are fixed by the seed alone."""

from __future__ import annotations

import pytest

from heiscalc.frame import Form, all_blades
from heiscalc.rumin import _chain_draws, basis_J, basis_quotient
from heiscalc.sampling import random_combination, random_poly, seeded_rng

from conftest import combination_by_scaling, poly_by_fractions


@pytest.mark.parametrize("n", [1, 2, 3])
def test_random_poly_draws_are_unchanged(n):
    # The rejection loops draw 3 bits for the term count, 4 for a
    # coefficient, 2 or 3 for a variable (width 3, 5 or 7), and 1 to 4 for
    # the degree (max_degree 0, 1, 3, 4 and 7 give bounds 1, 2, 4, 5, 8).
    for seed in range(200):
        rng, old = seeded_rng(seed), seeded_rng(seed)
        for max_degree in (0, 1, 3, 4, 7):
            p = random_poly(rng, n, max_degree)
            assert p == poly_by_fractions(old, n, max_degree)
            assert p.den == 1 and all(p.num.values())
        assert rng.getstate() == old.getstate()


@pytest.mark.parametrize("n", [1, 2])
def test_random_combination_draws_are_unchanged(n):
    # One polynomial per blade, in the order the blades come, from the
    # stream random_poly draws: every blade of a degree, forwards and
    # backwards, every other one, and none at all.
    families = [(1, [])]
    for k in range(0, 2 * n + 2):
        blades = all_blades(n, k)
        families += [(k, blades), (k, blades[::-1]), (k, blades[1::2])]
    for degree, blades in families:
        for seed in range(25):
            rng, old = seeded_rng(seed), seeded_rng(seed)
            for max_degree in (0, 3):
                new = random_combination(rng, n, degree, blades, max_degree)
                expected = Form(n, degree, {blade: poly_by_fractions(old, n, max_degree) for blade in blades})
                assert new == expected and (new.n, new.degree) == (n, degree)
                assert not any(c.is_zero() for c in new.coeffs.values())
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
                expected = combination_by_scaling(old, basis.elements, max_degree)
                assert value == expected and (value.n, value.degree) == (n, k)
            assert rng.getstate() == old.getstate()


def test_random_combination_rejects_bad_elements():
    rng = seeded_rng(0)
    with pytest.raises(ValueError, match="max_degree"):
        random_poly(rng, 1, -1)
    with pytest.raises(ValueError, match="max_degree"):
        random_combination(rng, 1, 1, [(1,)], -1)
