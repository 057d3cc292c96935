"""A standing mutant catalogue: each mutant patches a function of the
frame or of the Rumin complex, in every module that binds it, and the
table below records what each verification suite makes of it.

A suite either reports the mutant (`passed` False) or passes it.  An
operator's own AssertionError on its output, or ValueError on its
input, is reported too, as a counterexample carrying the error's
message.  Every mutant but one known
gap is reported by at least one suite.  The suites run at n = 2 with 3
trials and seed 1; `commute` checks pullback by the dilation by 2 and
by a left translation at every degree k = 0..2n.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from heiscalc import contact, frame, rumin
from heiscalc.frame import Form, exterior_derivative

N, TRIALS, SEED = 2, 3, 1


def _commute(n: int, trials: int, seed: int) -> dict:
    # The maps are built here, after any patch, so their tables see it.
    maps = (contact.builtin_dilation(2, n),
            contact.builtin_left_translation([Fraction(1, 2), -1, 2, Fraction(-1, 3), 1][:2 * n + 1], n))
    reports = [contact.commute_check(f, k, trials=trials, seed=seed) for f in maps for k in range(2 * n + 1)]
    return {"passed": all(r["passed"] for r in reports)}


SUITES = {
    "complex": rumin.verify_complex,
    "lifting": rumin.verify_lifting,
    "dc": rumin.verify_dc,
    "subspaces": lambda n, trials, seed: contact.verify_subspaces(n, seed=seed),
    "commute": _commute,
}

_original = {"D_second_order": rumin.D_second_order, "dc_operator": rumin.dc_operator,
             "twist_polynomial": frame.twist_polynomial, "_d_table": frame._d_table,
             "_d0_pseudo_inverse": rumin._d0_pseudo_inverse}


def _D_doubled(alpha: Form) -> Form:
    return _original["D_second_order"](alpha).scale(2)


def _D_zero(alpha: Form) -> Form:
    return Form.zero(alpha.n, alpha.n + 1)


def _Pi_E_flipped(alpha: Form) -> Form:
    # 1 + Q d + d Q in place of 1 - Q d - d Q
    return alpha + rumin.d0_inverse(exterior_derivative(alpha)) + exterior_derivative(rumin.d0_inverse(alpha))


def _lift_flipped(alpha: Form) -> Form:
    # alpha + d0+ (d alpha) in place of alpha - d0+ (d alpha)
    n = alpha.n
    return alpha + rumin._apply(rumin._d0_pseudo_inverse(n, n), exterior_derivative(alpha), n)


def _dc_zero_at_the_middle(alpha: Form) -> Form:
    if alpha.degree == alpha.n:
        return Form.zero(alpha.n, alpha.n + 1)
    return _original["dc_operator"](alpha)


def _twist_flipped(n: int, i: int):
    return -_original["twist_polynomial"](n, i)


def _d_table_tail_flipped(n: int, blade: tuple):
    # the terms d(theta) adds, with the sign of dtheta = -sum_j dx_j ^ dy_j flipped
    fronts, tails = _original["_d_table"](n, blade)
    return fronts, tuple((merged, -sign) for merged, sign in tails)


def _d0_plus_theta_free_row(n: int, k: int):
    # d0+ lands on theta blades; this one also writes a copy of its first
    # row onto the first k-blade, dx_1 ^ ... , which is theta-free
    op = _original["_d0_pseudo_inverse"](n, k)
    if not op.rows:
        return op
    return op._replace(outputs=op.outputs + (frame._blade_tuple(n, k)[0],), rows=op.rows + op.rows[:1])


# mutant: (patches by name, {suite: "fails" or "passes"})
CATALOGUE = {
    "D doubled": ({"D_second_order": _D_doubled},
                  {"complex": "passes", "lifting": "passes", "dc": "fails", "subspaces": "passes",
                   "commute": "passes"}),
    "D zero in D_second_order alone": ({"D_second_order": _D_zero},
                                       {"complex": "passes", "lifting": "passes", "dc": "fails",
                                        "subspaces": "passes", "commute": "passes"}),
    "d0+ sign flipped in Pi_E": ({"Pi_E": _Pi_E_flipped},
                                 {"complex": "passes", "lifting": "passes", "dc": "fails",
                                  "subspaces": "passes", "commute": "passes"}),
    # D's own check that its output lies in J^{n+1} fires in every suite
    # that applies D, and is reported as that check's counterexample.
    "lift correction sign flipped": ({"lift": _lift_flipped},
                                     {"complex": "fails", "lifting": "fails", "dc": "fails",
                                      "subspaces": "passes", "commute": "fails"}),
    # d_Q_high refuses the unlifted D's output as not in J^{n+1}; that
    # input check is reported as the check's counterexample too.
    "D without the lift": ({"D_second_order": exterior_derivative},
                           {"complex": "fails", "lifting": "passes", "dc": "fails", "subspaces": "passes",
                            "commute": "fails"}),
    "d_Q_low without the projection": ({"d_Q_low": exterior_derivative},
                                       {"complex": "passes", "lifting": "passes", "dc": "fails",
                                        "subspaces": "passes", "commute": "fails"}),
    # frame_apply, the frame matrix and the translation all read the
    # flipped twist and agree with one another; only d's own table keeps
    # the right one, and pullback by the translation no longer commutes
    # with the operators built on d.
    "twist sign flipped in twist_polynomial": ({"twist_polynomial": _twist_flipped},
                                               {"complex": "passes", "lifting": "passes", "dc": "passes",
                                                "subspaces": "passes", "commute": "fails"}),
    "dtheta tail sign flipped in _d_table": ({"_d_table": _d_table_tail_flipped},
                                             {"complex": "fails", "lifting": "passes", "dc": "passes",
                                              "subspaces": "passes", "commute": "passes"}),
    "theta-free row in d0+": ({"_d0_pseudo_inverse": _d0_plus_theta_free_row},
                              {"complex": "fails", "lifting": "fails", "dc": "fails", "subspaces": "passes",
                               "commute": "fails"}),
    # KNOWN_GAP: d_c and D agree on zero, and d o 0 = 0 o d = 0, so no
    # sampled suite sees it.  A suite that decides exactness, not only
    # d o d = 0, must report it.
    "D zero in D_second_order and dc_operator": (
        {"D_second_order": _D_zero, "dc_operator": _dc_zero_at_the_middle},
        {"complex": "passes", "lifting": "passes", "dc": "passes", "subspaces": "passes",
         "commute": "passes"}),
}

KNOWN_GAP = "D zero in D_second_order and dc_operator"


def _clear_caches() -> None:
    for module in (rumin, frame):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


@pytest.fixture()
def mutate(monkeypatch):
    """`mutate(patches)` rebinds each named function, for one test, in
    every module of frame, rumin and contact that binds it.  The rumin
    and frame caches are cleared before and after, so no table built
    under a mutant outlives it."""
    _clear_caches()
    yield lambda patches: [monkeypatch.setattr(module, name, f) for name, f in patches.items()
                           for module in (frame, rumin, contact) if name in vars(module)]
    monkeypatch.undo()
    _clear_caches()


def _outcome(suite) -> str:
    return "passes" if suite(N, trials=TRIALS, seed=SEED)["passed"] else "fails"


@pytest.mark.parametrize("suite", SUITES)
def test_suites_pass_without_a_mutant(suite):
    assert _outcome(SUITES[suite]) == "passes"


@pytest.mark.parametrize("mutant", CATALOGUE)
def test_mutant_outcomes(mutant, mutate):
    patches, expected = CATALOGUE[mutant]
    mutate(patches)
    assert {name: _outcome(suite) for name, suite in SUITES.items()} == expected


def test_every_mutant_but_the_known_gap_is_reported():
    unreported = [m for m, (_, outcomes) in CATALOGUE.items() if "fails" not in outcomes.values()]
    assert unreported == [KNOWN_GAP]
