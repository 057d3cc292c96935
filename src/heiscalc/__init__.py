"""Exact exterior calculus on the Heisenberg group H^n.

Modules cover the polynomial coefficient ring (`coeff`), the
left-invariant frame, exterior algebra and exact normal-field
conversions (`frame`), the Rumin complex and its constant operators
(`rumin`, over the exact block algebra of `_linalg`), the seeded draws
its suites check (`sampling`), smooth-map pushforward/pullback and
contactness (`contact`), numeric characteristic-point location on
parametrized surfaces (`surface`, which imports no symbolic module),
and a command-line front end (`cli`).
"""

__version__ = "0.1.0"
