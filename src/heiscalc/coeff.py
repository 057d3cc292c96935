"""Exact multivariate polynomial arithmetic over the rationals.

Polynomials live in the coordinates w1..w_{2n+1} of the Heisenberg group
H^n, with the naming convention x_j = w_j, y_j = w_{n+j} for j = 1..n and
t = w_{2n+1}.  Coefficients are `fractions.Fraction`, so every operation
is exact; nothing in this module ever rounds.

Terms are stored sparsely as a mapping from dense exponent tuples (length
2n+1) to nonzero Fractions.  The canonical term order used for printing
is graded lexicographic, highest total degree first.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

Scalar = Union[int, Fraction]

__all__ = ["PolyCoeff", "Point", "evaluate_at"]


def _as_fraction(value: Scalar) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an int or Fraction, got {type(value).__name__}")


class PolyCoeff:
    """A polynomial in w1..w_{2n+1} with Fraction coefficients.

    Instances are immutable by convention: no method mutates `terms`
    after construction, so values can be shared freely across threads.

    The public constructor validates every exponent tuple and coerces
    and filters every coefficient.  Ring operations whose results are
    canonical by construction (`+`, `-`, `*`, `scale`, `partial`) skip
    that pass through the trusted `_from_clean`: their keys come from
    valid keys and their zero coefficients are already dropped.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Mapping[tuple[int, ...], Fraction] | None = None):
        if n < 1:
            raise ValueError(f"ambient parameter n must be >= 1, got {n}")
        self.n = n
        width = 2 * n + 1
        clean: dict[tuple[int, ...], Fraction] = {}
        if terms:
            for exps, coeff in terms.items():
                if len(exps) != width:
                    raise ValueError(
                        f"exponent tuple {exps} has length {len(exps)}, expected {width}"
                    )
                if any(e < 0 for e in exps):
                    raise ValueError(f"negative exponent in {exps}")
                frac = _as_fraction(coeff)
                if frac != 0:
                    clean[tuple(exps)] = frac
        self.terms = clean

    @classmethod
    def _from_clean(cls, n: int, terms: dict[tuple[int, ...], Fraction]) -> PolyCoeff:
        """Wrap canonical terms without validation.

        The caller guarantees that every key is a tuple of 2n+1
        non-negative ints and every value a nonzero Fraction; the dict
        is taken over, not copied.
        """
        self = cls.__new__(cls)
        self.n = n
        self.terms = terms
        return self

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> PolyCoeff:
        return cls(n)

    @classmethod
    def const(cls, n: int, value: Scalar) -> PolyCoeff:
        frac = _as_fraction(value)
        if frac == 0:
            return cls(n)
        return cls(n, {tuple([0] * (2 * n + 1)): frac})

    @classmethod
    def var(cls, n: int, i: int) -> PolyCoeff:
        """The coordinate polynomial w_i, 1-based."""
        width = 2 * n + 1
        if not 1 <= i <= width:
            raise IndexError(f"coordinate index {i} out of range 1..{width}")
        exps = [0] * width
        exps[i - 1] = 1
        return cls(n, {tuple(exps): Fraction(1)})

    # -- ring structure ----------------------------------------------

    def _check_same_n(self, other: PolyCoeff) -> None:
        if self.n != other.n:
            raise ValueError(f"ambient dimension mismatch: n={self.n} vs n={other.n}")

    def _coerce(self, other) -> PolyCoeff | None:
        if isinstance(other, PolyCoeff):
            return other
        if isinstance(other, (int, Fraction)):
            return PolyCoeff.const(self.n, other)
        return None

    def __add__(self, other) -> PolyCoeff:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        self._check_same_n(rhs)
        terms = dict(self.terms)
        for exps, coeff in rhs.terms.items():
            acc = terms.get(exps)
            if acc is None:
                terms[exps] = coeff
            else:
                acc += coeff
                if acc:
                    terms[exps] = acc
                else:
                    del terms[exps]
        return PolyCoeff._from_clean(self.n, terms)

    __radd__ = __add__

    def __neg__(self) -> PolyCoeff:
        return PolyCoeff._from_clean(self.n, {exps: -c for exps, c in self.terms.items()})

    def __sub__(self, other) -> PolyCoeff:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other) -> PolyCoeff:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs + (-self)

    def __mul__(self, other) -> PolyCoeff:
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, PolyCoeff):
            return NotImplemented
        self._check_same_n(other)
        terms: dict[tuple[int, ...], Fraction] = {}
        get = terms.get
        add = operator.add
        rhs = other.terms.items()
        for ea, ca in self.terms.items():
            for eb, cb in rhs:
                exps = tuple(map(add, ea, eb))
                acc = get(exps)
                terms[exps] = ca * cb if acc is None else acc + ca * cb
        # Products of nonzero Fractions are nonzero, but sums can cancel.
        return PolyCoeff._from_clean(self.n, {e: c for e, c in terms.items() if c})

    def __rmul__(self, other) -> PolyCoeff:
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, value: Scalar) -> PolyCoeff:
        frac = _as_fraction(value)
        if frac == 0:
            return PolyCoeff(self.n)
        return PolyCoeff._from_clean(self.n, {exps: c * frac for exps, c in self.terms.items()})

    def __pow__(self, power: int) -> PolyCoeff:
        if not isinstance(power, int) or power < 0:
            raise ValueError(f"polynomial powers must be non-negative integers, got {power}")
        result = PolyCoeff.const(self.n, 1)
        base = self
        while power:
            if power & 1:
                result = result * base
            base = base * base if power > 1 else base
            power >>= 1
        return result

    def __eq__(self, other) -> bool:
        rhs = self._coerce(other) if not isinstance(other, PolyCoeff) else other
        if rhs is None or not isinstance(rhs, PolyCoeff):
            return NotImplemented
        return self.n == rhs.n and self.terms == rhs.terms

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Max total degree of any term; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(exps) for exps in self.terms)

    # -- calculus -----------------------------------------------------

    def partial(self, i: int) -> PolyCoeff:
        """Formal partial derivative with respect to w_i, 1-based."""
        width = 2 * self.n + 1
        if not 1 <= i <= width:
            raise IndexError(f"coordinate index {i} out of range 1..{width}")
        pos = i - 1
        # Lowering one exponent maps distinct terms to distinct keys, so
        # nothing cancels and the result is canonical as built.
        terms: dict[tuple[int, ...], Fraction] = {}
        for exps, coeff in self.terms.items():
            e = exps[pos]
            if e:
                terms[exps[:pos] + (e - 1,) + exps[pos + 1:]] = coeff * e
        return PolyCoeff._from_clean(self.n, terms)

    def eval_exact(self, coords: Sequence[Scalar]) -> Fraction:
        """Evaluate with Fraction arithmetic; exact for rational inputs."""
        width = 2 * self.n + 1
        if len(coords) != width:
            raise ValueError(f"expected {width} coordinates, got {len(coords)}")
        values = [_as_fraction(c) for c in coords]
        total = Fraction(0)
        for exps, coeff in self.terms.items():
            term = coeff
            for value, e in zip(values, exps):
                if e:
                    term *= value**e
            total += term
        return total

    def evaluate(self, coords: Sequence[float]) -> float:
        width = 2 * self.n + 1
        if len(coords) != width:
            raise ValueError(f"expected {width} coordinates, got {len(coords)}")
        total = 0.0
        for exps, coeff in self.terms.items():
            term = float(coeff)
            for value, e in zip(coords, exps):
                if e:
                    term *= float(value) ** e
            total += term
        return total

    def substitute(self, components: Sequence[PolyCoeff]) -> PolyCoeff:
        """Compose: plug the given polynomials in for w1..w_{2n+1}.

        The replacement polynomials may live in a different ambient
        dimension; they must all share one.
        """
        width = 2 * self.n + 1
        if len(components) != width:
            raise ValueError(f"expected {width} replacement polynomials, got {len(components)}")
        m = components[0].n
        for comp in components:
            if comp.n != m:
                raise ValueError("replacement polynomials disagree on ambient dimension")
        # Powers of each component are memoized: compositions in the
        # commutation suites reuse the same small exponents repeatedly.
        powers: list[dict[int, PolyCoeff]] = [
            {0: PolyCoeff.const(m, 1), 1: comp} for comp in components
        ]

        def power(idx: int, e: int) -> PolyCoeff:
            cache = powers[idx]
            if e not in cache:
                cache[e] = power(idx, e - 1) * cache[1]
            return cache[e]

        total = PolyCoeff.zero(m)
        for exps, coeff in self.terms.items():
            term = PolyCoeff.const(m, coeff)
            for idx, e in enumerate(exps):
                if e:
                    term = term * power(idx, e)
            total = total + term
        return total

    # -- serialization -------------------------------------------------

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Fraction]]:
        """Terms in graded-lex order, highest degree first."""
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)

    def to_text(self) -> str:
        if not self.terms:
            return "0/1"
        rendered = []
        for exps, coeff in self.sorted_terms():
            pieces = [f"{coeff.numerator}/{coeff.denominator}"]
            pieces.extend(f"w{i + 1}^{e}" for i, e in enumerate(exps) if e)
            rendered.append("·".join(pieces))
        return " + ".join(rendered)

    @classmethod
    def from_text(cls, n: int, text: str) -> PolyCoeff:
        """Parse the `to_text` format; also accepts '*' as the separator
        and omitted '^1' exponents."""
        width = 2 * n + 1
        terms: dict[tuple[int, ...], Fraction] = {}
        stripped = text.strip()
        if not stripped:
            return cls(n)
        for chunk in stripped.split(" + "):
            pieces = chunk.replace("*", "·").split("·")
            coeff = Fraction(pieces[0].strip())
            exps = [0] * width
            for piece in pieces[1:]:
                piece = piece.strip()
                if not piece.startswith("w"):
                    raise ValueError(f"malformed monomial factor {piece!r}")
                body = piece[1:]
                if "^" in body:
                    var_s, exp_s = body.split("^", 1)
                    e = int(exp_s)
                else:
                    var_s, e = body, 1
                i = int(var_s)
                if not 1 <= i <= width:
                    raise ValueError(f"coordinate w{i} out of range for n={n}")
                exps[i - 1] += e
            key = tuple(exps)
            acc = terms.get(key, Fraction(0)) + coeff
            if acc == 0:
                terms.pop(key, None)
            else:
                terms[key] = acc
        return cls(n, terms)

    def __repr__(self) -> str:
        return f"PolyCoeff(n={self.n}, {self.to_text()})"


@dataclass(frozen=True)
class Point:
    """A numeric point of H^n; 2n+1 finite coordinates."""

    coords: tuple[float, ...]

    def __post_init__(self):
        if len(self.coords) % 2 == 0 or len(self.coords) < 3:
            raise ValueError(f"a point of H^n needs an odd number >= 3 of coordinates, got {len(self.coords)}")
        if not all(math.isfinite(c) for c in self.coords):
            raise ValueError(f"non-finite coordinate in {self.coords}")

    @property
    def n(self) -> int:
        return (len(self.coords) - 1) // 2


def evaluate_at(p: PolyCoeff, pt: Point | Iterable[float]) -> float:
    """Evaluate a polynomial at a point, returning a float."""
    coords = pt.coords if isinstance(pt, Point) else tuple(pt)
    return p.evaluate(coords)
