"""Exact multivariate polynomial arithmetic over the rationals.

Polynomials live in the coordinates w1..w_{2n+1} of the Heisenberg group
H^n, with the naming convention x_j = w_j, y_j = w_{n+j} for j = 1..n and
t = w_{2n+1}.  Every operation is exact; nothing in this module ever
rounds.

A polynomial is stored as integer numerators over one shared
denominator: `num` maps dense exponent tuples (length 2n+1) to nonzero
ints and `den` is a positive int, so the coefficient of a monomial is
num[exps] / den.  The ring operations work on ints only and reduce the
result once, by the gcd of the denominator and every numerator.  The
canonical term order used for printing is graded lexicographic, highest
total degree first.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from math import gcd, lcm
from typing import Union

Scalar = Union[int, Fraction]

__all__ = ["PolyCoeff", "Point", "evaluate_at"]


def _as_fraction(value: Scalar) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an int or Fraction, got {type(value).__name__}")


def _decimal(value: int | Fraction) -> str:
    """str(value) for an int or Fraction of any length.  str() refuses
    ints past 4,300 digits, so longer ones are written in halves."""
    if isinstance(value, Fraction):
        return _decimal(value.numerator) + (f"/{_decimal(value.denominator)}" if value.denominator > 1 else "")
    half = abs(value).bit_length() * 3 // 20  # at most half the number of digits
    if half < 2000:
        return str(value)
    high, low = divmod(abs(value), 10**half)
    return ("-" if value < 0 else "") + _decimal(high) + _decimal(low).zfill(half)


def _from_decimal(digits: str) -> int:
    """int(digits) for a run of decimal digits of any length, read in halves."""
    half = len(digits) // 2
    return int(digits) if half < 2000 else _from_decimal(digits[:-half]) * 10**half + _from_decimal(digits[-half:])


def _check_n(n: int) -> None:
    if n < 1:
        raise ValueError(f"ambient parameter n must be >= 1, got {n}")


class PolyCoeff:
    """A polynomial in w1..w_{2n+1} with rational coefficients.

    Stored as `num`, a dict from exponent tuples to nonzero int
    numerators, over the shared positive denominator `den`.  The form is
    canonical: gcd(den, *num.values()) == 1 and den == 1 for zero, so
    equality compares (n, den, num).

    Instances are immutable by convention: no method mutates `num`
    after construction, so values can be shared freely.

    The public constructor validates every exponent tuple and coerces
    and filters every coefficient.  Ring operations whose results are
    canonical by construction go through the trusted `_from_clean`,
    after one reduction by the gcd where the denominator exceeds 1.
    """

    __slots__ = ("n", "num", "den")

    def __init__(self, n: int, terms: Mapping[tuple[int, ...], Scalar] | None = None):
        _check_n(n)
        self.n = n
        width = 2 * n + 1
        fracs: dict[tuple[int, ...], Fraction] = {}
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
                    fracs[tuple(exps)] = frac
        # Over the lcm of reduced denominators the numerators share no
        # factor with it, so the result is canonical without a gcd pass.
        den = lcm(*(f.denominator for f in fracs.values()))
        self.num = {exps: f.numerator * (den // f.denominator) for exps, f in fracs.items()}
        self.den = den

    @classmethod
    def _from_clean(cls, n: int, num: dict[tuple[int, ...], int], den: int = 1) -> PolyCoeff:
        """Wrap canonical numerators without validation.

        The caller guarantees that every key is a tuple of 2n+1
        non-negative ints, every value a nonzero int, den >= 1 and
        gcd(den, *num.values()) == 1; the dict is taken over, not copied.
        """
        self = cls.__new__(cls)
        self.n = n
        self.num = num
        self.den = den
        return self

    @classmethod
    def _reduced(cls, n: int, num: dict[tuple[int, ...], int], den: int) -> PolyCoeff:
        """Wrap nonzero int numerators over den >= 1, dividing out their
        common factor; the zero polynomial gets den 1."""
        if den != 1:
            g = gcd(den, *num.values())
            if g != 1:
                num = {exps: c // g for exps, c in num.items()}
                den //= g
        return cls._from_clean(n, num, den)

    def _constant(self) -> Fraction | None:
        """The value of a constant polynomial (0 for zero), or None when
        a term has a variable."""
        if len(self.num) > 1 or any(next(iter(self.num), ())):
            return None
        return Fraction(sum(self.num.values()), self.den)

    @property
    def terms(self) -> dict[tuple[int, ...], Fraction]:
        """A {exps: Fraction} copy; only the bench tracer reads it."""
        return {exps: Fraction(c, self.den) for exps, c in self.num.items()}

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> PolyCoeff:
        _check_n(n)
        return cls._from_clean(n, {})

    @classmethod
    def const(cls, n: int, value: Scalar) -> PolyCoeff:
        _check_n(n)
        frac = _as_fraction(value)
        if frac == 0:
            return cls._from_clean(n, {})
        return cls._from_clean(n, {(0,) * (2 * n + 1): frac.numerator}, frac.denominator)

    @classmethod
    def var(cls, n: int, i: int) -> PolyCoeff:
        """The coordinate polynomial w_i, 1-based."""
        _check_n(n)
        width = 2 * n + 1
        if not 1 <= i <= width:
            raise IndexError(f"coordinate index {i} out of range 1..{width}")
        exps = [0] * width
        exps[i - 1] = 1
        return cls._from_clean(n, {tuple(exps): 1})

    @classmethod
    def combine(cls, n: int, pairs: Iterable[tuple[int, PolyCoeff]], den: int = 1) -> PolyCoeff:
        """The exact sum of c * p over the (int c, polynomial p) pairs, divided by den >= 1.

        Numerators accumulate as ints over the lcm of the polynomials'
        denominators, and the sum is reduced once at the end.  Zero
        polynomials are skipped; a zero c only adds zero numerators.
        """
        pairs = [(c, p) for c, p in pairs if p.num]
        if not pairs:
            return cls._from_clean(n, {})
        common = lcm(*(p.den for _, p in pairs))
        acc: dict[tuple[int, ...], int] = {}
        get = acc.get
        for c, p in pairs:
            if p.n != n:
                raise ValueError(f"ambient dimension mismatch: n={p.n} vs n={n}")
            factor = c * (common // p.den)
            for exps, v in p.num.items():
                acc[exps] = get(exps, 0) + factor * v
        return cls._reduced(n, {exps: v for exps, v in acc.items() if v}, common * den)

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
        if not rhs.num:
            return self
        if not self.num:
            return rhs
        # Equal denominators, the common case, need no rescaling.
        da, db = self.den, rhs.den
        den = da if da == db else lcm(da, db)
        fa, fb = den // da, den // db
        num = dict(self.num) if fa == 1 else {exps: c * fa for exps, c in self.num.items()}
        get = num.get
        for exps, c in rhs.num.items():
            if fb != 1:
                c *= fb
            acc = get(exps)
            if acc is None:
                num[exps] = c
            else:
                acc += c
                if acc:
                    num[exps] = acc
                else:
                    del num[exps]
        return PolyCoeff._reduced(self.n, num, den)

    __radd__ = __add__

    def __neg__(self) -> PolyCoeff:
        return PolyCoeff._from_clean(self.n, {exps: -c for exps, c in self.num.items()}, self.den)

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
        add = operator.add
        acc: dict[tuple[int, ...], int] = {}
        get = acc.get
        rhs_items = other.num.items()
        for ea, ca in self.num.items():
            for eb, cb in rhs_items:
                exps = tuple(map(add, ea, eb))
                acc[exps] = get(exps, 0) + ca * cb
        num = {exps: c for exps, c in acc.items() if c}
        return PolyCoeff._reduced(self.n, num, self.den * other.den)

    def __rmul__(self, other) -> PolyCoeff:
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, value: Scalar) -> PolyCoeff:
        frac = _as_fraction(value)
        if frac == 0:
            return PolyCoeff._from_clean(self.n, {})
        p, q = frac.numerator, frac.denominator
        if p == 1 and q == 1:
            return self
        num = {exps: c * p for exps, c in self.num.items()}
        return PolyCoeff._reduced(self.n, num, self.den * q)

    def __pow__(self, power: int) -> PolyCoeff:
        if not isinstance(power, int) or power < 0:
            raise ValueError(f"polynomial powers must be non-negative integers, got {power}")
        result = None
        base = self
        while power:
            if power & 1:
                result = base if result is None else result * base
            power >>= 1
            if power:
                base = base * base
        return PolyCoeff.const(self.n, 1) if result is None else result

    def __eq__(self, other) -> bool:
        rhs = self._coerce(other) if not isinstance(other, PolyCoeff) else other
        if rhs is None or not isinstance(rhs, PolyCoeff):
            return NotImplemented
        return self.n == rhs.n and self.den == rhs.den and self.num == rhs.num

    def is_zero(self) -> bool:
        return not self.num

    def total_degree(self) -> int:
        """Max total degree of any term; -1 for the zero polynomial."""
        if not self.num:
            return -1
        return max(sum(exps) for exps in self.num)

    # -- calculus -----------------------------------------------------

    def partial(self, i: int) -> PolyCoeff:
        """Formal partial derivative with respect to w_i, 1-based."""
        width = 2 * self.n + 1
        if not 1 <= i <= width:
            raise IndexError(f"coordinate index {i} out of range 1..{width}")
        pos = i - 1
        # Lowering one exponent maps distinct terms to distinct keys, so
        # nothing cancels; only the new factors e can share one with den.
        num: dict[tuple[int, ...], int] = {}
        for exps, c in self.num.items():
            e = exps[pos]
            if e:
                num[exps[:pos] + (e - 1,) + exps[pos + 1:]] = c * e
        return PolyCoeff._reduced(self.n, num, self.den)

    def eval_exact(self, coords: Sequence[Scalar]) -> Fraction:
        """Evaluate with Fraction arithmetic; exact for rational inputs."""
        width = 2 * self.n + 1
        if len(coords) != width:
            raise ValueError(f"expected {width} coordinates, got {len(coords)}")
        values = [_as_fraction(c) for c in coords]
        total = Fraction(0)
        for exps, c in self.num.items():
            term = Fraction(c)
            for value, e in zip(values, exps):
                if e:
                    term *= value**e
            total += term
        return total / self.den

    def evaluate(self, coords: Sequence[float]) -> float:
        width = 2 * self.n + 1
        if len(coords) != width:
            raise ValueError(f"expected {width} coordinates, got {len(coords)}")
        total = 0.0
        den = self.den
        for exps, c in self.num.items():
            # int / int rounds the exact quotient once, as float(Fraction) does.
            term = c / den
            for value, e in zip(coords, exps):
                if e:
                    term *= float(value) ** e
            total += term
        return total

    def substitute(self, components: Sequence[PolyCoeff]) -> PolyCoeff:
        """Compose: plug the given polynomials in for w1..w_{2n+1}.

        The replacement polynomials may live in a different ambient
        dimension; they must all share one.  Each power of a component
        is taken once per call.
        """
        width = 2 * self.n + 1
        if len(components) != width:
            raise ValueError(f"expected {width} replacement polynomials, got {len(components)}")
        m = components[0].n
        for comp in components:
            if comp.n != m:
                raise ValueError("replacement polynomials disagree on ambient dimension")
        one = PolyCoeff._from_clean(m, {(0,) * (2 * m + 1): 1})
        powers: dict[tuple[int, int], PolyCoeff] = {}
        pairs = []
        for exps, c in self.num.items():
            term = one
            for idx, e in enumerate(exps):
                if e:
                    factor = powers.get((idx, e))
                    if factor is None:
                        factor = powers[idx, e] = components[idx] ** e
                    term = factor if term is one else term * factor
            pairs.append((c, term))
        return PolyCoeff.combine(m, pairs, self.den)

    # -- serialization -------------------------------------------------

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Fraction]]:
        """Terms in graded-lex order, highest degree first."""
        den = self.den
        return [
            (exps, Fraction(c, den))
            for exps, c in sorted(self.num.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)
        ]

    def to_text(self) -> str:
        if not self.num:
            return "0/1"
        rendered = []
        for exps, coeff in self.sorted_terms():
            pieces = [f"{_decimal(coeff.numerator)}/{_decimal(coeff.denominator)}"]
            pieces.extend(f"w{i + 1}^{e}" for i, e in enumerate(exps) if e)
            rendered.append("·".join(pieces))
        return " + ".join(rendered)

    @classmethod
    def from_text(cls, n: int, text: str) -> PolyCoeff:
        """Parse a polynomial in w1..w_{2n+1}: integers, +, -, *, /, ^,
        parentheses and '·' (read as '*').  Division is allowed only by
        a nonzero constant.  Reads everything `to_text` writes."""
        return _ExprParser(n, _tokenize(text)).parse()

    def __repr__(self) -> str:
        return f"PolyCoeff(n={self.n}, {self.to_text()})"


# Nesting, a parenthesis or a unary sign, deeper than this is refused
# with ValueError before the recursive descent can exhaust the stack.
_MAX_DEPTH = 100
# A power whose result could exceed this size, in terms times bits per
# coefficient, is refused with ValueError before it is expanded.
_MAX_POWER_SIZE = 1 << 20


def _power_size(base: PolyCoeff, e: int) -> int:
    """An upper bound on the size of base ** e.  For t terms of degree
    at most d in v variables it has at most C(e + t - 1, t - 1) and at
    most C(e d + v, v) terms, and no numerator or denominator above
    max(sum |num|, den) ** e."""
    t = len(base.num)
    terms = 1
    if t > 1:
        v = sum(map(any, zip(*base.num)))
        terms = min(math.comb(e + t - 1, t - 1), math.comb(e * base.total_degree() + v, v))
    return terms * e * max(sum(map(abs, base.num.values())), base.den).bit_length()


def _tokenize(text: str) -> list[str]:
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "+-*/^()·":
            tokens.append("*" if ch == "·" else ch)
            i += 1
        elif ch.isdigit() or ch == "w":
            j = i + 1
            while j < len(text) and text[j].isdigit():
                j += 1
            if j == i + 1 and ch == "w":
                raise ValueError(f"bad variable at {text[i:]!r}")
            tokens.append(text[i:j])
            i = j
        else:
            raise ValueError(f"unexpected character {ch!r} in polynomial expression")
    return tokens


class _ExprParser:
    """Recursive-descent parser for +, -, *, /, ^ and w-variables."""

    def __init__(self, n: int, tokens: list[str]):
        self.n = n
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ValueError("unexpected end of polynomial expression")
        self.pos += 1
        return tok

    def parse(self) -> PolyCoeff:
        value = self.expr()
        if self.peek() is not None:
            raise ValueError(f"trailing tokens {self.tokens[self.pos:]!r}")
        return value

    def expr(self) -> PolyCoeff:
        value = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self) -> PolyCoeff:
        value = self.factor()
        while self.peek() in ("*", "/"):
            op = self.take()
            rhs = self.factor()
            if op == "*":
                value = value * rhs
                continue
            c = rhs._constant()
            if c is None:
                raise ValueError("division is only allowed by nonzero constants")
            if not c:
                raise ValueError("zero denominator in polynomial expression")
            value = value.scale(1 / c)
        return value

    def factor(self) -> PolyCoeff:
        # Every level of nesting passes through here, so this one
        # counter bounds the recursion.
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            raise ValueError("expression nested too deeply")
        tok = self.peek()
        if tok in ("+", "-"):
            self.take()
            value = self.factor()
            if tok == "-":
                value = -value
        else:
            value = self.atom()
            if self.peek() == "^":
                self.take()
                exp_tok = self.take()
                if not exp_tok.isdigit():
                    raise ValueError(f"exponent must be a nonnegative integer, got {exp_tok!r}")
                e = _from_decimal(exp_tok)
                if _power_size(value, e) > _MAX_POWER_SIZE:
                    raise ValueError("power too large to expand in polynomial expression")
                value = value ** e
        self.depth -= 1
        return value

    def atom(self) -> PolyCoeff:
        tok = self.take()
        if tok == "(":
            value = self.expr()
            if self.take() != ")":
                raise ValueError("unbalanced parentheses in polynomial expression")
            return value
        if tok.isdigit():
            return PolyCoeff.const(self.n, _from_decimal(tok))
        if tok.startswith("w"):
            idx = _from_decimal(tok[1:])
            if not 1 <= idx <= 2 * self.n + 1:
                raise ValueError(f"variable {tok} out of range for H^{self.n}")
            return PolyCoeff.var(self.n, idx)
        raise ValueError(f"unexpected token {tok!r} in polynomial expression")


class _Frozen:
    """Refuses to assign or delete attributes; __init__ sets each once through `_set`."""

    __slots__ = ()

    def _set(self, **fields) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, *value) -> None:
        raise AttributeError(f"cannot assign or delete field {name!r} of a {type(self).__name__}")

    __delattr__ = __setattr__


class Point(_Frozen):
    """A numeric point of H^n; 2n+1 finite coordinates, equal by value."""

    __slots__ = ("coords",)

    def __init__(self, coords: tuple[float, ...]) -> None:
        if len(coords) % 2 == 0 or len(coords) < 3:
            raise ValueError(f"a point of H^n needs an odd number >= 3 of coordinates, got {len(coords)}")
        if not all(math.isfinite(c) for c in coords):
            raise ValueError(f"non-finite coordinate in {coords}")
        self._set(coords=coords)

    def __eq__(self, other):
        return self.coords == other.coords if isinstance(other, Point) else NotImplemented

    def __hash__(self) -> int:
        return hash(self.coords)

    @property
    def n(self) -> int:
        return (len(self.coords) - 1) // 2


def evaluate_at(p: PolyCoeff, pt: Point | Iterable[float]) -> float:
    """Evaluate a polynomial at a point, returning a float."""
    coords = pt.coords if isinstance(pt, Point) else tuple(pt)
    return p.evaluate(coords)
