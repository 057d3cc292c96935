"""Exact multivariate polynomial arithmetic over the rationals.

Polynomials live in the coordinates w1..w_{2n+1} of the Heisenberg group
H^n, with the naming convention x_j = w_j, y_j = w_{n+j} for j = 1..n and
t = w_{2n+1}.  Every operation is exact; nothing in this module ever
rounds.

A polynomial is stored as integer numerators over one shared
denominator: `num` maps monomial keys to nonzero ints and `den` is a
positive int, so the coefficient of a monomial is num[key] / den.  A key
packs a monomial's exponent vector into one int: the exponent of w_i
fills the _BITS-bit field at bits _BITS*(i-1) .. _BITS*i - 1.  A product
of monomials is then the sum of their keys, and lowering the exponent
of w_i subtracts that field's unit.  Every field stays below its top
bit, so an exponent is at most MAX_EXPONENT = 2^(_BITS-1) - 1 and a sum
of two keys never carries into the next field.  Each operation that can
raise an exponent tests that top bit in its result and raises
ValueError, naming the limit, rather than return a key it cannot hold.
Keys are packed and unpacked only where exponents enter or leave: the
constructor, `var`, `terms`, printing, degrees, evaluation and
substitution.

The ring operations work on ints only and reduce the result once, by
the gcd of the denominator and every numerator.  Every sum, difference
and scaling of polynomials is one call of the kernel
`PolyCoeff.combine`, an integer linear combination over a common
denominator.  The canonical term order used for printing is graded
lexicographic, highest total degree first.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Mapping, Sequence
from fractions import Fraction
from functools import lru_cache, reduce
from math import gcd, lcm
from operator import index, or_
from typing import Union

Scalar = Union[int, Fraction]

__all__ = ["MAX_EXPONENT", "PolyCoeff"]

# The width of one exponent field of a monomial key.  Its top bit stays
# clear, so exponents run up to MAX_EXPONENT = 2^24 - 1, which holds
# `commute`'s degree bound for w1^1000000 at n = 1 (9,000,000); no width
# from 21 to 40 bits ran the symbolic commands measurably faster.
_BITS = 25
_FIELD = (1 << _BITS) - 1
MAX_EXPONENT = (1 << (_BITS - 1)) - 1


@lru_cache(maxsize=None)
def _units(n: int) -> tuple[int, ...]:
    """The key of w_i at index i - 1, for i = 1..2n+1."""
    return tuple(1 << (_BITS * i) for i in range(2 * n + 1))


@lru_cache(maxsize=None)
def _guard(n: int) -> int:
    """The top bit of every exponent field of a key in H^n."""
    return sum(_units(n)) << (_BITS - 1)


def _check_exponents(n: int, keys: Iterable[int]) -> None:
    """Raise ValueError if a key has an exponent past MAX_EXPONENT.

    The keys are sums of valid keys, so no field has carried and a
    field past the limit shows as its top bit."""
    if reduce(or_, keys, 0) & _guard(n):
        raise ValueError(f"an exponent would pass {MAX_EXPONENT}, "
                         "the largest a monomial key holds")


def _unpack(key: int, width: int) -> tuple[int, ...]:
    return tuple([key >> shift & _FIELD for shift in range(0, _BITS * width, _BITS)])


def _fields(key: int) -> Iterator[tuple[int, int]]:
    """(i - 1, exponent of w_i) for each w_i in the key, i ascending;
    zero fields are skipped, not visited."""
    while key:
        shift = ((key & -key).bit_length() - 1) // _BITS * _BITS
        e = (key >> shift) & _FIELD
        yield shift // _BITS, e
        key -= e << shift


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

    Stored as `num`, a dict from packed monomial keys (see the module
    docstring) to nonzero int numerators, over the shared positive
    denominator `den`.  Each key holds 2n+1 exponent fields of _BITS
    bits, none past MAX_EXPONENT.  The form is canonical:
    gcd(den, *num.values()) == 1 and den == 1 for zero, so equality
    compares (n, den, num).

    Instances are immutable by convention: no method mutates `num`
    after construction, so values can be shared freely.

    The public constructor takes {exponent tuple: coefficient}; it
    validates and packs every tuple and coerces and filters every
    coefficient.  Ring operations whose results are canonical by
    construction go through the trusted `_from_clean`, after one
    reduction by the gcd where the denominator exceeds 1.  `+`, `-`
    and `scale` are each one `combine` call, the only code that sums
    polynomials.
    """

    __slots__ = ("n", "num", "den")

    def __init__(self, n: int, terms: Mapping[tuple[int, ...], Scalar] | None = None):
        _check_n(n)
        self.n = n
        width = 2 * n + 1
        fracs: dict[int, Fraction] = {}
        if terms:
            for exps, coeff in terms.items():
                if len(exps) != width:
                    raise ValueError(
                        f"exponent tuple {exps} has length {len(exps)}, expected {width}"
                    )
                if any(e < 0 for e in exps):
                    raise ValueError(f"negative exponent in {exps}")
                if any(e > MAX_EXPONENT for e in exps):
                    raise ValueError(
                        f"exponent in {exps} passes {MAX_EXPONENT}, the largest a monomial key holds"
                    )
                frac = _as_fraction(coeff)
                if frac != 0:
                    fracs[sum(index(e) << (_BITS * i) for i, e in enumerate(exps))] = frac
        # Over the lcm of reduced denominators the numerators share no
        # factor with it, so the result is canonical without a gcd pass.
        den = lcm(*(f.denominator for f in fracs.values()))
        self.num = {key: f.numerator * (den // f.denominator) for key, f in fracs.items()}
        self.den = den

    @classmethod
    def _from_clean(cls, n: int, num: dict[int, int], den: int = 1) -> PolyCoeff:
        """Wrap canonical numerators without validation.

        The caller guarantees that every key packs 2n+1 exponents none
        past MAX_EXPONENT, every value a nonzero int, den >= 1 and
        gcd(den, *num.values()) == 1; the dict is taken over, not copied.
        """
        self = cls.__new__(cls)
        self.n = n
        self.num = num
        self.den = den
        return self

    @classmethod
    def _reduced(cls, n: int, num: dict[int, int], den: int) -> PolyCoeff:
        """Wrap nonzero int numerators over den >= 1, dividing out their
        common factor; the zero polynomial gets den 1."""
        if den != 1:
            g = gcd(den, *num.values())
            if g != 1:
                num = {key: c // g for key, c in num.items()}
                den //= g
        return cls._from_clean(n, num, den)

    def _constant(self) -> Fraction | None:
        """The value of a constant polynomial (0 for zero), or None when
        a term has a variable."""
        if len(self.num) > 1 or next(iter(self.num), 0):
            return None
        return Fraction(sum(self.num.values()), self.den)

    @property
    def terms(self) -> dict[tuple[int, ...], Fraction]:
        """A {exponent tuple: Fraction} copy; only the bench tracer reads it."""
        width = 2 * self.n + 1
        return {_unpack(key, width): Fraction(c, self.den) for key, c in self.num.items()}

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
        return cls._from_clean(n, {0: frac.numerator}, frac.denominator)

    @classmethod
    def var(cls, n: int, i: int) -> PolyCoeff:
        """The coordinate polynomial w_i, 1-based."""
        _check_n(n)
        width = 2 * n + 1
        if not 1 <= i <= width:
            raise IndexError(f"coordinate index {i} out of range 1..{width}")
        return cls._from_clean(n, {_units(n)[i - 1]: 1})

    @classmethod
    def combine(cls, n: int, pairs: Iterable[tuple[int, PolyCoeff]], den: int = 1) -> PolyCoeff:
        """The exact sum of c * p over the (int c, polynomial p) pairs, divided by den >= 1.

        Numerators accumulate as ints over the lcm of the polynomials'
        denominators, and the sum is reduced once at the end.  Every
        polynomial must live in H^n; zero ones are then skipped, and a
        zero c only adds zero numerators.  A lone nonzero polynomial with
        c = 1 and den = 1 is returned as it is: nothing mutates `num`.
        """
        live = []
        for c, p in pairs:
            if p.n != n:
                raise ValueError(f"ambient dimension mismatch: n={p.n} vs n={n}")
            if p.num:
                live.append((c, p))
        if not live:
            return cls._from_clean(n, {})
        if len(live) == 1 and live[0][0] == 1 and den == 1:
            return live[0][1]  # a lone unit entry: the polynomial itself
        common = lcm(*(p.den for _, p in live))
        acc: dict[int, int] = {}
        get = acc.get
        for c, p in live:
            factor = c * (common // p.den)
            for key, v in p.num.items():
                acc[key] = get(key, 0) + factor * v
        return cls._reduced(n, {key: v for key, v in acc.items() if v}, common * den)

    # -- ring structure ----------------------------------------------

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
        return PolyCoeff.combine(self.n, [(1, self), (1, rhs)])

    __radd__ = __add__

    def __neg__(self) -> PolyCoeff:
        return PolyCoeff._from_clean(self.n, {key: -c for key, c in self.num.items()}, self.den)

    def __sub__(self, other) -> PolyCoeff:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return PolyCoeff.combine(self.n, [(1, self), (-1, rhs)])

    def __rsub__(self, other) -> PolyCoeff:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return PolyCoeff.combine(self.n, [(1, rhs), (-1, self)])

    def __mul__(self, other) -> PolyCoeff:
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, PolyCoeff):
            return NotImplemented
        if self.n != other.n:
            raise ValueError(f"ambient dimension mismatch: n={self.n} vs n={other.n}")
        acc: dict[int, int] = {}
        get = acc.get
        rhs_items = other.num.items()
        for ka, ca in self.num.items():
            for kb, cb in rhs_items:
                key = ka + kb
                acc[key] = get(key, 0) + ca * cb
        num = {key: c for key, c in acc.items() if c}
        _check_exponents(self.n, num)
        return PolyCoeff._reduced(self.n, num, self.den * other.den)

    def __rmul__(self, other) -> PolyCoeff:
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, value: Scalar) -> PolyCoeff:
        frac = _as_fraction(value)
        return PolyCoeff.combine(self.n, [(frac.numerator, self)], frac.denominator)

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
        return max(sum(e for _, e in _fields(key)) for key in self.num)

    # -- calculus -----------------------------------------------------

    def partial(self, i: int) -> PolyCoeff:
        """Formal partial derivative with respect to w_i, 1-based."""
        width = 2 * self.n + 1
        if not 1 <= i <= width:
            raise IndexError(f"coordinate index {i} out of range 1..{width}")
        shift = _BITS * (i - 1)
        unit = 1 << shift
        # Lowering one exponent maps distinct terms to distinct keys, so
        # nothing cancels; only the new factors e can share one with den.
        num: dict[int, int] = {}
        for key, c in self.num.items():
            e = (key >> shift) & _FIELD
            if e:
                num[key - unit] = c * e
        return PolyCoeff._reduced(self.n, num, self.den)

    def eval_exact(self, coords: Sequence[Scalar]) -> Fraction:
        """Evaluate with Fraction arithmetic; exact for rational inputs."""
        width = 2 * self.n + 1
        if len(coords) != width:
            raise ValueError(f"expected {width} coordinates, got {len(coords)}")
        values = [_as_fraction(c) for c in coords]
        total = Fraction(0)
        for key, c in self.num.items():
            term = Fraction(c)
            for i, e in _fields(key):
                term *= values[i] ** e
            total += term
        return total / self.den

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
        one = PolyCoeff._from_clean(m, {0: 1})
        powers: dict[tuple[int, int], PolyCoeff] = {}
        pairs = []
        for key, c in self.num.items():
            term = one
            for field in _fields(key):
                factor = powers.get(field)
                if factor is None:
                    idx, e = field
                    factor = powers[field] = components[idx] ** e
                term = factor if term is one else term * factor
            pairs.append((c, term))
        return PolyCoeff.combine(m, pairs, self.den)

    # -- serialization -------------------------------------------------

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Fraction]]:
        """Terms in graded-lex order, highest degree first."""
        den, width = self.den, 2 * self.n + 1
        terms = [(_unpack(key, width), c) for key, c in self.num.items()]
        return [
            (exps, Fraction(c, den))
            for exps, c in sorted(terms, key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)
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
        v = sum(1 for _ in _fields(reduce(or_, base.num)))
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

