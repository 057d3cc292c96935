"""The left-invariant frame of H^n and its graded exterior algebra.

Frame fields are indexed 1..2n+1: W_j = X_j for j <= n, W_{n+j} = Y_j,
and W_{2n+1} = T.  In coordinates,

    W_i = d/dw_i - (1/2) wtilde_i d/dt   (i <= 2n),      T = d/dt,

where the symplectic twist is wtilde_i = w_{n+i} for i <= n and
wtilde_i = -w_{i-n} for n < i <= 2n.  The dual coframe is theta_i = dx_i
(i <= n), theta_{n+i} = dy_i, and theta_{2n+1} = theta, the contact form
dt - (1/2) sum_j (x_j dy_j - y_j dx_j), with dtheta = -sum_j dx_j^dy_j.

Forms and multivectors are stored blade-sparsely: a mapping from strictly
increasing index tuples to PolyCoeff coefficients.  The two algebras
mirror each other but stay distinct types, since the Hodge star and the
duality pairing treat them asymmetrically.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import lcm
from typing import Iterable, Iterator, Mapping, Sequence, Type, TypeVar, Union

from .coeff import PolyCoeff, _check_n

Blade = tuple[int, ...]
CoeffLike = Union[PolyCoeff, int, Fraction]

__all__ = [
    "Form",
    "MultiVector",
    "frame_apply",
    "wedge",
    "exterior_derivative",
    "hodge_star",
    "horizontal_gradient",
    "pairing",
    "inner",
    "dx",
    "dy",
    "contact_form",
    "d_contact_form",
    "blade_name",
    "all_blades",
    "form_to_json",
    "form_from_json",
]


def theta_index(n: int) -> int:
    return 2 * n + 1


def twist_polynomial(n: int, i: int) -> PolyCoeff:
    """wtilde_i as a coordinate polynomial, defined for i <= 2n."""
    if not 1 <= i <= 2 * n:
        raise IndexError(f"twist index {i} out of range 1..{2 * n}")
    if i <= n:
        return PolyCoeff.var(n, n + i)
    return -PolyCoeff.var(n, i - n)


@lru_cache(maxsize=None)
def _half_twists(n: int) -> tuple[PolyCoeff, ...]:
    """(1/2) wtilde_i for i = 1..2n, at index i - 1."""
    half = Fraction(1, 2)
    return tuple(twist_polynomial(n, i).scale(half) for i in range(1, 2 * n + 1))


def frame_apply(i: int, p: PolyCoeff) -> PolyCoeff:
    """Apply the frame derivation W_i to a polynomial.

    W_i p = d_i p - (1/2) wtilde_i d_t p, with the half-twists taken from
    a per-n cache; the twist product is skipped when d_t p vanishes.
    """
    n = p.n
    width = 2 * n + 1
    if not 1 <= i <= width:
        raise IndexError(f"frame index {i} out of range 1..{width}")
    dt = p.partial(width)
    if i == width:
        return dt
    if dt.is_zero():
        return p.partial(i)
    return p.partial(i) - _half_twists(n)[i - 1] * dt


def _merge_blades(a: Blade, b: Blade) -> tuple[Blade, int] | None:
    """Concatenate-and-sort two increasing blades.

    Returns (sorted blade, sign) or None when an index repeats.
    The sign is the parity of the merge permutation.
    """
    merged: list[int] = []
    sign = 1
    ia, ib = 0, 0
    while ia < len(a) and ib < len(b):
        if a[ia] == b[ib]:
            return None
        if a[ia] < b[ib]:
            merged.append(a[ia])
            ia += 1
        else:
            # b[ib] jumps over the remaining len(a)-ia entries of a.
            if (len(a) - ia) % 2:
                sign = -sign
            merged.append(b[ib])
            ib += 1
    merged.extend(a[ia:])
    merged.extend(b[ib:])
    return tuple(merged), sign


T_ = TypeVar("T_", bound="_GradedElement")


class _GradedElement:
    """Shared container logic for Form and MultiVector.

    The public constructor validates every blade and coefficient.  `+`,
    `-` and `wedge` build canonical results (strictly increasing blades
    of the right degree, nonzero PolyCoeff values of the same n) and
    wrap them with the trusted `_from_clean` instead.
    """

    __slots__ = ("n", "degree", "coeffs")

    def __init__(self, n: int, degree: int, coeffs: Mapping[Blade, CoeffLike] | None = None):
        _check_n(n)
        if degree < 0:
            raise ValueError(f"degree must be >= 0, got {degree}")
        self.n = n
        self.degree = degree
        width = 2 * n + 1
        clean: dict[Blade, PolyCoeff] = {}
        if coeffs:
            for blade, coeff in coeffs.items():
                blade = tuple(blade)
                if len(blade) != degree:
                    raise ValueError(f"blade {blade} has length {len(blade)}, expected degree {degree}")
                if any(not 1 <= i <= width for i in blade):
                    raise ValueError(f"blade {blade} has indices outside 1..{width}")
                if any(blade[k] >= blade[k + 1] for k in range(len(blade) - 1)):
                    raise ValueError(f"blade {blade} is not strictly increasing")
                if not isinstance(coeff, PolyCoeff):
                    coeff = PolyCoeff.const(n, coeff)
                if coeff.n != n:
                    raise ValueError(f"coefficient ambient n={coeff.n} does not match form n={n}")
                if not coeff.is_zero():
                    clean[blade] = coeff
        self.coeffs = clean

    @classmethod
    def _from_clean(cls: Type[T_], n: int, degree: int, coeffs: dict[Blade, PolyCoeff]) -> T_:
        """Wrap canonical coefficients without validation; the dict is
        taken over, not copied."""
        self = cls.__new__(cls)
        self.n = n
        self.degree = degree
        self.coeffs = coeffs
        return self

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls: Type[T_], n: int, degree: int = 0) -> T_:
        return cls(n, degree)

    @classmethod
    def from_blade(cls: Type[T_], n: int, blade: Sequence[int], coeff: CoeffLike = 1) -> T_:
        blade = tuple(blade)
        return cls(n, len(blade), {blade: coeff})

    @classmethod
    def function(cls: Type[T_], p: PolyCoeff) -> T_:
        """Degree-0 element wrapping a scalar polynomial."""
        return cls(p.n, 0, {(): p})

    # -- linear structure ----------------------------------------------

    def _check_compatible(self, other: _GradedElement) -> None:
        if type(self) is not type(other):
            raise TypeError(f"cannot mix {type(self).__name__} with {type(other).__name__}")
        if self.n != other.n:
            raise ValueError(f"ambient dimension mismatch: n={self.n} vs n={other.n}")

    def __add__(self: T_, other: T_) -> T_:
        self._check_compatible(other)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.degree != other.degree:
            raise ValueError(f"degree mismatch: {self.degree} vs {other.degree}")
        coeffs = dict(self.coeffs)
        for blade, coeff in other.coeffs.items():
            acc = coeffs.get(blade)
            acc = coeff if acc is None else acc + coeff
            if acc.is_zero():
                coeffs.pop(blade, None)
            else:
                coeffs[blade] = acc
        return self._from_clean(self.n, self.degree, coeffs)

    def __neg__(self: T_) -> T_:
        return self._from_clean(self.n, self.degree, {b: -c for b, c in self.coeffs.items()})

    def __sub__(self: T_, other: T_) -> T_:
        return self + (-other)

    def scale(self: T_, factor: CoeffLike) -> T_:
        if not isinstance(factor, PolyCoeff):
            factor = PolyCoeff.const(self.n, factor)
        return type(self)(self.n, self.degree, {b: factor * c for b, c in self.coeffs.items()})

    def __mul__(self: T_, factor) -> T_:
        if isinstance(factor, (int, Fraction, PolyCoeff)):
            return self.scale(factor)
        return NotImplemented

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        if type(self) is not type(other):
            return NotImplemented
        # Zero elements compare equal regardless of recorded degree; the
        # degree on a zero is error-message metadata only.
        return (
            self.n == other.n
            and self.coeffs == other.coeffs
            and (self.degree == other.degree or (self.is_zero() and other.is_zero()))
        )

    def wedge(self: T_, other: T_) -> T_:
        self._check_compatible(other)
        out_degree = self.degree + other.degree
        coeffs: dict[Blade, PolyCoeff] = {}
        for ba, ca in self.coeffs.items():
            for bb, cb in other.coeffs.items():
                merged = _merge_blades(ba, bb)
                if merged is None:
                    continue
                blade, sign = merged
                term = ca * cb if sign > 0 else -(ca * cb)
                acc = coeffs.get(blade)
                acc = term if acc is None else acc + term
                if acc.is_zero():
                    coeffs.pop(blade, None)
                else:
                    coeffs[blade] = acc
        if out_degree > 2 * self.n + 1:
            return self._from_clean(self.n, out_degree, {})
        return self._from_clean(self.n, out_degree, coeffs)

    def sorted_items(self) -> list[tuple[Blade, PolyCoeff]]:
        return sorted(self.coeffs.items(), key=lambda kv: kv[0])

    def __repr__(self) -> str:
        if self.is_zero():
            return f"{type(self).__name__}(n={self.n}, 0)"
        vector = isinstance(self, MultiVector)
        body = " + ".join(_term_text(self.n, blade, coeff, vector) for blade, coeff in self.sorted_items())
        return f"{type(self).__name__}(n={self.n}, {body})"


class Form(_GradedElement):
    """An alternating covector field with polynomial coefficients."""

    __slots__ = ()


class MultiVector(_GradedElement):
    """An alternating multivector field over the frame W_1..W_{2n+1}."""

    __slots__ = ()


def wedge(a: T_, b: T_) -> T_:
    return a.wedge(b)


_IntRow = tuple[int, tuple[int, ...], tuple[int, ...]]


def _int_row(entries: Sequence[tuple[int, Fraction | int]]) -> _IntRow:
    """(den, columns, int numerators) of a constant row given by its
    nonzero (column, value) entries: value = numerator / den."""
    columns, values = zip(*entries)
    den = lcm(*[v.denominator for v in values])
    return den, columns, tuple([v.numerator * (den // v.denominator) for v in values])


def _rows_times(n: int, rows: Iterable[_IntRow], vec: Sequence[PolyCoeff]) -> Iterator[PolyCoeff]:
    """The constant rows times a vector of polynomials, each entry one
    `PolyCoeff.combine`: the one place a constant matrix meets polynomials."""
    pick = vec.__getitem__
    for den, columns, nums in rows:
        yield PolyCoeff.combine(n, zip(nums, map(pick, columns)), den)


def dx(n: int, j: int = 1) -> Form:
    if not 1 <= j <= n:
        raise IndexError(f"dx index {j} out of range 1..{n}")
    return Form.from_blade(n, (j,))


def dy(n: int, j: int = 1) -> Form:
    if not 1 <= j <= n:
        raise IndexError(f"dy index {j} out of range 1..{n}")
    return Form.from_blade(n, (n + j,))


def contact_form(n: int) -> Form:
    return Form.from_blade(n, (theta_index(n),))


def d_contact_form(n: int) -> Form:
    """dtheta = -sum_j dx_j ^ dy_j."""
    coeffs = {(j, n + j): PolyCoeff.const(n, -1) for j in range(1, n + 1)}
    return Form(n, 2, coeffs)


_Front = tuple[int, Blade, int, int, int]
_DTable = tuple[tuple[_Front, ...], tuple[tuple[Blade, int], ...]]


@lru_cache(maxsize=None)
def _d_table(n: int, blade: Blade) -> _DTable:
    """Where d sends the terms of c . blade, as (fronts, tails).

    fronts holds one entry for every frame index i not in the blade:
    the coordinate position i - 1 of d_i, the merged blade and sign with
    theta_i ^ blade = sign . merged, and the position and sign of the
    twist variable, wtilde_i = +w_{n+i} (i <= n) or -w_{i-n} (n < i <= 2n),
    so that W_i = d_i - (1/2) wtilde_i d_t; T = d_t has no twist and
    twist position -1.  tails is empty unless the blade ends in theta;
    then it holds (merged blade, sign) for each rest ^ dx_j ^ dy_j that
    survives, where rest is the blade without theta, with the Koszul sign
    (-1)^|rest| of splitting theta off and the minus sign of
    dtheta = -sum_j dx_j ^ dy_j folded in.
    """
    width = 2 * n + 1
    fronts = []
    for i in range(1, width + 1):
        merged = _merge_blades((i,), blade)
        if merged is None:
            continue
        if i <= n:
            twist = (n + i - 1, 1)
        elif i <= 2 * n:
            twist = (i - n - 1, -1)
        else:
            twist = (-1, 0)
        fronts.append((i - 1, merged[0], merged[1]) + twist)
    tails = []
    if blade and blade[-1] == width:
        rest = blade[:-1]
        koszul = -1 if len(rest) % 2 else 1
        for j in range(1, n + 1):
            merged = _merge_blades(rest, (j, n + j))
            if merged is not None:
                tails.append((merged[0], -koszul * merged[1]))
    return tuple(fronts), tuple(tails)


def exterior_derivative(a: Form) -> Form:
    """The exterior derivative in the left-invariant coframe.

    d(c . blade) = sum_i (W_i c) theta_i ^ blade + c . d(blade), where the
    coframe satisfies d(dx_j) = d(dy_j) = 0 and d(theta) = dtheta, and
    W_i = d_i - (1/2) wtilde_i d_t.  Both sums are read off the cached
    per-blade plan `_d_table`, so no intermediate Form, wedge or
    polynomial is built: one pass over each coefficient's integer terms
    adds the d_i, twist and d(blade) contributions straight into one
    numerator dict per output blade.  All numerators share the
    denominator 2 lcm(input denominators); every rescaled input numerator
    is even there, so halving it for the twist stays an exact integer.
    Each output coefficient is reduced once, and zeros are dropped.
    """
    if not isinstance(a, Form):
        raise TypeError(f"exterior_derivative expects a Form, got {type(a).__name__}")
    n = a.n
    t_pos = 2 * n
    den = 2 * lcm(*(c.den for c in a.coeffs.values()))
    acc: dict[Blade, dict[tuple[int, ...], int]] = {}
    for blade, coeff in a.coeffs.items():
        fronts, tails = _d_table(n, blade)
        scale = den // coeff.den
        # (exps, numerator over den, exps with t lowered or None, d_t factor)
        terms = []
        for exps, c in coeff.num.items():
            c *= scale
            e_t = exps[t_pos]
            terms.append((exps, c, exps[:t_pos] + (e_t - 1,) if e_t else None, e_t * (c // 2)))
        for pos, merged, sign, tw_pos, tw_sign in fronts:
            out = acc.setdefault(merged, {})
            get = out.get
            twist = -sign * tw_sign
            for exps, c, dt_exps, half_dt in terms:
                e = exps[pos]
                if e:
                    key = exps[:pos] + (e - 1,) + exps[pos + 1:]
                    out[key] = get(key, 0) + sign * e * c
                if twist and dt_exps is not None:
                    key = dt_exps[:tw_pos] + (dt_exps[tw_pos] + 1,) + dt_exps[tw_pos + 1:]
                    out[key] = get(key, 0) + twist * half_dt
        for merged, sign in tails:
            out = acc.setdefault(merged, {})
            get = out.get
            for exps, c, _, _ in terms:
                out[exps] = get(exps, 0) + sign * c
    coeffs: dict[Blade, PolyCoeff] = {}
    for blade, out in acc.items():
        num = {exps: c for exps, c in out.items() if c}
        if num:
            coeffs[blade] = PolyCoeff._reduced(n, num, den)
    return Form._from_clean(n, a.degree + 1, coeffs)


def _complement(n: int, blade: Blade) -> tuple[Blade, int]:
    """Complementary blade and the Hodge sign (-1)^sigma.

    sigma counts the pairs (a, b) with a in the blade, b in the
    complement, and a > b; equivalently the inversions of the shuffle
    (blade, complement).
    """
    width = 2 * n + 1
    inside = set(blade)
    comp = tuple(i for i in range(1, width + 1) if i not in inside)
    sigma = sum(1 for a in blade for b in comp if a > b)
    return comp, (-1 if sigma % 2 else 1)


def hodge_star(v: MultiVector) -> MultiVector:
    """The Hodge star on multivectors: *V_I = (-1)^sigma(I) V_{I*}."""
    if not isinstance(v, MultiVector):
        raise TypeError(f"hodge_star expects a MultiVector, got {type(v).__name__}")
    n = v.n
    if not 0 <= v.degree <= 2 * n + 1:
        raise ValueError(f"hodge_star degree {v.degree} out of range 0..{2 * n + 1}")
    coeffs: dict[Blade, PolyCoeff] = {}
    for blade, coeff in v.coeffs.items():
        comp, sign = _complement(n, blade)
        coeffs[comp] = coeff if sign > 0 else -coeff
    return MultiVector(n, 2 * n + 1 - v.degree, coeffs)


def horizontal_gradient(f: PolyCoeff) -> MultiVector:
    """grad_H f = sum_j (X_j f) X_j + (Y_j f) Y_j; no T component."""
    n = f.n
    coeffs: dict[Blade, PolyCoeff] = {}
    for j in range(1, 2 * n + 1):
        c = frame_apply(j, f)
        if not c.is_zero():
            coeffs[(j,)] = c
    return MultiVector(n, 1, coeffs)


def _blade_dot(a: _GradedElement, b: _GradedElement) -> PolyCoeff:
    """Sum of coefficient products over shared blades (orthonormal blades)."""
    if a.n != b.n:
        raise ValueError(f"ambient dimension mismatch: n={a.n} vs n={b.n}")
    if a.degree != b.degree and not (a.is_zero() or b.is_zero()):
        raise ValueError(f"degree mismatch: {a.degree} vs {b.degree}")
    total = PolyCoeff.zero(a.n)
    for blade, coeff in a.coeffs.items():
        other = b.coeffs.get(blade)
        if other is not None:
            total = total + coeff * other
    return total


def pairing(omega: Form, v: MultiVector) -> PolyCoeff:
    """Duality pairing; coframe and frame blades are orthonormal."""
    if not isinstance(omega, Form) or not isinstance(v, MultiVector):
        raise TypeError("pairing expects (Form, MultiVector)")
    return _blade_dot(omega, v)


def inner(a: T_, b: T_) -> PolyCoeff:
    """Blade-orthonormal inner product of two like-graded elements."""
    if type(a) is not type(b):
        raise TypeError(f"cannot pair {type(a).__name__} with {type(b).__name__}")
    return _blade_dot(a, b)


@lru_cache(maxsize=None)
def _blade_tuple(n: int, k: int) -> tuple[Blade, ...]:
    """All degree-k blades over 1..2n+1, lexicographically sorted; cached."""
    if k < 0 or k > 2 * n + 1:
        return ()
    return tuple(combinations(range(1, 2 * n + 2), k))


def all_blades(n: int, k: int) -> list[Blade]:
    """All degree-k blades over 1..2n+1, lexicographically sorted, as a fresh list."""
    return list(_blade_tuple(n, k))


def blade_name(n: int, blade: Blade, vector: bool = False) -> str:
    """Human-readable blade label, e.g. dx1^dy2^theta or X1^Y2^T.

    For n = 1 the subscript is dropped, matching the usual H^1 notation.
    """
    if not blade:
        return "1"
    names = []
    for i in blade:
        if i <= n:
            base = "X" if vector else "dx"
            names.append(base if n == 1 else f"{base}{i}")
        elif i <= 2 * n:
            base = "Y" if vector else "dy"
            names.append(base if n == 1 else f"{base}{i - n}")
        else:
            names.append("T" if vector else "theta")
    return "^".join(names)


def _term_text(n: int, blade: Blade, coeff: PolyCoeff, vector: bool = False) -> str:
    """One term as "(coeff) blade"; on the empty blade just "(coeff)"."""
    text = f"({coeff.to_text()})"
    return f"{text} {blade_name(n, blade, vector)}" if blade else text


def form_to_json(a: Form) -> dict:
    """JSON-ready dict: blades sorted, coefficients in text form."""
    return {
        "n": a.n,
        "degree": a.degree,
        "terms": [
            {"blade": list(blade), "coeff": coeff.to_text()}
            for blade, coeff in a.sorted_items()
        ],
    }


def form_from_json(data: Mapping) -> Form:
    n = int(data["n"])
    degree = int(data["degree"])
    coeffs: dict[Blade, PolyCoeff] = {}
    for term in data["terms"]:
        blade = tuple(int(i) for i in term["blade"])
        coeffs[blade] = PolyCoeff.from_text(n, term["coeff"])
    return Form(n, degree, coeffs)
