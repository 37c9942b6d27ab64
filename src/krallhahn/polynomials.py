"""Dense univariate polynomials over the rationals.

A :class:`Polynomial` is an immutable tuple of ``Fraction`` coefficients in
increasing degree order with no trailing zeros; the zero polynomial is the
empty tuple and reports degree ``-1``.  All arithmetic is exact.  No floating
point enters anywhere.  The few rational functions the construction needs
(ladder ratios, recurrence coefficients, the mixing sums) are plain
(numerator, denominator) pairs reduced by :func:`lowest_terms`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Sequence, Union

from .errors import NonExactDivision
from .rationals import as_rational, format_rational

Scalar = Union[int, Fraction]


def _frac(value: Scalar) -> Fraction:
    return value if isinstance(value, Fraction) else Fraction(value)


class Polynomial:
    """Univariate polynomial with exact rational coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()) -> None:
        cs = [_frac(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    # -- construction helpers ------------------------------------------------

    @classmethod
    def zero(cls) -> "Polynomial":
        return _ZERO

    @classmethod
    def one(cls) -> "Polynomial":
        return _ONE

    @classmethod
    def constant(cls, c: Scalar) -> "Polynomial":
        return cls((c,))

    @classmethod
    def variable(cls) -> "Polynomial":
        """The monomial x."""
        return _X

    @classmethod
    def monomial(cls, degree: int, coeff: Scalar = 1) -> "Polynomial":
        c = _frac(coeff)
        if c == 0:
            return _ZERO
        return cls((0,) * degree + (c,))

    # -- basic queries -------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial mapped to -1."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading_coefficient(self) -> Fraction:
        if not self.coeffs:
            return Fraction(0)
        return self.coeffs[-1]

    def coefficient(self, k: int) -> Fraction:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "Polynomial | Scalar") -> "Polynomial":
        other = _promote(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "Polynomial | Scalar") -> "Polynomial":
        other = _promote(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: Scalar) -> "Polynomial":
        return (-self) + other

    def __mul__(self, other: "Polynomial | Scalar") -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            c = _frac(other)
            if c == 0:
                return _ZERO
            return Polynomial(tuple(c * a for a in self.coeffs))
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return _ZERO
        a, b = self.coeffs, other.coeffs
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai == 0:
                continue
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
        return Polynomial(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = _ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __truediv__(self, other: "Polynomial | Scalar") -> "Polynomial":
        """Division by a scalar, or the exact quotient by a polynomial.

        A polynomial divisor that leaves a remainder raises
        :class:`NonExactDivision`.
        """
        if isinstance(other, Polynomial):
            return self.divide_exact(other)
        c = _frac(other)
        return Polynomial(tuple(a / c for a in self.coeffs))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Polynomial((other,))
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.coeffs)

    # -- evaluation and substitution ------------------------------------------

    def __call__(self, point: Scalar) -> Fraction:
        """Evaluate by Horner's rule."""
        x = _frac(point)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def compose(self, inner: "Polynomial") -> "Polynomial":
        """self(inner(x)), by Horner over polynomials."""
        acc = _ZERO
        for c in reversed(self.coeffs):
            acc = acc * inner + Polynomial.constant(c)
        return acc

    def shift_argument(self, c: Scalar) -> "Polynomial":
        """p(x + c) for a rational shift c, by a Taylor shift."""
        c = _frac(c)
        if c == 0 or self.is_zero:
            return self
        return Polynomial(taylor_shift(self.coeffs, c))

    def reflect_argument(self) -> "Polynomial":
        """p(-x)."""
        return Polynomial(tuple(-c if k & 1 else c for k, c in enumerate(self.coeffs)))

    # -- division ------------------------------------------------------------

    def divmod(self, divisor: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        if divisor.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        if self.degree < divisor.degree:
            return _ZERO, self
        rem = list(self.coeffs)
        dcoeffs = divisor.coeffs
        dlead = dcoeffs[-1]
        dn = len(dcoeffs)
        quo = [Fraction(0)] * (len(rem) - dn + 1)
        for k in range(len(quo) - 1, -1, -1):
            c = rem[k + dn - 1] / dlead
            if c == 0:
                continue
            quo[k] = c
            for i, d in enumerate(dcoeffs):
                rem[k + i] -= c * d
        return Polynomial(quo), Polynomial(rem)

    def divide_exact(self, divisor: "Polynomial") -> "Polynomial":
        """Quotient when the division is exact; raises otherwise."""
        quo, rem = self.divmod(divisor)
        if not rem.is_zero:
            raise NonExactDivision(
                f"division left remainder of degree {rem.degree}", remainder=rem
            )
        return quo

    def monic(self) -> "Polynomial":
        if self.is_zero:
            return self
        return self / self.leading_coefficient

    # -- serialisation ---------------------------------------------------------

    def to_strings(self) -> list[str]:
        """Coefficient list, constant term first, as ``"p/q"`` strings."""
        return [format_rational(c) for c in self.coeffs]

    @classmethod
    def from_strings(cls, items: Sequence[str]) -> "Polynomial":
        return cls(tuple(as_rational(s) for s in items))

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts: list[str] = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            mag = format_rational(abs(c))
            if k == 0:
                term = mag
            else:
                xk = "x" if k == 1 else f"x^{k}"
                term = xk if abs(c) == 1 else f"{mag}*{xk}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Polynomial({self})"


_ZERO = Polynomial.__new__(Polynomial)
object.__setattr__(_ZERO, "coeffs", ())
_ONE = Polynomial((1,))
_X = Polynomial((0, 1))


def _promote(value: "Polynomial | Scalar") -> Polynomial:
    if isinstance(value, Polynomial):
        return value
    if isinstance(value, (int, Fraction)):
        return Polynomial((value,))
    return NotImplemented


def taylor_shift(coeffs: Sequence, shift):
    """Coefficients of f(x + shift), given f's coefficients constant term first.

    Ring-generic: ``int`` coefficients and shift stay integers, ``Fraction``
    ones stay rational.  Quadratic in the length, with no polynomial products.
    """
    out = list(coeffs)
    for i in range(len(out) - 1):
        for j in range(len(out) - 2, i - 1, -1):
            out[j] += shift * out[j + 1]
    return out


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic greatest common divisor (Euclid over the rationals)."""
    while not b.is_zero:
        a, b = b, a.divmod(b)[1]
    return a.monic()


def lowest_terms(numer: Polynomial, denom: Polynomial) -> tuple[Polynomial, Polynomial]:
    """The quotient numer / denom as a coprime pair with monic denominator.

    A zero numerator gives (0, 1).  The value at a point t is
    numer(t) / denom(t); the parts are coprime, so a zero of the denominator
    is a genuine pole and that division raises ``ZeroDivisionError``.
    """
    if denom.is_zero:
        raise ZeroDivisionError("rational function with zero denominator")
    if numer.is_zero:
        return _ZERO, _ONE
    g = poly_gcd(numer, denom)
    if g.degree > 0:
        numer = numer.divide_exact(g)
        denom = denom.divide_exact(g)
    lead = denom.leading_coefficient
    if lead != 1:
        numer, denom = numer / lead, denom / lead
    return numer, denom


def pochhammer(base, length: int):
    """Rising factorial base*(base+1)*...*(base+length-1).

    Works the same for Fraction or Polynomial arguments and returns 1 of the
    matching kind when ``length`` is 0.
    """
    if length < 0:
        raise ValueError("pochhammer length must be nonnegative")
    if isinstance(base, int):
        base = Fraction(base)
    if isinstance(base, Fraction):
        acc = Fraction(1)
    elif isinstance(base, Polynomial):
        acc = Polynomial.one()
    else:
        raise TypeError(f"unsupported pochhammer base {type(base).__name__}")
    for i in range(length):
        acc = acc * (base + i)
    return acc


def falling_factorial(base, length: int):
    """base*(base-1)*...*(base-length+1)."""
    if isinstance(base, int):
        base = Fraction(base)
    acc = pochhammer(-base, length)
    return acc if length % 2 == 0 else -acc


def antidifference(p: Polynomial) -> Polynomial:
    """The polynomial q with q(x) - q(x-1) = p(x) and q(-1) = 0.

    Peel the top coefficient each round: the difference of c*x^(d+1) has
    degree d with leading coefficient c*(d+1), so the residual degree drops.
    """
    q = Polynomial.zero()
    residual = p
    while not residual.is_zero:
        d = residual.degree
        mono = Polynomial.monomial(d + 1, residual.leading_coefficient / (d + 1))
        q = q + mono
        residual = residual - (mono - mono.shift_argument(-1))
    return q - Polynomial.constant(q(Fraction(-1)))
