"""Difference operators with polynomial coefficients.

An operator is a finite sum of shift terms h_l(x) * S_l where S_l moves the
argument by the integer l, i.e. (S_l f)(x) = f(x + l).  Acting on polynomials
this stays exact.  Composition follows from S_l h(x) = h(x + l) S_l.

Whether D f = lambda f is decided by :func:`eigen_certificate` from values
at integer points, on integers; :meth:`DifferenceOperator.apply` builds the
polynomial D f and is the slow reference.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping

from .errors import ZeroOperatorError
from .polynomials import Polynomial, Scalar, horner
from .rationals import Rational, as_rational, exact_rational


class DifferenceOperator:
    """Finite linear combination of integer shifts with polynomial coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[int, Polynomial]) -> None:
        cleaned: dict[int, Polynomial] = {}
        for offset in sorted(terms):
            coeff = terms[offset]
            if not isinstance(coeff, Polynomial):
                coeff = Polynomial.constant(coeff)
            if not coeff.is_zero:
                cleaned[int(offset)] = coeff
        object.__setattr__(self, "terms", cleaned)

    # -- constructors ----------------------------------------------------------

    @classmethod
    def zero(cls) -> "DifferenceOperator":
        return cls({})

    @classmethod
    def identity(cls) -> "DifferenceOperator":
        return cls({0: Polynomial.one()})

    @classmethod
    def shift(cls, offset: int, coeff: Polynomial | Scalar = 1) -> "DifferenceOperator":
        coeff = coeff if isinstance(coeff, Polynomial) else Polynomial.constant(coeff)
        return cls({offset: coeff})

    @classmethod
    def forward_difference(cls) -> "DifferenceOperator":
        """S_1 - S_0."""
        return cls({1: Polynomial.one(), 0: -Polynomial.one()})

    @classmethod
    def backward_difference(cls) -> "DifferenceOperator":
        """S_0 - S_{-1}."""
        return cls({0: Polynomial.one(), -1: -Polynomial.one()})

    # -- structure ---------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def genre(self) -> tuple[int, int]:
        """Smallest and largest shift present; undefined for the zero operator."""
        if not self.terms:
            raise ZeroOperatorError("zero operator has no genre")
        offsets = self.terms.keys()
        return min(offsets), max(offsets)

    @property
    def order(self) -> int:
        lo, hi = self.genre
        return hi - lo

    def coefficient(self, offset: int) -> Polynomial:
        return self.terms.get(offset, Polynomial.zero())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DifferenceOperator):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(tuple(sorted(self.terms.items())))

    # -- algebra ---------------------------------------------------------------

    def __add__(self, other: "DifferenceOperator") -> "DifferenceOperator":
        if not isinstance(other, DifferenceOperator):
            return NotImplemented
        merged = dict(self.terms)
        for offset, coeff in other.terms.items():
            merged[offset] = merged.get(offset, Polynomial.zero()) + coeff
        return DifferenceOperator(merged)

    def __neg__(self) -> "DifferenceOperator":
        return DifferenceOperator({l: -c for l, c in self.terms.items()})

    def __sub__(self, other: "DifferenceOperator") -> "DifferenceOperator":
        if not isinstance(other, DifferenceOperator):
            return NotImplemented
        return self + (-other)

    def scale(self, factor: Polynomial | Scalar) -> "DifferenceOperator":
        """Left multiplication by a polynomial (or scalar) in x."""
        factor = factor if isinstance(factor, Polynomial) else Polynomial.constant(factor)
        return DifferenceOperator({l: factor * c for l, c in self.terms.items()})

    def __mul__(self, factor: Scalar) -> "DifferenceOperator":
        if not isinstance(factor, (int, Fraction)):
            return NotImplemented
        return self.scale(factor)

    __rmul__ = __mul__

    def compose(self, other: "DifferenceOperator") -> "DifferenceOperator":
        """Operator product: (self o other)(f) = self(other(f))."""
        out: dict[int, Polynomial] = {}
        for l, h in self.terms.items():
            for k, g in other.terms.items():
                contrib = h * g.shift_argument(l)
                key = l + k
                out[key] = out.get(key, Polynomial.zero()) + contrib
        return DifferenceOperator(out)

    def apply(self, f: Polynomial) -> Polynomial:
        """D f as a polynomial, one Taylor shift and one product per term; see
        :func:`eigen_certificate` to decide D f = lambda f without building it."""
        acc = Polynomial.zero()
        for l, h in self.terms.items():
            acc = acc + h * f.shift_argument(l)
        return acc

    def translate(self, offset) -> "DifferenceOperator":
        """Conjugate by argument translation: if self(f) = g then the result
        maps f(x - offset) to g(x - offset)."""
        offset = as_rational(offset)
        return DifferenceOperator(
            {l: c.shift_argument(-offset) for l, c in self.terms.items()}
        )

    # -- serialisation -----------------------------------------------------------

    def __repr__(self) -> str:
        if not self.terms:
            return "DifferenceOperator(0)"
        parts = [f"S_{l}: {c!r}" for l, c in sorted(self.terms.items())]
        return "DifferenceOperator({" + ", ".join(parts) + "})"


def operator_polynomial(poly: Polynomial, base: DifferenceOperator) -> DifferenceOperator:
    """poly(base), with base**0 the identity operator (Horner)."""
    acc = DifferenceOperator.zero()
    for c in reversed(poly.coeffs):
        acc = acc.compose(base) + DifferenceOperator.identity().scale(c)
    return acc


def eigen_certificate(
    op: DifferenceOperator, pairs: Iterable[tuple[Polynomial, Rational]]
) -> list[bool]:
    """For each (f, lambda), whether op.apply(f) == lambda * f.

    The residual sum_l h_l(x) f(x + l) - lambda f(x) has degree at most
    d = deg f + max_l deg h_l, and a nonzero polynomial of degree d has at
    most d roots, so it is zero iff it vanishes at x = 0..d.  With every h_l
    = H_l / L over the lcm L of their denominators, f = F / e and lambda =
    num / den, the residual vanishes at x iff
    den * sum_l H_l(x) F(x + l) == num * L * F(x), on integers: each H_l is
    evaluated once per point for all pairs, and each F once per point from
    min(lo, 0) to d + max(hi, 0), with (lo, hi) the genre.  The zero operator
    has no terms, so its sum is 0 and the residual is -lambda f.  A float
    lambda raises ``TypeError``.
    """
    pairs = [(f.integer_parts[0], exact_rational(lam)) for f, lam in pairs]
    common = lcm(*(h.integer_parts[1] for h in op.terms.values()))
    lo, hi = min((0, *op.terms)), max((0, *op.terms))
    coeff_degree = max((h.degree for h in op.terms.values()), default=0)
    points = max((len(nums) + coeff_degree for nums, _ in pairs), default=0)
    terms = []  # (l - lo, [H_l(x) for x in 0..points - 1])
    for l, h in op.terms.items():
        nums, den = h.integer_parts
        scaled = [c * (common // den) for c in nums]
        terms.append((l - lo, [horner(scaled, x) for x in range(points)]))
    verdicts = []
    for nums, lam in pairs:
        last = len(nums) - 1 + coeff_degree
        at = [horner(nums, y) for y in range(lo, last + hi + 1)]  # at[y - lo] = F(y)
        scale = lam.numerator * common
        verdicts.append(
            all(
                lam.denominator * sum(values[x] * at[x + k] for k, values in terms)
                == scale * at[x - lo]
                for x in range(last + 1)
            )
        )
    return verdicts
