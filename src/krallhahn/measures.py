"""Finitely supported signed measures on the rationals.

Measures here are formal: masses may be negative (parameters outside the
classical positivity range still give valid orthogonality functionals), and
families are routinely stored modulo a global nonzero constant, so comparisons
up to constant and up to sign are first-class operations.

Inner products are taken in the evaluation domain: a polynomial is evaluated
once on the support, giving its value vector in support order, and pairings
are weighted dot products of value vectors, never polynomial products.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from .errors import DegenerateMoments
from .polynomials import Polynomial, Scalar


class DiscreteMeasure:
    """Finite atom -> mass map; zero-mass atoms are dropped on construction."""

    __slots__ = ("atoms", "_points", "_masses")

    def __init__(self, atoms: Mapping[Scalar, Scalar]) -> None:
        cleaned: dict[Fraction, Fraction] = {}
        for point, mass in atoms.items():
            mass = Fraction(mass)
            if mass != 0:
                cleaned[Fraction(point)] = mass
        object.__setattr__(self, "atoms", cleaned)
        points = tuple(sorted(cleaned))
        object.__setattr__(self, "_points", points)
        object.__setattr__(self, "_masses", tuple(cleaned[pt] for pt in points))

    @property
    def support(self) -> list[Fraction]:
        return list(self._points)

    @property
    def size(self) -> int:
        return len(self.atoms)

    def mass(self, point: Scalar) -> Fraction:
        return self.atoms.get(Fraction(point), Fraction(0))

    def total_mass(self) -> Fraction:
        return sum(self.atoms.values(), Fraction(0))

    def integrate(self, p: Polynomial) -> Fraction:
        return sum((m * p(pt) for pt, m in self.atoms.items()), Fraction(0))

    def values(self, p: Polynomial) -> tuple[Fraction, ...]:
        """The value vector of p: its value at each support point, in support order."""
        return tuple(p(pt) for pt in self._points)

    def dot(self, u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
        """Weighted dot product of two value vectors: the sum of mass * u * v."""
        return sum((m * x * y for m, x, y in zip(self._masses, u, v)), Fraction(0))

    def inner_product(self, p: Polynomial, q: Polynomial) -> Fraction:
        return self.dot(self.values(p), self.values(q))

    def moments(self, up_to: int) -> list[Fraction]:
        """Power moments of degree 0..up_to."""
        out = []
        for k in range(up_to + 1):
            out.append(self.integrate(Polynomial.monomial(k)))
        return out

    def translate(self, offset: Scalar) -> "DiscreteMeasure":
        """Push every atom from pt to pt + offset."""
        c = Fraction(offset)
        return DiscreteMeasure({pt + c: m for pt, m in self.atoms.items()})

    def scale(self, factor: Scalar) -> "DiscreteMeasure":
        f = Fraction(factor)
        return DiscreteMeasure({pt: f * m for pt, m in self.atoms.items()})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiscreteMeasure):
            return NotImplemented
        return self.atoms == other.atoms

    def __hash__(self) -> int:
        return hash(tuple(sorted(self.atoms.items())))

    def __repr__(self) -> str:
        inner = ", ".join(f"{pt}: {m}" for pt, m in sorted(self.atoms.items()))
        return f"DiscreteMeasure({{{inner}}})"


def christoffel(measure: DiscreteMeasure, factor: Polynomial) -> DiscreteMeasure:
    """Multiply the measure by a polynomial density (Christoffel transform).

    Atoms where the factor vanishes disappear from the support.
    """
    return DiscreteMeasure({pt: m * factor(pt) for pt, m in measure.atoms.items()})


def proportionality_constant(
    left: DiscreteMeasure, right: DiscreteMeasure
) -> Fraction | None:
    """The constant c with left = c * right, or ``None`` when there is none.

    Zero measures are proportional only to each other (with c = 1).
    """
    if not right.atoms:
        return Fraction(1) if not left.atoms else None
    if set(left.atoms) != set(right.atoms):
        return None
    pt = next(iter(right.atoms))
    c = left.atoms[pt] / right.atoms[pt]
    for point, mass in right.atoms.items():
        if left.atoms[point] != c * mass:
            return None
    return c


def equal_up_to_sign(left: DiscreteMeasure, right: DiscreteMeasure) -> bool:
    c = proportionality_constant(left, right)
    return c is not None and (c == 1 or c == -1)


def gram_schmidt(measure: DiscreteMeasure, up_to: int) -> list[Polynomial]:
    """Monic orthogonal polynomials of degree 0..up_to by full projection.

    Deliberately naive: x^k is projected against every earlier polynomial g_j
    with the coefficient <x^k, g_j> / <g_j, g_j>.  The pairings are dot
    products of value vectors on the support; each g_j's values are updated
    alongside its coefficients, so no polynomial product is ever formed.
    This is the independent oracle that the determinantal construction is
    compared against, so it must not share any machinery with it.
    """
    points = measure._points
    power = tuple(Fraction(1) for _ in points)  # the value vector of x^k
    basis: list[Polynomial] = []
    basis_values: list[tuple[Fraction, ...]] = []
    norms: list[Fraction] = []
    for k in range(up_to + 1):
        if k:
            power = tuple(v * x for v, x in zip(power, points))
        candidate = Polynomial.monomial(k)
        values = power
        for p, p_values, norm in zip(basis, basis_values, norms):
            coeff = measure.dot(power, p_values) / norm
            if coeff != 0:
                candidate = candidate - coeff * p
                values = tuple(v - coeff * w for v, w in zip(values, p_values))
        norm = measure.dot(values, values)
        if norm == 0 and k < up_to:
            raise DegenerateMoments(k)
        basis.append(candidate)
        basis_values.append(values)
        norms.append(norm)
    return basis


def orthogonality_table(
    measure: DiscreteMeasure, polys: list[Polynomial]
) -> dict[tuple[int, int], Fraction]:
    """All pairwise inner products <p_i, p_j> for i <= j.

    Each polynomial is evaluated once on the support; the table is the n^2/2
    weighted dot products of those value vectors.
    """
    values = [measure.values(p) for p in polys]
    table: dict[tuple[int, int], Fraction] = {}
    for i, u in enumerate(values):
        for j in range(i, len(values)):
            table[(i, j)] = measure.dot(u, values[j])
    return table
