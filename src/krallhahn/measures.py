"""Finitely supported signed measures on the rationals.

Measures here are formal: masses may be negative (parameters outside the
classical positivity range still give valid orthogonality functionals), and
families are routinely stored modulo a global nonzero constant, so comparisons
up to constant and up to sign are first-class operations.

Inner products are taken in the evaluation domain on integers.  A measure
derives its integer form once (:attr:`DiscreteMeasure.integer_form`): the
support points as integers P_i over one point denominator e, and the masses
as integers M_i over one mass denominator D.  A polynomial sum_k c_k x^k / d
of degree n has the integer value vector V_i = sum_k c_k P_i^k e^(n-k), by
integer Horner, and its value at point i is V_i / (d e^n).  Integrals, the
Gram table, Gram-Schmidt and the criteria moments are integer dot products of
(M o V) with value vectors, never polynomial products, and a ``Fraction`` is
formed only once per result.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import mul
from typing import Mapping, NamedTuple, Sequence

from .errors import DegenerateMoments
from .polynomials import Polynomial, Scalar
from .rationals import clear_denominators


class IntegerForm(NamedTuple):
    """A measure's atoms as integers over two common denominators.

    The atom at points[i] / point_denominator has mass
    masses[i] / mass_denominator, in support order; both denominators are
    positive and are the lcm of the reduced ones.
    """

    points: tuple[int, ...]
    point_denominator: int
    masses: tuple[int, ...]
    mass_denominator: int

    @classmethod
    def of(cls, points: Sequence[Fraction], masses: Sequence[Fraction]) -> "IntegerForm":
        integer_points, e = clear_denominators(points)
        integer_masses, d = clear_denominators(masses)
        return cls(tuple(integer_points), e, tuple(integer_masses), d)

    def evaluate(self, p: Polynomial) -> tuple[list[int], int]:
        """(V, s): p's value at support point i is V[i] / s, with s = d e^n."""
        nums, den = p.integer_parts
        if not nums:
            return [0] * len(self.points), 1
        e, n = self.point_denominator, len(nums) - 1
        if e != 1:
            # c_k e^(n-k), so that Horner on the integer points P_i is exact
            scaled, ek = list(nums), 1
            for k in range(n - 1, -1, -1):
                ek *= e
                scaled[k] *= ek
            nums, den = scaled, den * ek
        top = nums[-1]
        acc = [top] * len(self.points)
        for c in nums[-2::-1]:
            acc = [v * pt + c for v, pt in zip(acc, self.points)]
        return acc, den

    def weighted(self, values: Sequence[int]) -> list[int]:
        """M o V: the integer value vector times the integer masses."""
        return list(map(mul, self.masses, values))

    def pair(self, u: Sequence[int], su: int, v: Sequence[int], sv: int) -> Fraction:
        """The weighted dot product of the value vectors u / su and v / sv."""
        return Fraction(sum(map(mul, self.weighted(u), v)), self.mass_denominator * su * sv)


class DiscreteMeasure:
    """Finite atom -> mass map; zero-mass atoms are dropped on construction."""

    __slots__ = ("atoms", "_points", "_integer_form")

    def __init__(self, atoms: Mapping[Scalar, Scalar]) -> None:
        cleaned: dict[Fraction, Fraction] = {}
        for point, mass in atoms.items():
            mass = Fraction(mass)
            if mass != 0:
                cleaned[Fraction(point)] = mass
        object.__setattr__(self, "atoms", cleaned)
        object.__setattr__(self, "_points", tuple(sorted(cleaned)))
        object.__setattr__(self, "_integer_form", None)

    @property
    def support(self) -> list[Fraction]:
        return list(self._points)

    @property
    def size(self) -> int:
        return len(self.atoms)

    @property
    def integer_form(self) -> IntegerForm:
        """The atoms as integers over one point and one mass denominator,
        derived on first use and kept by the measure."""
        form = self._integer_form
        if form is None:
            form = IntegerForm.of(self._points, [self.atoms[pt] for pt in self._points])
            object.__setattr__(self, "_integer_form", form)
        return form

    def mass(self, point: Scalar) -> Fraction:
        return self.atoms.get(Fraction(point), Fraction(0))

    def integrate(self, p: Polynomial) -> Fraction:
        form = self.integer_form
        values, scale = form.evaluate(p)
        return Fraction(sum(map(mul, form.masses, values)), form.mass_denominator * scale)

    def inner_product(self, p: Polynomial, q: Polynomial) -> Fraction:
        form = self.integer_form
        return form.pair(*form.evaluate(p), *form.evaluate(q))

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
    with the coefficient <x^k, g_j> / <g_j, g_j>.  This is the independent
    oracle that the determinantal construction is compared against, so it
    must not share any machinery with it.

    Each candidate is an integer coefficient list C and an integer value
    vector W over one shared integer denominator t: the candidate is C / t,
    and its value at support point i is W[i] / (t e^k).  Every pairing is an
    integer dot product with the masses, each update is integer, and C, W
    and t are divided by their common gcd after it, keeping t positive, so no
    polynomial product and no ``Fraction`` is ever formed.
    """
    form = measure.integer_form
    points, e = form.points, form.point_denominator
    power = [1] * len(points)  # P_i^k: the value vector of x^k
    basis: list[Polynomial] = []
    # per earlier g_j: (C_j, W_j, M o W_j, N_j), with <g_j, g_j> = N_j / (D t_j^2 e^(2j))
    done: list[tuple[list[int], list[int], list[int], int]] = []
    for k in range(up_to + 1):
        if k:
            power = list(map(mul, power, points))
        coeffs, values, den = [0] * k + [1], power, 1
        for j, (c_j, w_j, mw_j, norm_j) in enumerate(done):
            # with a = sum_i M_i P_i^k W_j[i] and b = e^(k-j) N_j, the coefficient
            # <x^k, g_j> / <g_j, g_j> is a t_j / b, so the update is
            # C/t - (a t_j / b) C_j/t_j = (C b - a t C_j) / (t b)
            a = sum(map(mul, power, mw_j))
            if a == 0:
                continue
            ekj = e ** (k - j)
            u, b = a * den, ekj * norm_j
            g = gcd(u, b)
            u, b = u // g, b // g
            coeffs = [c * b for c in coeffs]
            for i, c in enumerate(c_j):
                coeffs[i] -= u * c
            u *= ekj
            values = [v * b - u * w for v, w in zip(values, w_j)]
            den *= b
            g = gcd(den, *coeffs, *values)
            if den < 0:
                g = -g
            if g != 1:
                coeffs = [c // g for c in coeffs]
                values = [v // g for v in values]
                den //= g
        weighted = form.weighted(values)
        norm = sum(map(mul, values, weighted))
        if norm == 0 and k < up_to:
            raise DegenerateMoments(k)
        basis.append(Polynomial.from_integer_parts(coeffs, den))
        done.append((coeffs, values, weighted, norm))
    return basis


def orthogonality_table(
    measure: DiscreteMeasure, polys: list[Polynomial]
) -> dict[tuple[int, int], Fraction]:
    """All pairwise inner products <p_i, p_j> for i <= j.

    Each polynomial is evaluated once on the support as an integer value
    vector V_i over its scale s_i; entry (i, j) is the integer dot product of
    (M o V_i) with V_j over D s_i s_j, one ``Fraction`` per entry.
    """
    form = measure.integer_form
    evaluated = [form.evaluate(p) for p in polys]
    table: dict[tuple[int, int], Fraction] = {}
    for i, (u, su) in enumerate(evaluated):
        weighted = form.weighted(u)
        scale = form.mass_denominator * su
        for j in range(i, len(evaluated)):
            v, sv = evaluated[j]
            table[(i, j)] = Fraction(sum(map(mul, weighted, v)), scale * sv)
    return table
