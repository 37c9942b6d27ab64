"""Finitely supported signed measures on the rationals.

Measures here are formal: masses may be negative (parameters outside the
classical positivity range still give valid orthogonality functionals), and
families are routinely stored modulo a global nonzero constant, so comparisons
up to constant and up to sign are first-class operations.

A :class:`DiscreteMeasure` stores integers only: its support points P_i in
increasing order over one point denominator e, and its masses M_i over one
mass denominator D.  The form is canonical (zero masses dropped, e, D > 0,
each side divided by its gcd), so ``==`` and ``hash`` read the parts;
``atoms``, ``support`` and ``mass`` are ``Fraction`` views built on request.

Translation, scaling, Christoffel transforms and proportionality work on the
parts.  A polynomial sum_k c_k x^k / d of degree n has the integer value
vector V_i = sum_k c_k P_i^k e^(n-k), by integer Horner, and its value at
point i is V_i / (d e^n).  Integrals, the Gram table, Gram-Schmidt and the
criteria moments are integer dot products of (M o V) with value vectors,
never polynomial products, and a ``Fraction`` is formed only once per result.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import gcd
from operator import mul
from typing import Mapping, Sequence

from .errors import DegenerateMoments
from .polynomials import Polynomial, Scalar
from .rationals import as_rational, clear_denominators


class DiscreteMeasure:
    """Finite atom -> mass map: the atom at points[i] / point_denominator, in
    increasing order, has mass masses[i] / mass_denominator; none is zero."""

    __slots__ = ("points", "point_denominator", "masses", "mass_denominator")

    def __init__(self, atoms: Mapping[Scalar, Scalar]) -> None:
        cleaned = {as_rational(pt): as_rational(m) for pt, m in atoms.items()}
        support = sorted(cleaned)
        masses = [cleaned[pt] for pt in support]
        canonical = _measure(*clear_denominators(support), *clear_denominators(masses))
        self.points, self.point_denominator, self.masses, self.mass_denominator = canonical.parts

    @property
    def parts(self) -> tuple[tuple[int, ...], int, tuple[int, ...], int]:
        """(points, point_denominator, masses, mass_denominator)."""
        return self.points, self.point_denominator, self.masses, self.mass_denominator

    @property
    def support(self) -> list[Fraction]:
        """The support points in increasing order; built on each access."""
        e = self.point_denominator
        return [Fraction(p, e) for p in self.points]

    @property
    def atoms(self) -> dict[Fraction, Fraction]:
        """point -> mass in increasing order of the points; built on each access."""
        d = self.mass_denominator
        return {pt: Fraction(m, d) for pt, m in zip(self.support, self.masses)}

    @property
    def size(self) -> int:
        return len(self.points)

    def mass(self, point: Scalar) -> Fraction:
        target = as_rational(point) * self.point_denominator
        i = bisect_left(self.points, target)
        if i < len(self.points) and self.points[i] == target:
            return Fraction(self.masses[i], self.mass_denominator)
        return Fraction(0)

    def evaluate(self, p: Polynomial) -> tuple[list[int], int]:
        """(V, s): p's value at support point i is V[i] / s, with s = d e^n > 0."""
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

    def integrate(self, p: Polynomial) -> Fraction:
        values, scale = self.evaluate(p)
        return Fraction(sum(map(mul, self.masses, values)), self.mass_denominator * scale)

    def inner_product(self, p: Polynomial, q: Polynomial) -> Fraction:
        (u, su), (v, sv) = self.evaluate(p), self.evaluate(q)
        return Fraction(sum(map(mul, self.weighted(u), v)), self.mass_denominator * su * sv)

    def moments(self, up_to: int) -> list[Fraction]:
        """Power moments of degree 0..up_to."""
        return [self.integrate(Polynomial.monomial(k)) for k in range(up_to + 1)]

    def translate(self, offset: Scalar) -> "DiscreteMeasure":
        """Push every atom from pt to pt + offset."""
        c = as_rational(offset)
        q, e = c.denominator, self.point_denominator
        shift = c.numerator * e
        points = [pt * q + shift for pt in self.points]
        g = gcd(e * q, *points)
        # the masses do not move, so they stay canonical as they are
        return _wrap(tuple(p // g for p in points), e * q // g, self.masses, self.mass_denominator)

    def scale(self, factor: Scalar) -> "DiscreteMeasure":
        f = as_rational(factor)
        masses = [m * f.numerator for m in self.masses]
        return _measure(self.points, self.point_denominator, masses,
                        self.mass_denominator * f.denominator)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiscreteMeasure):
            return NotImplemented
        return self.parts == other.parts

    def __hash__(self) -> int:
        return hash(self.parts)

    def __repr__(self) -> str:
        inner = ", ".join(f"{pt}: {m}" for pt, m in self.atoms.items())
        return f"DiscreteMeasure({{{inner}}})"


def _measure(points: Sequence[int], e: int, masses: Sequence[int], d: int) -> DiscreteMeasure:
    """The canonical measure with atoms points[i] / e of mass masses[i] / d,
    for increasing points and e, d > 0."""
    if 0 in masses:
        kept = [i for i, m in enumerate(masses) if m]
        points, masses = [points[i] for i in kept], [masses[i] for i in kept]
    g, h = gcd(e, *points), gcd(d, *masses)
    return _wrap(tuple(p // g for p in points), e // g, tuple(m // h for m in masses), d // h)


def _wrap(points: tuple[int, ...], e: int, masses: tuple[int, ...], d: int) -> DiscreteMeasure:
    """A measure from parts that are already canonical."""
    measure = object.__new__(DiscreteMeasure)
    measure.points, measure.point_denominator = points, e
    measure.masses, measure.mass_denominator = masses, d
    return measure


def christoffel(measure: DiscreteMeasure, factor: Polynomial) -> DiscreteMeasure:
    """Multiply the measure by a polynomial density (Christoffel transform).

    Atoms where the factor vanishes disappear from the support.
    """
    values, scale = measure.evaluate(factor)
    return _measure(measure.points, measure.point_denominator,
                    measure.weighted(values), measure.mass_denominator * scale)


def proportionality_constant(
    left: DiscreteMeasure, right: DiscreteMeasure
) -> Fraction | None:
    """The constant c with left = c * right, or ``None`` when there is none.

    Zero measures are proportional only to each other (with c = 1); others
    when their points agree and every L_i R_0 equals L_0 R_i.
    """
    if left.points != right.points or left.point_denominator != right.point_denominator:
        return None
    if not right.masses:
        return Fraction(1)
    l0, r0 = left.masses[0], right.masses[0]
    if any(l * r0 != l0 * r for l, r in zip(left.masses, right.masses)):
        return None
    return Fraction(l0 * right.mass_denominator, r0 * left.mass_denominator)


def gram_schmidt(measure: DiscreteMeasure, up_to: int) -> list[Polynomial]:
    """Monic orthogonal polynomials of degree 0..up_to by full projection.

    Deliberately naive: x^k is projected against every earlier polynomial g_j
    with the coefficient <x^k, g_j> / <g_j, g_j>.  This is the independent
    oracle that the determinantal construction is compared against, so it
    must not share any machinery with it.

    Each candidate is an integer coefficient list C and an integer value
    vector W over one shared integer denominator t: the candidate is C / t,
    and its value at support point i is W[i] / (t e^k).  Every pairing is an
    integer dot product with the masses and each update is integer, so no
    polynomial product and no ``Fraction`` is ever formed.  After all k
    projections, C, W and t are divided by gcd(t, C), keeping t positive: W's
    entries are integer combinations of C, so that gcd divides them too."""
    points, e = measure.points, measure.point_denominator
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
        g = gcd(den, *coeffs)
        if den < 0:
            g = -g
        if g != 1:
            coeffs = [c // g for c in coeffs]
            values = [v // g for v in values]
            den //= g
        weighted = measure.weighted(values)
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
    evaluated = [measure.evaluate(p) for p in polys]
    table: dict[tuple[int, int], Fraction] = {}
    for i, (u, su) in enumerate(evaluated):
        weighted = measure.weighted(u)
        scale = measure.mass_denominator * su
        for j in range(i, len(evaluated)):
            v, sv = evaluated[j]
            table[(i, j)] = Fraction(sum(map(mul, weighted, v)), scale * sv)
    return table
