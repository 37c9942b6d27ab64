"""Finitely supported signed measures on the rationals.

Measures here are formal: masses may be negative (parameters outside the
classical positivity range still give valid orthogonality functionals).

A :class:`DiscreteMeasure` stores integers only: its support points P_i in
increasing order over one point denominator e, and its masses M_i over one
mass denominator D.  The form is canonical (zero masses dropped, e, D > 0,
each side divided by its gcd), so ``==`` and ``hash`` read the parts;
:func:`canonical_measure` takes parts that are canonical already, unchecked;
``atoms``, ``support`` and ``mass`` are ``Fraction`` views built on request.

Translation and Christoffel transforms work on the parts.  A
polynomial sum_k c_k x^k / d of degree n has the integer value vector
V_i = sum_k c_k P_i^k e^(n-k), by integer Horner, and its value at point i
is V_i / (d e^n).  Inner products and the Gram table are
integer dot products of (M o V) with value vectors, never polynomial
products, and a ``Fraction`` is formed only once per result.

Two routes avoid the value-vector loops.  :func:`orthogonality_certificate`
decides a family's orthogonality, and reads its norms, off iterated partial
sums of M o V on the lattice hull of the support: additions only.
:func:`gram_schmidt` and :meth:`DiscreteMeasure.integrals`, the integrals of
the ``criteria`` check, read the integer power sums sum_i M_i P_i^k, taken in
one pass, so a pairing or an integral is a short dot product of coefficients
with those sums.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from itertools import accumulate
from math import factorial, gcd, lcm
from operator import mul, sub
from typing import Iterable, Iterator, Mapping, Sequence

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

    def inner_product(self, p: Polynomial, q: Polynomial) -> Fraction:
        (u, su), (v, sv) = self.evaluate(p), self.evaluate(q)
        return Fraction(sum(map(mul, self.weighted(u), v)), self.mass_denominator * su * sv)

    def power_sums(self, up_to: int) -> list[int]:
        """sum_i M_i P_i^k for k = 0..up_to: the k-th moment is this over D e^k.
        :func:`gram_schmidt` and :meth:`integrals` read their moments here."""
        sums, acc = [], list(self.masses)
        for k in range(up_to + 1):
            if k:
                acc = list(map(mul, acc, self.points))
            sums.append(sum(acc))
        return sums

    def integrals(self, polys: Iterable[Polynomial], up_to: int) -> Iterator[tuple[int, int]]:
        """Each p's integral, deg p <= up_to, from the power sums S_k: p = sum_k
        c_k x^k / c gives sum_k c_k S_k e^(up_to - k) over c D e^up_to > 0."""
        e = self.point_denominator
        sums = [s * e ** (up_to - k) for k, s in enumerate(self.power_sums(up_to))]
        for p in polys:
            nums, c = p.integer_parts
            yield sum(map(mul, nums, sums)), c * self.mass_denominator * e**up_to

    def translate(self, offset: Scalar) -> "DiscreteMeasure":
        """Push every atom from pt to pt + offset."""
        c = as_rational(offset)
        q, e = c.denominator, self.point_denominator
        shift = c.numerator * e
        points = [pt * q + shift for pt in self.points]
        g = gcd(e * q, *points)
        # the masses do not move, so they stay canonical as they are
        return canonical_measure(
            tuple(p // g for p in points), e * q // g, self.masses, self.mass_denominator
        )

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
    return canonical_measure(
        tuple(p // g for p in points), e // g, tuple(m // h for m in masses), d // h
    )


def canonical_measure(
    points: tuple[int, ...], e: int, masses: tuple[int, ...], d: int
) -> DiscreteMeasure:
    """A measure from parts that are already canonical (increasing points, no
    zero mass, e, d > 0, each side's gcd 1), taken as they are, unchecked."""
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


def gram_schmidt(measure: DiscreteMeasure, up_to: int) -> list[Polynomial]:
    """Monic orthogonal polynomials of degree 0..up_to by full projection.

    Deliberately naive: x^k is projected against every earlier polynomial g_j
    with the coefficient <x^k, g_j> / <g_j, g_j>.  This is the independent
    oracle that the determinantal construction is compared against, so it
    must not share any machinery with it.

    Every pairing is read off the integer power sums m_i = sum_x M_x P_x^i,
    i < 2 up_to, taken in one pass over the support.  With g_j = C_j / t_j
    (integer coefficients over t_j > 0, lowest terms),

        <x^k, g_j> = sum_l C_j[l] e^(j-l) m_(k+l) / (D e^(k+j) t_j),

    and <g_j, g_j> = <x^j, g_j>, since g_j is monic and orthogonal to every
    lower degree.  So a pairing costs j + 1 integer products and no value
    vector is kept.  The candidate x^k - sum_j c_j g_j is put over the lcm of
    the reduced c_j / t_j's denominators, then divided by gcd(t, C).  A zero
    norm below degree up_to raises DegenerateMoments; at up_to it is allowed.
    """
    e = measure.point_denominator
    sums = measure.power_sums(2 * up_to - 1)
    basis: list[Polynomial] = []
    # per earlier g_j: (C_j, E_j, t_j A_j), with E_j[l] = C_j[l] e^(j-l) and
    # A_j = sum_l E_j[l] m_(j+l), so that <g_j, g_j> = A_j / (D e^(2j) t_j)
    done: list[tuple[tuple[int, ...], list[int], int]] = []
    for k in range(up_to + 1):
        # c_j / t_j = <x^k, g_j> / (<g_j, g_j> t_j) = A_kj / (e^(k-j) t_j A_j)
        terms, t = [], 1
        for j, (c_j, e_j, norm_j) in enumerate(done):
            a = sum(map(mul, e_j, sums[k : k + j + 1]))
            if a == 0:
                continue
            b = e ** (k - j) * norm_j
            g = gcd(a, b) if b > 0 else -gcd(a, b)
            terms.append((a // g, b // g, c_j))
            t = lcm(t, b // g)
        coeffs = [0] * k + [t]
        for a, b, c_j in terms:
            f = a * (t // b)
            coeffs[: len(c_j)] = map(sub, coeffs, map(f.__mul__, c_j))
        g_k = Polynomial.from_integer_parts(coeffs, t)
        basis.append(g_k)
        if k == up_to:
            break
        c_k, t_k = g_k.integer_parts
        e_k = c_k if e == 1 else [c * e ** (k - l) for l, c in enumerate(c_k)]
        norm = sum(map(mul, e_k, sums[k : 2 * k + 1]))
        if norm == 0:
            raise DegenerateMoments(k)
        done.append((c_k, e_k, t_k * norm))
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


def orthogonality_certificate(
    measure: DiscreteMeasure, polys: Sequence[Polynomial]
) -> tuple[list[Fraction], list[tuple[int, int]]]:
    """(norms, nonorthogonal_pairs): the diagonal of the Gram table and the
    pairs i < j, in the table's order, with <p_i, p_j> != 0.

    Put u_j = M o V_j, the weighted integer values of p_j, on the integer
    lattice hull of the points P_i, with 0 off the support (for e != 1 the
    polynomial is read in P = e x).  Its iterated partial sums S^l, the first
    being S^1(x) = sum_(y <= x) u_j(y), end at

        S^l(end) = sum_P u_j(P) C(end - P + l - 1, l - 1),

    and these binomials, for l = 1..j, span the polynomials of degree below j.
    So p_j is orthogonal to p_0..p_(j-1) exactly when S^1(end) = ... =
    S^j(end) = 0, and then, with s_j the scale of V_j,

        <p_j, p_j> = lc(p_j) (-1)^j j! S^(j+1)(end) / (D s_j e^j).

    That is j + 1 rounds of additions over the hull and one ``Fraction`` per
    degree, exact on any lattice hull; time and memory grow with the hull's
    length, which for a run's measure is its point range, the support plus the
    points its F3 and F4 remove.  A degree j takes its pairs (i, j) and its
    norm by dot products, as the table does, when its sums do not vanish, when
    the support is empty, or when some p_i, i <= j, has degree other than i
    (the spanning argument needs p_0..p_(j-1) to span the degrees below j).
    """
    points, e, d = measure.points, measure.point_denominator, measure.mass_denominator
    # p_0..p_(j-1) span the degrees below j, and deg p_j = j, for every j < spanned
    spanned = next((j for j, p in enumerate(polys) if p.degree != j), len(polys)) if points else 0
    evaluated = [measure.evaluate(p) for p in polys]
    norms: list[Fraction] = []
    pairs: list[tuple[int, int]] = []
    for j, (p, (values, scale)) in enumerate(zip(polys, evaluated)):
        weighted = measure.weighted(values)
        if j < spanned:
            sums = [0] * (points[-1] - points[0] + 1)
            for pt, w in zip(points, weighted):
                sums[pt - points[0]] = w
            for _ in range(j):
                sums = list(accumulate(sums))
                if sums[-1]:
                    break
            else:
                # sum(S^j) over the hull is S^(j+1)(end)
                top = (-1) ** j * factorial(j) * sum(sums)
                norms.append(p.leading_coefficient * Fraction(top, d * scale * e**j))
                continue
        for i in range(j + 1):
            u, su = evaluated[i]
            value = Fraction(sum(map(mul, weighted, u)), d * scale * su)
            if i < j and value != 0:
                pairs.append((i, j))
        norms.append(value)
    return norms, sorted(pairs)
