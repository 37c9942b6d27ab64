"""Independent eigen-operator probe.

Given polynomials q_n with prescribed eigenvalues, look for a difference
operator D of a chosen half-width with D(q_n) = lambda_n q_n.  This makes no
use of how the q_n were built, so it can confirm (or refute) the existence
of an operator of a given order independently of the determinantal
construction.

The search runs point by point, at x = 0..degree_cap and nowhere else.  At
an integer x the equations sum_l h_l(x) q_n(x + l) = lambda_n q_n(x), one
per fed q_n, are read in the forward-difference basis about x - r, where
sorted by degree they are triangular up to the gaps in the fed degrees
(:func:`_difference_solve`).  Any operator of half-width r solves every such
system, so an inconsistent point rules all of them out.  Each point gives
its solution set: a particular h(x), integers over one denominator, and a
kernel basis, empty where h(x) is unique.  An operator with coefficient
degrees <= degree_cap is fixed by its values at those degree_cap + 1
points, so the solutions are the interpolants of values in those sets whose
residuals vanish.  A residual D(q_n) - lambda_n q_n has degree at most
deg q_n + degree_cap and vanishes at 0..degree_cap by construction, so
where some point is singular the conditions left are its values at the
deg q_n points past them: one small exact system in one unknown per kernel
vector (:func:`_coupling_rows`) decides solvability and the nullity.  With
every point unique (fed degrees 0..2r + 1 fix each g_i by a division) there
is nothing to couple.  The interpolant is accepted if
:func:`~krallhahn.diffops.eigen_certificate` decides D(q_n) = lambda_n q_n
exactly; it is handed 0..degree_cap as known zeros and tests only the
points past them.
"""

from __future__ import annotations

from math import comb, gcd, lcm
from operator import mul
from typing import Sequence

from .diffops import DifferenceOperator, eigen_certificate
from .errors import InsufficientData
from .matrices import _exact_solve
from .polynomials import Polynomial, horner, interpolate, taylor_shift
from .rationals import Rational, as_rational


def operator_solution_space(
    qs: Sequence[Polynomial],
    lambdas: Sequence[Rational],
    halfwidth: int,
    degree_cap: int,
) -> tuple[DifferenceOperator | None, int]:
    """Solve D(q_n) = lambda_n q_n for D of genre (-halfwidth, halfwidth).

    Returns (operator, nullity) where the operator is one exact solution with
    coefficient degrees <= degree_cap (None if there is none) and nullity
    counts the remaining degrees of freedom.  Nullity zero certifies
    uniqueness within the probed half-width and coefficient-degree cap, and
    so within any narrower one, whose solutions padded with zeros solve this
    probe.  An inconsistent pointwise system, or coupling rows with no
    solution, give (None, 0).  Otherwise the values at x = 0..degree_cap,
    each point's particular solution plus the coupling's multiples of its
    kernel vectors, are interpolated, every shift in one call as lanes, and
    the interpolant is returned with the coupling's nullity (0 if no point
    is singular) if it passes the certificate, else (None, 0).  The
    certificate is told that every residual vanishes at 0..degree_cap:
    there h(x) solves every fed equation, since :func:`_difference_solve`
    checks each row below the unknown it reaches and its dense branch takes
    every remaining row, and :func:`~krallhahn.polynomials.interpolate`
    reproduces the values exactly.  Each eigenvalue is read by
    :func:`~krallhahn.rationals.as_rational`, so a float raises
    ``TypeError``.
    """
    lambdas = [as_rational(lam) for lam in lambdas]
    if len(qs) != len(lambdas):
        raise ValueError("need one eigenvalue per polynomial")
    if halfwidth < 0 or degree_cap < 0:
        raise ValueError("halfwidth and degree_cap must be nonnegative")
    equations = sum(q.degree + degree_cap + 1 for q in qs)
    required = (2 * halfwidth + 1) * (degree_cap + 2)
    if equations < required:
        raise InsufficientData(
            f"{equations} equations but at least {required} required to probe "
            f"halfwidth {halfwidth} with coefficient degrees up to {degree_cap}"
        )
    solutions = _pointwise_nodes(qs, lambdas, halfwidth, degree_cap)
    if solutions is None:
        return None, 0
    common = lcm(*(scale for _, scale, _ in solutions))
    values = [[v * (common // scale) for v in h] for h, scale, _ in solutions]
    kernels = [(x, vector) for x, (_, _, kernel) in enumerate(solutions) for vector in kernel]
    nullity = 0
    if kernels:
        coupled = _exact_solve(_coupling_rows(qs, lambdas, values, common, kernels), len(kernels))
        if coupled is None:
            return None, 0
        t, det, free = coupled
        if det < 0:
            t, det = [-v for v in t], -det
        nullity = len(free)
        values = [[det * v for v in row] for row in values]
        for (x, vector), tk in zip(kernels, t):  # t_k K_k added at its own point
            values[x] = [v + tk * k for v, k in zip(values[x], vector)]
        common *= det
    shifts = range(-halfwidth, halfwidth + 1)
    found = DifferenceOperator(dict(zip(shifts, interpolate(list(zip(*values)), common))))
    if all(eigen_certificate(found, zip(qs, lambdas), zeros=range(degree_cap + 1))):
        return found, nullity
    return None, 0


def _coupling_rows(
    qs: Sequence[Polynomial],
    lambdas: Sequence[Rational],
    values: list[list[int]],
    common: int,
    kernels: list[tuple[int, list[int]]],
) -> list[list[int]]:
    """Primitive integer rows [A | b] in one unknown t_k per kernel vector
    K_k at its point x_k: h(x) = (values[x] + sum_(x_k = x) t_k K_k) / common
    at x = 0..cap solves every pointwise system, and the rows hold exactly
    when its interpolant's residuals vanish.

    The Lagrange weights on 0..cap are the integers
    L_x(y) = (-1)^(cap - x) C(y, x) C(y - x - 1, cap - x) for y > cap, so
    common h_l(y) = sum_x L_x(y) (values[x][l] + ...).  One row per fed q_n
    = Q_n / d_n and y = cap + 1..cap + deg q_n:
    den(lambda_n) sum_l common h_l(y) Q_n(y + l) = num(lambda_n) common Q_n(y).
    """
    cap, r = len(values) - 1, len(values[0]) // 2
    fed = [(q.integer_parts[0], q.degree, lam) for q, lam in zip(qs, lambdas)]
    rows = []
    for y in range(cap + 1, cap + 1 + max(degree for _, degree, _ in fed)):
        weights = [
            (-1) ** (cap - x) * comb(y, x) * comb(y - x - 1, cap - x) for x in range(cap + 1)
        ]
        particular = [sum(map(mul, weights, column)) for column in zip(*values)]  # common h_l(y)
        for nums, degree, lam in fed:
            if y > cap + degree:
                continue
            shifted = [horner(nums, y + l) for l in range(-r, r + 1)]
            den, num = lam.denominator, lam.numerator
            row = [den * weights[x] * sum(map(mul, k, shifted)) for x, k in kernels]
            target = num * common * shifted[r] - den * sum(map(mul, particular, shifted))
            rows.append(_primitive(row + [target]))
    return rows


def _pointwise_nodes(
    qs: Sequence[Polynomial],
    lambdas: Sequence[Rational],
    halfwidth: int,
    degree_cap: int,
) -> list[tuple[list[int], int, list[list[int]]]] | None:
    """The solution set of the pointwise system at each x = 0..degree_cap,
    as (H, s, kernel): the particular h(x) = H / s, integers over one
    denominator (of either sign), and a basis of the kernel in h, empty
    where h(x) is unique; None at the first inconsistent point.

    Each Q_n = d_n q_n keeps its differences Delta^i Q_n(x - r), advanced to
    x + 1 by additions.  The unknowns g of :func:`_difference_solve` have
    generating function sum_i g_i t^i = sum_j h_(j-r) (1 + t)^j, so h is g
    Taylor-shifted by -1: h_(j-r) = sum_(i>=j) (-1)^(i-j) C(i, j) g_i, and so
    is each kernel vector.
    """
    width = 2 * halfwidth + 1
    rows = []
    for q, lam in sorted(zip(qs, lambdas), key=lambda pair: pair[0].degree):
        nums = q.integer_parts[0]
        diffs = [horner(nums, y) for y in range(-halfwidth, len(nums) - halfwidth)]
        for i in range(1, len(diffs)):
            for j in range(len(diffs) - 1, i - 1, -1):
                diffs[j] -= diffs[j - 1]
        rows.append((min(q.degree, 2 * halfwidth), lam.denominator, lam.numerator, diffs))
    centre = [comb(halfwidth, i) for i in range(halfwidth + 1)]  # Q(x) from Q(x - r)
    solutions = []
    for _ in range(degree_cap + 1):
        solved = _difference_solve(rows, width, centre)
        if solved is None:
            return None
        g, scale, kernel = solved
        solutions.append((taylor_shift(g, -1), scale, [taylor_shift(k, -1) for k in kernel]))
        for *_, diffs in rows:
            for i in range(len(diffs) - 1):
                diffs[i] += diffs[i + 1]
    return solutions


def _difference_solve(
    rows: list, width: int, centre: list[int]
) -> tuple[list[int], int, list[list[int]]] | None:
    """(G, s, kernel) with g_i = G_i / s = sum_l C(l + r, i) h_l(x) one
    solution and ``kernel`` a basis of the solutions of the homogeneous
    rows; None if the rows are inconsistent.

    Row (k, den, num, Delta Q) is q_n's equation times d_n den(lambda_n):
    den sum_(i<=k) Delta^i Q(x - r) g_i = num Q(x).  With g_0..g_(t-1) known,
    a row of k = t and Delta^t Q != 0 fixes g_t by one exact division, and one
    of k < t is a consistency check.  From the first row that does neither (a
    gap in the fed degrees, or a zero pivot at k = 2r), the rows are one dense
    system in g_t.., solved by :func:`~krallhahn.matrices._exact_solve` over
    its last pivot; g and that part go over the lcm of s and the pivot, and
    its kernel, padded with zeros on g_0..g_(t-1), is the kernel.  If the
    rows run out first, the unfixed g_t.. are 0 and their unit vectors are
    the kernel.
    """
    g, scale = [], 1

    def rhs(den, num, diffs):  # scale times the right-hand side, g_0..g_(t-1) substituted
        return num * scale * sum(map(mul, centre, diffs)) - den * sum(map(mul, g, diffs))

    for at, (top, den, num, diffs) in enumerate(rows):
        t = len(g)
        if top < t:
            if rhs(den, num, diffs):
                return None
        elif top == t and diffs[t]:
            pivot, b = den * diffs[t], rhs(den, num, diffs)
            c = gcd(b, pivot)
            g = [v * (pivot // c) for v in g] + [b // c]
            scale *= pivot // c
        else:
            aug = [
                _primitive([den * scale * v for v in (d + [0] * width)[t:width]] + [rhs(den, num, d)])
                for _, den, num, d in rows[at:]
            ]
            solved = _exact_solve(aug, width - t)
            if solved is None:
                return None
            y, det, kernel = solved
            common = lcm(scale, det)
            g = [v * (common // scale) for v in g] + [v * (common // det) for v in y]
            return g, common, [[0] * t + k for k in kernel]
    units = [[int(i == j) for i in range(width)] for j in range(len(g), width)]
    return g + [0] * (width - len(g)), scale, units


def _primitive(row: list[int]) -> list[int]:
    """The row over the gcd of its entries, which keeps the elimination's
    integers small."""
    content = gcd(*row)
    return [v // content for v in row] if content > 1 else row
