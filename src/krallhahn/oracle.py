"""Independent eigen-operator probe.

Given polynomials q_n with prescribed eigenvalues, look for a difference
operator D of a chosen half-width with D(q_n) = lambda_n q_n.  This makes no
use of how the q_n were built, so it can confirm (or refute) the existence
of an operator of a given order independently of the determinantal
construction.

The search runs point by point.  At an integer x the equations
sum_l h_l(x) q_n(x + l) = lambda_n q_n(x), one per fed q_n, are read in the
forward-difference basis about x - r, where sorted by degree they are
triangular up to the gaps in the fed degrees (:func:`_difference_solve`).
Any operator of half-width r solves every such system, so an inconsistent
point rules all of them out.  Where h(x) is unique, degree_cap + 1 such
nodes fix every solution with coefficient degrees <= degree_cap: the
interpolant of the node values, integers over one denominator, accepted if
:func:`~krallhahn.diffops.eigen_certificate` decides D(q_n) = lambda_n q_n
exactly.  The interpolant takes the node values exactly, and those solve
every fed equation, so its residuals vanish at the nodes: the certificate
is handed them as known zeros and tests only the points past them.  With
fed degrees 0..2r + 1 every point fixes each g_i by a division; a degree
gap can make a point singular, and it is skipped.

If fewer than degree_cap + 1 nodes turn up among the first
``_POINT_BUDGET * (degree_cap + 1)`` points, the probe falls back to one
global system in every coefficient of D, built as integer rows: each q_n's
integer numerators are shifted by an integer Taylor shift, and each row is
divided by its content.  :func:`~krallhahn.matrices.solve_linear_system`
solves it; only this route can report nullity > 0.
"""

from __future__ import annotations

from math import comb, gcd, lcm
from operator import mul
from typing import Sequence

from .diffops import DifferenceOperator, eigen_certificate
from .errors import InsufficientData
from .matrices import _exact_solve, solve_linear_system
from .polynomials import Polynomial, horner, interpolate, taylor_shift
from .rationals import Rational, as_rational

# points scanned for nodes, per node needed, before the global fallback
_POINT_BUDGET = 2


def _integer_rows(
    qs: Sequence[Polynomial],
    lambdas: Sequence[Rational],
    halfwidth: int,
    degree_cap: int,
) -> tuple[list[list[int]], list[int]]:
    """One equation per coefficient of D(q_n) - lambda_n q_n, as primitive integer rows.

    The unknowns are the coefficients of x^d (d <= degree_cap) in the operator
    coefficient at each shift.  Each row is the rational equation times the
    denominator of lambda_n and that of q_n, divided by its content.
    """
    offsets = range(-halfwidth, halfwidth + 1)
    width = degree_cap + 1
    rows: list[list[int]] = []
    rhs: list[int] = []
    for qn, lam in zip(qs, lambdas):
        cleared, _ = qn.integer_parts
        shifted = [[lam.denominator * c for c in taylor_shift(cleared, l)] for l in offsets]
        for power in range(qn.degree + degree_cap + 1):
            row = [0] * (len(offsets) * width)
            for col, q_shift in enumerate(shifted):
                for d in range(max(0, power - qn.degree), min(power, degree_cap) + 1):
                    row[col * width + d] = q_shift[power - d]
            target = lam.numerator * cleared[power] if power <= qn.degree else 0
            *row, target = _primitive([*row, target])
            rows.append(row)
            rhs.append(target)
    return rows, rhs


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
    probe.  An inconsistent pointwise system gives (None, 0); degree_cap + 1
    points with a unique solution give the interpolant and nullity 0 if it
    passes the certificate, else (None, 0).  The certificate is told that
    every residual vanishes at those nodes: at a node h(x) solves every fed
    equation, since :func:`_difference_solve` checks each row below the
    unknown it reaches and its dense branch takes every remaining row, and
    :func:`~krallhahn.polynomials.interpolate` reproduces the node values
    exactly.  Only the global fallback, taken when too few such points turn
    up, can report nullity > 0.  Each eigenvalue is read by
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
    nodes = _pointwise_nodes(qs, lambdas, halfwidth, degree_cap)
    if nodes is None:
        return None, 0
    if len(nodes) <= degree_cap:
        return _solve_globally(qs, lambdas, halfwidth, degree_cap)
    points = [x for x, _ in nodes]
    common = lcm(*(scale for _, (_, scale) in nodes))
    rows = [[v * (common // scale) for v in h] for _, (h, scale) in nodes]
    found = DifferenceOperator(
        {
            l: interpolate([row[col] for row in rows], common, points)
            for col, l in enumerate(range(-halfwidth, halfwidth + 1))
        }
    )
    if all(eigen_certificate(found, zip(qs, lambdas), zeros=points)):
        return found, 0
    return None, 0


def _pointwise_nodes(
    qs: Sequence[Polynomial],
    lambdas: Sequence[Rational],
    halfwidth: int,
    degree_cap: int,
) -> list[tuple[int, tuple[list[int], int]]] | None:
    """The points x = 0, 1, ... where h(x) is unique, with h(x) as integers
    over one denominator (of either sign), up to degree_cap + 1 of them; None
    at the first inconsistent point.

    At most ``_POINT_BUDGET * (degree_cap + 1)`` points are scanned.  Each
    Q_n = d_n q_n keeps its differences Delta^i Q_n(x - r), advanced to x + 1
    by additions.  The unknowns g of :func:`_difference_solve` have generating
    function sum_i g_i t^i = sum_j h_(j-r) (1 + t)^j, so h is g Taylor-shifted
    by -1: h_(j-r) = sum_(i>=j) (-1)^(i-j) C(i, j) g_i.
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
    nodes = []
    for x in range(_POINT_BUDGET * (degree_cap + 1)):
        solved = _difference_solve(rows, width, centre)
        if solved is None:
            return None
        g, scale = solved
        if len(g) == width:
            nodes.append((x, (taylor_shift(g, -1), scale)))
            if len(nodes) > degree_cap:
                break
        for *_, diffs in rows:
            for i in range(len(diffs) - 1):
                diffs[i] += diffs[i + 1]
    return nodes


def _difference_solve(rows: list, width: int, centre: list[int]) -> tuple[list[int], int] | None:
    """(G, s) with g_i = G_i / s = sum_l C(l + r, i) h_l(x); None if the rows
    are inconsistent, and fewer than ``width`` values if g is not unique.

    Row (k, den, num, Delta Q) is q_n's equation times d_n den(lambda_n):
    den sum_(i<=k) Delta^i Q(x - r) g_i = num Q(x).  With g_0..g_(t-1) known,
    a row of k = t and Delta^t Q != 0 fixes g_t by one exact division, and one
    of k < t is a consistency check.  From the first row that does neither (a
    gap in the fed degrees, or a zero pivot at k = 2r), the rows are one dense
    system in g_t.., solved by :func:`~krallhahn.matrices._exact_solve` over
    its last pivot; g and that part go over the lcm of s and the pivot.
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
            y, det, nullity = solved
            if nullity:
                return [], 1
            common = lcm(scale, det)
            return [v * (common // scale) for v in g] + [v * (common // det) for v in y], common
    return g, scale


def _primitive(row: list[int]) -> list[int]:
    """The row over the gcd of its entries, which keeps the elimination's
    integers small."""
    content = gcd(*row)
    return [v // content for v in row] if content > 1 else row


def _solve_globally(
    qs: Sequence[Polynomial],
    lambdas: Sequence[Rational],
    halfwidth: int,
    degree_cap: int,
) -> tuple[DifferenceOperator | None, int]:
    """One system in every coefficient of D, by :func:`solve_linear_system`.

    A rank profile modulo a prime certifies nullity 0 or inconsistency, a
    solution found modulo primes counts only after exact substitution into
    every equation, and a system rank-deficient modulo the prime is decided
    by exact fraction-free elimination of the integer rows.
    """
    solved = solve_linear_system(*_integer_rows(qs, lambdas, halfwidth, degree_cap))
    if solved is None:
        return None, 0
    solution, nullity = solved
    width = degree_cap + 1
    terms = {}
    for col, l in enumerate(range(-halfwidth, halfwidth + 1)):
        coeffs = solution[col * width : (col + 1) * width]
        terms[l] = Polynomial(coeffs)
    return DifferenceOperator(terms), nullity
