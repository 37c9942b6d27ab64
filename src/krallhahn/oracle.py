"""Independent eigen-operator probe.

Given polynomials q_n with prescribed eigenvalues, look for a difference
operator D of a chosen half-width with D(q_n) = lambda_n q_n.  This makes no
use of how the q_n were built, so it can confirm (or refute) the existence
of an operator of a given order independently of the determinantal
construction.

The search runs point by point.  At an integer x the equations read
sum_l h_l(x) q_n(x + l) = lambda_n q_n(x): one integer row per fed q_n in
the 2r + 1 values h_l(x), solved exactly by
:func:`~krallhahn.matrices._exact_solve`.  Any operator of half-width r,
whatever its coefficient degrees, solves every such system, so an
inconsistent point rules all of them out.  Where the system has full column
rank, h(x) is unique, and degree_cap + 1 such nodes fix every solution with
coefficient degrees <= degree_cap: it is the interpolant of the node values,
which is accepted only if the certificate holds: D(q_n) = lambda_n q_n,
decided exactly at integer points by
:func:`~krallhahn.diffops.eigen_certificate`.  When
the fed degrees are 0..2r + 1 their span holds every polynomial of degree
<= 2r + 1, so no point is singular; a gap in the degrees can make one, and
such a point is skipped.

If fewer than degree_cap + 1 nodes turn up among the first
``_POINT_BUDGET * (degree_cap + 1)`` points, the probe falls back to one
global system in every coefficient of D, built as integer rows: each q_n's
integer numerators are shifted by an integer Taylor shift, and each row is
divided by its content.  :func:`~krallhahn.matrices.solve_linear_system`
solves it; only this route can report nullity > 0.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .diffops import DifferenceOperator, eigen_certificate
from .errors import InsufficientData
from .matrices import _exact_solve, solve_linear_system
from .polynomials import Polynomial, horner, newton_form, taylor_shift
from .rationals import Rational, clear_denominators

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
        lam = Fraction(lam)
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
    passes the certificate, else (None, 0).  Only the global fallback, taken
    when too few such points turn up, can report nullity > 0.
    """
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
    found = DifferenceOperator(
        {
            l: newton_form(_divided_differences(points, [h[col] for _, h in nodes]), points)
            for col, l in enumerate(range(-halfwidth, halfwidth + 1))
        }
    )
    if all(eigen_certificate(found, zip(qs, lambdas))):
        return found, 0
    return None, 0


def _pointwise_nodes(
    qs: Sequence[Polynomial],
    lambdas: Sequence[Rational],
    halfwidth: int,
    degree_cap: int,
) -> list[tuple[int, list[Fraction]]] | None:
    """The points x = 0, 1, ... where h(x) is unique, with h(x), up to
    degree_cap + 1 of them; None at the first inconsistent point.

    At most ``_POINT_BUDGET * (degree_cap + 1)`` points are scanned.  The row
    of q_n = Q_n / d_n at x is [den(lambda_n) Q_n(x + l) for l] + [num(lambda_n)
    Q_n(x)], its equation times d_n den(lambda_n).  Each Q_n is evaluated once
    per point, by integer Horner, as the scan reaches it.
    """
    width = 2 * halfwidth + 1
    numerators = [q.integer_parts[0] for q in qs]
    scales = [(Fraction(lam).denominator, Fraction(lam).numerator) for lam in lambdas]
    values: list[list[int]] = []  # values[i]: every Q_n at the point i - halfwidth
    nodes = []
    for x in range(_POINT_BUDGET * (degree_cap + 1)):
        while len(values) < x + width:
            y = len(values) - halfwidth
            values.append([horner(nums, y) for nums in numerators])
        window = values[x : x + width]
        centre = window[halfwidth]
        aug = [
            _primitive([den * column[n] for column in window] + [num * centre[n]])
            for n, (den, num) in enumerate(scales)
        ]
        solved = _exact_solve(aug, width)
        if solved is None:
            return None
        h, nullity = solved
        if not nullity:
            nodes.append((x, h))
            if len(nodes) > degree_cap:
                break
    return nodes


def _primitive(row: list[int]) -> list[int]:
    """The row over the gcd of its entries, which keeps the elimination's
    integers small."""
    content = gcd(*row)
    return [v // content for v in row] if content > 1 else row


def _divided_differences(nodes: Sequence[int], values: Sequence[Fraction]) -> list[Fraction]:
    """The Newton coefficients f[x_0], f[x_0, x_1], ... of the interpolant.

    Each level of the table is kept as integers over one denominator: level 0
    is the values over the lcm L of their denominators, and level k scales
    each difference by the lcm of the level's node gaps over its own gap, so
    no entry leaves the integers.  On consecutive nodes every gap at level k
    is k, and level k sits over L k!.
    """
    table, den = clear_denominators(values)
    coeffs = [Fraction(table[0], den)]
    for k in range(1, len(nodes)):
        gaps = [nodes[i] - nodes[i - k] for i in range(k, len(nodes))]
        step = lcm(*gaps)
        table = [(b - a) * (step // g) for a, b, g in zip(table, table[1:], gaps)]
        den *= step
        coeffs.append(Fraction(table[0], den))
    return coeffs


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
