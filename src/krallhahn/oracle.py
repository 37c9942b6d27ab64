"""Independent eigen-operator probe.

Given polynomials q_n with prescribed eigenvalues, look for a difference
operator D of a chosen half-width with D(q_n) = lambda_n q_n by solving the
exact linear system in the unknown coefficient polynomials.  This makes no
use of how the q_n were built, so it can confirm (or refute) the existence
of an operator of a given order independently of the determinantal
construction.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .diffops import DifferenceOperator
from .errors import InsufficientData
from .matrices import solve_linear_system
from .polynomials import Polynomial
from .rationals import Rational


def _equation_rows(
    qs: Sequence[Polynomial],
    lambdas: Sequence[Rational],
    halfwidth: int,
    degree_cap: int,
) -> tuple[list[list[Fraction]], list[Fraction]]:
    offsets = range(-halfwidth, halfwidth + 1)
    width = degree_cap + 1
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    for qn, lam in zip(qs, lambdas):
        shifted = {l: qn.shift_argument(l) for l in offsets}
        target = Fraction(lam) * qn
        max_degree = qn.degree + degree_cap
        for power in range(max_degree + 1):
            row = [Fraction(0)] * ((2 * halfwidth + 1) * width)
            for col, l in enumerate(offsets):
                q_shift = shifted[l]
                for d in range(width):
                    if 0 <= power - d <= q_shift.degree:
                        row[col * width + d] = q_shift.coefficient(power - d)
            rows.append(row)
            rhs.append(target.coefficient(power))
    return rows, rhs


def operator_solution_space(
    qs: Sequence[Polynomial],
    lambdas: Sequence[Rational],
    halfwidth: int,
    degree_cap: int,
) -> tuple[DifferenceOperator | None, int]:
    """Solve D(q_n) = lambda_n q_n for D of genre (-halfwidth, halfwidth).

    Returns (operator, nullity) where the operator is one exact solution
    (None if the system is inconsistent) and nullity counts the remaining
    degrees of freedom.  Nullity zero certifies uniqueness within the probed
    half-width and coefficient-degree cap.
    """
    if len(qs) != len(lambdas):
        raise ValueError("need one eigenvalue per polynomial")
    if halfwidth < 0 or degree_cap < 0:
        raise ValueError("halfwidth and degree_cap must be nonnegative")
    rows, rhs = _equation_rows(qs, lambdas, halfwidth, degree_cap)
    required = (2 * halfwidth + 1) * (degree_cap + 2)
    if len(rows) < required:
        raise InsufficientData(
            f"{len(rows)} equations but at least {required} required to probe "
            f"halfwidth {halfwidth} with coefficient degrees up to {degree_cap}"
        )
    solved = solve_linear_system(rows, rhs)
    if solved is None:
        return None, 0
    solution, nullity = solved
    width = degree_cap + 1
    terms = {}
    for col, l in enumerate(range(-halfwidth, halfwidth + 1)):
        coeffs = solution[col * width : (col + 1) * width]
        terms[l] = Polynomial(coeffs)
    return DifferenceOperator(terms), nullity

