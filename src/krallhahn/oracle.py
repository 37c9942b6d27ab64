"""Independent eigen-operator probe.

Given polynomials q_n with prescribed eigenvalues, look for a difference
operator D of a chosen half-width with D(q_n) = lambda_n q_n by solving the
exact linear system in the unknown coefficient polynomials.  This makes no
use of how the q_n were built, so it can confirm (or refute) the existence
of an operator of a given order independently of the determinantal
construction.

The equations are built as integer rows: each q_n's integer numerators
(over its one denominator) are read from the polynomial and shifted by an
integer Taylor shift, and each row is divided by its content.
:func:`~krallhahn.matrices.solve_linear_system` certifies its verdicts modulo
word-size primes and falls back to exact fraction-free elimination of the
integer rows where that cannot decide.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Sequence

from .diffops import DifferenceOperator
from .errors import InsufficientData
from .matrices import solve_linear_system
from .polynomials import Polynomial, taylor_shift
from .rationals import Rational


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
            content = gcd(*row, target)
            if content > 1:
                row = [v // content for v in row]
                target //= content
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

    Returns (operator, nullity) where the operator is one exact solution
    (None if the system is inconsistent) and nullity counts the remaining
    degrees of freedom.  Nullity zero certifies uniqueness within the probed
    half-width and coefficient-degree cap, and so within any narrower one,
    whose solutions padded with zeros solve this system.  Full column rank
    modulo a prime certifies nullity 0, and a right-hand side that is a pivot
    there as well certifies inconsistency.  A solution found modulo primes
    counts only after exact substitution into every equation.  A system that is
    rank-deficient modulo the prime, so every nullity > 0, is decided by exact
    fraction-free elimination of the integer rows and back-substitution.
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

