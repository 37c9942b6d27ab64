"""Determinants and exact linear solving."""

import random
from fractions import Fraction

import pytest

from krallhahn.errors import NonExactDivision
from krallhahn.matrices import (
    poly_det,
    rational_det,
    solve_linear_system,
)
from krallhahn.matrices import _bareiss_det, _cofactor_det
from krallhahn.polynomials import Polynomial, RationalFunction

X = Polynomial.variable()


def _sarrus(m):
    # independent 3x3 oracle
    return (
        m[0][0] * m[1][1] * m[2][2]
        + m[0][1] * m[1][2] * m[2][0]
        + m[0][2] * m[1][0] * m[2][1]
        - m[0][2] * m[1][1] * m[2][0]
        - m[0][0] * m[1][2] * m[2][1]
        - m[0][1] * m[1][0] * m[2][2]
    )


def test_matrix_shape_checks():
    with pytest.raises(ValueError):
        poly_det([[1, 2], [3]])
    with pytest.raises(ValueError):
        poly_det([[X, 2], [3]])
    with pytest.raises(ValueError):
        rational_det([[RationalFunction.one()], [RationalFunction.one()]])
    with pytest.raises(ValueError):
        poly_det([[1, 2, 3], [4, 5, 6]])
    assert poly_det([]) == Polynomial.one()
    assert poly_det([[X]]) == X


def test_numeric_vandermonde():
    nodes = [1, 2, 3]
    rows = [[Fraction(v) ** k for k in range(3)] for v in nodes]
    det = poly_det(rows)
    assert isinstance(det, Fraction) and det == 2
    # scalar entries among polynomials are read as constant polynomials
    det = poly_det([[Polynomial.constant(row[0]), *row[1:]] for row in rows])
    assert det == Polynomial.constant(2)


def test_polynomial_division_is_exact():
    assert (X**2 - 1) / (X + 1) == X - 1
    with pytest.raises(NonExactDivision):
        (X**2 + 1) / (X + 1)
    assert (2 * X) / 2 == X


def test_poly_det_3x3_against_sarrus():
    rows = [
        [X, X + 1, Polynomial.constant(2)],
        [X**2, Polynomial.one(), X - 3],
        [Polynomial.constant(Fraction(1, 2)), X, X**2 + 1],
    ]
    assert poly_det(rows) == _sarrus(rows)


def test_poly_det_equal_rows_vanishes():
    row = [X, X**2 - 1, 3 * X]
    assert poly_det([row, row, [1, X, Polynomial.one()]]).is_zero


def test_bareiss_agrees_with_cofactor():
    """Fraction-free elimination against plain expansion on seeded matrices.

    Sizes straddle the internal dispatch threshold so poly_det exercises
    the Bareiss branch at 6x6 (including a singular instance), once with
    polynomial entries and once with Fraction entries.
    """
    rng = random.Random(7)

    def rand_poly():
        return Polynomial([Fraction(rng.randint(-3, 3)) for _ in range(rng.randint(1, 3))])

    def rand_fraction():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 5))

    for rand_entry, zero in ((rand_poly, Polynomial.zero()), (rand_fraction, Fraction(0))):
        for n in (4, 6):
            rows = [[rand_entry() for _ in range(n)] for _ in range(n)]
            expected = _cofactor_det(rows)
            assert type(expected) is type(zero) and expected != zero
            assert _bareiss_det([r[:] for r in rows]) == expected
            assert poly_det(rows) == expected
        singular = [[rand_entry() for _ in range(6)] for _ in range(5)]
        singular.append(list(singular[0]))  # duplicate row
        assert _cofactor_det(singular) == zero
        assert poly_det(singular) == zero


def test_rational_det():
    rows = [
        [RationalFunction(1, X), RationalFunction(X, X + 1)],
        [RationalFunction.one(), RationalFunction(X - 2)],
    ]
    expected = RationalFunction(X - 2, X) - RationalFunction(X, X + 1)
    assert rational_det(rows) == expected


def test_solve_unique():
    rows = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(-1)]]
    solution, nullity = solve_linear_system(rows, [Fraction(5), Fraction(1)])
    assert nullity == 0
    assert solution == [Fraction(2), Fraction(1)]


def test_solve_underdetermined_pins_free_variables():
    rows = [[Fraction(1), Fraction(1), Fraction(0)]]
    solution, nullity = solve_linear_system(rows, [Fraction(3)])
    assert nullity == 2
    assert solution == [Fraction(3), Fraction(0), Fraction(0)]


def test_solve_inconsistent_returns_none():
    rows = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    assert solve_linear_system(rows, [Fraction(1), Fraction(3)]) is None


def test_solve_overdetermined_consistent():
    rows = [[Fraction(1)], [Fraction(2)], [Fraction(-1)]]
    rhs = [Fraction(3), Fraction(6), Fraction(-3)]
    solution, nullity = solve_linear_system(rows, rhs)
    assert (solution, nullity) == ([Fraction(3)], 0)


def test_solve_shape_mismatch():
    with pytest.raises(ValueError):
        solve_linear_system([[Fraction(1)]], [Fraction(1), Fraction(2)])
