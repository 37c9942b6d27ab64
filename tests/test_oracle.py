"""Independent eigen-operator search by exact linear algebra."""

from fractions import Fraction

import pytest

from krallhahn.errors import InsufficientData
from krallhahn.hahn import HahnParams, hahn_operator, hahn_polynomial
from krallhahn.oracle import operator_solution_space
from krallhahn.polynomials import Polynomial


@pytest.fixture
def classical_data(desk_params):
    qs = [hahn_polynomial(n, desk_params) for n in range(5)]
    lams = [desk_params.eigenvalue(n) for n in range(5)]
    return qs, lams


def test_recovers_classical_operator(classical_data, desk_params):
    """Feeding the classical family pins down its operator uniquely."""
    qs, lams = classical_data
    op, nullity = operator_solution_space(qs, lams, 1, 2)
    assert nullity == 0
    assert op == hahn_operator(desk_params)


def test_insufficient_data(classical_data):
    qs, lams = classical_data
    with pytest.raises(InsufficientData):
        operator_solution_space(qs[:2], lams[:2], 1, 2)
    # three polynomials already clear the gate at this cap
    op, nullity = operator_solution_space(qs[:3], lams[:3], 1, 2)
    assert op is not None and nullity == 0


def test_inconsistent_system_returns_none(classical_data):
    qs, lams = classical_data
    # corrupt one eigenvalue: no second-order operator fits any more
    bad = list(lams)
    bad[2] += 1
    op, nullity = operator_solution_space(qs, bad, 1, 2)
    assert op is None
    assert nullity == 0


def test_wider_probe_still_unique(classical_data, desk_params):
    # enough data pins the operator even inside a larger search space
    qs, lams = classical_data
    qs = qs + [hahn_polynomial(n, desk_params) for n in range(5, 9)]
    lams = lams + [desk_params.eigenvalue(n) for n in range(5, 9)]
    op, nullity = operator_solution_space(qs, lams, 2, 2)
    assert nullity == 0
    assert op == hahn_operator(desk_params)


def test_validation():
    with pytest.raises(ValueError):
        operator_solution_space([Polynomial.one()], [Fraction(0), Fraction(1)], 1, 2)
    with pytest.raises(ValueError):
        operator_solution_space([Polynomial.one()], [Fraction(0)], -1, 2)
