"""Independent eigen-operator search by exact linear algebra."""

from fractions import Fraction
from math import gcd, lcm

import pytest

from krallhahn.casorati import (
    eigenvalue_polynomial,
    krall_operator,
    krall_polynomial,
    operator_halfwidth,
)
from krallhahn.config import BUILTIN_CONFIGS, builtin_config, config_from_dict
from krallhahn.errors import InsufficientData
from krallhahn.hahn import HahnParams, hahn_operator, hahn_polynomial
from krallhahn.oracle import _integer_rows, operator_solution_space
from krallhahn.polynomials import Polynomial
from krallhahn.verify import build_run


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


def _fraction_rows(qs, lambdas, halfwidth, degree_cap):
    """The equation rows over the rationals, built from shifted polynomials."""
    offsets = range(-halfwidth, halfwidth + 1)
    width = degree_cap + 1
    rows, rhs = [], []
    for qn, lam in zip(qs, lambdas):
        shifted = {l: qn.shift_argument(l) for l in offsets}
        target = Fraction(lam) * qn
        for power in range(qn.degree + degree_cap + 1):
            row = [Fraction(0)] * ((2 * halfwidth + 1) * width)
            for col, l in enumerate(offsets):
                q_shift = shifted[l]
                for d in range(width):
                    if 0 <= power - d <= q_shift.degree:
                        row[col * width + d] = q_shift.coefficient(power - d)
            rows.append(row)
            rhs.append(target.coefficient(power))
    return rows, rhs


def _primitive(row):
    """A rational row scaled by a positive factor to coprime integers."""
    scale = lcm(*(v.denominator for v in row))
    ints = [v.numerator * (scale // v.denominator) for v in row]
    content = gcd(*ints)
    return [v // content for v in ints] if content else ints


# the four builtin configs and one draw from the oracle benchmark's m=2,
# half-width 4 template
_ROW_CONFIGS = [builtin_config(name) for name in sorted(BUILTIN_CONFIGS)] + [
    config_from_dict(
        {"a": "7/3", "b": "5/4", "N": 8, "F": [[], [], [], [1, 3]], "path": "corollary"},
        name="oracle-template",
    )
]


@pytest.mark.parametrize("cfg", _ROW_CONFIGS, ids=lambda cfg: cfg.name)
def test_integer_rows_are_the_cleared_fraction_rows(cfg):
    ctx = build_run(cfg).ctx
    r = operator_halfwidth(ctx)
    cap = max(2 * r, max(c.degree for c in krall_operator(ctx).terms.values()))
    lam = eigenvalue_polynomial(ctx)
    qs = [krall_polynomial(ctx, n) for n in range(2 * r + 2)]
    lambdas = [Fraction(lam(n)) for n in range(2 * r + 2)]
    for halfwidth, degree_cap in ((r, cap), (r - 1, max(2 * (r - 1), 0))):
        rows, rhs = _integer_rows(qs, lambdas, halfwidth, degree_cap)
        ref_rows, ref_rhs = _fraction_rows(qs, lambdas, halfwidth, degree_cap)
        assert len(rows) == len(ref_rows) == sum(q.degree + degree_cap + 1 for q in qs)
        for row, b, ref_row, ref_b in zip(rows, rhs, ref_rows, ref_rhs):
            assert all(type(v) is int for v in row) and type(b) is int
            assert row + [b] == _primitive(ref_row + [ref_b])
