"""The slow tier: exactness gates at large m, N and r, outside tier-1's budget.

Run with  PYTHONPATH=src:tests python -m pytest large -q ; plain ``pytest``
collects only ``tests/``.  Every test starts from an empty stage store, as a
fresh process would, so no test reads stages that another test built.
"""

from collections import OrderedDict

import pytest

from krallhahn import casorati
from krallhahn.casorati import (
    krall_operator,
    mixing_polynomial,
    mixing_symbol,
    raw_points,
    spectral_polynomial,
)
from krallhahn.config import config_from_dict
from krallhahn.hahn import factored_hahn_weight
from krallhahn.oracle import operator_solution_space
from krallhahn.verify import build_run, run_config
from reference import (
    _solve_globally,
    fraction_check_foeq,
    full_mixing_polynomial,
    pair_route_mixing,
    reference_eigen_certificate,
    reference_factored_weight,
    reference_krall_operator,
    reference_transformed_weight,
    shifted_entry_mixing,
)
from test_oracle import _case_inputs

NINE = {"a": "1/2", "b": "1/3", "N": 8, "F": [[5], [], [], []], "path": "theorem"}


@pytest.fixture(autouse=True)
def fresh_store(monkeypatch):
    monkeypatch.setattr(casorati, "_store", OrderedDict())


@pytest.mark.parametrize("cap, nullity", [(10, 7), (12, 9)])
def test_kernel_nullity_at_r6_matches_global_solve(cap, nullity):
    """The four-roots oracle probe bumped from r = 5 to r = 6: its singular
    points leave nullities 7 and 9 at caps 10 and 12, which the oracle's
    kernel route and the reference global solve must both report, and the
    oracle's operator must pass the reference certificate."""
    qs, lambdas, r, _ = _case_inputs("four-roots")
    assert r == 5
    found, found_nullity = operator_solution_space(qs, lambdas, 6, cap)
    expected, expected_nullity = _solve_globally(qs, lambdas, 6, cap)
    assert found_nullity == expected_nullity == nullity
    assert found is not None and expected is not None
    assert all(reference_eigen_certificate(found, zip(qs, lambdas)))


@pytest.mark.parametrize("checks", [["all"], ["oracle"]], ids=["all", "oracle"])
def test_nine_oracle_witness(checks):
    """Nine rows (m = 9) on the theorem path.  Its oracle probe has the widest
    degree gap that the tiers reach: Omega vanishes at 10..17, so the rows
    past the gap form a dense system at every point.

    With every check: the cleared determinant and the cofactor values that the
    mixing sums read come from integer point values at large m.  The raw route
    must agree with the cleared one, Omega must vanish on 10..17, and the
    mixing sums must divide at the K'' = K - deg L' + deg L'' points that
    prove the division.

    With the oracle check alone, no cross-check grows the raw table first, so
    the bordered polynomials grow it from empty to its reach (t <= 9) and past
    it, through the singular lanes, to each fed degree: 22 entries, all kept.
    """
    cfg = config_from_dict({**NINE, "checks": checks})
    table = raw_points(build_run(cfg).ctx).table
    assert len(table) == 0
    report = run_config(cfg)
    assert report.passed
    witness = {check.name: check.witness for check in report.checks}
    w = witness["oracle"]
    assert w["skipped_degrees"] == list(range(10, 18)) and w["fed_degrees"] == 21
    assert w["nullity"] == 0 and w["agrees_with_construction"]
    assert w["lower_probe"] == "unsolvable"
    if checks == ["oracle"]:
        assert len(table) == 22
    else:
        assert witness["hypotheses"]["determinant_dual_route"] is True
        assert witness["hypotheses"]["mixing_skew_and_divisible"] is True
        assert witness["omega-nonvanishing"]["forced_nonzeros"] == []


def test_eleven_rows_divide_and_agree():
    """Eleven rows (m = 11) on the theorem path: the cleared determinant and
    adjugate come from one point table, extended to the last point x + j the
    mixing numerators read; each quotient must satisfy quotient * L' =
    numerator at the K'' checked points, and the table's determinant must
    agree with the raw route's and have the predicted degree and leading
    coefficient."""
    config = {**NINE, "F": [[6], [], [], []], "checks": ["hypotheses", "genre", "degree-leading"]}
    report = run_config(config_from_dict(config))
    assert report.passed
    checks = {check.name: check for check in report.checks}
    assert checks["hypotheses"].witness["mixing_skew_and_divisible"] is True
    assert checks["hypotheses"].witness["determinant_dual_route"] is True
    assert checks["degree-leading"].passed is True


def test_orthogonality_at_n_100():
    """N = 100 on the corollary path: the partial-sum certificate and
    Gram-Schmidt on power moments, at a size no benchmark op reaches."""
    config = {"a": "1/2", "b": "1/3", "N": 100, "F": [[], [], [], [1]], "path": "corollary"}
    report = run_config(config_from_dict({**config, "checks": ["orthogonality"]}))
    assert report.passed
    (check,) = report.checks
    w = check.witness
    assert check.passed and w["nonorthogonal_pairs"] == [] and w["zero_norms"] == []
    assert w["gram_schmidt_mismatches"] == [] and len(w["norms"]) == w["n_max"] + 1


@pytest.mark.parametrize(
    "F, N", [([[], [], [], [1]], 100), ([[1], [1], [1], [1]], 60)], ids=["F4=[1]", "F=[1]x4"]
)
def test_criteria_at_large_n(F, N):
    """The criteria check at sizes no benchmark op reaches; at m = 4 its
    negative sums at n = -3..-1 and boundary sum at n = -4 run on the integer
    route too.  It must pass with the Fraction reference's witness."""
    cfg = config_from_dict({
        "a": "1/2", "b": "1/3", "N": N, "F": F, "path": "corollary", "checks": ["criteria"],
    })
    (check,) = run_config(cfg).checks
    run = build_run(cfg)
    assert check.passed
    assert (check.passed, check.witness) == fraction_check_foeq(run.ctx, run.inner_measure)


def test_hahn_data_at_n_1000():
    """F4=[1] at N = 1000: the inner measure (the shifted Hahn weight, its
    masses stepped as reduced integer pairs) and the factored weight must
    equal the Fraction routes, and the support check must pass."""
    cfg = config_from_dict({
        "a": "1/2", "b": "1/3", "N": 1000, "F": [[], [], [], [1]], "path": "corollary",
        "checks": ["support"],
    })
    run = build_run(cfg)
    ctx = run.ctx
    assert run.inner_measure == reference_transformed_weight(ctx.params, ctx.quartet, ctx.pads)
    factored = factored_hahn_weight(run.outer, cfg.quartet)
    assert factored == reference_factored_weight(run.outer, cfg.quartet)
    (check,) = run_config(cfg).checks
    assert check.passed


@pytest.mark.parametrize("config", [
    NINE,
    {"a": "7/3", "b": "11/5", "N": 4, "F": [[2, 3], [1, 3], [], []], "path": "corollary"},
], ids=["F1=[5]", "wide"])
def test_operators_at_large_m_and_r(config):
    """F1=[5] (m = 9, K = 18, weight roots of multiplicity up to 8) and the
    wide probe's construction (r = 8): the operator assembled on integer
    value tables must equal the one composed as polynomials from the
    reference routes; the spectral polynomial and every mixing symbol must
    equal their repeated-divmod theta forms; and every mixing polynomial must
    equal the full-K route's."""
    ctx = build_run(config_from_dict({**config, "checks": ["genre"]})).ctx
    operator, spectral, symbols = reference_krall_operator(ctx)
    assert krall_operator(ctx) == operator
    assert spectral_polynomial(ctx) == spectral
    assert [mixing_symbol(ctx, row) for row in range(ctx.m)] == symbols
    for row in range(ctx.m):
        assert mixing_polynomial(ctx, row) == full_mixing_polynomial(ctx, row), row


def test_mixing_at_m8_every_kind():
    """Two rows of each kind on the corollary path: each mixing row is checked
    at K'' = K - deg L' + deg L'' points, L'' read off the cofactors' orders
    at the normaliser's roots.  Every mixing polynomial must equal the
    reduced-pair route and the shifted-entry route, and the hypotheses, genre
    and eigen-equation checks must pass."""
    cfg = config_from_dict({
        "a": "1/2", "b": "1/3", "N": 8, "F": [[2], [2], [2], [2]], "path": "corollary",
        "checks": ["hypotheses", "genre", "eigen-equation"],
    })
    ctx = build_run(cfg).ctx
    assert ctx.row_kinds == (1, 1, 2, 2, 3, 3, 4, 4)
    for row in range(ctx.m):
        found = mixing_polynomial(ctx, row)
        assert found == pair_route_mixing(ctx, row) == shifted_entry_mixing(ctx, row), row
    assert run_config(cfg).passed
