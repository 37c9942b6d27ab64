"""Independent eigen-operator search by exact linear algebra.

The pointwise route of :func:`operator_solution_space` is compared with the
global system it falls back on, :func:`krallhahn.oracle._solve_globally`,
called directly.  Its per-point solves in the forward-difference basis are
compared with one Bareiss solve per point in the values h_l(x) themselves
(``reference.window_pointwise_nodes``), node list for node list, on the
oracle check's probes and seeded perturbations of them, with each node's
integers over one denominator read as ``Fraction`` values
(``reference.fraction_nodes``); and the interpolant that it builds on those
nodes, :func:`krallhahn.polynomials.interpolate` on increasing integer nodes,
with the ``Fraction`` Lagrange interpolant on the same nodes.
"""

import functools
import random
from fractions import Fraction

import pytest

import krallhahn.oracle as oracle

from krallhahn.casorati import (
    eigenvalue_polynomial,
    krall_operator,
    krall_polynomial,
    operator_halfwidth,
)
from krallhahn.config import BUILTIN_CONFIGS, builtin_config, config_from_dict
from krallhahn.errors import InsufficientData
from krallhahn.hahn import HahnParams, hahn_operator, hahn_polynomial
from krallhahn.oracle import (
    _integer_rows,
    _pointwise_nodes,
    _solve_globally,
    operator_solution_space,
)
from krallhahn.polynomials import Polynomial, interpolate
from krallhahn.rationals import clear_denominators
from krallhahn.verify import build_run, run_config

from reference import (
    fraction_nodes,
    fraction_rows,
    lagrange,
    primitive_row,
    window_pointwise_nodes,
)


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


@pytest.fixture
def global_route(monkeypatch):
    """Counts the calls of the global solve that the pointwise route falls back on."""
    calls = []
    solve = oracle.solve_linear_system

    def spy(rows, rhs):
        calls.append(len(rows))
        return solve(rows, rhs)

    monkeypatch.setattr(oracle, "solve_linear_system", spy)
    return calls


def test_inconsistent_system_returns_none(classical_data, global_route):
    qs, lams = classical_data
    # corrupt one eigenvalue: no second-order operator fits any more
    bad = list(lams)
    bad[2] += 1
    assert _pointwise_nodes(qs, bad, 1, 2) is None
    assert operator_solution_space(qs, bad, 1, 2) == (None, 0)
    assert global_route == []


def test_interpolant_failing_the_exact_check_returns_none(
    classical_data, global_route, monkeypatch
):
    """The classical operator has quadratic coefficients.  Under a cap of 1
    every point still has its unique values, but the line through two of
    them is no operator: the eigen certificate rejects it, as apply does."""
    qs, lams = classical_data
    verdicts = []
    certify = oracle.eigen_certificate

    def spy(op, pairs, zeros=()):
        pairs = list(pairs)
        verdicts.append((certify(op, pairs, zeros), [op.apply(q) == q * lam for q, lam in pairs]))
        return verdicts[-1][0]

    monkeypatch.setattr(oracle, "eigen_certificate", spy)
    assert len(_pointwise_nodes(qs, lams, 1, 1)) == 2
    assert operator_solution_space(qs, lams, 1, 1) == (None, 0)
    assert global_route == []
    ((found, reference),) = verdicts
    assert found == reference and not all(found)
    assert _solve_globally(qs, lams, 1, 1) == (None, 0)


@pytest.mark.parametrize("case", ["classical", "capped", "singular"])
def test_certificate_is_told_exactly_the_nodes(case, desk_params, monkeypatch):
    """The interpolant is certified past its nodes only: the zeros handed to
    the certificate are the node points, and every fed residual vanishes at
    each of them, for the classical operator, for the line through two nodes
    under a cap of 1 that the certificate rejects, and with a singular point
    (x = 3 for a = b, N = 6) skipped among the nodes."""
    params = HahnParams(HALF, HALF, 6) if case == "singular" else desk_params
    fed = (0, 1, 3, 5) if case == "singular" else range(5)
    cap = {"classical": 2, "capped": 1, "singular": 4}[case]
    qs = [hahn_polynomial(n, params) for n in fed]
    lams = [params.eigenvalue(n) for n in fed]
    calls = []
    certify = oracle.eigen_certificate

    def spy(op, pairs, zeros=()):
        pairs, zeros = list(pairs), list(zeros)
        calls.append(zeros)
        for q, lam in pairs:
            residual = op.apply(q) - q * lam
            assert all(residual(x) == 0 for x in zeros)
        return certify(op, pairs, zeros)

    monkeypatch.setattr(oracle, "eigen_certificate", spy)
    found, _ = operator_solution_space(qs, lams, 1, cap)
    assert calls == [[x for x, _ in _pointwise_nodes(qs, lams, 1, cap)]]
    assert (found is None) == (case == "capped")


def test_singular_point_is_skipped(global_route):
    """For a = b the Hahn family is symmetric about N / 2: q_n(N - x) =
    (-1)^n q_n(x).  At x = 3 = N / 2 every odd degree gives a row (u, 0, -u),
    so with one even degree fed the system there has rank 2 and no node."""
    params = HahnParams(HALF, HALF, 6)
    fed = (0, 1, 3, 5)
    qs = [hahn_polynomial(n, params) for n in fed]
    lams = [params.eigenvalue(n) for n in fed]
    assert [x for x, _ in _pointwise_nodes(qs, lams, 1, 4)] == [0, 1, 2, 4, 5]
    found = operator_solution_space(qs, lams, 1, 4)
    assert global_route == []
    assert found == _solve_globally(qs, lams, 1, 4) == (hahn_operator(params), 0)


def test_every_point_singular_falls_back_to_the_global_solve(desk_params, global_route):
    """Two polynomials give two equations in three values at each point: no node.
    The 15 global equations still pin the classical operator down."""
    fed = (4, 5)
    qs = [hahn_polynomial(n, desk_params) for n in fed]
    lams = [desk_params.eigenvalue(n) for n in fed]
    assert _pointwise_nodes(qs, lams, 1, 2) == []
    found = operator_solution_space(qs, lams, 1, 2)
    assert global_route == [15]
    assert found == (hahn_operator(desk_params), 0)


def test_wider_probe_still_unique(classical_data, desk_params):
    # enough data pins the operator even inside a larger search space
    qs, lams = classical_data
    qs = qs + [hahn_polynomial(n, desk_params) for n in range(5, 9)]
    lams = lams + [desk_params.eigenvalue(n) for n in range(5, 9)]
    op, nullity = operator_solution_space(qs, lams, 2, 2)
    assert nullity == 0
    assert op == hahn_operator(desk_params)


HALF = Fraction(1, 2)


def _oracle_inputs(cfg):
    """The (qs, lambdas, halfwidth, cap) that the ``oracle`` check solves for."""
    import krallhahn.verify as verify

    calls = []

    def record(*args):
        calls.append(args)
        return operator_solution_space(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "operator_solution_space", record)
        run_config(config_from_dict({**cfg, "checks": ["oracle"]}))
    (args,) = calls
    return args


# the four builtin configs and the oracle benchmark's three templates
_ORACLE_CASES = {
    **BUILTIN_CONFIGS,
    **{
        name: {"a": "7/3", "b": "11/5", "N": 8, "F": F, "path": path}
        for name, F, path in (
            ("F4=[2]", [[], [], [], [2]], "corollary"),
            ("F4=[1,3]", [[], [], [], [1, 3]], "corollary"),
            ("F1=[2]", [[2], [], [], []], "theorem"),
        )
    },
}


@functools.cache
def _case_inputs(name):
    return _oracle_inputs(_ORACLE_CASES[name])


@pytest.mark.parametrize("name", list(_ORACLE_CASES))
def test_pointwise_matches_global_route(name, global_route):
    qs, lambdas, r, cap = _case_inputs(name)
    found = operator_solution_space(qs, lambdas, r, cap)
    assert global_route == []
    assert found == _solve_globally(qs, lambdas, r, cap)
    assert found[0] is not None and found[1] == 0


def _perturbations(qs, lambdas, r, cap, rng):
    """Five seeded variants of one probe: a corrupted eigenvalue, a dropped
    q_n, shuffled rows, half-width r +- 1 and a changed degree cap."""
    k = rng.randrange(len(qs))
    bad = list(lambdas)
    bad[k] += Fraction(rng.randint(1, 9), rng.randint(1, 5))
    pairs = list(zip(qs, lambdas))
    rng.shuffle(pairs)
    yield qs, bad, r, cap
    yield qs[:k] + qs[k + 1 :], lambdas[:k] + lambdas[k + 1 :], r, cap
    yield [q for q, _ in pairs], [lam for _, lam in pairs], r, cap
    yield qs, lambdas, r + rng.choice((-1, 1)) if r else 1, cap
    yield qs, lambdas, r, max(0, cap + rng.choice((-3, -2, -1, 1, 2)))


@pytest.fixture
def residual_solves(monkeypatch):
    """Counts the dense solves at degree gaps and zero pivots."""
    calls = []
    solve = oracle._exact_solve

    def spy(aug, ncols):
        calls.append(ncols)
        return solve(aug, ncols)

    monkeypatch.setattr(oracle, "_exact_solve", spy)
    return calls


@pytest.mark.parametrize("name", list(_ORACLE_CASES))
def test_difference_basis_matches_window_solves(name, residual_solves):
    """The same node list, points and h values, as one Bareiss solve per
    point in h itself, on the probe and ten seeded perturbations of it."""
    probe = _case_inputs(name)
    assert len(_pointwise_nodes(*probe)) == probe[3] + 1
    # four-roots skips degree 8, so its rows past the gap form a dense system
    assert bool(residual_solves) == (name == "four-roots")
    rng = random.Random(f"window:{name}")
    variants = [*_perturbations(*probe, rng), *_perturbations(*probe, rng)]
    for args in [probe, *variants]:
        assert fraction_nodes(_pointwise_nodes(*args)) == window_pointwise_nodes(*args), args[2:]


def test_zero_pivots_match_window_solves(desk_params, residual_solves):
    """Symmetric Hahn data (a = b) has Delta^2r Q_n = 0 at the centre for
    odd n > 2r: a zero pivot at a full top index, and a dense solve there."""
    symmetric = HahnParams(HALF, HALF, 6)
    for params, fed in ((symmetric, (0, 1, 3, 5)), (symmetric, range(7)), (desk_params, range(6))):
        qs = [hahn_polynomial(n, params) for n in fed]
        lams = [params.eigenvalue(n) for n in fed]
        for r, cap in ((1, 2), (1, 4), (2, 4), (3, 6)):
            nodes = fraction_nodes(_pointwise_nodes(qs, lams, r, cap))
            assert nodes == window_pointwise_nodes(qs, lams, r, cap)
    assert residual_solves


def test_float_eigenvalues_raise_on_both_routes(global_route):
    """A float holds a binary fraction, not the rational it was written as:
    on either route it raises before any solve, as eigen_certificate does."""
    params = HahnParams(HALF, Fraction(1, 3), 6)
    for fed, calls in (((0, 1, 2, 3, 4), []), ((4, 5), [15])):
        qs = [hahn_polynomial(n, params) for n in fed]
        lams = [params.eigenvalue(n) for n in fed]
        with pytest.raises(TypeError, match="float"):
            operator_solution_space(qs, [float(lam) for lam in lams], 1, 2)
        assert global_route == []
        assert operator_solution_space(qs, lams, 1, 2) == (hahn_operator(params), 0)
        assert global_route == calls
        global_route.clear()


def test_integer_divided_differences_match_fraction_ones():
    rng = random.Random(16)
    for trial in range(60):
        count = rng.randint(1, 9)
        # increasing integer nodes, consecutive in every third trial
        nodes = list(range(count)) if trial % 3 == 0 else sorted(rng.sample(range(-6, 14), count))
        values = [Fraction(rng.randint(-50, 50), rng.randint(1, 12)) for _ in nodes]
        interpolant = interpolate(*clear_denominators(values), nodes)
        assert interpolant == lagrange(nodes, values), trial
        assert interpolant.degree < count
        assert [interpolant(x) for x in nodes] == values, trial


def test_validation():
    with pytest.raises(ValueError):
        operator_solution_space([Polynomial.one()], [Fraction(0), Fraction(1)], 1, 2)
    with pytest.raises(ValueError):
        operator_solution_space([Polynomial.one()], [Fraction(0)], -1, 2)


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
        ref_rows, ref_rhs = fraction_rows(qs, lambdas, halfwidth, degree_cap)
        assert len(rows) == len(ref_rows) == sum(q.degree + degree_cap + 1 for q in qs)
        for row, b, ref_row, ref_b in zip(rows, rhs, ref_rows, ref_rhs):
            assert all(type(v) is int for v in row) and type(b) is int
            assert row + [b] == primitive_row(ref_row + [ref_b])
