"""Independent eigen-operator search by exact linear algebra.

:func:`operator_solution_space` is compared with one global system in every
coefficient of the operator, ``reference._solve_globally``: the same
solvability and nullity, the same operator where it is unique, and an
operator that the certificate accepts where it is not.  Its per-point solves
in the forward-difference basis are compared with one Gauss-Jordan solve per
point in the values h_l(x) themselves (``reference.window_pointwise_nodes``),
solution set for solution set, on the oracle check's probes and seeded
perturbations of them; and the interpolant that it builds,
:func:`krallhahn.polynomials.interpolate` on increasing integer nodes, with
the ``Fraction`` Lagrange interpolant on the same nodes.
"""

import functools
import random
from fractions import Fraction
from operator import mul

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
from krallhahn.oracle import _pointwise_nodes, operator_solution_space
from krallhahn.polynomials import Polynomial, interpolate
from krallhahn.rationals import clear_denominators
from krallhahn.verify import build_run, run_config

from reference import (
    _integer_rows,
    _solve_globally,
    cached_global_solve,
    fraction_rows,
    gauss_jordan,
    lagrange,
    primitive_row,
    reference_eigen_certificate,
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
def coupling(monkeypatch):
    """The row counts of the systems that couple singular points' kernels."""
    calls = []
    rows = oracle._coupling_rows

    def spy(*args):
        built = rows(*args)
        calls.append(len(built))
        return built

    monkeypatch.setattr(oracle, "_coupling_rows", spy)
    return calls


def _kernel_sizes(*probe):
    return [len(kernel) for _, _, kernel in _pointwise_nodes(*probe)]


def test_inconsistent_system_returns_none(classical_data, coupling):
    qs, lams = classical_data
    # corrupt one eigenvalue: no second-order operator fits any more
    bad = list(lams)
    bad[2] += 1
    assert _pointwise_nodes(qs, bad, 1, 2) is None
    assert operator_solution_space(qs, bad, 1, 2) == (None, 0)
    assert coupling == []


def test_interpolant_failing_the_exact_check_returns_none(
    classical_data, coupling, monkeypatch
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
    assert _kernel_sizes(qs, lams, 1, 1) == [0, 0]
    assert operator_solution_space(qs, lams, 1, 1) == (None, 0)
    assert coupling == []
    ((found, reference),) = verdicts
    assert found == reference and not all(found)
    assert _solve_globally(qs, lams, 1, 1) == (None, 0)


@pytest.mark.parametrize("case", ["classical", "capped", "singular"])
def test_certificate_is_told_exactly_the_nodes(case, desk_params, monkeypatch):
    """The interpolant is certified past its nodes only: the zeros handed to
    the certificate are the points 0..cap, and every fed residual vanishes at
    each of them, for the classical operator, for the line through two nodes
    under a cap of 1 that the certificate rejects, and with a singular point
    (x = 3 for a = b, N = 6) among them, resolved through its kernel."""
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
    assert calls == [list(range(cap + 1))]
    assert (found is None) == (case == "capped")


def test_singular_point_is_skipped(coupling):
    """For a = b the Hahn family is symmetric about N / 2: q_n(N - x) =
    (-1)^n q_n(x).  At x = 3 = N / 2 every odd degree gives a row (u, 0, -u),
    so with one even degree fed the system there has rank 2: one kernel
    vector, and one unknown coupled by 0 + 1 + 3 + 5 rows past x = 4."""
    params = HahnParams(HALF, HALF, 6)
    fed = (0, 1, 3, 5)
    qs = [hahn_polynomial(n, params) for n in fed]
    lams = [params.eigenvalue(n) for n in fed]
    assert _kernel_sizes(qs, lams, 1, 4) == [0, 0, 0, 1, 0]
    found = operator_solution_space(qs, lams, 1, 4)
    assert coupling == [9]
    assert found == _solve_globally(qs, lams, 1, 4) == (hahn_operator(params), 0)


def test_every_point_singular_falls_back_to_the_global_solve(desk_params, coupling):
    """Two polynomials give two equations in three values at each point: one
    kernel vector at each of x = 0, 1, 2.  The 4 + 5 coupling rows pin the
    classical operator down, as the 15 global equations do."""
    fed = (4, 5)
    qs = [hahn_polynomial(n, desk_params) for n in fed]
    lams = [desk_params.eigenvalue(n) for n in fed]
    assert _kernel_sizes(qs, lams, 1, 2) == [1, 1, 1]
    found = operator_solution_space(qs, lams, 1, 2)
    assert coupling == [9]
    assert found == _solve_globally(qs, lams, 1, 2) == (hahn_operator(desk_params), 0)


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
def test_pointwise_matches_global_route(name, coupling):
    qs, lambdas, r, cap = _case_inputs(name)
    found = operator_solution_space(qs, lambdas, r, cap)
    assert coupling == []
    assert found == cached_global_solve(tuple(qs), tuple(lambdas), r, cap)
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


def _assert_same_solution_sets(args):
    """Each point's solution set, from the difference basis and from the
    window solve in h: the particular solves every window row, each kernel
    vector is annihilated, the kernel vectors are independent, and there are
    as many as the window's nullity by Gauss-Jordan."""
    found, expected = _pointwise_nodes(*args), window_pointwise_nodes(*args)
    assert (found is None) == (expected is None), args[2:]
    for (h, scale, kernel), (aug, _, nullity) in zip(found or [], expected or []):
        for *row, b in aug:
            assert sum(map(mul, row, h)) == b * scale, args[2:]
            assert not any(sum(map(mul, row, k)) for k in kernel), args[2:]
        assert len(kernel) == nullity, args[2:]
        if kernel:  # independent: only t = 0 solves sum_k t_k K_k = 0
            assert gauss_jordan([list(col) for col in zip(*kernel)], [0] * len(h))[1] == 0
    assert len(found or []) == len(expected or [])


@pytest.mark.parametrize("name", list(_ORACLE_CASES))
def test_difference_basis_matches_window_solves(name, residual_solves):
    """The same solution set at each point, as one Gauss-Jordan solve per
    point in h itself, on the probe and ten seeded perturbations of it."""
    probe = _case_inputs(name)
    assert _kernel_sizes(*probe) == [0] * (probe[3] + 1)
    # four-roots skips degree 8, so its rows past the gap form a dense system
    assert bool(residual_solves) == (name == "four-roots")
    rng = random.Random(f"window:{name}")
    variants = [*_perturbations(*probe, rng), *_perturbations(*probe, rng)]
    for args in [probe, *variants]:
        _assert_same_solution_sets(args)


def test_zero_pivots_match_window_solves(desk_params, residual_solves):
    """Symmetric Hahn data (a = b) has Delta^2r Q_n = 0 at the centre for
    odd n > 2r: a zero pivot at a full top index, and a dense solve there."""
    symmetric = HahnParams(HALF, HALF, 6)
    for params, fed in ((symmetric, (0, 1, 3, 5)), (symmetric, range(7)), (desk_params, range(6))):
        qs = [hahn_polynomial(n, params) for n in fed]
        lams = [params.eigenvalue(n) for n in fed]
        for r, cap in ((1, 2), (1, 4), (2, 4), (3, 6)):
            _assert_same_solution_sets((qs, lams, r, cap))
    assert residual_solves


def test_float_eigenvalues_raise_on_both_routes(coupling):
    """A float holds a binary fraction, not the rational it was written as:
    on either route it raises before any solve, as eigen_certificate does."""
    params = HahnParams(HALF, Fraction(1, 3), 6)
    for fed, calls in (((0, 1, 2, 3, 4), []), ((4, 5), [9])):
        qs = [hahn_polynomial(n, params) for n in fed]
        lams = [params.eigenvalue(n) for n in fed]
        with pytest.raises(TypeError, match="float"):
            operator_solution_space(qs, [float(lam) for lam in lams], 1, 2)
        assert coupling == []
        assert operator_solution_space(qs, lams, 1, 2) == (hahn_operator(params), 0)
        assert coupling == calls
        coupling.clear()


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


def _assert_matches_global_solve(args):
    """The same solvability and nullity as the global system, the same
    operator where it is unique, and one the reference certificate accepts
    where it is not; returns (operator, nullity)."""
    found, nullity = operator_solution_space(*args)
    expected, expected_nullity = _solve_globally(*args)
    assert (found is not None, nullity) == (expected is not None, expected_nullity), args[2:]
    if not nullity:
        assert found == expected, args[2:]
    elif found is not None:
        assert all(reference_eigen_certificate(found, zip(*args[:2]))), args[2:]
    return found, nullity


# Probes that reach the coupling and whose global solve takes milliseconds, as
# (case, half-width bump, cap bump, dropped q_n, kernel vectors, nullity).
# Wider probes of four-roots, F4=[1,3], F4=[2] and F1=[2] are rank-deficient
# global systems that the reference solves in 0.2 s to seconds.
_KERNEL_PROBES = {
    "single-root-wider": ("single-root", 1, 0, None, 5, 5),
    "F4=[1,3]-without-q6": ("F4=[1,3]", 0, 0, 6, 1, 0),
}


@pytest.mark.parametrize("probe", list(_KERNEL_PROBES))
def test_kernel_route_matches_global_solve(probe):
    """Singular points whose kernels leave a nullity, and one (x = 0, with
    degree 6 missing) whose kernel the coupling fixes: the same verdict as
    the global system."""
    name, bump, cap_bump, dropped, kernels, nullity = _KERNEL_PROBES[probe]
    qs, lambdas, r, cap = _case_inputs(name)
    if dropped is not None:
        qs, lambdas = qs[:dropped] + qs[dropped + 1 :], lambdas[:dropped] + lambdas[dropped + 1 :]
    args = (qs, lambdas, r + bump, cap + cap_bump)
    assert sum(_kernel_sizes(*args)) == kernels
    assert _assert_matches_global_solve(args)[1] == nullity


@pytest.mark.parametrize("probe", ["every-point-singular", "single-root-wider"])
def test_negative_coupling_denominator_is_normalised(probe, desk_params, monkeypatch):
    """The coupling solve's denominator may come out negative, and the oracle
    then negates it and its numerators together.  The coupling result
    negated whole, as valid a solution, must leave the operator and the
    nullity unchanged: on the probe with one kernel vector at each of
    x = 0, 1, 2, and on one whose kernels leave a nullity."""
    if probe == "every-point-singular":
        fed = (4, 5)
        qs = [hahn_polynomial(n, desk_params) for n in fed]
        args = (qs, [desk_params.eigenvalue(n) for n in fed], 1, 2)
    else:
        name, bump, cap_bump, _, _, _ = _KERNEL_PROBES[probe]
        qs, lambdas, r, cap = _case_inputs(name)
        args = (qs, lambdas, r + bump, cap + cap_bump)
    expected = operator_solution_space(*args)
    built, dets = [], []
    rows, solve = oracle._coupling_rows, oracle._exact_solve

    def negated(aug, ncols):
        solved = solve(aug, ncols)
        if solved is None or not any(aug is coupled for coupled in built):
            return solved
        t, det, free = solved
        dets.append(-det)
        return [-v for v in t], -det, [[-v for v in vector] for vector in free]

    monkeypatch.setattr(oracle, "_coupling_rows", lambda *a: built.append(rows(*a)) or built[-1])
    monkeypatch.setattr(oracle, "_exact_solve", negated)
    assert operator_solution_space(*args) == expected
    assert expected[0] is not None and len(dets) == 1 and dets[0] < 0


@pytest.mark.parametrize("cap, nullity", [(1, None), (2, 3)])
def test_rows_running_out_leave_the_top_unknown_free(desk_params, coupling, cap, nullity):
    """Fed degrees 0..5 are all below 2r = 6: at every point the rows fix
    g_0..g_5 and run out, so g_6 is free.  One kernel vector per point, and
    the coupling decides as the global system does: no operator under a cap
    of 1, and a nullity of 3 under a cap of 2, which the classical operator
    padded with zeros solves."""
    qs = [hahn_polynomial(n, desk_params) for n in range(6)]
    lams = [desk_params.eigenvalue(n) for n in range(6)]
    assert _kernel_sizes(qs, lams, 3, cap) == [1] * (cap + 1)
    found, found_nullity = _assert_matches_global_solve((qs, lams, 3, cap))
    assert coupling == [sum(range(6))]
    assert (found is not None, found_nullity) == (nullity is not None, nullity or 0)
