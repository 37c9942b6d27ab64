"""The verification harness: runs, checks, reports, enumeration."""

import json
from collections import OrderedDict
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, product
from math import prod

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from krallhahn.config import (
    BUILTIN_CONFIGS,
    CHECK_NAMES,
    ConstructionConfig,
    builtin_config,
    config_from_dict,
)
from krallhahn import casorati
from krallhahn.casorati import series_ratios
from krallhahn.context import context_from_degrees, context_from_quartet
from krallhahn.diffops import DifferenceOperator
from krallhahn.ladder import KINDS, series_ratio
from krallhahn.errors import ConfigInvalid, KrallHahnError, NonExactDivision, ParameterSingularity
from krallhahn.hahn import HahnParams, factored_hahn_weight, hahn_weight
from krallhahn.measures import DiscreteMeasure
from krallhahn.oracle import operator_solution_space
from krallhahn.polynomials import Polynomial
from krallhahn.rationals import format_rational
from krallhahn.sets import (
    SetQuartet,
    default_pads,
    degree_sum_halfwidth,
    theorem_halfwidth,
    transform_quartet,
)
from krallhahn.verify import (
    build_run,
    check_foeq,
    enumerate_root_couples,
    run_config,
    run_many,
)

from freeze_golden import scrub as _scrub
import reference
from reference import (
    apply_route_failures,
    cached_global_solve,
    casorati_value,
    closed_form_product_values,
    fraction_check_foeq,
    operator_add,
    proportionality_constant,
    reference_eigen_certificate,
    solve_lower_probe,
)


def test_build_run_theorem_path():
    run = build_run(builtin_config("single-root-direct"))
    assert run.shift == 0
    assert run.ctx.m == 1
    assert run.n_max == 9
    assert run.measure is run.inner_measure
    assert run.measure.size == 10


def test_build_run_corollary_path():
    run = build_run(builtin_config("single-root"))
    assert run.shift == 2
    assert run.n_max == 7
    assert run.measure.size == 8
    assert sorted(run.measure.support) == [0, 2, 3, 4, 5, 6, 7, 8]


def test_build_run_honours_n_max_cap():
    cfg = ConstructionConfig(
        a=Fraction(1, 2),
        b=Fraction(1, 3),
        N=8,
        quartet=SetQuartet.of((), (), (), (1,)),
        pads=None,
        path="corollary",
        checks=("eigen-equation",),
        n_max=3,
    )
    assert build_run(cfg).n_max == 3


def test_build_run_rejects_bad_parameters():
    cfg = config_from_dict(
        {
            "a": "2",
            "b": "1/3",
            "N": 8,
            "F": [[], [1], [], []],
            "path": "corollary",
        }
    )
    with pytest.raises(ConfigInvalid, match="second/fourth"):
        build_run(cfg)


def test_build_run_names_the_corollary_bound_on_n():
    cfg = config_from_dict({"a": "1/2", "b": "1/3", "N": 8, "F": [[], [], [], [7]]})
    with pytest.raises(
        ConfigInvalid, match=r"the corollary path needs N >= max F3 \+ max F4 \+ 3 = 9 "
    ):
        build_run(cfg)


def test_run_config_report_shape():
    report = run_config(builtin_config("classical"))
    assert report.passed
    assert tuple(c.name for c in report.checks) == CHECK_NAMES
    assert report.summary["rows"] == 0
    assert report.summary["path"] == "theorem"
    assert report.summary["r"] == 1
    payload = report.to_json_dict()
    assert set(payload) == {"config", "summary", "checks"}
    assert payload["summary"]["passed"] is True


def test_oracle_fails_when_a_narrower_operator_exists():
    """Probed one half-width above the construction, the unique solution is the
    constructed operator, which has half-width r: a narrower operator exists."""
    check, _ = _oracle_with_spy(BUILTIN_CONFIGS["single-root"], bump=1)
    assert not check.passed
    assert check.witness["agrees_with_construction"] and check.witness["nullity"] == 0
    assert check.witness["lower_probe"] == "solvable with degree cap 4"


def _oracle_with_spy(cfg, bump=0, solve=operator_solution_space):
    """Run only ``oracle``, its half-width raised by ``bump``; return the check
    and, for every solve it made, its arguments and its result."""
    import krallhahn.verify as verify

    calls = []
    halfwidth = verify.operator_halfwidth

    def spy(qs, lambdas, r, cap):
        calls.append(((qs, lambdas, r, cap), solve(qs, lambdas, r, cap)))
        return calls[-1][1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "operator_solution_space", spy)
        mp.setattr(verify, "operator_halfwidth", lambda ctx: halfwidth(ctx) + bump)
        check = run_config(config_from_dict({**cfg, "checks": ["oracle"]})).checks[0]
    return check, calls


def _assert_matches_second_solve(cfg, bump):
    check, calls = _oracle_with_spy(cfg, bump)
    assert len(calls) == 1
    # the pointwise route gives what the global system, solved directly, gives:
    # the same verdict and nullity, the same operator where it is unique, and
    # one the reference certificate accepts where it is not
    ((args, (found, nullity)),) = calls
    qs, lambdas, r, cap = args
    expected, expected_nullity = cached_global_solve(tuple(qs), tuple(lambdas), r, cap)
    assert (found is not None, nullity) == (expected is not None, expected_nullity)
    if not nullity:
        assert found == expected
    elif found is not None:
        assert all(reference_eigen_certificate(found, zip(qs, lambdas)))
    witness = check.witness
    if witness["nullity"]:
        assert not check.passed and witness["lower_probe"].startswith("undecided")
        return check
    lower = solve_lower_probe(qs, lambdas, r)
    assert witness["lower_probe"] == lower
    assert check.passed == (
        witness["solvable"] and witness["agrees_with_construction"] and lower == "unsolvable"
    )
    return check


_ORACLE_TEMPLATES = {
    "F4=[2]": ([[], [], [], [2]], "corollary"),
    "F4=[1,3]": ([[], [], [], [1, 3]], "corollary"),
    "F1=[2]": ([[2], [], [], []], "theorem"),
}
_DIFFERENTIAL_CASES = {
    **BUILTIN_CONFIGS,
    **{
        name: {"a": "7/3", "b": "11/5", "N": 8, "F": F, "path": path}
        for name, (F, path) in _ORACLE_TEMPLATES.items()
    },
}


@pytest.mark.parametrize("bump", [0, 1])
@pytest.mark.parametrize("name", list(_DIFFERENTIAL_CASES))
def test_oracle_lower_probe_matches_second_solve(name, bump):
    """One solve at r gives the verdict and witness the r - 1 solve gave."""
    check = _assert_matches_second_solve(_DIFFERENTIAL_CASES[name], bump)
    r = check.witness["halfwidth"]
    expected = f"solvable with degree cap {2 * (r - 1)}" if bump else "unsolvable"
    assert check.witness["lower_probe"] == expected
    assert check.passed == (not bump)


def _small_quartets():
    """(path, F, r, least N) with sets inside {1, 2, 3}, m <= 4, r <= 4 and N <= 8."""
    subsets = [list(c) for k in range(3) for c in combinations(range(1, 4), k)]
    out = []
    for F in product(subsets, repeat=4):
        quartet = SetQuartet.of(*F)
        pads = default_pads(quartet)
        least = max(F[2], default=-1) + max(F[3], default=-1) + 3
        for path, rows, r, low in (
            ("theorem", quartet, theorem_halfwidth(quartet, pads), 2),
            ("corollary", quartet.reversal(), degree_sum_halfwidth(quartet.sets), least),
        ):
            if sum(map(len, transform_quartet(rows, pads))) <= 4 and r <= 4 and low <= 8:
                out.append((path, list(F), r, low))
    return out


_SMALL_QUARTETS = _small_quartets()
# a and b in (-1, 5), never integers, with denominators at most 4
_NON_INTEGERS = sorted(
    {Fraction(n, d) for d in (2, 3, 4) for n in range(1 - d, 5 * d) if n % d}
)


@st.composite
def _small_oracle_runs(draw):
    """A small config and a half-width bump that keeps the probe at most 4 wide."""
    path, F, r, low = draw(st.sampled_from(_SMALL_QUARTETS))
    cfg = {
        "a": str(draw(st.sampled_from(_NON_INTEGERS))),
        "b": str(draw(st.sampled_from(_NON_INTEGERS))),
        "N": draw(st.integers(low, 8)),
        "F": F,
        "path": path,
    }
    return cfg, draw(st.integers(0, min(1, 4 - r)))


@settings(max_examples=15)
@given(_small_oracle_runs())
def test_oracle_lower_probe_matches_second_solve_on_random_configs(case):
    cfg, bump = case
    try:
        build_run(config_from_dict(cfg))
    except ConfigInvalid:
        reject()
    _assert_matches_second_solve(cfg, bump)


def test_oracle_solves_once():
    _, calls = _oracle_with_spy(BUILTIN_CONFIGS["four-roots"])
    assert len(calls) == 1


def test_oracle_with_nullity_leaves_the_narrower_question_undecided():
    def underdetermined(qs, lambdas, r, cap):
        found, _ = operator_solution_space(qs, lambdas, r, cap)
        return found, 2

    check, calls = _oracle_with_spy(BUILTIN_CONFIGS["single-root"], solve=underdetermined)
    assert len(calls) == 1
    assert not check.passed and check.witness["agrees_with_construction"]
    assert check.witness["lower_probe"] == "undecided: nullity 2"


def test_oracle_unique_solution_with_outer_shifts_has_no_narrower_operator():
    """A unique solution with a +-r term rules out a narrower one at any degree."""

    def outer_shifts(qs, lambdas, r, cap):
        return DifferenceOperator({-r: Polynomial.one(), r: Polynomial.one()}), 0

    check, _ = _oracle_with_spy(BUILTIN_CONFIGS["single-root"], solve=outer_shifts)
    assert not check.passed and not check.witness["agrees_with_construction"]
    assert check.witness["lower_probe"] == "unsolvable"


def test_oracle_unsolvable_probe_has_no_narrower_operator():
    check, calls = _oracle_with_spy(
        BUILTIN_CONFIGS["single-root"], solve=lambda *args: (None, 0)
    )
    assert len(calls) == 1
    assert not check.passed and not check.witness["solvable"]
    assert check.witness["lower_probe"] == "unsolvable"


def test_oracle_feeds_past_the_forced_zeros_of_omega():
    """F1=[4], N=8, theorem path: Omega vanishes on 10..15, inside 0..2r+1 = 0..11.

    Fed those degrees, the probe was underdetermined (nullity 11) and failed.
    """
    cfg = config_from_dict(
        {"a": "1/2", "b": "1/3", "N": 8, "F": [[4], [], [], []], "path": "theorem",
         "checks": ["oracle"]}
    )
    check = run_config(cfg).checks[0]
    assert check.passed
    assert check.witness["skipped_degrees"] == list(range(10, 16))
    assert check.witness["fed_degrees"] == 17 and check.witness["nullity"] == 0


@pytest.mark.parametrize("name, zeros", [("four-roots", [8]), ("single-root", [])])
def test_oracle_skips_exactly_the_zeros_of_omega(name, zeros):
    cfg = config_from_dict({**BUILTIN_CONFIGS[name], "checks": ["oracle"]})
    check = run_config(cfg).checks[0]
    assert check.passed
    top = check.witness["fed_degrees"]
    ctx = build_run(cfg).ctx
    assert [n for n in range(top + 1) if casorati_value(ctx, n) == 0] == zeros
    assert check.witness["skipped_degrees"] == zeros
    assert top + 1 - len(zeros) == 2 * check.witness["halfwidth"] + 2


def test_orthogonality_fails_for_a_non_orthogonal_member(monkeypatch):
    """q_3 plus a multiple of q_1 breaks both the Gram table and Gram-Schmidt."""
    import krallhahn.verify as verify

    build = verify.krall_polynomial
    cfg = config_from_dict({**BUILTIN_CONFIGS["single-root"], "checks": ["orthogonality"]})
    assert run_config(cfg).passed

    def tilted(ctx, n):
        q = build(ctx, n)
        return q + Fraction(1, 3) * build(ctx, 1) if n == 3 else q

    monkeypatch.setattr(verify, "krall_polynomial", tilted)
    check = run_config(cfg).checks[0]
    assert not check.passed
    assert check.witness["nonorthogonal_pairs"] == [[1, 3]]
    assert 3 in check.witness["gram_schmidt_mismatches"]
    assert check.witness["zero_norms"] == []


@pytest.mark.parametrize("name, bump, member", [
    ("single-root", (1, 2, Fraction(1, 5)), None),
    ("four-roots", (-2, 0, Fraction(-3, 7)), None),
    ("single-root", None, "tilted"),
    ("classical", (0, 3, Fraction(2)), "scaled"),
])
def test_eigen_equation_fails_for_a_perturbed_operator(monkeypatch, name, bump, member):
    """c x^k added to the coefficient of one shift, or a member q_3 that is no
    eigenfunction (q_3 + q_1 / 3) or fails the leading-coefficient gate (2 q_3):
    the check fails, with the witness the reference apply route gives."""
    import krallhahn.verify as verify

    build_op, build_q = verify.krall_operator, verify.krall_polynomial
    cfg = config_from_dict({**BUILTIN_CONFIGS[name], "checks": ["eigen-equation"]})
    assert run_config(cfg).passed

    def perturbed(ctx):
        op = build_op(ctx)
        if bump is None:
            return op
        offset, k, c = bump
        return operator_add(op, DifferenceOperator({offset: c * Polynomial.variable() ** k}))

    def changed(ctx, n):
        q = build_q(ctx, n)
        if n != 3 or member is None:
            return q
        return q + Fraction(1, 3) * build_q(ctx, 1) if member == "tilted" else 2 * q

    monkeypatch.setattr(verify, "krall_operator", perturbed)
    monkeypatch.setattr(verify, "krall_polynomial", changed)
    check = run_config(cfg).checks[0]
    expected = apply_route_failures(cfg, perturbed(build_run(cfg).ctx), changed)
    assert not check.passed
    assert check.witness["failures"] == expected
    reasons = {failure["n"]: failure["reason"] for failure in expected}
    if member == "tilted":
        assert expected == [{"n": 3, "reason": "eigen-equation residual nonzero"}]
    else:
        assert len(expected) == check.witness["n_max"] + 1
        assert reasons.get(3) == (
            "leading coefficient mismatch" if member else "eigen-equation residual nonzero"
        )


@pytest.mark.parametrize("check, other", [
    ("omega-nonvanishing", "support"),
    ("degree-leading", "genre"),
    ("genre", "degree-leading"),
    ("support", "genre"),
    ("criteria", "support"),
    ("orthogonality", "support"),
    ("oracle", "support"),
    ("eigen-equation", "degree-leading"),
    ("hypotheses", "genre"),
])
def test_each_check_fails_on_its_own_fault(monkeypatch, check, other):
    """One name that a check reads in verify is patched with a fault on the
    four-roots config: that check fails and its witness names the fault, and
    a second check, which does not read the name, still passes."""
    import krallhahn.verify as verify

    cfg = config_from_dict({**BUILTIN_CONFIGS["four-roots"], "checks": [check, other]})
    assert run_config(cfg).passed
    ctx = build_run(cfg).ctx
    parts, leading = verify.casorati_parts, verify.core_leading_coefficient
    operator, support = verify.krall_operator, verify.transformed_support
    base, member = verify.base_polynomial, verify.krall_polynomial
    hahn_leading, raw = verify.base_leading_coefficient, verify.casorati_rational
    r = verify.operator_halfwidth(ctx)
    first = min(raw(ctx))

    def moved(*args):  # the first point of the support formula, one step down
        first, *rest = support(*args)
        return [first - 1, *rest]

    faults = {
        "omega-nonvanishing": ("casorati_parts", lambda ctx, n: (0, 1) if n == 1 else parts(ctx, n)),
        "degree-leading": ("core_leading_coefficient", lambda ctx: 2 * leading(ctx)),
        "genre": (
            "krall_operator", lambda ctx: operator_add(operator(ctx), DifferenceOperator({r + 1: 1}))
        ),
        "support": ("transformed_support", moved),
        "criteria": ("base_polynomial", lambda ctx, n: base(ctx, n) + (1 if n == 2 else 0)),
        # q_2 and q_3 swapped: still pairwise orthogonal, but no longer of degree n
        "orthogonality": ("krall_polynomial", lambda ctx, n: member(ctx, {2: 3, 3: 2}.get(n, n))),
        # the constructed operator plus the identity: the oracle still finds the true one
        "oracle": (
            "krall_operator", lambda ctx: operator_add(operator(ctx), DifferenceOperator({0: 1}))
        ),
        "eigen-equation": (
            "base_leading_coefficient",
            lambda ctx, n: 2 * hahn_leading(ctx, n) if n == 2 else hahn_leading(ctx, n),
        ),
        # the raw determinant's first value, one more: the dual route disagrees there
        "hypotheses": (
            "casorati_rational",
            lambda ctx: {t: v + 1 if t == first else v for t, v in raw(ctx).items()},
        ),
    }
    monkeypatch.setattr(verify, *faults[check])
    failed, passed = run_config(cfg).checks
    assert (failed.name, failed.passed, passed.name, passed.passed) == (check, False, other, True)
    witness = failed.witness
    if check == "omega-nonvanishing":
        assert witness["zeros"] == [1]
    elif check == "degree-leading":
        assert witness["degree"] == witness["expected_degree"]
        assert witness["leading"] == format_rational(leading(ctx))
        assert witness["expected_leading"] == format_rational(2 * leading(ctx))
    elif check == "genre":
        assert witness["genre"] == [-r, r + 1] and witness["r_from_degrees"] == r
    elif check == "support":
        assert witness["size"] == witness["expected_size"]
        assert witness["support_matches_formula"] is False
    elif check == "criteria":
        assert [failure["n"] for failure in witness["moment_failures"]] == [2]
    elif check == "orthogonality":
        assert witness["gram_schmidt_mismatches"] == [2, 3]
        assert witness["nonorthogonal_pairs"] == [] and witness["zero_norms"] == []
    elif check == "oracle":
        assert witness["solvable"] and witness["nullity"] == 0
        assert not witness["agrees_with_construction"]
        assert witness["lower_probe"] == "unsolvable"
    elif check == "eigen-equation":
        assert witness["failures"] == [{"n": 2, "reason": "leading coefficient mismatch"}]
    else:
        flags = {key: value for key, value in witness.items() if isinstance(value, bool)}
        assert [key for key, value in flags.items() if not value] == ["determinant_dual_route"]


def test_support_check_reads_the_point_denominator():
    """The run's integer points over the point denominator 2 put every atom at
    half its place: the points match the formula's integers, but the support
    does not."""
    import krallhahn.verify as verify

    run = build_run(builtin_config("single-root-direct"))
    halved = DiscreteMeasure({
        Fraction(pt, 2): Fraction(m, run.measure.mass_denominator)
        for pt, m in zip(run.measure.points, run.measure.masses)
    })
    assert (halved.points, halved.point_denominator) == (run.measure.points, 2)
    assert verify._check_support(run)[0]
    ok, witness = verify._check_support(replace(run, measure=halved))
    assert not ok and witness["support_matches_formula"] is False
    assert witness["size"] == witness["expected_size"]


@pytest.mark.parametrize("term", ["nonorthogonal_pairs", "zero_norms"])
def test_orthogonality_gate_terms_fail_on_their_own(monkeypatch, term):
    """Gram-Schmidt is patched to agree with a faulty family, so that only one
    gate term sees the fault: q_3 + q_1 / 3 leaves one nonorthogonal pair, and
    q_top replaced by the product of (x - point) over the support leaves one
    zero norm and every pair orthogonal.  Each alone fails the check."""
    import krallhahn.verify as verify

    cfg = config_from_dict({**BUILTIN_CONFIGS["four-roots"], "checks": ["orthogonality"]})
    run = build_run(cfg)
    top, member = run.n_max, verify.krall_polynomial

    def faulty(ctx, n):
        if term == "nonorthogonal_pairs" and n == 3:
            return member(ctx, 3) + Fraction(1, 3) * member(ctx, 1)
        if term == "zero_norms" and n == top:
            return Polynomial.from_roots(run.inner_measure.support)
        return member(ctx, n)

    def agreeing(measure, up_to):
        return [faulty(run.ctx, n).monic() for n in range(up_to + 1)]

    monkeypatch.setattr(verify, "krall_polynomial", faulty)
    monkeypatch.setattr(verify, "gram_schmidt", agreeing)
    (check,) = run_config(cfg).checks
    assert not check.passed
    witness = check.witness
    assert witness["gram_schmidt_mismatches"] == []
    if term == "nonorthogonal_pairs":
        assert witness["nonorthogonal_pairs"] == [[1, 3]] and witness["zero_norms"] == []
    else:
        assert witness["nonorthogonal_pairs"] == [] and witness["zero_norms"] == [top]


@pytest.mark.parametrize("term", [
    "lambda_pinned_at_minus_one",
    "increment_transport",
    "mixing_skew_and_divisible",
    "spectral_difference_identity",
])
def test_hypotheses_gate_terms_fail_on_their_own(monkeypatch, term):
    """A fault that only one gate term of ``hypotheses`` reads: lambda + 1,
    the reflection moved at the increment's centre a + b - 1 only, a mixing
    polynomial + 1, and the spectral polynomial + x.  Each alone fails the
    check, and every other term still holds."""
    import krallhahn.verify as verify

    cfg = config_from_dict({**BUILTIN_CONFIGS["four-roots"], "checks": ["hypotheses"]})
    p = build_run(cfg).ctx.params
    lam, reflect = verify.eigenvalue_polynomial, verify.reflect
    mixing, spectral = verify.mixing_polynomial, verify.spectral_polynomial
    faults = {
        "lambda_pinned_at_minus_one": ("eigenvalue_polynomial", lambda ctx: lam(ctx) + 1),
        "increment_transport": (
            "reflect",
            lambda f, centre: reflect(f, centre) + (1 if centre == p.a + p.b - 1 else 0),
        ),
        "mixing_skew_and_divisible": ("mixing_polynomial", lambda ctx, row: mixing(ctx, row) + 1),
        "spectral_difference_identity": (
            "spectral_polynomial",
            lambda ctx: spectral(ctx) + Polynomial.variable(),
        ),
    }
    monkeypatch.setattr(verify, *faults[term])
    (check,) = run_config(cfg).checks
    flags = {key: value for key, value in check.witness.items() if isinstance(value, bool)}
    assert not check.passed
    assert [key for key, value in flags.items() if not value] == [term]


def test_run_config_criteria_constant_surfaces():
    report = run_config(builtin_config("single-root"))
    assert report.passed
    assert report.summary["criteria_constant"] == "-20095806215/17915904"
    assert report.summary["eigenvalues"][0] == "-44/3"


def test_run_config_names_a_construction_error(monkeypatch):
    """An eigenvalue polynomial that cannot be built leaves the report whole:
    its checks are kept, and its summary names the error in place of the
    half-width and the eigenvalues."""
    import krallhahn.verify as verify

    def fails(ctx):
        raise NonExactDivision("remainder x + 1")

    monkeypatch.setattr(verify, "eigenvalue_polynomial", fails)
    cfg = config_from_dict({**BUILTIN_CONFIGS["single-root"], "checks": ["support"]})
    report = run_config(cfg)
    assert [check.name for check in report.checks] == ["support"] and report.passed
    summary = report.to_json_dict()["summary"]
    assert summary["construction_error"] == "NonExactDivision: remainder x + 1"
    assert "r" not in summary and "eigenvalues" not in summary


def test_report_is_deterministic():
    cfg = builtin_config("single-root")
    first = _scrub(run_config(cfg).to_json_dict())
    second = _scrub(run_config(cfg).to_json_dict())
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


def test_run_many_serial():
    configs = [builtin_config("classical"), builtin_config("single-root")]
    reports = run_many(configs, workers=1)
    assert [r.config.name for r in reports] == ["classical", "single-root"]
    assert all(r.passed for r in reports)


def test_run_many_process_pool_matches_serial():
    configs = [builtin_config("single-root"), builtin_config("classical")]
    serial = run_many(configs, workers=1)
    pooled = run_many(configs, workers=2)
    assert [r.config for r in pooled] == configs
    assert [_scrub(r.to_json_dict()) for r in pooled] == [
        _scrub(r.to_json_dict()) for r in serial
    ]


def test_run_many_honours_the_workers_variable(monkeypatch):
    """KH_WORKERS=1 caps the default worker count: two configs run serially,
    with no process pool, and give the reports of workers=1."""
    import krallhahn.verify as verify

    configs = [builtin_config("classical"), builtin_config("single-root")]
    serial = run_many(configs, workers=1)
    monkeypatch.setattr(
        verify, "ProcessPoolExecutor", lambda *args, **kw: pytest.fail("a process pool was built")
    )
    monkeypatch.setenv("KH_WORKERS", "1")
    reports = run_many(configs)
    assert [r.config for r in reports] == configs
    assert [_scrub(r.to_json_dict()) for r in reports] == [
        _scrub(r.to_json_dict()) for r in serial
    ]


class _PoolSpy:
    """Stands in for ProcessPoolExecutor: records max_workers, maps serially."""

    built: list = []

    def __init__(self, max_workers):
        self.built.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize(
    "raw,pool",
    [(None, "cpus"), ("", "cpus"), ("2", 2), ("02", 2), ("1", None), ("0", "raise"),
     ("-1", "raise"), ("abc", "raise"), (" 1", "raise"), ("1.5", "raise"), ("\uff12", "raise")],
)
def test_workers_variable_is_a_positive_integer_or_unset(raw, pool, monkeypatch, tmp_path):
    """KH_WORKERS unset or empty gives one worker per CPU (4 here, capped at
    the 3 configs), digits cap the pool, and any other value is a config
    error (exit 2) before any pool is built."""
    import krallhahn.verify as verify
    from krallhahn.cli import main

    monkeypatch.setattr(_PoolSpy, "built", [])
    monkeypatch.setattr(verify, "ProcessPoolExecutor", _PoolSpy)
    monkeypatch.setattr(verify.os, "cpu_count", lambda: 4)
    if raw is None:
        monkeypatch.delenv("KH_WORKERS", raising=False)
    else:
        monkeypatch.setenv("KH_WORKERS", raw)
    configs = [builtin_config("classical")] * 3
    if pool == "raise":
        with pytest.raises(ConfigInvalid, match="KH_WORKERS"):
            run_many(configs)
        path = tmp_path / "classical.json"
        path.write_text(json.dumps(configs[0].to_dict()))
        assert main(["verify", "--config", str(path)]) == 2
        assert _PoolSpy.built == []
        return
    assert all(r.passed for r in run_many(configs))
    assert _PoolSpy.built == ([] if pool is None else [3 if pool == "cpus" else pool])


def test_check_foeq_vacuous_without_rows():
    run = build_run(builtin_config("classical"))
    ok, witness = check_foeq(run.ctx, run.inner_measure)
    assert ok
    assert "vacuous" in witness["note"]


PRECONDITION_CASES = [
    (1, Fraction(1, 3), ((), (), (), (1,)), None),  # m = 1 never reads the pole at -1
    (1, 1, ((), (), (), (1,)), None),  # a = b: the kind-4 ratio is -1
    (Fraction(1, 2), 0, ((), (1,), (), ()), [0]),
    (2, 2, ((), (1,), (), ()), None),  # m = 1 never reads the pole at -11
    (Fraction(1, 2), Fraction(1, 3), ((1,), (), (), ()), None),
    (1, Fraction(1, 3), ((), (), (), (1, 2)), [-1]),  # m = 2 inverts ratio(-1): a pole
    (Fraction(1, 2), 1, ((), (), (), (1, 2)), [-1]),  # m = 2 inverts ratio(-1): a zero
]


def _precondition_inputs(a, b, degree_sets):
    """A context with the given rows, of fixed polynomials, and its Hahn weight."""
    p = HahnParams(a, b, 6)
    m = sum(map(len, degree_sets))
    row_polys = (Polynomial((3, 1)), Polynomial((1, 0, 1)))[:m]
    return context_from_degrees(p, degree_sets, row_polys=row_polys), hahn_weight(p)


@pytest.mark.parametrize("a, b, degree_sets, bad", PRECONDITION_CASES)
def test_check_foeq_ratio_precondition(a, b, degree_sets, bad):
    """Zeros and poles of the reduced ratio at the points the sums read,
    t = 1 - m, ..., 0, fail the criteria; those elsewhere do not."""
    _, witness = check_foeq(*_precondition_inputs(a, b, degree_sets))
    if bad is None:
        assert "precondition" not in witness
    else:
        assert witness["precondition"].endswith(f"nonpositive integer(s) {bad}")


@pytest.mark.parametrize("branch", ["starting eigenvalue", "zero constant"])
def test_check_foeq_undefined_sums_and_zero_constant(branch):
    """F4=[1] at a = 1/2, b = 1/3, N = 8.  The row polynomial x + a + b
    vanishes at theta_-1 = -(a + b), so the sums are undefined.  Against
    {0: 1, 1: -1}, whose h_0 moment is 0, the companion row's constant,
    fitted at n = 0, is zero.  Both fail as the Fraction reference does."""
    p = HahnParams(Fraction(1, 2), Fraction(1, 3), 8)
    quartet = SetQuartet.of((), (), (), (1,))
    if branch == "starting eigenvalue":
        ctx = context_from_quartet(p, quartet, row_polys=(Polynomial((p.a + p.b, 1)),))
        measure = hahn_weight(p)
    else:
        ctx, measure = context_from_quartet(p, quartet), DiscreteMeasure({0: 1, 1: -1})
    ok, witness = check_foeq(ctx, measure)
    assert not ok and (ok, witness) == fraction_check_foeq(ctx, measure)
    if branch == "starting eigenvalue":
        assert witness == {
            "precondition": "row 0 polynomial vanishes at the starting eigenvalue; "
            "the criteria sums are undefined"
        }
    else:
        assert witness["constant"] == "0" and witness["fitted_at"] == 0
        assert witness["moment_failures"] == [{"n": 0, "reason": "fitted constant is zero"}]


@pytest.mark.parametrize(
    "a, b, F, path",
    [
        ("5/2", "7/2", [[1], [], [], []], "theorem"),
        ("-3/2", "2", [[], [], [], [1]], "theorem"),
        ("11/2", "1/2", [[], [1], [], []], "corollary"),
        ("-3/2", "4", [[], [], [], [1]], "corollary"),
    ],
)
def test_criteria_ignore_ratio_roots_the_sums_never_read(a, b, F, path):
    """Each config has a ratio zero or pole at a nonpositive integer below 1 - m."""
    cfg = config_from_dict({"a": a, "b": b, "N": 8, "F": F, "path": path, "checks": ["criteria"]})
    check = run_config(cfg).checks[0]
    assert check.passed, check.witness


@pytest.mark.parametrize(
    "cfg",
    [
        builtin_config("four-roots"),
        config_from_dict(
            {"a": "7/3", "b": "11/5", "N": 17, "F": [[], [], [], [1, 2]], "path": "corollary"}
        ),
    ],
    ids=["four-roots", "F4=[1,2],N=17"],
)
def test_check_foeq_matches_closed_form_route(cfg, monkeypatch):
    """The integer route equals the Fraction reference fed every ratio product,
    forward and backward, from the closed form."""
    run = build_run(cfg)
    integer = check_foeq(run.ctx, run.inner_measure)
    assert integer[0]
    p = run.ctx.params
    kinds = {series_ratio(kind, p): kind for kind in KINDS}

    monkeypatch.setattr(
        reference,
        "ratio_products",
        lambda ratio, points: closed_form_product_values(kinds[ratio], points, p),
    )
    assert fraction_check_foeq(run.ctx, run.inner_measure) == integer


def _outcome(check, *args):
    """A check's (ok, witness), or the type and message of what it raised."""
    try:
        return check(*args)
    except KrallHahnError as exc:
        return type(exc), str(exc)


def _criteria_inputs(case):
    """(ctx, measure) for a differential case: a builtin name or a config dict,
    one of those with a translation of the inner measure, or the index of a
    precondition context."""
    if isinstance(case, int):
        return _precondition_inputs(*PRECONDITION_CASES[case][:3])
    case, offset = case if isinstance(case, tuple) else (case, 0)
    run = build_run(config_from_dict(case) if isinstance(case, dict) else builtin_config(case))
    return run.ctx, run.inner_measure.translate(offset)


CRITERIA_CASES = {
    **{name: name for name in BUILTIN_CONFIGS},
    # the first op of each family template in the benchmark's seed-0 stream
    **{
        f"family-F={F}": {"a": a, "b": b, "N": N, "F": F, "path": "corollary"}
        for a, b, N, F in (
            ("3/2", "13/3", 16, [[], [], [], [1]]),
            ("5/2", "10/3", 16, [[], [], [2], []]),
            ("3/2", "5/3", 16, [[], [], [], [2]]),
            ("7/2", "14/3", 17, [[], [], [], [1, 2]]),
        )
    },
    "F4=[1]-N50": {"a": "1/2", "b": "1/3", "N": 50, "F": [[], [], [], [1]], "path": "corollary"},
    # the config of tests/golden/configs/omega-defect.json: Omega vanishes at n = 6
    "omega-defect": {
        "a": "11/3", "b": "24/5", "N": 16, "F": [[], [], [1], []], "path": "corollary"
    },
    # point denominator e = 2: the moments move, and both routes fail
    "four-roots-translated-1/2": ("four-roots", Fraction(1, 2)),
    **{f"precondition-{i}": i for i in range(len(PRECONDITION_CASES))},
}


@pytest.mark.parametrize("case", CRITERIA_CASES.values(), ids=CRITERIA_CASES.keys())
def test_integer_criteria_match_fraction_route(case):
    """The integer route and the Fraction reference give the same (ok, witness),
    or raise the same error, on every case."""
    ctx, measure = _criteria_inputs(case)
    integer = _outcome(check_foeq, ctx, measure)
    assert integer == _outcome(fraction_check_foeq, ctx, measure)
    if isinstance(case, tuple):
        ok, witness = integer
        failures = witness["moment_failures"]
        assert not ok and failures and all({"moment", "scaled_sum"} <= set(f) for f in failures)


def test_forward_pole_raises_as_in_the_fraction_route(monkeypatch):
    """A ratio pole at t = 2 of the second row, past the precondition's points:
    both routes raise ParameterSingularity naming degree 2, after every row's
    precondition has held.  Contexts share their stages by equality, so the
    stage store starts empty and the point values read the patched ratios."""
    run = build_run(builtin_config("four-roots"))
    ratios = list(series_ratios(run.ctx))
    numer, denom = ratios[1]
    ratios[1] = numer * Polynomial((-2, 1)), denom * Polynomial((-2, 1))
    monkeypatch.setattr(casorati, "_store", OrderedDict())
    for module in (casorati, reference):
        monkeypatch.setattr(module, "series_ratios", lambda ctx: tuple(ratios))
    integer = _outcome(check_foeq, run.ctx, run.inner_measure)
    assert integer == (ParameterSingularity, "ladder ratio has a pole at degree 2")
    assert integer == _outcome(fraction_check_foeq, run.ctx, run.inner_measure)


@pytest.mark.parametrize(
    "term", ["constant is not None", "moment_failures", "negative_failures", "boundary != 0"]
)
def test_criteria_gate_terms_fail_on_their_own(monkeypatch, term):
    """One input of ``check_foeq`` is changed so that one gate term fails and
    every other holds.  The constant: one row whose polynomial vanishes at
    theta_0, ..., theta_N makes every ratio sum zero, and zero base
    polynomials every moment, so no constant is fitted and nothing fails.
    The moments: h_2 + 1.  The other two edit the point values (the stage
    store starts empty, since contexts share their stages by equality).  The
    negative sums: row 0's ratio at t = -1 doubled, which moves the sums at
    n <= -2: at m = 4, n = -3, -2 and the boundary, which stays nonzero.  The
    boundary: each row's ratio at t = 1 - m replaced so that its boundary
    term is 1 / p'(root_i), and the boundary sum is sum_i 1 / p'(root_i) = 0."""
    import krallhahn.verify as verify

    monkeypatch.setattr(casorati, "_store", OrderedDict())
    if term == "constant is not None":
        p = HahnParams(Fraction(1, 2), Fraction(1, 3), 3)
        y = Polynomial.from_roots([p.eigenvalue(n) for n in range(p.N + 1)])
        ctx = context_from_degrees(p, ((), (), (), (p.N + 1,)), row_polys=(y,))
        measure = hahn_weight(p)
        assert check_foeq(ctx, measure)[1]["moment_failures"]  # unpatched, the moments fail too
    else:
        run = build_run(builtin_config("four-roots"))
        ctx, measure = run.ctx, run.inner_measure
        assert check_foeq(ctx, measure)[0]
    m, base = ctx.m, verify.base_polynomial
    values = casorati.raw_points(ctx).grow(ctx.params.N + 1)  # values[s + m] is at s
    if term == "negative_failures":
        edited = list(values[m - 1])
        edited[0] *= 2
        values[m - 1] = tuple(edited)
    elif term == "boundary != 0":
        # ratio_i(1 - m) = Y_i(theta_-m) / (Y_i(theta_-1) ratio_i(2 - m) ... ratio_i(-1))
        edited = list(values[1])
        for i in range(m):
            edited[i] = values[0][2 * m + i] * prod(v[m + i] for v in values[2:m])
            edited[m + i] = values[m - 1][2 * m + i] * prod(v[i] for v in values[2:m])
        values[1] = tuple(edited)
    faults = {
        "constant is not None": lambda ctx, n: Polynomial.zero(),
        "moment_failures": lambda ctx, n: base(ctx, n) + (1 if n == 2 else 0),
    }
    if term in faults:
        monkeypatch.setattr(verify, "base_polynomial", faults[term])
    ok, witness = check_foeq(ctx, measure)
    failing = {
        "constant is not None": witness["constant"] is None,
        "moment_failures": bool(witness["moment_failures"]),
        "negative_failures": bool(witness["negative_failures"]),
        "boundary != 0": witness["boundary_sum"] == "0",
    }
    assert not ok
    assert [name for name, fails in failing.items() if fails] == [term]
    if term == "moment_failures":
        assert [failure["n"] for failure in witness["moment_failures"]] == [2]
    elif term == "negative_failures":
        assert [failure["n"] for failure in witness["negative_failures"]] == [-3, -2]


def test_checks_subset_is_respected():
    cfg = ConstructionConfig(
        a=Fraction(1, 2),
        b=Fraction(1, 3),
        N=8,
        quartet=SetQuartet.of((), (), (), (1,)),
        pads=None,
        path="corollary",
        checks=("genre", "support"),
    )
    report = run_config(cfg)
    assert [c.name for c in report.checks] == ["genre", "support"]
    assert report.passed


class TestEnumeration:
    def test_small_case(self):
        couples = enumerate_root_couples(10, [2])
        assert couples == [
            {
                "F3": [],
                "F4": [2],
                "r": 3,
                "sign": 1,
                "within_half": True,
                "minimal": True,
            },
            {
                "F3": [8],
                "F4": [],
                "r": 9,
                "sign": -1,
                "within_half": False,
                "minimal": False,
            },
        ]

    def test_mirrored_roots_scale_the_weight_by_the_sign(self):
        """The identity the enumeration rests on: mirroring a root f into F3 as
        N - f turns the factor (x - f) into (f - x), so for every root set of
        size <= 3 inside (0, N), N <= 12, each of the 2^k assignments is a
        couple, and its factored weight is (-1)^|F3| times the root-factored
        one, the sign the couple carries."""
        for N in range(2, 13):
            p = HahnParams(Fraction(1, 2), Fraction(1, 3), N)
            for size in (1, 2, 3):
                for roots in combinations(range(1, N), size):
                    target = factored_hahn_weight(p, SetQuartet.of((), (), (), roots))
                    couples = enumerate_root_couples(N, roots)
                    assert len({(tuple(rec["F3"]), tuple(rec["F4"])) for rec in couples}) == 2**size
                    for rec in couples:
                        weight = factored_hahn_weight(p, SetQuartet.of((), (), rec["F3"], rec["F4"]))
                        ratio = proportionality_constant(weight, target)
                        assert ratio == rec["sign"] == (-1) ** len(rec["F3"]), (N, roots, rec)

    def test_root_bounds(self):
        with pytest.raises(ValueError):
            enumerate_root_couples(10, [10])
        with pytest.raises(ValueError):
            enumerate_root_couples(10, [0])
        with pytest.raises(ValueError):
            enumerate_root_couples(10, [])
