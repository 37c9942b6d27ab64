"""End-to-end verification: run a configuration, check every claimed identity.

Each check is exact: a pass means a rational identity held with zero
tolerance, a fail carries a finite witness (an index, a point, a value).
Builder errors inside a check become failed checks, not crashes; only
configuration-level constraint violations raise.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import prod
from operator import index, mul
from typing import Callable, Iterable, Sequence

from .casorati import (
    base_polynomial,
    casorati_cleared,
    casorati_rational,
    casorati_parts,
    clearing_factor,
    core_degree,
    core_determinant,
    core_leading_coefficient,
    eigenvalue_polynomial,
    krall_operator,
    krall_polynomial,
    mixing_polynomial,
    operator_halfwidth,
    raw_points,
    spectral_increment,
    spectral_polynomial,
)
from .config import ConstructionConfig
from .context import ConstructionContext, context_from_quartet
from .diffops import eigen_certificate
from .errors import ConfigInvalid, DegenerateMoments, KrallHahnError
from .hahn import (
    HahnParams,
    corollary_reduction,
    factored_hahn_weight,
    hahn_leading_coefficient,
    reflect,
    transformed_hahn_weight,
    transformed_support,
)
from .ladder import series_shift
from .measures import (
    DiscreteMeasure,
    gram_schmidt,
    orthogonality_certificate,
)
from .oracle import operator_solution_space
from .polynomials import horner
from .rationals import format_rational
from .sets import degree_sum_halfwidth, theorem_halfwidth


@dataclass
class CheckResult:
    """One verified (or refuted) identity with its exact witness data."""

    name: str
    passed: bool
    witness: dict
    elapsed: float

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "witness": self.witness,
            "elapsed": self.elapsed,
        }


@dataclass
class VerificationReport:
    config: ConstructionConfig
    checks: list[CheckResult]
    summary: dict

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "summary": dict(self.summary, passed=self.passed),
            "checks": [check.to_json_dict() for check in self.checks],
        }


@dataclass
class RunData:
    """Everything a check needs, assembled once per run."""

    config: ConstructionConfig
    outer: HahnParams
    ctx: ConstructionContext
    measure: DiscreteMeasure
    inner_measure: DiscreteMeasure
    shift: int
    n_max: int
    r_from_sets: int


def build_run(cfg: ConstructionConfig) -> RunData:
    """Resolve a configuration into a validated construction context.

    Constraint violations (parameter exclusions, resonances, degenerate
    shifted parameters) surface here as ConfigInvalid with the constraint
    named in the message.
    """
    try:
        outer = HahnParams(cfg.a, cfg.b, cfg.N)
        if cfg.path == "theorem":
            ctx = context_from_quartet(outer, cfg.quartet, cfg.pads)
            shift = 0
            r_sets = theorem_halfwidth(cfg.quartet, ctx.pads)
        else:
            red = corollary_reduction(outer, cfg.quartet)
            ctx = context_from_quartet(red.params, red.quartet, red.pads)
            shift = red.shift
            r_sets = degree_sum_halfwidth(cfg.quartet.sets)
        inner_measure = transformed_hahn_weight(ctx.params, ctx.quartet, ctx.pads)
    except KrallHahnError as exc:
        raise ConfigInvalid(str(exc)) from exc
    measure = inner_measure.translate(shift) if shift else inner_measure
    n_default = ctx.orthogonality_range
    n_max = min(cfg.n_max, n_default) if cfg.n_max is not None else n_default
    return RunData(
        config=cfg,
        outer=outer,
        ctx=ctx,
        measure=measure,
        inner_measure=inner_measure,
        shift=shift,
        n_max=n_max,
        r_from_sets=r_sets,
    )


# -- individual checks -----------------------------------------------------------


def _check_omega(run: RunData) -> tuple[bool, dict]:
    ctx = run.ctx
    scan_max = ctx.orthogonality_range + 1
    zeros = [n for n in range(scan_max + 1) if not casorati_parts(ctx, n)[0]]
    witness = {"scanned_up_to": scan_max, "zeros": zeros}
    ok = not zeros
    if ctx.quartet is not None and (ctx.quartet.first or ctx.quartet.second):
        # with rows from the first two blocks, the determinant must vanish on a
        # known finite range above the scan window
        lo = ctx.orthogonality_range + 2
        hi = ctx.params.N + ctx.m
        forced = [n for n in range(lo, hi + 1)]
        missing = [n for n in forced if casorati_parts(ctx, n)[0]]
        witness["forced_zero_range"] = [lo, hi]
        witness["forced_nonzeros"] = missing
        ok = ok and not missing
    return ok, witness


def _check_hypotheses(run: RunData) -> tuple[bool, dict]:
    ctx = run.ctx
    p = ctx.params
    core = core_determinant(ctx)
    inc = spectral_increment(ctx)
    lam = eigenvalue_polynomial(ctx)
    ok_lambda = lam(Fraction(-1)) == 0 and lam - lam.shift_argument(-1) == inc
    (cn, cd), (fn, fd) = casorati_cleared(ctx).integer_parts, clearing_factor(ctx).integer_parts
    dual_route = all(  # value * clearing(t) == cleared(t), cross-multiplied on integers
        v.numerator * horner(fn, t) * cd == horner(cn, t) * v.denominator * fd
        for t, v in casorati_rational(ctx).items()
    )
    transport = reflect(inc, p.a + p.b - 1) == -inc.shift_argument(ctx.m)
    sigma_next = series_shift(p).shift_argument(1)
    mixing_ok = True
    mixing_degrees = []
    for row in range(ctx.m):
        mh = mixing_polynomial(ctx, row)
        mixing_degrees.append(mh.degree)
        _, remainder = mh.divmod(sigma_next)
        if not remainder.is_zero or reflect(mh, p.a + p.b) != -mh:
            mixing_ok = False
    ps = spectral_polynomial(ctx)
    theta = p.eigenvalue_poly()
    pdiff = (
        ps.compose(theta) - ps.compose(p.eigenvalue_poly(shift=-1))
        == inc + inc.shift_argument(ctx.m)
    )
    witness = {
        "core_degree": core.degree,
        "lambda_pinned_at_minus_one": ok_lambda,
        "determinant_dual_route": dual_route,
        "increment_transport": transport,
        "mixing_degrees": mixing_degrees,
        "mixing_skew_and_divisible": mixing_ok,
        "spectral_degree": ps.degree,
        "spectral_difference_identity": pdiff,
    }
    ok = ok_lambda and dual_route and transport and mixing_ok and pdiff
    return ok, witness


def _check_degree_leading(run: RunData) -> tuple[bool, dict]:
    core = core_determinant(run.ctx)
    expected_degree = core_degree(run.ctx)
    expected_leading = core_leading_coefficient(run.ctx)
    witness = {
        "degree": core.degree,
        "expected_degree": expected_degree,
        "leading": format_rational(core.leading_coefficient),
        "expected_leading": format_rational(expected_leading),
    }
    ok = core.degree == expected_degree and core.leading_coefficient == expected_leading
    return ok, witness


def _check_genre(run: RunData) -> tuple[bool, dict]:
    op = krall_operator(run.ctx)
    r = operator_halfwidth(run.ctx)
    witness = {
        "genre": list(op.genre),
        "r_from_degrees": r,
        "r_from_sets": run.r_from_sets,
        "order": op.order,
    }
    ok = op.genre == (-r, r) and r == run.r_from_sets
    return ok, witness


def _check_eigen(run: RunData) -> tuple[bool, dict]:
    """Each q_n has degree n and the closed-form leading coefficient, and
    D q_n = lambda_n q_n; the q_n that pass both gates go to one
    :func:`eigen_certificate` call, and the failures are listed in n order."""
    ctx = run.ctx
    op = krall_operator(ctx)
    lam = eigenvalue_polynomial(ctx)
    failures = []
    gated = []
    for n in range(run.n_max + 1):
        qn = krall_polynomial(ctx, n)
        (nums, den), (top, bottom) = qn.integer_parts, casorati_parts(ctx, n)
        hahn_lc = hahn_leading_coefficient(n, ctx.params)
        if qn.degree != n:
            failures.append({"n": n, "reason": f"degree {qn.degree}"})
        # Omega(n) times the Hahn leading coefficient, cross-multiplied on integers
        elif nums[-1] * bottom * hahn_lc.denominator != den * top * hahn_lc.numerator:
            failures.append({"n": n, "reason": "leading coefficient mismatch"})
        else:
            gated.append((n, qn))
    holds = eigen_certificate(op, [(qn, lam(n)) for n, qn in gated])
    failures += [
        {"n": n, "reason": "eigen-equation residual nonzero"}
        for (n, _), ok in zip(gated, holds)
        if not ok
    ]
    failures.sort(key=lambda failure: failure["n"])
    witness = {
        "n_max": run.n_max,
        "eigenvalues": [format_rational(lam(n)) for n in range(run.n_max + 1)],
        "failures": failures,
    }
    return not failures, witness


def _check_orthogonality(run: RunData) -> tuple[bool, dict]:
    ctx = run.ctx
    qs = [krall_polynomial(ctx, n) for n in range(run.n_max + 1)]
    norms, pairs = orthogonality_certificate(run.inner_measure, qs)
    zero_norms = [i for i, norm in enumerate(norms) if norm == 0]
    cross_failures = [list(pair) for pair in pairs]
    gs_mismatch = []
    try:
        monic = gram_schmidt(run.inner_measure, run.n_max)
        for n, g in enumerate(monic):
            if g != qs[n].monic():
                gs_mismatch.append(n)
    except DegenerateMoments as exc:
        gs_mismatch.append(exc.index)
    witness = {
        "n_max": run.n_max,
        "norms": [format_rational(v) for v in norms],
        "zero_norms": zero_norms,
        "nonorthogonal_pairs": cross_failures,
        "gram_schmidt_mismatches": gs_mismatch,
    }
    ok = not zero_norms and not cross_failures and not gs_mismatch
    return ok, witness


def _check_support(run: RunData) -> tuple[bool, dict]:
    cfg = run.config
    ctx = run.ctx
    expected_size = ctx.orthogonality_range + 1
    expected = [pt + run.shift for pt in transformed_support(ctx.params, ctx.quartet, ctx.pads)]
    # the formula gives increasing integers: the measure's points over e = 1
    witness = {
        "size": run.measure.size,
        "expected_size": expected_size,
        "support_matches_formula": (
            run.measure.point_denominator == 1 and list(run.measure.points) == expected
        ),
    }
    ok = run.measure.size == expected_size and witness["support_matches_formula"]
    if cfg.path == "corollary":
        factored = factored_hahn_weight(run.outer, cfg.quartet)
        witness["factored_weight_match"] = run.measure == factored
        ok = ok and witness["factored_weight_match"]
    return ok, witness


def check_foeq(ctx: ConstructionContext, measure: DiscreteMeasure) -> tuple[bool, dict]:
    """The three discrete orthogonality criteria for the bordered family.

    Fits the one free constant from the first usable instance, then requires:
    the weighted moments of the base family to match the alternating ratio
    sums for 0 <= n <= N, the negative-index sums to vanish, and the
    boundary sum to be nonzero.

    All on integers: the moments from the measure's power sums, and the ratio
    sums S(n) = sum_i xi_i(n) Y_i(theta_n) / (p'(root_i) Y_i(theta_-1)), each
    one integer over one denominator for n = -m..N, from the ladder's point
    values (:func:`~krallhahn.casorati.raw_points`).  xi_i(n) is ratio(0) ...
    ratio(n), or for n < 0 the inverse of ratio(-1) ... ratio(n + 1), one
    running product from t = 1 - m; the row's scale of its Y values cancels.

    Precondition: each reduced series ratio is finite and nonzero at the
    points t = 1 - m, ..., 0 that the sums read.  A pole at t >= 1 would make
    every later cross-multiplication vacuous, so the first, row by row, raises
    ParameterSingularity.  No validated context has one: it needs a = -t or
    a + b = -(N + 1 + t), which HahnParams rejects.
    """
    p, m = ctx.params, ctx.m
    if m == 0:
        return True, {"note": "no determinant rows; criteria are vacuous"}
    # values[s + m] at s: m ratio numerators, their denominators, scaled Y_i(theta_s)
    values = raw_points(ctx).grow(p.N + 1)
    for kind, i in sorted(dict(zip(ctx.row_kinds, range(m))).items()):
        bad = [t for t in range(1 - m, 1) if not values[t + m][i] * values[t + m][m + i]]
        if bad:
            return False, {
                "precondition": f"ratio sequence of kind {kind} vanishes or blows "
                f"up at nonpositive integer(s) {bad}"
            }
    # per row, xi_i(n) / (p'(root_i) Y_i(theta_-1)) = xs[i] / zs[i], from n = -m up
    roots, xs, zs = ctx.spectral_roots, [], []
    for i, start in enumerate(values[m - 1][2 * m :]):  # at theta_-1
        if not start:
            return False, {
                "precondition": f"row {i} polynomial vanishes at the starting "
                "eigenvalue; the criteria sums are undefined"
            }
        pn, pd = prod(roots[i] - r for r in roots[:i] + roots[i + 1 :]).as_integer_ratio()
        xs.append(prod(v[m + i] for v in values[1:m]) * pd)
        zs.append(prod(v[i] for v in values[1:m]) * pn * start)
    degrees = range(p.N + 1)
    raw_points(ctx).pole(degrees)
    sums = []  # S(n) as (numerator, denominator), n = -m, ..., N
    for n, v in enumerate(values, -m):
        if n > -m:
            xs, zs = list(map(mul, xs, v[:m])), list(map(mul, zs, v[m : 2 * m]))
        num, den = 0, 1
        for x, z, y in zip(xs, zs, v[2 * m :]):
            num, den = num * z + x * y * den, den * z
        sums.append((num, den))
    constant, fit_at, failures = None, None, []
    moments = measure.integrals((base_polynomial(ctx, n) for n in degrees), p.N)
    for n, (lhs, lhs_den) in zip(degrees, moments):
        # lhs / lhs_den is the moment, rhs / rhs_den (-1)^n S(n)
        rhs, rhs_den = sums[n + m]
        rhs = -rhs if n % 2 else rhs
        if constant is None:
            if rhs:
                constant, fit_at = Fraction(lhs * rhs_den, lhs_den * rhs), n
                if constant == 0:
                    failures.append({"n": n, "reason": "fitted constant is zero"})
                    break
            elif lhs:
                failures.append({"n": n, "reason": "moment nonzero but sum zero"})
        elif lhs * rhs_den * constant.denominator != constant.numerator * rhs * lhs_den:
            failures.append({
                "n": n,
                "moment": format_rational(Fraction(lhs, lhs_den)),
                "scaled_sum": format_rational(constant * Fraction(rhs, rhs_den)),
            })
    boundary, *below = sums[:m]
    negative_failures = [
        {"n": n, "sum": format_rational(Fraction(*total))}
        for n, total in enumerate(below, 1 - m) if total[0]
    ]
    witness = {
        "constant": format_rational(constant) if constant is not None else None,
        "fitted_at": fit_at,
        "checked_up_to": p.N,
        "moment_failures": failures,
        "negative_range": [1 - m, -1],
        "negative_failures": negative_failures,
        "boundary_sum": format_rational(Fraction(*boundary)),
    }
    ok = constant is not None and not failures and not negative_failures and boundary[0] != 0
    return ok, witness


def _check_criteria(run: RunData) -> tuple[bool, dict]:
    return check_foeq(run.ctx, run.inner_measure)


def _check_oracle(run: RunData) -> tuple[bool, dict]:
    ctx = run.ctx
    r = operator_halfwidth(ctx)
    constructed = krall_operator(ctx)
    cap = max(
        2 * r, max((c.degree for c in constructed.terms.values()), default=0)
    )
    lam = eigenvalue_polynomial(ctx)
    # the first 2r + 2 degrees where Omega is nonzero; where it vanishes q_n
    # drops degree.  Omega has at most deg C zeros, so the scan ends.
    fed, skipped = [], []
    for n in range(2 * r + 2 + max(casorati_cleared(ctx).degree, 0)):
        if len(fed) == 2 * r + 2:
            break
        (fed if casorati_parts(ctx, n)[0] else skipped).append(n)
    qs = [krall_polynomial(ctx, n) for n in fed]
    lambdas = [Fraction(lam(n)) for n in fed]
    found, nullity = operator_solution_space(qs, lambdas, r, cap)
    # This solve also settles "no narrower operator": a D' of half-width <= r - 1
    # and degrees <= lower_cap that solves the narrower equations is exact on the
    # q_n, so padded with zeros it solves this probe.  None exists if this probe
    # is unsolvable; a unique solution must lack +-r terms and degrees > lower_cap.
    lower_cap = 2 * (r - 1)
    if nullity:
        lower_probe = f"undecided: nullity {nullity}"
    elif found is not None and not {-r, r} & found.terms.keys() and all(
        c.degree <= lower_cap for c in found.terms.values()
    ):
        lower_probe = f"solvable with degree cap {lower_cap}"
    else:
        lower_probe = "unsolvable"
    agrees = found == constructed
    witness = {
        "halfwidth": r,
        "degree_cap": cap,
        "fed_degrees": fed[-1] if fed else None,
        "skipped_degrees": skipped,
        "solvable": found is not None,
        "nullity": nullity,
        "agrees_with_construction": agrees,
        "lower_probe": lower_probe,
    }
    # pass: the unique solution is the constructed operator and nothing narrower
    return agrees and lower_probe == "unsolvable", witness


_CHECKS: dict[str, Callable[[RunData], tuple[bool, dict]]] = {
    "omega-nonvanishing": _check_omega,
    "hypotheses": _check_hypotheses,
    "degree-leading": _check_degree_leading,
    "genre": _check_genre,
    "eigen-equation": _check_eigen,
    "orthogonality": _check_orthogonality,
    "support": _check_support,
    "criteria": _check_criteria,
    "oracle": _check_oracle,
}


def run_config(cfg: ConstructionConfig) -> VerificationReport:
    """Run every requested check; builder errors become failed checks."""
    run = build_run(cfg)
    checks: list[CheckResult] = []
    for name in cfg.resolved_checks():
        start = time.perf_counter()
        try:
            ok, witness = _CHECKS[name](run)
        except KrallHahnError as exc:
            ok, witness = False, {"error": f"{type(exc).__name__}: {exc}"}
        checks.append(CheckResult(name, ok, witness, time.perf_counter() - start))
    summary = {
        "name": cfg.name,
        "path": cfg.path,
        "rows": run.ctx.m,
        "n_max": run.n_max,
        "support_size": run.measure.size,
        "translation": run.shift,
    }
    try:
        lam = eigenvalue_polynomial(run.ctx)
        summary["r"] = operator_halfwidth(run.ctx)
        summary["eigenvalues"] = [
            format_rational(lam(n)) for n in range(run.n_max + 1)
        ]
    except KrallHahnError as exc:
        summary["construction_error"] = f"{type(exc).__name__}: {exc}"
    for check in checks:
        if check.name == "criteria" and "constant" in check.witness:
            summary["criteria_constant"] = check.witness["constant"]
    return VerificationReport(cfg, checks, summary)


def run_many(
    configs: Sequence[ConstructionConfig], workers: int | None = None
) -> list[VerificationReport]:
    """Run several configs, in parallel processes when allowed.

    ``workers`` defaults to the KH_WORKERS environment variable, a positive
    integer in ASCII digits; unset or empty means one worker per CPU, and any
    other value raises ConfigInvalid.  A cap of 1 (or a single config) runs
    serially in-process.
    """
    if workers is None:
        raw = os.environ.get("KH_WORKERS", "")
        if raw and not (raw.isascii() and raw.isdigit() and int(raw) > 0):
            raise ConfigInvalid(f"KH_WORKERS must be a positive integer, got {raw!r}")
        workers = int(raw) if raw else (os.cpu_count() or 1)
    workers = min(workers, len(configs))
    if workers <= 1 or len(configs) <= 1:
        return [run_config(cfg) for cfg in configs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run_config, configs))


# -- root-couple enumeration ---------------------------------------------------------


def enumerate_root_couples(N: int, roots: Iterable[int]) -> list[dict]:
    """All third/fourth-set couples whose factored weight equals the given
    root-factored weight up to a global sign.

    A root f can be contributed either by the fourth-set factor (x - f) or,
    mirrored, by the third-set factor (N - (N-f) - x) = -(x - f), so each of
    the 2^k assignments gives the same factor polynomial, and so the same
    Christoffel weight, up to the sign (-1)^|F3|; each couple carries that
    sign and its operator half-width, none of which depends on the Hahn
    parameters a and b.  N and the roots are read by ``operator.index``, so a
    float raises TypeError.
    """
    N, roots = index(N), sorted(set(map(index, roots)))
    if not roots:
        raise ValueError("need at least one root")
    if roots[0] < 1 or roots[-1] > N - 1:
        raise ValueError(f"roots must lie strictly inside (0, {N})")
    couples = []
    for size in range(len(roots) + 1):
        for mirrored in combinations(roots, size):
            third = tuple(sorted(N - r for r in mirrored))
            fourth = tuple(r for r in roots if r not in mirrored)
            couples.append(
                {
                    "F3": list(third),
                    "F4": list(fourth),
                    "r": degree_sum_halfwidth(((), (), third, fourth)),
                    "sign": -1 if size % 2 else 1,
                    "within_half": max(third, default=-1) < Fraction(N, 2)
                    and max(fourth, default=-1) < Fraction(N, 2),
                }
            )
    couples.sort(key=lambda rec: (rec["r"], rec["F3"]))
    best = min(rec["r"] for rec in couples)
    for rec in couples:
        rec["minimal"] = rec["r"] == best
    return couples
