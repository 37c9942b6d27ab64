"""The determinantal construction engine."""

import importlib
import pkgutil
import random
import sys
from collections import Counter, OrderedDict
from dataclasses import replace
from fractions import Fraction
from functools import partial
from math import inf

import pytest

import krallhahn
from krallhahn import casorati, diffops, ladder, verify
from krallhahn.casorati import (
    base_polynomial,
    casorati_cleared,
    casorati_rational,
    clearing_factor,
    core_degree,
    core_determinant,
    core_leading_coefficient,
    eigenvalue_polynomial,
    krall_operator,
    krall_polynomial,
    mixing_polynomial,
    mixing_symbol,
    normalizer,
    operator_halfwidth,
    spectral_increment,
    spectral_polynomial,
    theta_substitute,
)
from krallhahn.config import builtin_config, config_from_dict
from krallhahn.context import context_from_degrees, context_from_quartet
from krallhahn.diffops import DifferenceOperator, operator_sum
from krallhahn.errors import (
    NonExactDivision,
    NotThetaRepresentable,
    ParameterSingularity,
    ResonantParameters,
)
from krallhahn.hahn import (
    HahnFamily,
    HahnParams,
    corollary_reduction,
    dual_hahn_polynomial,
    hahn_leading_coefficient,
    hahn_operator,
    hahn_polynomial,
    reflect,
)
from krallhahn.ladder import CLEARING_BLOCKS, ladder_operator, series_shift
from krallhahn.matrices import LANES, polynomial_adjugate
from krallhahn.polynomials import Polynomial, divide_out_roots, horner, interpolate
from krallhahn.rationals import clear_denominators
from krallhahn.sets import SetQuartet
from krallhahn.verify import build_run

from freeze_golden import config as golden_config
from reference import (
    ONE,
    add,
    block_mixing_prefactor,
    block_normalizer,
    casorati_rows,
    casorati_value,
    closed_form_krall_polynomial,
    cofactor_det,
    compose_operator,
    explicit_cleared_matrix,
    explicit_clearing_factor,
    explicit_falling_block,
    flat_linear_product,
    fraction_casorati_value,
    full_mixing_polynomial,
    full_mixing_tables,
    identity_operator,
    lowest_terms,
    operator_scale,
    operator_sub,
    pair_route_mixing,
    point_cofactor,
    polynomial_mixing_factors,
    peeling_theta_substitute,
    per_kind_mixing_tables,
    rational_casorati,
    rational_det,
    reference_casorati_rows,
    reference_krall_polynomial,
    shifted_entry_mixing,
    theta_inputs,
    value,
)

X = Polynomial.variable()


@pytest.fixture
def single_root_ctx(desk_params):
    # one kind-4 row of degree 1
    return context_from_quartet(desk_params, SetQuartet.of((), (), (), (1,)), (1, 1, 1))


@pytest.fixture
def four_root_ctx():
    # the inner context of the four-root reduction
    p = HahnParams(Fraction(9, 2), Fraction(13, 3), 4)
    return context_from_quartet(p, SetQuartet.of((1,), (1,), (1,), (1,)), (1, 1, 1))


class TestContextValidation:
    def test_degrees_must_increase(self, desk_params):
        with pytest.raises(ValueError, match="increase"):
            context_from_degrees(desk_params, ((2, 1), (), (), ()))

    def test_row_polynomial_degree_mismatch(self, desk_params):
        with pytest.raises(ValueError, match="does not match"):
            context_from_degrees(
                desk_params, ((1,), (), (), ()), row_polys=(Polynomial.one(),)
            )

    def test_resonance_is_detected(self):
        # kinds 2 and 3 at a = -6 hit the same spectral root
        p = HahnParams(Fraction(-6), Fraction(1, 3), 4)
        with pytest.raises(ResonantParameters, match="share the spectral root"):
            context_from_degrees(p, ((), (1,), (2,), ()))

    def test_prefactor_must_be_reflection_invariant(self, desk_params):
        with pytest.raises(ValueError, match="invariant"):
            context_from_degrees(
                desk_params, ((), (), (), (1,)), prefactor=Polynomial.variable()
            )

    def test_positive_integer_parameter_exclusions(self):
        with pytest.raises(ParameterSingularity, match="positive integer"):
            context_from_quartet(
                HahnParams(Fraction(3), Fraction(1, 3), 8),
                SetQuartet.of((), (1,), (), ()),
                (1, 1, 1),
            )
        with pytest.raises(ParameterSingularity, match="positive integer"):
            context_from_quartet(
                HahnParams(Fraction(1, 2), Fraction(2), 8),
                SetQuartet.of((1,), (), (), ()),
                (1, 1, 1),
            )


# F4=[1] at a = 1/2, b = 1/3, N = 8, and the inputs each guard refuses:
# (error, message pattern, call)
_GUARD_PARAMS = HahnParams(Fraction(1, 2), Fraction(1, 3), 8)
_GUARD_QUARTET = SetQuartet.of((), (), (), (1,))
INPUT_GUARDS = {
    "krall-negative-degree": (
        ValueError, "nonnegative",
        lambda: krall_polynomial(context_from_quartet(_GUARD_PARAMS, _GUARD_QUARTET), -1),
    ),
    # the rows read the point values kept from s = -m, so t < 0 has none
    "rows-negative-degree": (
        ValueError, "nonnegative",
        lambda: casorati_rows(context_from_quartet(_GUARD_PARAMS, _GUARD_QUARTET), -1),
    ),
    "hahn-negative-degree": (ValueError, "nonnegative", lambda: hahn_polynomial(-1, _GUARD_PARAMS)),
    "dual-hahn-negative-degree": (
        ValueError, "nonnegative",
        lambda: dual_hahn_polynomial(-1, Fraction(1, 2), Fraction(1, 3), 8),
    ),
    "three-degree-sets": (
        ValueError, "four degree sets", lambda: context_from_degrees(_GUARD_PARAMS, ((), (), ()))
    ),
    "negative-row-degree": (
        ValueError, "nonnegative, got -1",
        lambda: context_from_degrees(_GUARD_PARAMS, ((), (), (), (-1,))),
    ),
    "row-polynomial-count": (
        ValueError, "expected 1 row polynomials, got 0",
        lambda: context_from_degrees(_GUARD_PARAMS, ((), (), (), (1,)), row_polys=()),
    ),
    "zero-pad": (
        ValueError, "pads must be",
        lambda: context_from_quartet(_GUARD_PARAMS, _GUARD_QUARTET, (0, 1, 1)),
    ),
    "quartet-a-zero": (
        ParameterSingularity, "a = 0 is an integer",
        lambda: context_from_quartet(HahnParams(0, Fraction(1, 3), 8), _GUARD_QUARTET),
    ),
    "reduction-a-negative-integer": (
        ParameterSingularity, "a = -20 is a negative integer",
        lambda: corollary_reduction(HahnParams(-20, Fraction(1, 3), 8), _GUARD_QUARTET),
    ),
}


@pytest.mark.parametrize("guard", INPUT_GUARDS)
def test_input_guards_raise(guard):
    error, pattern, call = INPUT_GUARDS[guard]
    with pytest.raises(error, match=pattern):
        call()


class TestReflectionAndTheta:
    def test_reflect_is_an_involution(self, desk_params):
        p = X**3 - 2 * X + 1
        shift = desk_params.a + desk_params.b
        assert reflect(reflect(p, shift), shift) == p

    def test_reflect_matches_horner_composition(self):
        rng = random.Random(3)
        for _ in range(60):
            poly = Polynomial([
                Fraction(rng.randint(-40, 40), rng.randint(1, 9)) for _ in range(rng.randint(0, 9))
            ])
            shift = Fraction(rng.randint(-30, 30), rng.randint(1, 7))
            assert reflect(poly, shift) == poly.compose(Polynomial((-shift - 1, -1)))

    def test_eigenvalue_poly_is_reflection_invariant(self, desk_params):
        s = desk_params.a + desk_params.b
        theta = desk_params.eigenvalue_poly()
        assert reflect(theta, s) == theta

    def test_theta_substitute_round_trip(self, desk_params):
        s = desk_params.a + desk_params.b
        theta = desk_params.eigenvalue_poly()
        symbol = Polynomial([1, -3, Fraction(2, 5)])
        assert theta_substitute(symbol.compose(theta), s) == symbol
        assert theta_substitute(Polynomial.zero(), s).is_zero

    def test_theta_substitute_rejects_odd_input(self, desk_params):
        with pytest.raises(NotThetaRepresentable):
            theta_substitute(Polynomial.variable(), desk_params.a + desk_params.b)


class TestEmptyQuartet:
    """With no determinant rows everything collapses to the classical family."""

    @pytest.fixture
    def ctx(self, desk_params):
        return context_from_quartet(desk_params, SetQuartet.of(), (1, 1, 1))

    def test_reduction(self, ctx, desk_params):
        s = desk_params.a + desk_params.b
        assert ctx.m == 0
        assert core_determinant(ctx) == Polynomial.one()
        assert clearing_factor(ctx) == Polynomial.one()
        assert spectral_increment(ctx) == Polynomial((-s, -2))
        assert spectral_polynomial(ctx) == Polynomial((-2 * s, -2))
        lam = eigenvalue_polynomial(ctx)
        assert lam == -desk_params.eigenvalue_poly() - Polynomial.constant(s)

    def test_operator_and_polynomials(self, ctx, desk_params):
        s = desk_params.a + desk_params.b
        expected = operator_sub(
            operator_scale(hahn_operator(desk_params), -1), operator_scale(identity_operator(), s)
        )
        assert krall_operator(ctx) == expected
        assert operator_halfwidth(ctx) == 1
        for n in range(4):
            assert krall_polynomial(ctx, n) == hahn_polynomial(n, desk_params)


def invariant_prefactor_ctx(p):
    """The single-root context times the invariant prefactor x(x + a + b - 1)."""
    return context_from_quartet(
        p, SetQuartet.of((), (), (), (1,)), (1, 1, 1), prefactor=X * (X + p.a + p.b - 1)
    )


class TestSingleRootContext:
    def test_shape(self, single_root_ctx):
        ctx = single_root_ctx
        assert ctx.m == 1
        assert ctx.block_counts == (0, 0, 0, 1)
        assert ctx.spectral_roots == (Fraction(2),)
        assert ctx.orthogonality_range == 9

    def test_frozen_core(self, single_root_ctx):
        assert core_determinant(single_root_ctx) == Polynomial([10, Fraction(-1, 3), 2])
        assert core_degree(single_root_ctx) == 2
        assert core_leading_coefficient(single_root_ctx) == 2

    def test_frozen_mixing(self, single_root_ctx, desk_params):
        assert mixing_polynomial(single_root_ctx, 0) == series_shift(
            desk_params
        ).shift_argument(1)
        assert mixing_symbol(single_root_ctx, 0) == Polynomial.one()

    def test_frozen_eigenvalues(self, single_root_ctx):
        lam = eigenvalue_polynomial(single_root_ctx)
        assert lam(-1) == 0
        assert [lam(n) for n in range(4)] == [
            Fraction(5, 3),
            Fraction(-355, 18),
            Fraction(-517, 6),
            Fraction(-731, 3),
        ]

    def test_halfwidth_and_genre(self, single_root_ctx):
        assert operator_halfwidth(single_root_ctx) == 2
        assert krall_operator(single_root_ctx).genre == (-2, 2)

    def test_invariant_prefactor(self, desk_params):
        # x(x + a + b - m) is fixed by x -> -(x + a + b - m); its degree 2
        # widens the operator by one step on each side
        ctx = invariant_prefactor_ctx(desk_params)
        assert ctx.m == 1
        op = krall_operator(ctx)
        assert op.genre == (-3, 3)
        lam = eigenvalue_polynomial(ctx)
        for n in range(8):
            qn = krall_polynomial(ctx, n)
            assert qn.degree == n
            assert op.apply(qn) == Fraction(lam(n)) * qn


def pointwise_dual_route(ctx):
    """The hypotheses check's comparison in ``Fraction`` values, reading stages
    through the module."""
    cleared, clearing = casorati.casorati_cleared(ctx), casorati.clearing_factor(ctx)
    return all(
        value * clearing(t) == cleared(t) for t, value in casorati_rational(ctx).items()
    )


def _raw_bounds(ctx):
    """(B, B', E, raw_degree) from the reference polynomials: E = prod_r
    prod_{i=1}^{m-1} den_r(x - i), raw_degree the bound on deg E R, B the old
    bound on deg E (cf R - C), and B' the one on deg (cf R - C), with cf / E
    taken by exact division, which fails unless E divides cf."""
    m, E, raw_degree = ctx.m, Polynomial.one(), 0
    for (numer, denom), u in zip(casorati.series_ratios(ctx), ctx.row_degrees):
        for i in range(1, m):
            E = E * denom.shift_argument(-i)
        raw_degree += max((m - c) * numer.degree + (c - 1) * denom.degree for c in range(1, m + 1)) + 2 * u
    cf, C = clearing_factor(ctx), casorati_cleared(ctx)
    old = max(cf.degree + raw_degree, E.degree + C.degree)
    return old, max(cf.divide_exact(E).degree + raw_degree, C.degree), E, raw_degree


def _raw_values(ctx, count):
    """The raw determinant at the first ``count`` points the table keeps."""
    raw = casorati.raw_points(ctx)
    while (missing := count - (len(raw.table) - raw.table.count(None))) > 0:
        raw.extend(len(raw.table) + missing)
    kept = [(t, entry) for t, entry in enumerate(raw.table) if entry is not None][:count]
    return {t: Fraction(minors[0], den) for t, (minors, den) in kept}


def _agrees(ctx, values):
    cleared, clearing = casorati_cleared(ctx), clearing_factor(ctx)
    return all(value * clearing(t) == cleared(t) for t, value in values.items())


def _template_config(F, path, a, b):
    return config_from_dict({"a": a, "b": b, "N": 12, "F": F, "path": path})


# the four builtin configs and one context per construct template (m = 3, 3, 3, 4)
ROUTE_CONFIGS = {
    **{name: builtin_config(name)
       for name in ("single-root", "single-root-direct", "four-roots", "classical")},
    "F4=3-corollary": _template_config([[], [], [], [3]], "corollary", "7/2", "5/3"),
    "F123=1-theorem": _template_config([[1], [1], [1], []], "theorem", "5/4", "7/3"),
    "F1=2-theorem": _template_config([[2], [], [], []], "theorem", "3/5", "9/2"),
    "F1234=1-corollary": _template_config([[1], [1], [1], [1]], "corollary", "11/4", "2/3"),
}


DIFFERENTIAL_CONFIGS = {
    **ROUTE_CONFIGS,
    "F1=3-theorem-N8": config_from_dict(
        {"a": "1/2", "b": "1/3", "N": 8, "F": [[3], [], [], []], "path": "theorem"}
    ),
}


# DIFFERENTIAL_CONFIGS and the two kind sets that share one block: {1, 2}
# share block 2, {2, 4} block 1
STRUCTURE_CONFIGS = {
    **DIFFERENTIAL_CONFIGS,
    "F12=1-theorem-N8": config_from_dict(
        {"a": "1/2", "b": "1/3", "N": 8, "F": [[1], [1], [], []], "path": "theorem"}
    ),
    "F2=2-F4=1-theorem-N8": config_from_dict(
        {"a": "1/2", "b": "1/3", "N": 8, "F": [[], [2], [], [1]], "path": "theorem"}
    ),
}


class TestDeterminantRoutes:
    @pytest.mark.parametrize("name", ROUTE_CONFIGS)
    def test_pointwise_route_matches_rational_route(self, name):
        ctx = build_run(ROUTE_CONFIGS[name]).ctx
        reference = rational_casorati(ctx)
        values = casorati_rational(ctx)
        assert all(v == value(reference, t) for t, v in values.items())
        verdict = reference == lowest_terms(casorati_cleared(ctx), clearing_factor(ctx))
        assert pointwise_dual_route(ctx) == verdict
        assert verdict

    @pytest.mark.parametrize("name", DIFFERENTIAL_CONFIGS)
    def test_column_factors_match_explicit_products(self, name):
        """The clearing factor and the cleared matrix, whose entries carry
        every present kind's column factors, from ladder's root lists, against
        the clearing blocks as explicit products of linear factors.  The
        contexts have rows of all four kinds (four-roots, F1234=1-corollary),
        m = 1 (single-root), m = 0 (classical) and forced zeros
        (F1=3-theorem-N8)."""
        ctx = build_run(DIFFERENTIAL_CONFIGS[name]).ctx
        assert clearing_factor(ctx) == explicit_clearing_factor(ctx)
        assert casorati.cleared_matrix(ctx) == explicit_cleared_matrix(ctx)

    def test_point_count_is_the_degree_bound(self, four_root_ctx):
        """B' + 1 points for the m = 4 context with one row of each kind, degree 1.

        Reduced ratio degrees (numerator, denominator) are (1, 1), (2, 2),
        (0, 0), (1, 1) for kinds 1..4.  With both equal to d, every entry of
        row r times D_r has degree at most 3 d + 2 u = 3 d + 2, and these sum
        to 3 * 4 + 8 = 20, a bound on deg E R; deg E = 3 * 4 = 12.  The
        clearing factor has degree 3 per clearing block, 4 blocks: 12, so cf / E
        is a constant, and B' = max(12 - 12 + 20, deg C) with deg C = 18, so
        B' = 20.  The old route read B + 1 points, B = max(12 + 20, 12 + 18)
        = 32, and cf R = C holds at all of them too.
        """
        ctx = four_root_ctx
        assert ctx.row_kinds == (1, 2, 3, 4) and ctx.row_degrees == (1, 1, 1, 1)
        assert clearing_factor(ctx).degree == 12
        assert casorati_cleared(ctx).degree == 18
        assert _raw_bounds(ctx)[:2] == (32, 20)
        assert len(casorati_rational(ctx)) == max(12 - 12 + 20, 18) + 1
        assert _agrees(ctx, _raw_values(ctx, max(12 + 20, 12 + 18) + 1))

    @pytest.mark.parametrize("name", [*DIFFERENTIAL_CONFIGS, "same", "wide"])
    def test_both_point_counts_give_one_verdict(self, name):
        """The cross-check at B' + 1 points and the old one at B + 1 agree, E
        divides the clearing factor, and E R, interpolated from the raw table
        at the B + 1 points, has degree at most raw_degree."""
        cfg = DIFFERENTIAL_CONFIGS[name] if name in DIFFERENTIAL_CONFIGS else golden_config(name)
        ctx = build_run(cfg).ctx
        old, new, E, raw_degree = _raw_bounds(ctx)
        assert len(casorati_rational(ctx)) == new + 1 <= old + 1
        values = _raw_values(ctx, old + 1)
        assert _agrees(ctx, casorati_rational(ctx)) == _agrees(ctx, values) is True
        product = interpolate(*clear_denominators([E(t) * v for t, v in values.items()]), list(values))
        assert product.degree <= raw_degree

    def test_value_at_the_last_point_read_is_checked(self, monkeypatch):
        """On ``same`` (kinds 2, 2, 2), deg(cf / E) = 3, so B' = max(3 +
        raw_degree, deg C) = 22, against B = 28 and 19 without the quotient.  A
        raw value patched at the (B' + 1)-th kept point fails the hypotheses
        check."""
        monkeypatch.setattr(casorati, "_store", OrderedDict())
        cfg = replace(golden_config("same"), checks=("hypotheses",))
        ctx = build_run(cfg).ctx
        old, new, E, raw_degree = _raw_bounds(ctx)
        assert (old, new, max(raw_degree, casorati_cleared(ctx).degree)) == (28, 22, 19)
        assert verify.run_config(cfg).passed
        t = max(_raw_values(ctx, new + 1))
        table = casorati.raw_points(ctx).table
        (minor, *others), den = table[t]
        table[t] = (minor + 1, *others), den
        (check,) = verify.run_config(cfg).checks
        assert check.witness["determinant_dual_route"] is False

    def test_poles_are_skipped(self):
        # kind 4's ratio -(n + b)/(n + a) has its pole at n = 2 when a = -2;
        # with m = 2 the rows at t read the ratio at t and t - 1, so t = 2 and
        # t = 3 are skipped
        ctx = context_from_degrees(HahnParams(-2, Fraction(1, 2), 1), ((), (), (), (0, 1)))
        values = casorati_rational(ctx)
        assert [t for t in range(max(values)) if t not in values] == [2, 3]
        assert pointwise_dual_route(ctx)

    def test_pole_in_the_bordered_rows_raises(self):
        # the same pole at n = 2; q_2's rows read the ratio at 2 and 1
        ctx = context_from_degrees(HahnParams(-2, -3, 1), ((), (), (), (0, 1)))
        with pytest.raises(ParameterSingularity):
            krall_polynomial(ctx, 2)
        assert pointwise_dual_route(ctx)

    @pytest.mark.parametrize("a", [-2, -20])
    def test_pole_in_the_rows_names_its_degree(self, a, monkeypatch):
        """Kind 4's pole at n = -a: the raw rows and q_n at n = -a raise it by
        its degree t = -a.  The point values and the table reach t + 1 and keep
        what they computed: the table in blocks below its reach and, at
        a = -20, past it, exactly to t + 1."""
        monkeypatch.setattr(casorati, "_store", OrderedDict())
        ctx = context_from_degrees(HahnParams(a, Fraction(1, 2), 1), ((), (), (), (0, 1)))
        raw, t = casorati.raw_points(ctx), -a
        with pytest.raises(ParameterSingularity, match=f"pole at degree {t}$"):
            casorati_rows(ctx, t)
        assert len(raw.values) == raw.m + t + 1 and not raw.table
        with pytest.raises(ParameterSingularity, match=f"pole at degree {t}$"):
            krall_polynomial(ctx, t)
        assert len(raw.table) == len(raw.values) - raw.m == max(t + 1, min(raw.reach, LANES))
        assert raw.table[t] is None
        assert (raw.reach < t) == (a == -20)

    @pytest.mark.parametrize("corrupt", ["cleared_entry", "clearing_factor"])
    def test_corrupted_clearing_block_fails(self, corrupt, monkeypatch):
        """A falling block one step too long, in the column values the cleared
        adjugate evaluates or in the clearing factor, fails the hypotheses
        check's pointwise comparison."""
        monkeypatch.setattr(casorati, "_store", OrderedDict())
        ctx = build_run(builtin_config("four-roots")).ctx
        p, m = ctx.params, ctx.m
        if corrupt == "cleared_entry":
            # the column values the cleared adjugate evaluates, each with one
            # more linear factor s - 1, as if a block were one step too long
            q, values = casorati.normalizer_factors(ctx)[2], casorati._primitive_values

            def longer(roots, divisor, points):
                return [v * (point - q) // q for v, point in zip(values(roots, divisor, points), points)]

            monkeypatch.setattr(casorati, "_primitive_values", longer)
            report = verify.run_config(replace(builtin_config("four-roots"), checks=("hypotheses",)))
            assert not report.checks[0].passed
        else:
            def factor(ctx):
                acc = Polynomial.one()
                for kind in ctx.row_kinds:
                    for which in CLEARING_BLOCKS[kind]:
                        acc = acc * explicit_falling_block(which, m, -1, p)
                return acc

            monkeypatch.setattr(casorati, "clearing_factor", casorati._stage(factor))
            monkeypatch.setattr(verify, "clearing_factor", casorati.clearing_factor)
            report = verify.run_config(replace(builtin_config("four-roots"), checks=("hypotheses",)))
            assert report.checks[0].witness["determinant_dual_route"] is False
        assert not pointwise_dual_route(ctx)

    def test_core_times_normalizers_is_cleared(self, single_root_ctx, four_root_ctx):
        for ctx in (single_root_ctx, four_root_ctx):
            assert core_determinant(ctx) * normalizer(ctx) == casorati_cleared(ctx)

    def test_point_values(self, four_root_ctx):
        cleared = casorati_cleared(four_root_ctx)
        clearing = clearing_factor(four_root_ctx)
        for n in range(8):
            assert casorati_value(four_root_ctx, n) == cleared(n) / clearing(n)

    def test_singular_point_is_reported(self, four_root_ctx):
        with pytest.raises(ParameterSingularity):
            casorati_value(four_root_ctx, Fraction(-3, 2))


class TestDifferenceIdentities:
    def test_lambda_pinning_and_increment(self, single_root_ctx, four_root_ctx):
        for ctx in (single_root_ctx, four_root_ctx):
            lam = eigenvalue_polynomial(ctx)
            inc = spectral_increment(ctx)
            assert lam(-1) == 0
            assert lam - lam.shift_argument(-1) == inc

    def test_increment_transport(self, single_root_ctx, four_root_ctx):
        for ctx in (single_root_ctx, four_root_ctx):
            p = ctx.params
            inc = spectral_increment(ctx)
            assert reflect(inc, p.a + p.b - 1) == -inc.shift_argument(ctx.m)

    def test_mixing_skew_symmetry(self, four_root_ctx):
        p = four_root_ctx.params
        sigma_next = series_shift(p).shift_argument(1)
        for row in range(four_root_ctx.m):
            mh = mixing_polynomial(four_root_ctx, row)
            assert reflect(mh, p.a + p.b) == -mh
            quotient, remainder = mh.divmod(sigma_next)
            assert remainder.is_zero
            assert theta_substitute(quotient, p.a + p.b) == mixing_symbol(
                four_root_ctx, row
            )

    def test_mixing_matches_shifted_entry_route(self):
        """Minors of the cached matrix shifted once equal minors rebuilt at x + j."""
        theorem_m3 = config_from_dict({
            "a": "1/2", "b": "1/3", "N": 12, "F": [[1], [1], [1], []], "path": "theorem",
        })
        contexts = [build_run(builtin_config("four-roots")).ctx, build_run(theorem_m3).ctx]
        assert [ctx.m for ctx in contexts] == [4, 3]
        for ctx in contexts:
            for row in range(ctx.m):
                assert mixing_polynomial(ctx, row) == shifted_entry_mixing(ctx, row)

    @pytest.mark.parametrize("name", DIFFERENTIAL_CONFIGS)
    def test_gcd_free_mixing_matches_pair_route(self, name, monkeypatch):
        """Every row against the pair route; no krallhahn module defines a gcd
        for the gcd-free route to take."""
        ctx = build_run(DIFFERENTIAL_CONFIGS[name]).ctx
        monkeypatch.setattr(casorati, "_store", OrderedDict())
        modules = [
            importlib.import_module(f"krallhahn.{info.name}")
            for info in pkgutil.iter_modules(krallhahn.__path__)
        ]
        assert "krallhahn.polynomials" in [module.__name__ for module in modules]
        assert not [
            module.__name__ for module in modules
            if hasattr(module, "poly_gcd") or hasattr(module, "lowest_terms")
        ]
        mixing = [mixing_polynomial(ctx, row) for row in range(ctx.m)]
        monkeypatch.undo()
        assert normalizer(ctx) == block_normalizer(ctx)
        assert mixing == [pair_route_mixing(ctx, row) for row in range(ctx.m)]

    def test_uncancelled_mixing_denominator_raises(self, monkeypatch):
        """One mixing term times (x + 1/3) leaves a denominator the sum cannot cancel."""
        monkeypatch.setattr(casorati, "_store", OrderedDict())
        cfg = replace(builtin_config("four-roots"), checks=("hypotheses",))
        ctx = build_run(cfg).ctx
        factors = casorati._mixing_factors

        def skewed(ctx):  # each row kind's j = 1 weight times (x + 1/3), in its prefactor
            return {
                kind: ([(prefactor * (X + Fraction(1, 3)), *rest), *others], divisor)
                for kind, (((prefactor, *rest), *others), divisor) in factors(ctx).items()
            }

        monkeypatch.setattr(casorati, "_mixing_factors", skewed)
        message = "denominator of degree 2 does not cancel"
        with pytest.raises(NonExactDivision, match=message) as err:
            mixing_polynomial(ctx, 0)
        assert err.value.remainder.degree > 0
        check = verify.run_config(cfg).checks[0]
        assert not check.passed
        assert check.witness["error"] == f"NonExactDivision: {err.value}"

    def test_mismatch_past_the_quotient_nodes_raises(self, monkeypatch):
        """One cleared-adjugate value patched at the last point a numerator
        reads, past the points the quotient is interpolated from: only the
        identity at every checked point sees it, and the division is refused."""
        monkeypatch.setattr(casorati, "_store", OrderedDict())
        ctx = build_run(builtin_config("four-roots")).ctx
        row, m = 0, ctx.m
        xs, weights, _, divisor, _, kept = casorati._mixing_tables(ctx)[ctx.row_kinds[row]]
        assert 0 < len(xs) - sum(kept.values()) < len(xs) and all(divisor)
        assert weights[m - 1][-1]
        casorati._cleared_adjugate(ctx).values[row][m - 1][xs[-1] + m] += 1
        with pytest.raises(NonExactDivision, match="does not cancel") as err:
            mixing_polynomial(ctx, row)
        assert err.value.remainder.degree > 0

    def test_reduced_denominator_matches_lowest_terms(self, monkeypatch):
        """The patched four-roots row of the test above: the reduced
        denominator, read off the roots of L'', is the one Euclid over Q gives
        for the numerator n'' that the error path interpolates."""
        monkeypatch.setattr(casorati, "_store", OrderedDict())
        ctx = build_run(builtin_config("four-roots")).ctx
        row, m = 0, ctx.m
        xs, *_, kept = casorati._mixing_tables(ctx)[ctx.row_kinds[row]]
        casorati._cleared_adjugate(ctx).values[row][m - 1][xs[-1] + m] += 1
        interpolated, interpolate = [], casorati.interpolate

        def spy(*args):
            interpolated.append(interpolate(*args))
            return interpolated[-1]

        monkeypatch.setattr(casorati, "interpolate", spy)
        with pytest.raises(NonExactDivision) as err:
            mixing_polynomial(ctx, row)
        q = casorati.normalizer_factors(ctx)[2]
        denominator = Polynomial.from_integer_roots(Counter(kept).elements(), q)
        _, expected = lowest_terms(interpolated[-1], denominator)
        assert err.value.remainder == expected and expected.degree > 0
        assert str(err.value) == f"denominator of degree {expected.degree} does not cancel"

    def test_mismatch_at_five_rows_is_named_from_the_roots(self, monkeypatch):
        """F1=[3], N=8 (m = 5), one value patched at the last point row 1
        reads: the division is refused with the reduced denominator's degree,
        well inside the time limit (Euclid over Q against the 65 roots of L'
        took minutes here).  That degree is the one Euclid over Q gives for
        the n'' that the error path interpolates, against the 21 roots of L''."""
        monkeypatch.setattr(casorati, "_store", OrderedDict())
        ctx = build_run(DIFFERENTIAL_CONFIGS["F1=3-theorem-N8"]).ctx
        row, m = 1, ctx.m
        xs, weights, *_, kept = casorati._mixing_tables(ctx)[ctx.row_kinds[row]]
        assert m == 5 and weights[m - 1][-1] and sum(kept.values()) == 21
        casorati._cleared_adjugate(ctx).values[row][m - 1][xs[-1] + m] += 1
        interpolated, interpolate = [], casorati.interpolate

        def spy(*args):
            interpolated.append(interpolate(*args))
            return interpolated[-1]

        monkeypatch.setattr(casorati, "interpolate", spy)
        message = "denominator of degree 21 does not cancel"
        with pytest.raises(NonExactDivision, match=message) as err:
            mixing_polynomial(ctx, row)
        q = casorati.normalizer_factors(ctx)[2]
        denominator = Polynomial.from_integer_roots(Counter(kept).elements(), q)
        _, expected = lowest_terms(interpolated[-1], denominator)
        assert err.value.remainder == expected

    def test_spectral_difference(self, single_root_ctx, four_root_ctx):
        for ctx in (single_root_ctx, four_root_ctx):
            p = ctx.params
            ps = spectral_polynomial(ctx)
            inc = spectral_increment(ctx)
            lhs = ps.compose(p.eigenvalue_poly()) - ps.compose(p.eigenvalue_poly(shift=-1))
            assert lhs == inc + inc.shift_argument(ctx.m)


class TestThetaRoutes:
    @pytest.mark.parametrize("name", ROUTE_CONFIGS)
    def test_digits_match_peeling(self, name):
        ctx = build_run(ROUTE_CONFIGS[name]).ctx
        s = ctx.params.a + ctx.params.b
        inputs = theta_inputs(ctx)
        assert len(inputs) == ctx.m + 1
        for poly in inputs:
            assert theta_substitute(poly, s) == peeling_theta_substitute(poly, s)
        assert theta_substitute(inputs[0], s) == spectral_polynomial(ctx)

    @pytest.mark.parametrize("poly", [X**3 - 2 * X + 1, X * X + X], ids=["odd", "not-invariant"])
    def test_both_routes_reject(self, poly, desk_params):
        s = desk_params.a + desk_params.b
        assert s != 0
        for route in (theta_substitute, peeling_theta_substitute):
            with pytest.raises(NotThetaRepresentable):
                route(poly, s)


def test_reference_rational_det():
    one = Polynomial.one()
    rows = [
        [lowest_terms(one, X), lowest_terms(X, X + 1)],
        [ONE, (X - 2, one)],
    ]
    # (x - 2)/x - x/(x + 1) = (-x - 2) / (x^2 + x)
    assert rational_det(rows) == (-X - 2, X * X + X)
    assert rational_det(rows) == add(lowest_terms(X - 2, X), lowest_terms(-X, X + 1))


class TestBorderedFamily:
    @pytest.mark.parametrize("name", ROUTE_CONFIGS)
    def test_scalar_ratio_values_match_closed_form(self, name):
        run = build_run(ROUTE_CONFIGS[name])
        for n in range(run.n_max + 1):
            assert krall_polynomial(run.ctx, n) == closed_form_krall_polynomial(run.ctx, n)

    def test_degree_and_leading(self, single_root_ctx):
        ctx = single_root_ctx
        for n in range(6):
            qn = krall_polynomial(ctx, n)
            assert qn.degree == n
            assert qn.leading_coefficient == casorati_value(
                ctx, n
            ) * hahn_leading_coefficient(n, ctx.params)

    def test_eigen_equation(self, single_root_ctx):
        ctx = single_root_ctx
        op = krall_operator(ctx)
        lam = eigenvalue_polynomial(ctx)
        for n in range(5):
            qn = krall_polynomial(ctx, n)
            assert op.apply(qn) == Fraction(lam(n)) * qn


# every route config, plus one m = 5 context on the theorem path
class TestIntegerRows:
    @pytest.mark.parametrize("name", DIFFERENTIAL_CONFIGS)
    def test_integer_rows_match_fraction_rows(self, name):
        """Each integer row is its reference row times one rational d_r, and
        the product of the d_r is the returned denominator."""
        run = build_run(DIFFERENTIAL_CONFIGS[name])
        ctx = run.ctx
        for t in range(run.n_max + 1):
            rows, denominator = casorati_rows(ctx, t)
            reference = reference_casorati_rows(ctx, t)
            assert len(rows) == ctx.m and all(len(row) == ctx.m + 1 for row in rows)
            product = Fraction(1)
            for row, ref in zip(rows, reference):
                assert all(type(v) is int for v in row)
                c = next(c for c, v in enumerate(ref) if v)
                scale = Fraction(row[c]) / ref[c]
                assert list(row) == [scale * v for v in ref]
                product *= scale
            assert product == denominator
            assert krall_polynomial(ctx, t) == reference_krall_polynomial(ctx, t)
        for t, v in casorati_rational(ctx).items():
            assert v == cofactor_det([row[1:] for row in reference_casorati_rows(ctx, t)])

    def test_classical_context_has_no_rows(self):
        run = build_run(builtin_config("classical"))
        ctx = run.ctx
        assert ctx.m == 0 and casorati_rows(ctx, 3) == ((), 1)
        values = casorati_rational(ctx)
        assert values and all(type(v) is Fraction and v == 1 for v in values.values())
        for n in range(run.n_max + 1):
            assert krall_polynomial(ctx, n) == hahn_polynomial(n, ctx.params)


def _differential_context(name):
    """A differential config's context, or the invariant-prefactor context."""
    if name == "invariant-prefactor":
        return invariant_prefactor_ctx(HahnParams(Fraction(1, 2), Fraction(1, 3), 8))
    return build_run(DIFFERENTIAL_CONFIGS[name]).ctx


class TestIntegerScalars:
    """The mixing weights from integer root multisets and the Casorati values by
    integer Horner, each against the route it replaced."""

    # deg G, the linear factors shared by L and every weight, per row kind
    SHARED_DEGREES = {
        "four-roots": {1: 10, 2: 16, 3: 4, 4: 10},
        "F123=1-theorem": {1: 7, 2: 7, 3: 3},
        "F1=3-theorem-N8": {1: 13},
    }

    @pytest.mark.parametrize("name", [*DIFFERENTIAL_CONFIGS, "invariant-prefactor"])
    def test_mixing_weights_match_polynomial_route(self, name):
        """w_j L' = w'_j L for every kind and j, with w'_j and L' expanded
        here from the returned root dicts and w_j and L from the
        ``Fraction``-root polynomial route; each weight's dict is the Counter
        of the roots of w_j L' / L over its prefactor and constant, each
        root's order found by exact division and the orders summing to the
        degree; L' divides L, and the shared factors G = L / L' are the
        expected ones."""
        ctx = _differential_context(name)
        reference, full = polynomial_mixing_factors(ctx)
        factors = casorati._mixing_factors(ctx)
        _, _, q = casorati.normalizer_factors(ctx)
        assert list(factors) == list(dict.fromkeys(ctx.row_kinds))
        shared = {}
        for kind, (weights, roots) in factors.items():
            divisor = Polynomial.from_integer_roots(Counter(roots).elements(), q)
            assert len(weights) == ctx.m
            for (prefactor, factor_roots, constant), expected in zip(weights, reference[kind]):
                expanded = Polynomial.from_integer_roots(Counter(factor_roots).elements(), q)
                weight = prefactor * expanded * constant
                assert weight * full == expected * divisor
                monic = (expected * divisor).divide_exact(full * prefactor * constant)
                found = Counter({r: _order(monic, r, q) for r in {*factor_roots, *roots}})
                assert dict(+found) == factor_roots and found.total() == monic.degree
            assert full.divmod(divisor)[1].is_zero
            shared[kind] = full.degree - divisor.degree
        assert shared == self.SHARED_DEGREES.get(name, shared)
        if ctx.m > 1:
            assert all(shared.values())

    @pytest.mark.parametrize("name", [*DIFFERENTIAL_CONFIGS, "invariant-prefactor"])
    def test_casorati_value_matches_fraction_route(self, name):
        """At integer and rational points, including the poles of the
        clearing factor, the Horner value equals the ``Fraction`` one or both
        raise."""
        ctx = _differential_context(name)
        points = [*range(-3, 12), Fraction(-3, 2), Fraction(1, 2), Fraction(-7, 3), Fraction(22, 5)]
        for point in points:
            try:
                expected = fraction_casorati_value(ctx, point)
            except ParameterSingularity:
                with pytest.raises(ParameterSingularity):
                    casorati_value(ctx, point)
            else:
                value = casorati_value(ctx, point)
                assert type(value) is Fraction and value == expected, point


MIXING_CONTEXTS = [*DIFFERENTIAL_CONFIGS, "wide"]


def _mixing_context(name):
    """A differential config's context, or a golden config's."""
    cfg = DIFFERENTIAL_CONFIGS[name] if name in DIFFERENTIAL_CONFIGS else golden_config(name)
    return build_run(cfg).ctx


def _order(poly, root, q):
    """The order of poly at root / q, by repeated exact division."""
    linear, order = Polynomial.from_integer_roots((root,), q), 0
    while not poly.is_zero and not horner(poly.integer_parts[0], root, q):
        poly, order = poly.divide_exact(linear), order + 1
    return inf if poly.is_zero else order


class TestMixingOrders:
    """The cofactors' orders at the normaliser's roots, read off the column
    root lists, and the mixing check at K'' points, against the true orders,
    the terms' true reduced denominators and the full-K route."""

    @pytest.mark.parametrize("name", MIXING_CONTEXTS)
    def test_orders_and_kept_roots_bound_the_true_ones(self, name, monkeypatch):
        """Every claimed order of a cofactor at a root is at most its order
        found by dividing the interpolated cofactor; the true reduced
        denominator of every term sigma_j B_j cofactor(x + j) / N_j lies in
        the term's kept roots, and those lie in L'', which lies in L'; K'' =
        K - deg L' + deg L''; and the cleared adjugate is taken no further
        than its determinant's bound or the last point x + j the check reads."""
        monkeypatch.setattr(casorati, "_store", OrderedDict())
        ctx = _mixing_context(name)
        tables = casorati._mixing_tables(ctx)
        adjugate = casorati._cleared_adjugate(ctx)
        reads = [xs[-1] + 1 + ctx.m for xs, *_ in tables.values() if xs]
        assert len(adjugate.dets) == max([adjugate.degree_bound() + 1, *reads])
        _, roots, q = casorati.normalizer_factors(ctx)
        orders, terms = casorati._cofactor_orders(ctx), casorati._term_roots(ctx)
        sigma = series_shift(ctx.params).shift_argument(Fraction(-(ctx.m - 1), 2))
        for row, kind in enumerate(ctx.row_kinds):
            kept = Counter(tables[kind][-1])
            for j in range(1, ctx.m + 1):
                cofactor = point_cofactor(adjugate, row, j - 1)
                for root, order in orders[kind][j - 1].items():
                    assert order <= _order(cofactor, root, q), (row, j, root)
                numer = sigma.shift_argument(j) * block_mixing_prefactor(ctx, row, j)
                _, denominator = divide_out_roots(
                    numer * cofactor.shift_argument(j), [r - j * q for r in roots], q
                )
                assert Counter(denominator) <= Counter(terms[kind][j - 1][2]) <= kept, (row, j)
        full = full_mixing_tables(ctx) if ctx.m else {}
        for kind, (xs, *_, divisor, kept) in tables.items():
            assert Counter(kept) <= Counter(divisor)
            assert len(xs) == full[kind][0] - sum(divisor.values()) + sum(kept.values())
            if ctx.m > 1:  # the orders cancel part of L' in every context with two rows
                assert any(orders[kind]) and sum(kept.values()) < sum(divisor.values())

    def test_linear_product_matches_flat_product(self):
        """One (x q - r)^k pass per distinct root equals the product taken one
        root at a time, on multiplicities 1-4, with zero and negative factors,
        an empty multiset and no points."""
        points, values = [-6, -3, 0, 3, 6, 9], [5, -2, 7, 0, 1, -4]
        for roots in ({}, {3: 1}, {-3: 2, 6: 1}, {0: 3, 9: 1, -6: 4}, {2: 4, -1: 3, 5: 2, 7: 1}):
            flat = [r for r, k in roots.items() for _ in range(k)]
            assert casorati._linear_product(values, roots, points) == flat_linear_product(values, flat, points)
            assert casorati._linear_product([], roots, []) == []

    @pytest.mark.parametrize("name", STRUCTURE_CONFIGS)
    def test_tables_match_the_per_kind_route(self, name, monkeypatch):
        """Each term's roots common to every row kind, and those of L',
        multiplied out once on the union of the kinds' points: every field
        equals the per-kind route's (X, each weight table, s, L''s values, R'
        and R''), and with two kinds or more the passes over a root are fewer
        (324 -> 135 on four-roots)."""
        monkeypatch.setattr(casorati, "_store", OrderedDict())
        ctx = build_run(STRUCTURE_CONFIGS[name]).ctx
        passes, linear = Counter(), casorati._linear_product

        def spy(values, roots, points):  # the passes, by the calling function
            caller = sys._getframe(1)
            while caller.f_code.co_name.startswith("<"):  # a comprehension's frame
                caller = caller.f_back
            passes[caller.f_code.co_name] += len(roots)
            return linear(values, roots, points)

        monkeypatch.setattr(casorati, "_linear_product", spy)
        tables, reference = casorati._mixing_tables(ctx), per_kind_mixing_tables(ctx)
        assert tables.keys() == reference.keys()
        for kind in reference:
            for field, found, expected in zip(("X", "W", "s", "V", "R'", "R''"), tables[kind], reference[kind]):
                assert found == expected, (kind, field)
        shared, per_kind = passes["_mixing_tables"], passes["per_kind_mixing_tables"]
        assert shared < per_kind if len(tables) > 1 else shared == per_kind
        if name == "four-roots":
            assert (per_kind, shared) == (324, 135)

    # the largest multiplicity of a weight root, where it exceeds 1
    REPEATED_ROOTS = {"F1=3-theorem-N8": 4, "F1=2-theorem": 2, "F4=3-corollary": 2}

    @pytest.mark.parametrize("name", REPEATED_ROOTS)
    def test_weights_repeat_roots(self, name):
        """The contexts whose weights carry a root of multiplicity k > 1, so
        the full-check comparison below reaches the (x q - r)^k pass."""
        ctx = _mixing_context(name)
        weights = [roots for ws, _ in casorati._mixing_factors(ctx).values() for _, roots, _ in ws]
        assert max(k for roots in weights for k in roots.values()) == self.REPEATED_ROOTS[name]

    @pytest.mark.parametrize("name", MIXING_CONTEXTS)
    def test_mixing_matches_the_full_check(self, name):
        ctx = _mixing_context(name)
        rows = range(ctx.m)
        assert [mixing_polynomial(ctx, r) for r in rows] == [full_mixing_polynomial(ctx, r) for r in rows]


def _signed_minor(matrix, r, c):
    minor = cofactor_det([row[:c] + row[c + 1 :] for i, row in enumerate(matrix) if i != r])
    return -minor if (r + c) % 2 else minor


class TestPointRoute:
    """The cleared determinant and its cofactors from integer point values
    (matrices.PointAdjugate) against cofactor expansion (reference.cofactor_det)."""

    @pytest.mark.parametrize("name", DIFFERENTIAL_CONFIGS)
    def test_cleared_route_matches_poly_det(self, name):
        """casorati_cleared and every cofactor equal cofactor_det's, no degree bound
        is below the reference degree, and every mixing row equals the
        cofactor_det pair route."""
        ctx = build_run(DIFFERENTIAL_CONFIGS[name]).ctx
        matrix = casorati.cleared_matrix(ctx)
        adjugate = casorati._cleared_adjugate(ctx)
        det = cofactor_det(matrix)
        assert casorati_cleared(ctx) == det and adjugate.degree_bound() >= det.degree
        for r in range(ctx.m):
            for c in range(ctx.m):
                expected = _signed_minor(matrix, r, c)
                assert point_cofactor(adjugate, r, c) == expected, (r, c)
                assert adjugate.degree_bound(r) >= expected.degree
        mixing = [mixing_polynomial(ctx, r) for r in range(ctx.m)]
        assert mixing == [pair_route_mixing(ctx, r) for r in range(ctx.m)]

    @pytest.mark.parametrize("name", ["four-roots", "F1=2-theorem", "F1=3-theorem-N8"])
    def test_singular_points_take_the_direct_minors(self, name):
        """Where the cleared determinant vanishes at a point that a cofactor
        reads, the stored adjugate is still every cofactor's value there, over
        its row scale."""
        ctx = build_run(DIFFERENTIAL_CONFIGS[name]).ctx
        matrix = casorati.cleared_matrix(ctx)
        adjugate = casorati._cleared_adjugate(ctx)
        singular = [x for x, det in enumerate(adjugate.dets) if det == 0]
        assert all(casorati_cleared(ctx)(x) == 0 for x in singular)
        singular = [x for x in singular if x < len(adjugate.values[0][0])]
        assert singular
        total = 1
        for den in adjugate.dens:
            total *= den
        for r in range(ctx.m):
            for c in range(ctx.m):
                cofactor = _signed_minor(matrix, r, c)
                for x in singular:
                    value = adjugate.values[r][c][x]
                    assert value == cofactor(x) * (total // adjugate.dens[r]), (x, r, c)
                assert point_cofactor(adjugate, r, c) == cofactor

    def test_zero_entry(self):
        """The four-roots cleared matrix with one entry zeroed, through
        polynomial_adjugate on its polynomial rows: each row keeps the degree
        of its other entries, and the determinant and every cofactor still
        equal cofactor_det's."""
        ctx = build_run(builtin_config("four-roots")).ctx
        matrix = [list(row) for row in casorati.cleared_matrix(ctx)]
        matrix[1][1] = Polynomial.zero()
        adjugate = polynomial_adjugate(matrix)
        assert adjugate.degrees == casorati._cleared_adjugate(ctx).degrees
        assert adjugate.degrees[1] == matrix[1][0].degree > -1
        assert adjugate.det() == cofactor_det(matrix) != casorati_cleared(ctx)
        for r in range(ctx.m):
            for c in range(ctx.m):
                assert point_cofactor(adjugate, r, c) == _signed_minor(matrix, r, c)

    @pytest.mark.parametrize("name", STRUCTURE_CONFIGS)
    def test_structured_table_matches_polynomial_rows(self, name, monkeypatch):
        """The cleared adjugate's table, its integer rows read off the matrix's
        structure with the blocks that every kind shares factored out, equals
        polynomial_adjugate on the cleared matrix at every point it holds
        once the mixing rows have taken it to every x + j they read: the row
        scales, the row degrees, ``dets`` and every ``values[r][c]``.  The
        shared blocks are every block with one kind (F1=2-theorem,
        F4=3-corollary, F1=3-theorem-N8), block 2 with kinds {1, 2}, block 1
        with {2, 4}, and none with kind 3 or kinds {1, 4}."""
        monkeypatch.setattr(casorati, "_store", OrderedDict())
        ctx = build_run(STRUCTURE_CONFIGS[name]).ctx
        adjugate = casorati._cleared_adjugate(ctx)
        casorati._mixing_tables(ctx)
        reference = polynomial_adjugate(casorati.cleared_matrix(ctx))
        reference.extend(len(adjugate.dets))
        assert (adjugate.dens, adjugate.degrees) == (reference.dens, reference.degrees)
        assert adjugate.dets == reference.dets
        assert adjugate.values == reference.values

    @pytest.mark.parametrize(
        "name", ["single-root", "single-root-direct", "four-roots", "classical", "F1=3-theorem-N8"]
    )
    def test_run_never_builds_the_polynomial_matrix(self, name, monkeypatch):
        """A run with every check reads the cleared matrix only through its
        structured point table: cleared_matrix, which builds every polynomial
        entry, is not called."""
        monkeypatch.setattr(casorati, "_store", OrderedDict())
        calls, built = [], casorati.cleared_matrix
        monkeypatch.setattr(casorati, "cleared_matrix", lambda *args: calls.append(args) or built(*args))
        assert verify.run_config(DIFFERENTIAL_CONFIGS[name]).passed
        assert not calls

    def test_raw_points_are_evaluated_once_per_context(self, monkeypatch):
        """casorati_rational and krall_polynomial share the raw route's point
        values: each point is evaluated once, and q_n, which reads its minors
        from the table casorati_rational left, equals the reference."""
        monkeypatch.setattr(casorati, "_store", OrderedDict())
        calls = Counter()
        point = casorati._RawPoints.point

        def counting(raw, s):
            calls[s] += 1
            return point(raw, s)

        monkeypatch.setattr(casorati._RawPoints, "point", counting)
        run = build_run(ROUTE_CONFIGS["F1234=1-corollary"])
        ctx = run.ctx
        for _ in range(2):
            values = casorati_rational(ctx)
            qs = [krall_polynomial(ctx, n) for n in range(run.n_max + 1)]
        assert max(values) > run.n_max
        assert sorted(calls) == list(range(-ctx.m, max(values) + 1))
        assert set(calls.values()) == {1}
        assert qs == [reference_krall_polynomial(ctx, n) for n in range(run.n_max + 1)]

    def test_degrees_past_the_reach_are_evaluated_once(self, monkeypatch):
        """q_n past the table's reach reads the point values and minors kept:
        after q_0..q_{n_max}, q_n at reach..reach + 3, asked for twice, reach
        each point once, and every q_n equals the reference."""
        monkeypatch.setattr(casorati, "_store", OrderedDict())
        calls = Counter()
        point = casorati._RawPoints.point
        monkeypatch.setattr(
            casorati._RawPoints, "point", lambda raw, s: calls.update((s,)) or point(raw, s)
        )
        run = build_run(ROUTE_CONFIGS["F1234=1-corollary"])
        ctx = run.ctx
        raw = casorati.raw_points(ctx)
        degrees = [*range(run.n_max + 1), *range(raw.reach, raw.reach + 4)]
        assert run.n_max < raw.reach
        for _ in range(2):
            qs = [krall_polynomial(ctx, n) for n in degrees]
        assert sorted(calls) == list(range(-ctx.m, raw.reach + 4))
        assert set(calls.values()) == {1}
        assert len(raw.table) == raw.reach + 4
        assert qs == [reference_krall_polynomial(ctx, n) for n in degrees]

    def test_criteria_read_the_point_values(self, monkeypatch):
        """The criteria check reads the ladder's point values and evaluates no
        ratio itself: a criteria-only run on a fresh context keeps them for
        exactly s = -m..N, with no lane_bareiss pass and an empty table of
        minors, and after q_n at the orthogonality range the check evaluates
        no point."""
        monkeypatch.setattr(casorati, "_store", OrderedDict())
        passes, calls = [], Counter()
        bareiss, point = casorati.lane_bareiss, casorati._RawPoints.point
        monkeypatch.setattr(casorati, "lane_bareiss", lambda *a: passes.append(1) or bareiss(*a))
        monkeypatch.setattr(
            casorati._RawPoints, "point", lambda raw, s: calls.update((s,)) or point(raw, s)
        )
        cfg = replace(builtin_config("four-roots"), checks=("criteria",))
        (check,) = verify.run_config(cfg).checks
        run = build_run(cfg)
        ctx = run.ctx
        raw = casorati.raw_points(ctx)
        assert check.passed
        assert sorted(calls) == list(range(-ctx.m, ctx.params.N + 1))
        assert len(raw.values) == len(calls) and not passes and not raw.table
        krall_polynomial(ctx, ctx.orthogonality_range)
        calls.clear()
        assert verify.check_foeq(ctx, run.inner_measure) == (check.passed, check.witness)
        assert passes and not calls


# the contexts of test_poles_are_skipped and test_pole_in_the_bordered_rows_raises,
# and one of m = 3 whose Casorati matrix is singular at t = 0 while the bordered
# rows there have rank m: minor_0 = 0, and minors 2 and 3 are not
DEGREE_CONTEXTS = {
    "pole-a": (HahnParams(-2, Fraction(1, 2), 1), ((), (), (), (0, 1))),
    "pole-ab": (HahnParams(-2, -3, 1), ((), (), (), (0, 1))),
    "rank-m": (HahnParams(Fraction(7, 3), Fraction(5, 3), 1), ((1,), (), (), (0, 1))),
}


class TestMinorTable:
    """The raw route's table of maximal minors, taken by lane_bareiss, against
    cofactor expansion of the Fraction reference rows."""

    @pytest.mark.parametrize("name", [*DIFFERENTIAL_CONFIGS, *DEGREE_CONTEXTS])
    def test_table_matches_cofactor_minors(self, name, monkeypatch):
        """Every entry that casorati_rational leaves is None at a ratio pole and
        otherwise holds each minor without column k over D(t).  On the theorem
        path at m = 5 every minor vanishes at t = N + 2..N + m, where Omega
        has its forced zeros and the bordered rows have rank below m; the
        rank-m context has a singular lane whose other minors do not vanish."""
        monkeypatch.setattr(casorati, "_store", OrderedDict())
        if name in DEGREE_CONTEXTS:
            ctx = context_from_degrees(*DEGREE_CONTEXTS[name])
        else:
            ctx = build_run(DIFFERENTIAL_CONFIGS[name]).ctx
        values = casorati_rational(ctx)
        table = casorati.raw_points(ctx).table
        assert len(table) == max(values) + 1
        for t, entry in enumerate(table):
            try:
                reference = reference_casorati_rows(ctx, t)
            except ParameterSingularity:
                assert entry is None and t not in values, t
                continue
            minors, denominator = entry
            assert len(minors) == ctx.m + 1
            for k, minor in enumerate(minors):
                expected = cofactor_det([row[:k] + row[k + 1 :] for row in reference])
                assert Fraction(minor, denominator) == expected, (t, k)
        if name == "F1=3-theorem-N8":
            forced = range(ctx.params.N + 2, ctx.params.N + ctx.m + 1)
            assert forced.stop <= len(table)
            assert not any(any(table[t][0]) for t in forced)
        if name == "rank-m":
            (minors, _), *_ = table
            assert minors[0] == 0 and any(minors)

    def test_degrees_past_the_table_are_taken_alone(self, monkeypatch):
        """krall_polynomial grows the table in blocks up to the Omega scan,
        t <= N + m3 + m4 + 1, and past it exactly to the degree asked for: the
        table and the point values kept reach t + 1, and a degree below what
        is kept grows neither."""
        monkeypatch.setattr(casorati, "_store", OrderedDict())
        ctx = build_run(builtin_config("four-roots")).ctx
        raw = casorati.raw_points(ctx)
        krall_polynomial(ctx, 0)
        assert len(raw.table) == raw.reach == ctx.orthogonality_range + 2
        for n in (raw.reach, raw.reach + 1, raw.reach + 40):
            assert krall_polynomial(ctx, n) == reference_krall_polynomial(ctx, n), n
            assert len(raw.table) == len(raw.values) - raw.m == n + 1
        n = raw.reach + 20
        assert krall_polynomial(ctx, n) == reference_krall_polynomial(ctx, n)
        assert len(raw.table) == len(raw.values) - raw.m == raw.reach + 41


def _random_polynomial(rng, degree):
    """Degree exactly ``degree`` (-1 gives zero), small rational coefficients."""
    if degree < 0:
        return Polynomial.zero()
    lead = Fraction(rng.choice((-7, -2, 1, 3)), rng.randint(1, 5))
    return Polynomial([Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(degree)] + [lead])


class TestTableOperator:
    def _check(self, base, head, rows):
        reference = compose_operator(base, head, rows)
        assert operator_sum(base, head, rows) == reference
        largest = max((c.degree for c in reference.terms.values()), default=-1)
        assert diffops._sum_points(base, head, rows) - 1 >= largest

    def test_matches_compose_on_random_data(self):
        rng = random.Random(21)
        poly = partial(_random_polynomial, rng)
        p = HahnParams(Fraction(1, 2), Fraction(1, 3), 8)
        D, L = hahn_operator(p), [ladder_operator(kind, p) for kind in (1, 2, 3, 4)]
        # zero P, a zero M_r and a constant Y, for every ladder kind
        self._check(D, Polynomial.zero(), [(poly(1), L[0], poly(0)), (Polynomial.zero(), L[1], poly(1)),
                                           (poly(0), L[2], poly(0)), (poly(2), L[3], poly(1))])
        for ladder in L:
            self._check(D, poly(2), [(Polynomial.zero(), ladder, poly(2))])
            self._check(D, poly(1), [(poly(1), ladder, Polynomial.constant(Fraction(-5, 3)))])
        self._check(D, Polynomial.zero(), [])
        self._check(D, poly(1), [(poly(3), L[0], Polynomial.zero())])
        for _ in range(6):
            p = HahnParams(Fraction(rng.randint(1, 40), rng.choice((2, 3, 7))),
                           Fraction(rng.randint(-40, 40), rng.choice((3, 5))), rng.randint(2, 12))
            rows = [(poly(rng.randint(-1, 2)), ladder_operator(rng.randint(1, 4), p),
                     poly(rng.randint(0, 2))) for _ in range(rng.randint(0, 3))]
            self._check(hahn_operator(p), poly(rng.randint(-1, 3)), rows)
        # a wider base with cubic coefficients, and a ladder reaching two steps
        base = DifferenceOperator({l: poly(3) for l in (-2, -1, 1)})
        self._check(base, poly(2), [(poly(1), DifferenceOperator({2: poly(1), 0: poly(2)}), poly(1))])

    @pytest.mark.parametrize("name", DIFFERENTIAL_CONFIGS)
    def test_matches_krall_operator(self, name):
        ctx = build_run(DIFFERENTIAL_CONFIGS[name]).ctx
        p, spectral = ctx.params, spectral_polynomial(ctx)
        rows = [(mixing_symbol(ctx, row), ladder_operator(kind, p), poly)
                for row, (kind, poly) in enumerate(zip(ctx.row_kinds, ctx.row_polys))]
        D, head = hahn_operator(p), spectral * Fraction(1, 2)
        reference = compose_operator(D, head, rows)
        assert krall_operator(ctx) == reference
        # K - 1 = max(2 deg P, max_r 2(deg M_r + deg Y_r) + 1) bounds every coefficient
        points = diffops._sum_points(D, head, rows)
        assert points - 1 == max([2 * spectral.degree] + [
            2 * (symbol.degree + poly.degree) + 1 for symbol, _, poly in rows
        ])
        assert points - 1 >= max(c.degree for c in reference.terms.values())


class TestStageStore:
    STAGES = (
        casorati.cleared_matrix,
        casorati.series_ratios,
        casorati_cleared,
        clearing_factor,
        normalizer,
        core_determinant,
        eigenvalue_polynomial,
        spectral_polynomial,
        krall_operator,
    )

    @staticmethod
    def _distinct_contexts(count):
        # single-root contexts that differ only in a
        return [
            context_from_quartet(
                HahnParams(Fraction(2 * k + 1, 2), Fraction(1, 3), 8),
                SetQuartet.of((), (), (), (1,)),
                (1, 1, 1),
            )
            for k in range(count)
        ]

    def test_equal_contexts_share_results(self):
        first = build_run(builtin_config("four-roots")).ctx
        second = build_run(builtin_config("four-roots")).ctx
        assert first == second and first is not second
        for stage in self.STAGES:
            assert stage(first) is stage(second)
        for row in range(first.m):
            assert mixing_polynomial(first, row) is mixing_polynomial(second, row)
        rows, denominator = casorati_rows(first, 3)
        assert len(rows) == first.m and denominator
        assert (rows, denominator) == casorati_rows(second, 3)

    def test_repeated_stage_calls_do_not_rehash_the_context(self, monkeypatch):
        ctx = build_run(builtin_config("four-roots")).ctx
        for stage in self.STAGES:
            stage(ctx)
        for row in range(ctx.m):
            mixing_polynomial(ctx, row)
        calls = []
        plain_hash = Polynomial.__hash__

        def counting_hash(poly):
            calls.append(poly)
            return plain_hash(poly)

        monkeypatch.setattr(Polynomial, "__hash__", counting_hash)
        for _ in range(3):
            for stage in self.STAGES:
                stage(ctx)
            for row in range(ctx.m):
                mixing_polynomial(ctx, row)
        assert calls == []
        # an equal context built by a separate call still hashes equal
        assert hash(build_run(builtin_config("four-roots")).ctx) == hash(ctx)

    @pytest.mark.parametrize("a, b, F", [
        ("7/3", "7/3", [[], [2], [], []]),  # kinds (2, 2)
        ("1/2", "1/3", [[2], [], [], [1]]),  # kinds (1, 1, 4)
    ])
    def test_series_ratios_reduce_once_per_row_kind(self, a, b, F, monkeypatch):
        """Rows of one kind share one ratio_product reduction."""
        ctx = build_run(config_from_dict({"a": a, "b": b, "N": 8, "F": F, "path": "theorem"})).ctx
        monkeypatch.setattr(casorati, "_store", OrderedDict())
        kinds = []
        reduce = ladder.ratio_product

        def spy(kind, length, p):
            kinds.append(kind)
            return reduce(kind, length, p)

        monkeypatch.setattr(ladder, "ratio_product", spy)
        ratios = casorati.series_ratios(ctx)
        assert kinds == list(dict.fromkeys(ctx.row_kinds)) and len(kinds) < ctx.m
        assert ratios == tuple(reduce(kind, 1, ctx.params) for kind in ctx.row_kinds)

    def test_base_polynomials_are_built_once(self):
        first = build_run(builtin_config("four-roots")).ctx
        second = build_run(builtin_config("four-roots")).ctx
        for n in range(first.params.N + 1):
            assert base_polynomial(first, n) == hahn_polynomial(n, first.params)
            assert base_polynomial(first, n) is base_polynomial(second, n)

    def test_one_family_builds_each_hahn_polynomial_once(self, monkeypatch):
        """krall_polynomial (in the orthogonality check) and the criteria check
        read h_n from the context's one family: one family per context, and
        each degree built once, whichever check reads it first."""
        monkeypatch.setattr(casorati, "_store", OrderedDict())
        families, built = [], {}
        init, getitem = HahnFamily.__init__, HahnFamily.__getitem__

        def spy_init(self, p):
            families.append(p)
            init(self, p)

        def spy_getitem(self, n):
            hn = getitem(self, n)
            built.setdefault(n, []).append(hn)
            return hn

        monkeypatch.setattr(HahnFamily, "__init__", spy_init)
        monkeypatch.setattr(HahnFamily, "__getitem__", spy_getitem)
        cfg = config_from_dict({
            "a": "7/3", "b": "11/5", "N": 17, "F": [[], [], [], [1, 2]], "path": "corollary",
            "checks": ["orthogonality", "criteria"],
        })
        report = verify.run_config(cfg)
        assert report.passed
        ctx = build_run(cfg).ctx
        assert families == [ctx.params]
        assert set(range(ctx.params.N + 1)) <= set(built)  # the criteria moments
        for n, reads in built.items():
            assert all(hn is reads[0] for hn in reads), n
        assert max(map(len, built.values())) > 1

    def test_hahn_polynomial_leaves_the_store_alone(self, desk_params, monkeypatch):
        monkeypatch.setattr(casorati, "_store", OrderedDict())
        ctx = context_from_quartet(desk_params, SetQuartet.of((), (), (), (1,)), (1, 1, 1))
        h3 = base_polynomial(ctx, 3)
        before = [(context, dict(entry)) for context, entry in casorati._store.items()]
        h4 = hahn_polynomial(4, desk_params)
        assert hahn_leading_coefficient(4, desk_params) == h4.leading_coefficient
        assert hahn_polynomial(3, desk_params) is not h3
        assert [(context, dict(entry)) for context, entry in casorati._store.items()] == before
        # the context's family had not built h_4: it builds its own now
        assert base_polynomial(ctx, 4) == h4 and base_polynomial(ctx, 4) is not h4

    def test_store_is_bounded(self):
        contexts = self._distinct_contexts(casorati._STORE_CONTEXTS + 3)
        for ctx in contexts:
            core_determinant(ctx)
        assert len(casorati._store) <= casorati._STORE_CONTEXTS
        assert contexts[-1] in casorati._store
        assert contexts[0] not in casorati._store

    def test_evicted_context_recomputes_equal_results(self, desk_params):
        ctx = context_from_quartet(desk_params, SetQuartet.of((), (), (1,), (1,)), (1, 1, 1))
        operator = krall_operator(ctx)
        mixing = [mixing_polynomial(ctx, row) for row in range(ctx.m)]
        for other in self._distinct_contexts(casorati._STORE_CONTEXTS):
            core_determinant(other)
        assert ctx not in casorati._store
        again = krall_operator(ctx)
        assert again is not operator and again == operator
        assert [mixing_polynomial(ctx, row) for row in range(ctx.m)] == mixing
