"""Acceptance suite: ten end-to-end identities, each checked in exact arithmetic.

Every assertion is an equality of rationals or polynomials over the rationals;
there are no tolerances anywhere.  Expected constants were computed through an
independent route before being frozen here.  conftest prints one PASS/FAIL
line per criterion.
"""

import random
from fractions import Fraction

from krallhahn.casorati import (
    core_degree,
    core_determinant,
    core_leading_coefficient,
    eigenvalue_polynomial,
    krall_operator,
    krall_polynomial,
    operator_halfwidth,
)
from krallhahn.config import builtin_config
from krallhahn.context import context_from_degrees
from krallhahn.hahn import (
    HahnParams,
    dual_hahn_polynomial,
    factored_hahn_weight,
    hahn_operator,
    hahn_polynomial,
    hahn_recurrence,
    hahn_weight,
)
from krallhahn.ladder import ladder_operator, series_coefficients
from krallhahn.measures import gram_schmidt
from krallhahn.oracle import operator_solution_space
from krallhahn.polynomials import Polynomial, pochhammer
from krallhahn.sets import SetQuartet
from krallhahn.verify import build_run, check_foeq, enumerate_root_couples, run_config

from reference import duality_factor


def _assert_orthogonal_family(measure, polys):
    for i, p in enumerate(polys):
        assert measure.inner_product(p, p) != 0, f"zero norm at degree {i}"
        for j in range(i + 1, len(polys)):
            assert measure.inner_product(p, polys[j]) == 0, f"pair ({i},{j})"


def test_criterion_1():
    """One removed mass point: bordered family orthogonal, genre (-2,2), eigen."""
    # direct construction: ten atoms carry the family up to degree 9
    run = build_run(builtin_config("single-root-direct"))
    ctx = run.ctx
    assert run.shift == 0
    assert run.n_max == 9
    assert run.measure.size == 10
    op = krall_operator(ctx)
    assert op.genre == (-2, 2)
    assert operator_halfwidth(ctx) == 2 == run.r_from_sets
    lam = eigenvalue_polynomial(ctx)
    assert [lam(n) for n in range(4)] == [
        Fraction(5, 3),
        Fraction(-355, 18),
        Fraction(-517, 6),
        Fraction(-731, 3),
    ]
    qs = [krall_polynomial(ctx, n) for n in range(10)]
    _assert_orthogonal_family(run.measure, qs)
    for n, q in enumerate(qs):
        assert op.apply(q) == Fraction(lam(n)) * q
    for n, monic in enumerate(gram_schmidt(run.measure, 9)):
        assert monic == qs[n].monic()

    # reduced construction: same input, family carried back to the original
    # variable by the translation the reduction reports
    run = build_run(builtin_config("single-root"))
    ctx, shift = run.ctx, run.shift
    assert shift == 2
    rho_f = factored_hahn_weight(run.outer, run.config.quartet)
    assert run.measure == rho_f
    assert rho_f.size == 8
    op = krall_operator(ctx).translate(shift)
    assert krall_operator(ctx).genre == (-2, 2)
    lam = eigenvalue_polynomial(ctx)
    assert [lam(n) for n in range(4)] == [
        Fraction(-44, 3),
        Fraction(-2057, 54),
        Fraction(-989, 18),
        Fraction(-377, 9),
    ]
    qs = [krall_polynomial(ctx, n).shift_argument(-shift) for n in range(run.n_max + 1)]
    _assert_orthogonal_family(rho_f, qs)
    for n, q in enumerate(qs):
        assert op.apply(q) == Fraction(lam(n)) * q
    for n, monic in enumerate(gram_schmidt(rho_f, run.n_max)):
        assert monic == qs[n].monic()


def test_criterion_2():
    """One root in every position: the full pipeline, order-10 operator."""
    report = run_config(builtin_config("four-roots"))
    assert [c.name for c in report.checks] == [
        "omega-nonvanishing",
        "hypotheses",
        "degree-leading",
        "genre",
        "eigen-equation",
        "orthogonality",
        "support",
        "criteria",
        "oracle",
    ]
    for check in report.checks:
        assert check.passed, f"{check.name}: {check.witness}"
    assert report.summary["r"] == 5
    hyp = next(c for c in report.checks if c.name == "hypotheses")
    assert hyp.witness["determinant_dual_route"] is True
    assert hyp.witness["increment_transport"] is True
    assert hyp.witness["mixing_skew_and_divisible"] is True
    assert hyp.witness["spectral_difference_identity"] is True
    op = krall_operator(build_run(builtin_config("four-roots")).ctx)
    assert op.genre == (-5, 5)
    assert op.order == 10


def test_criterion_3():
    """Removing the quartic factor turns the factored weight into a plain
    shifted weight: atom by atom, with the constant written as two rising
    factorials."""
    p = HahnParams(Fraction(1, 2), Fraction(1, 3), 8)
    quartet = SetQuartet.of((1,), (1,), (1,), (1,))
    rho_f = factored_hahn_weight(p, quartet)
    assert rho_f.support == [0, 2, 3, 4, 5, 6, 8]
    inner = hahn_weight(HahnParams(p.a + 4, p.b + 4, p.N - 4))
    constant = pochhammer(p.a + 1, 4) * pochhammer(p.b + 1, 4)
    assert constant == Fraction(15925, 6)
    x = Polynomial.variable()
    n_top = Fraction(p.N)
    prefactor = x * (n_top - x) * (x + p.a + 1) * (n_top - x + p.b + 1)
    for point in range(9):
        lhs = prefactor(Fraction(point)) * rho_f.mass(point)
        rhs = constant * inner.mass(Fraction(point) - 2)
        assert lhs == rhs, f"atom {point}"
    # the prefactor kills the two atoms the shifted weight cannot carry
    assert rho_f.mass(0) != 0 and prefactor(Fraction(0)) == 0
    assert rho_f.mass(8) != 0 and prefactor(Fraction(8)) == 0


def test_criterion_4():
    """Every representation of the weight with roots 1, 5, 68 at N = 100."""
    couples = enumerate_root_couples(100, [1, 5, 68])
    assert couples == [
        {"F3": [32], "F4": [1, 5], "r": 38, "sign": -1, "within_half": True, "minimal": True},
        {"F3": [], "F4": [1, 5, 68], "r": 72, "sign": 1, "within_half": False, "minimal": False},
        {"F3": [32, 95], "F4": [1], "r": 128, "sign": 1, "within_half": False, "minimal": False},
        {"F3": [32, 99], "F4": [5], "r": 136, "sign": 1, "within_half": False, "minimal": False},
        {"F3": [95], "F4": [1, 68], "r": 164, "sign": -1, "within_half": False, "minimal": False},
        {"F3": [99], "F4": [5, 68], "r": 172, "sign": -1, "within_half": False, "minimal": False},
        {"F3": [32, 95, 99], "F4": [], "r": 224, "sign": -1, "within_half": False, "minimal": False},
        {"F3": [95, 99], "F4": [68], "r": 262, "sign": 1, "within_half": False, "minimal": False},
    ]
    within = [rec for rec in couples if rec["within_half"]]
    assert len(within) == 1
    assert (within[0]["F3"], within[0]["F4"]) == ([32], [1, 5])
    assert within[0]["minimal"] and within[0]["r"] == 38


def test_criterion_5(desk_params):
    """First-order operator form equals the triangular series, all four kinds."""
    hs = [hahn_polynomial(n, desk_params) for n in range(13)]
    for kind in (1, 2, 3, 4):
        op = ladder_operator(kind, desk_params)
        for n in range(13):
            image = Polynomial.zero()
            for j, c in enumerate(series_coefficients(kind, n, desk_params)):
                image = image + hs[n - j] * c
            assert op.apply(hs[n]) == image, f"kind {kind}, degree {n}"


def test_criterion_6():
    """Degree and argument swap across the dual family, up to a closed factor."""
    p = HahnParams(Fraction(1, 2), Fraction(1, 3), 9)
    for n in range(9):
        for x in range(9):
            assert dual_hahn_polynomial(x, p.a, p.b, p.N)(
                p.eigenvalue(n)
            ) == duality_factor(n, x, p) * hahn_polynomial(n, p)(Fraction(x))


QUARTETS = [
    ((Fraction(1, 2), Fraction(1, 3), 8), ((), (), (), (0, 1))),
    ((Fraction(1, 2), Fraction(1, 3), 8), ((1,), (), (2,), ())),
    ((Fraction(3, 2), Fraction(2, 5), 7), ((0, 2), (), (), (1,))),
    ((Fraction(1, 2), Fraction(1, 3), 8), ((1,), (0,), (2,), (1,))),
    ((Fraction(2, 3), Fraction(1, 5), 6), ((0,), (1, 2), (), (0, 3))),
]


def _random_poly(rng, degree):
    while True:
        coeffs = [
            Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(degree + 1)
        ]
        if coeffs[-1] != 0:
            return Polynomial(coeffs)


def test_criterion_7():
    """Degree and leading coefficient of the cleared determinant match the
    closed form for arbitrary row polynomials, not just the orthogonal choice."""
    rng = random.Random(20250825)
    for (a, b, n_points), degree_sets in QUARTETS:
        params = HahnParams(a, b, n_points)
        polys = tuple(_random_poly(rng, d) for dset in degree_sets for d in dset)
        ctx = context_from_degrees(params, degree_sets, row_polys=polys)
        assert ctx.m <= 5
        core = core_determinant(ctx)
        assert core.degree == core_degree(ctx), f"degrees {degree_sets}"
        assert core.leading_coefficient == core_leading_coefficient(ctx), (
            f"degrees {degree_sets}"
        )


def test_criterion_8():
    """Discrete orthogonality criteria with one fitted constant per config."""
    expected = {
        "single-root": Fraction(-20095806215, 17915904),
        "single-root-direct": Fraction(751583152441, 139314069504),
        "four-roots": Fraction(426342491575, 373248),
    }
    for name, constant in expected.items():
        run = build_run(builtin_config(name))
        ok, witness = check_foeq(run.ctx, run.inner_measure)
        assert ok, f"{name}: {witness}"
        assert witness["fitted_at"] == 0
        assert Fraction(witness["constant"]) == constant
        assert not witness["moment_failures"]
        assert not witness["negative_failures"]
        assert Fraction(witness["boundary_sum"]) != 0
    # the four-row boundary sum is a specific nonzero rational
    run = build_run(builtin_config("four-roots"))
    _, witness = check_foeq(run.ctx, run.inner_measure)
    assert Fraction(witness["boundary_sum"]) == Fraction(-11339, 752640)


def test_criterion_9():
    """A blind linear solve recovers exactly the constructed operator and
    certifies no narrower one exists."""
    run = build_run(builtin_config("single-root-direct"))
    ctx = run.ctx
    constructed = krall_operator(ctx)
    r = operator_halfwidth(ctx)
    assert r == 2
    cap = max(2 * r, max(c.degree for c in constructed.terms.values()))
    lam = eigenvalue_polynomial(ctx)
    qs = [krall_polynomial(ctx, n) for n in range(2 * r + 2)]
    lambdas = [Fraction(lam(n)) for n in range(2 * r + 2)]
    found, nullity = operator_solution_space(qs, lambdas, r, cap)
    assert found is not None
    assert nullity == 0
    assert found == constructed
    narrower, _ = operator_solution_space(qs, lambdas, 1, 2)
    assert narrower is None


def test_criterion_10():
    """Classical family sanity across three parameter choices."""
    triples = [
        (Fraction(1, 2), Fraction(1, 3), 8),
        (Fraction(2), Fraction(3), 10),
        (Fraction(7, 4), Fraction(1, 4), 12),
    ]
    x = Polynomial.variable()
    for a, b, n_points in triples:
        p = HahnParams(a, b, n_points)
        weight = hahn_weight(p)
        hs = [hahn_polynomial(n, p) for n in range(n_points + 3)]
        _assert_orthogonal_family(weight, hs[: n_points + 1])
        op = hahn_operator(p)
        for n in range(n_points + 1):
            assert op.apply(hs[n]) == p.eigenvalue(n) * hs[n]
        a_one = hahn_recurrence(1, p)[0]
        b_zero = hahn_recurrence(0, p)[1]
        assert x * hs[0] == a_one * hs[1] + b_zero * hs[0]
        for n in range(1, n_points):
            a_next = hahn_recurrence(n + 1, p)[0]
            _, b_here, c_here = hahn_recurrence(n, p)
            assert x * hs[n] == a_next * hs[n + 1] + b_here * hs[n] + c_here * hs[n - 1]
        # two degrees above the top, the polynomials vanish on every atom
        for n in (n_points + 1, n_points + 2):
            assert all(hs[n](Fraction(point)) == 0 for point in range(n_points + 1))
