"""The classical family: weights, recurrence, duality, companions, reductions."""

import random
from fractions import Fraction
from math import lcm

import pytest

from krallhahn.config import BUILTIN_CONFIGS, builtin_config
import krallhahn.hahn as hahn
from krallhahn.errors import NotThetaRepresentable, ParameterSingularity
from krallhahn.hahn import (
    HahnFamily,
    HahnParams,
    companion_eigencoefficients,
    companion_parameters,
    companion_polynomial,
    corollary_reduction,
    dual_hahn_polynomial,
    factored_hahn_weight,
    hahn_leading_coefficient,
    hahn_operator,
    hahn_polynomial,
    hahn_recurrence,
    hahn_recurrence_functions,
    hahn_weight,
    theta_substitute,
    transformed_hahn_weight,
    transformed_support,
)
from krallhahn.ladder import KINDS, ladder_operator, series_ratio
from krallhahn.measures import gram_schmidt
from krallhahn.polynomials import Polynomial, pochhammer
from krallhahn.sets import SetQuartet, default_pads

from reference import (
    dual_hahn_leading_coefficient,
    duality_factor,
    euclid_grid,
    euclid_recurrence_functions,
    fraction_dual_hahn_polynomial,
    fraction_hahn_weight,
    lowest_terms,
    per_atom_hahn_weight,
    per_degree_hahn_leading_coefficient,
    per_degree_hahn_polynomial,
    pochhammer_hahn_leading_coefficient,
    reference_dual_hahn,
    reference_factored_weight,
    reference_hahn,
    reference_hahn_operator,
    reference_ladder_operator,
    reference_theta_substitute,
    reference_transformed_weight,
)


def ratio_replacement(kind, p):
    """C(n) / ratio(n) with the common zero cancelled.

    The recurrence coefficient C and the ratios of kinds 1 and 2 both vanish
    at n = N + 1; the twisted recurrence still holds there with this
    cancelled quotient in place of the raw division.
    """
    _, _, (c_numer, c_denom) = hahn_recurrence_functions(p)
    numer, denom = series_ratio(kind, p)
    return lowest_terms(c_numer * denom, c_denom * numer)

TRIPLES = [
    (Fraction(1, 2), Fraction(1, 3), 8),
    (Fraction(2), Fraction(3), 10),
    (Fraction(7, 4), Fraction(1, 4), 12),
]


def test_parameter_validation():
    with pytest.raises(ParameterSingularity):
        HahnParams(Fraction(-2), Fraction(1, 3), 5)
    with pytest.raises(ParameterSingularity):
        HahnParams(Fraction(1, 2), Fraction(-5), 5)
    with pytest.raises(ParameterSingularity):
        HahnParams(Fraction(-3, 2), Fraction(-7, 2), 4)  # a+b = -5
    with pytest.raises(ParameterSingularity):
        HahnParams(Fraction(1), Fraction(1), 0)
    # -N-1 is outside the excluded window
    HahnParams(Fraction(-6), Fraction(1, 2), 5)


def test_eigenvalue_poly(desk_params):
    p = desk_params
    assert p.eigenvalue(0) == 0
    assert p.eigenvalue(3) == 3 * (3 + p.a + p.b + 1)
    theta = p.eigenvalue_poly()
    assert all(theta(n) == p.eigenvalue(n) for n in range(6))
    assert p.eigenvalue_poly(shift=-2)(5) == p.eigenvalue(3)


@pytest.mark.parametrize("a,b,N", TRIPLES)
def test_degree_and_leading_coefficient(a, b, N):
    p = HahnParams(a, b, N)
    for n in range(6):
        hn = hahn_polynomial(n, p)
        assert hn.degree == n
        assert hn.leading_coefficient == hahn_leading_coefficient(n, p)


def random_params(rng, count):
    """``count`` valid HahnParams with a and b drawn from p/q, |p| <= 30 and
    q <= 6, and N <= 20: negative a and b, integers among them, included."""
    out = []
    while len(out) < count:
        a = Fraction(rng.randint(-30, 30), rng.randint(1, 6))
        b = Fraction(rng.randint(-30, 30), rng.randint(1, 6))
        try:
            out.append(HahnParams(a, b, rng.randint(1, 20)))
        except ParameterSingularity:
            pass
    return out


def test_leading_coefficient_matches_pochhammer_route():
    """The integer products equal the Pochhammer closed form on a seeded grid,
    and raise ParameterSingularity exactly where a denominator Pochhammer
    vanishes and the closed form divides by zero."""
    singular = 0
    for p in random_params(random.Random(24), 60):
        for n in range(12):
            try:
                expected = pochhammer_hahn_leading_coefficient(n, p)
            except ZeroDivisionError:
                singular += 1
                with pytest.raises(ParameterSingularity, match="vanishes"):
                    hahn_leading_coefficient(n, p)
            else:
                assert hahn_leading_coefficient(n, p) == expected
    assert singular


@pytest.mark.parametrize(
    "a, b, pochhammer_name",
    [
        # (a+1)_10 = (-9)_10 vanishes; the closed form divides -1 by 0
        (Fraction(-10), Fraction(1, 3), r"\(a\+1\)_10"),
        # (2+a+b+N)_10 = (-8)_10 and (a+b+1)_20 both vanish: 0 / 0
        (Fraction(-19), Fraction(1), r"\(2\+a\+b\+N\)_10"),
    ],
)
def test_leading_coefficient_names_the_vanishing_pochhammer(a, b, pochhammer_name):
    p = HahnParams(a, b, 8)
    with pytest.raises(ZeroDivisionError):
        pochhammer_hahn_leading_coefficient(10, p)
    for build in (hahn_leading_coefficient, hahn_polynomial):
        with pytest.raises(ParameterSingularity, match=pochhammer_name + " vanishes"):
            build(10, p)


@pytest.mark.parametrize(
    "a,b,N",
    [
        (Fraction(7, 3), Fraction(11, 5), 17),
        (Fraction(1, 2), Fraction(1, 3), 8),
        (Fraction(1, 2), Fraction(-1, 2), 6),
        (Fraction(-7, 2), Fraction(9, 4), 40),
        (Fraction(0), Fraction(0), 5),
        (Fraction(2), Fraction(3), 10),
        # (a+b+1)_{n+j} = (-9)_{n+j} vanishes from n + j = 10 on, so h_5 has
        # degree 4; (2+a+b+N)_n = (-5)_n vanishes from n = 6 on
        (Fraction(-11, 2), Fraction(-9, 2), 3),
    ],
)
def test_sum_matches_reference(a, b, N):
    # above N the low-j coefficients vanish: (N-n+1)_{n-j} passes through 0
    p = HahnParams(a, b, N)
    for n in range(N + 7):
        if pochhammer(2 + a + b + N, n) == 0:  # no sum: test_singular_degrees_raise
            break
        hn = hahn_polynomial(n, p)
        assert hn == reference_hahn(n, p)
        assert hn.degree == (4 if a + b == -10 and n == 5 else n)


@pytest.mark.parametrize(
    "a,b,N,first,message",
    [
        # a + b = -2N - 3: 2+a+b+N = -N-1, so (2+a+b+N)_n = 0 from n = N + 2
        (Fraction(-15, 2), Fraction(-3, 2), 3, 5, "(2+a+b+N)_{n} vanishes for a+b = -9, N = 3"),
        (Fraction(-11, 2), Fraction(-9, 2), 3, 6, "(2+a+b+N)_{n} vanishes for a+b = -10, N = 3"),
        # a = -(N+1): (a+1)_j = 0 from j = N + 1, which degree n >= N + 1 reaches
        (Fraction(-5), Fraction(1, 3), 4, 5, "(a+1)_5 vanishes for a = -5"),
        (Fraction(-9), Fraction(7, 2), 8, 9, "(a+1)_9 vanishes for a = -9"),
    ],
)
def test_singular_degrees_raise(a, b, N, first, message):
    p = HahnParams(a, b, N)
    for n in range(first):
        hahn_polynomial(n, p)
    for n in range(first, N + 7):
        with pytest.raises(ParameterSingularity) as caught:
            hahn_polynomial(n, p)
        assert str(caught.value) == message.format(n=n)


def _family_against_reference(p, degrees):
    """Ask one family for ``degrees`` in the order given; every answer, a
    polynomial or a ParameterSingularity, must equal the per-degree route's.
    Returns how many degrees raised."""
    family, raised = HahnFamily(p), 0
    for n in degrees:
        try:
            expected = per_degree_hahn_polynomial(n, p)
            leading = per_degree_hahn_leading_coefficient(n, p)
        except ParameterSingularity as exc:
            raised += 1
            for build in (family.__getitem__, family.leading_coefficient):
                with pytest.raises(ParameterSingularity) as caught:
                    build(n)
                assert str(caught.value) == str(exc), n
            continue
        hn = family[n]
        assert hn.integer_parts == expected.integer_parts, n
        assert family[n] is hn
        assert family.leading_coefficient(n) == leading, n
    return raised


@pytest.mark.parametrize(
    "a,b,N", TRIPLES + [(Fraction(-11, 2), Fraction(-9, 2), 3), (Fraction(-7, 2), Fraction(9, 4), 40)]
)
def test_family_matches_per_degree_reference(a, b, N):
    """Past N, and at (-11/2, -9/2, 3) through h_5's degree drop and the
    vanishing (2+a+b+N)_n from n = 6, in increasing and in decreasing order."""
    p = HahnParams(a, b, N)
    degrees = list(range(N + 8))
    assert _family_against_reference(p, degrees) == _family_against_reference(p, degrees[::-1])


def test_family_matches_per_degree_reference_on_a_seeded_grid():
    """Negative and integer a and b among the triples, degrees asked for in a
    shuffled order, singular degrees included."""
    rng, raised = random.Random(51), 0
    for p in random_params(rng, 60):
        degrees = list(range(p.N + 8))
        rng.shuffle(degrees)
        raised += _family_against_reference(p, degrees)
    assert raised


@pytest.mark.parametrize(
    "a,b,N",
    [
        (Fraction(-15, 2), Fraction(-3, 2), 3),  # (2+a+b+N)_n from n = 5
        (Fraction(-5), Fraction(1, 3), 4),  # (a+1)_n from n = 5
        (Fraction(-9), Fraction(-12), 8),  # (a+1)_n from n = 9, (2+a+b+N)_n from n = 12
        (Fraction(-12), Fraction(1), 4),  # (2+a+b+N)_n from n = 6, (a+1)_n from n = 12
    ],
)
@pytest.mark.parametrize("order", ["increasing", "decreasing", "skipping"])
def test_singular_family_names_each_degree_in_any_order(a, b, N, order):
    """Whatever degree a family has grown to, a singular degree raises with the
    message the per-degree route gives: (2+a+b+N) named at the requested
    degree, (a+1) at the first index that vanishes."""
    p = HahnParams(a, b, N)
    degrees = list(range(N + 8))
    degrees = {
        "increasing": degrees,
        "decreasing": degrees[::-1],
        "skipping": degrees[::3] + degrees[2::3] + degrees[1::3],
    }[order]
    assert _family_against_reference(p, degrees)


def test_negative_degree_raises_value_error(desk_params):
    family = HahnFamily(desk_params)
    for build in (
        family.__getitem__,
        family.leading_coefficient,
        lambda n: hahn_polynomial(n, desk_params),
        lambda n: hahn_leading_coefficient(n, desk_params),
    ):
        with pytest.raises(ValueError, match="degree must be nonnegative"):
            build(-1)
    assert family[3] == hahn_polynomial(3, desk_params)


@pytest.mark.parametrize("a,b,N", TRIPLES)
def test_orthogonality_and_gram_schmidt(a, b, N):
    p = HahnParams(a, b, N)
    w = hahn_weight(p)
    assert w.size == N + 1
    polys = [hahn_polynomial(n, p) for n in range(N + 1)]
    for i in range(N + 1):
        assert w.inner_product(polys[i], polys[i]) != 0
        for j in range(i + 1, N + 1):
            assert w.inner_product(polys[i], polys[j]) == 0
    for n, g in enumerate(gram_schmidt(w, 5)):
        assert g == polys[n].monic()


@pytest.mark.parametrize("a,b,N", TRIPLES)
def test_eigen_identity(a, b, N):
    p = HahnParams(a, b, N)
    op = hahn_operator(p)
    assert op.genre == (-1, 1)
    for n in range(8):
        hn = hahn_polynomial(n, p)
        assert op.apply(hn) == p.eigenvalue(n) * hn


@pytest.mark.parametrize(
    "a,b,N",
    # a + b = 0 and a + b = 1 make a factor of the reduced B and A 0/0 at n = 0
    TRIPLES + [(Fraction(1, 2), Fraction(-1, 2), 6), (Fraction(1, 2), Fraction(1, 2), 6)],
)
def test_three_term_recurrence(a, b, N):
    # x h_n = A(n+1) h_{n+1} + B(n) h_n + C(n) h_{n-1}
    p = HahnParams(a, b, N)
    x = Polynomial.variable()
    assert hahn_recurrence(0, p)[0] == 0
    for n in range(7):
        A1 = hahn_recurrence(n + 1, p)[0]
        _, B, C = hahn_recurrence(n, p)
        lhs = x * hahn_polynomial(n, p)
        rhs = A1 * hahn_polynomial(n + 1, p) + B * hahn_polynomial(n, p)
        if n:
            rhs = rhs + C * hahn_polynomial(n - 1, p)
        assert lhs == rhs


def test_recurrence_names_a_plus_b_where_it_is_undefined():
    """At (a, b, N) = (-11/2, -9/2, 3) a recurrence denominator vanishes at
    n = 4 and 5, where the Hahn sum is still defined (h_5 of degree 4)."""
    p = HahnParams(Fraction(-11, 2), Fraction(-9, 2), 3)
    assert [hahn_polynomial(n, p).degree for n in (4, 5)] == [4, 4]
    for n in (4, 5):
        with pytest.raises(ParameterSingularity) as caught:
            hahn_recurrence(n, p)
        assert str(caught.value) == f"recurrence coefficient undefined at n = {n} for a+b = -10"


def test_recurrence_functions_match_the_euclid_reference():
    """The recurrence coefficients, reduced by their denominators' roots,
    against the expanded denominators reduced by Euclid's gcd, on the grid of
    the ladder ratios' test; some of its triples cancel a factor."""
    cancelled = 0
    for p in euclid_grid():
        functions = hahn_recurrence_functions(p)
        assert functions == euclid_recurrence_functions(p), p
        cancelled += sum(denom.degree < 2 for _, denom in functions)
    assert cancelled


@pytest.mark.parametrize("a,b,N", TRIPLES)
def test_vanishing_above_support(a, b, N):
    """Degrees N+1 and N+2 vanish identically on the weight's support."""
    p = HahnParams(a, b, N)
    for n in (N + 1, N + 2):
        hn = hahn_polynomial(n, p)
        assert all(hn(x) == 0 for x in range(N + 1))


def test_weight_masses(desk_params):
    p = desk_params
    w = hahn_weight(p)
    # stored weight drops the global constant N! Gamma(a+1) Gamma(b+1)
    for x in (0, 3, 8):
        expected = (
            pochhammer(p.a + 1, x)
            * pochhammer(p.b + 1, p.N - x)
            / (
                Fraction(1)
                * [1, 1, 2, 6, 24, 120, 720, 5040, 40320][x]
                * [1, 1, 2, 6, 24, 120, 720, 5040, 40320][p.N - x]
            )
        )
        assert w.mass(x) == expected


@pytest.mark.parametrize(
    "a, b, N",
    [
        (Fraction(-7, 2), Fraction(9, 4), 40),
        (Fraction(-13, 2), Fraction(1, 3), 4),
        (Fraction(5), Fraction(-1, 2), 6),
        (Fraction(0), Fraction(0), 5),
        (Fraction(1, 2), Fraction(1, 3), 8),
        (Fraction(-1, 3), Fraction(-11, 2), 9),
        (Fraction(3), Fraction(2), 1),
    ],
)
def test_weight_matches_per_atom_reference(a, b, N):
    p = HahnParams(a, b, N)
    assert hahn_weight(p).atoms == per_atom_hahn_weight(p)


def test_weight_matches_per_atom_reference_on_a_seeded_grid():
    grid = random_params(random.Random(7), 40)
    assert any(p.a < 0 for p in grid) and any(p.b < 0 for p in grid)
    assert any(p.a < 0 and p.b < 0 for p in grid)
    for p in grid:
        assert hahn_weight(p).atoms == per_atom_hahn_weight(p)


def _draw_params(rng, N):
    """Valid HahnParams at N, a and b drawn from p/q with |p| <= 30 and q <= 6."""
    while True:
        try:
            return HahnParams(
                Fraction(rng.randint(-30, 30), rng.randint(1, 6)),
                Fraction(rng.randint(-30, 30), rng.randint(1, 6)),
                N,
            )
        except ParameterSingularity:
            pass


# one derandomised draw per N = 1..40 and one at N = 200, shared by the tests of
# the integer weight and dual routes against the Fraction routes they replaced
_DRAW_RNG = random.Random(41)
FRACTION_ROUTE_DRAWS = [_draw_params(_DRAW_RNG, N) for N in [*range(1, 41), 200]]
FRACTION_ROUTE_QUARTETS = [
    SetQuartet.of((), (), (), (1,)),
    SetQuartet.of((1,), (2,), (), ()),
    SetQuartet.of((), (), (1, 2), (3,)),
    SetQuartet.of((2,), (1, 3), (), (1,)),
]


def _outcome(build, *args):
    """What a build returns, or ParameterSingularity when it raises that."""
    try:
        return build(*args)
    except ParameterSingularity:
        return ParameterSingularity


def test_weights_match_fraction_routes(monkeypatch):
    """hahn_weight, factored_hahn_weight and transformed_hahn_weight equal the
    Fraction routes on the shared draws, and every mass that hahn_weight puts
    over the lcm of its denominators is in lowest terms: each denominator read
    by the lcm is, up to sign, the Fraction mass's.  The draws take negative
    non-integer a and b, and steps whose denominator (N - x) q_b + p_b is
    negative, so that a stepped denominator turns negative."""
    draws = FRACTION_ROUTE_DRAWS
    assert any(p.a < 0 and p.a.denominator > 1 for p in draws)
    assert any(p.b < 0 and p.b.denominator > 1 for p in draws)
    assert any(
        (p.N - x) * p.b.denominator + p.b.numerator < 0 for p in draws for x in range(p.N)
    )
    denominators = []
    cofactors = hahn._lcm_cofactors

    def spy(dens):
        denominators.append([abs(d) for d in dens])
        return cofactors(dens)

    monkeypatch.setattr(hahn, "_lcm_cofactors", spy)
    for i, p in enumerate(draws):
        expected = fraction_hahn_weight(p)
        denominators.clear()
        assert hahn_weight(p) == expected, p
        assert denominators == [[m.denominator for m in expected.atoms.values()]], p
        quartet = FRACTION_ROUTE_QUARTETS[i % len(FRACTION_ROUTE_QUARTETS)]
        assert factored_hahn_weight(p, quartet) == reference_factored_weight(p, quartet), p
        pads = default_pads(quartet)
        assert _outcome(transformed_hahn_weight, p, quartet, pads) == _outcome(
            reference_transformed_weight, p, quartet, pads
        ), p


def test_lcm_cofactors_match_one_flat_lcm():
    """The lcm tree over blocks gives the flat lcm and every L // d, signs
    included, for one den, one block, a block and one more, and many blocks."""
    rng = random.Random(44)
    for count in (1, 2, hahn._LCM_BLOCK, hahn._LCM_BLOCK + 1, 5 * hahn._LCM_BLOCK + 3):
        dens = [rng.choice((-1, 1)) * rng.randint(1, 10**6) for _ in range(count)]
        common = lcm(*dens)
        assert hahn._lcm_cofactors(dens) == (common, [common // d for d in dens]), count


def test_companions_match_fraction_route():
    """Each kind's companion polynomial, gamma = a + b + N (kinds 1, 2) or
    -2 - N (kinds 3, 4), equals the Fraction dual route shifted by a + b on the
    shared draws; an alpha in -1, -2, ... raises on both."""
    built = set()
    for p in FRACTION_ROUTE_DRAWS:
        for kind in (1, 2, 3, 4):
            alpha, beta, gamma = companion_parameters(kind, p)
            for degree in range(5):
                expected = _outcome(fraction_dual_hahn_polynomial, degree, alpha, beta, gamma)
                if expected is not ParameterSingularity:
                    expected = expected.shift_argument(p.a + p.b)
                    built.add((kind, gamma.denominator > 1))
                assert _outcome(companion_polynomial, kind, degree, p) == expected, (p, kind)
    # every kind, and a non-integer gamma = a + b + N too
    assert {kind for kind, _ in built} == {1, 2, 3, 4} and (1, True) in built


def test_operators_match_references():
    """hahn_operator and the four ladder operators, built on integer parts,
    equal the Polynomial-algebra references on the shared draws, which take
    negative non-integer a and b, and integer a and b both above -1 and
    below -N."""
    draws = FRACTION_ROUTE_DRAWS
    assert any(p.a < 0 and p.a.denominator > 1 for p in draws)
    assert any(p.b < 0 and p.b.denominator > 1 for p in draws)
    assert any(v.denominator == 1 and v >= 0 for p in draws for v in (p.a, p.b))
    assert any(v.denominator == 1 and v < -p.N for p in draws for v in (p.a, p.b))
    for p in draws:
        assert hahn_operator(p) == reference_hahn_operator(p), p
        for kind in KINDS:
            assert ladder_operator(kind, p) == reference_ladder_operator(kind, p), (p, kind)


def test_theta_substitute_matches_reference():
    """On the shared draws, a + b + 1 integer or not, theta_substitute equals
    the repeated-divmod reference on symbol(theta_x), and gives back the
    symbol; adding x theta_x^k, a linear digit at place k, makes both raise
    the same error."""
    rng = random.Random(42)
    x = Polynomial.variable()
    draws = FRACTION_ROUTE_DRAWS
    assert {p.theta_shift.denominator > 1 for p in draws} == {True, False}
    for p in draws:
        s, theta = p.a + p.b, p.eigenvalue_poly()
        symbol = Polynomial(
            [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(rng.randint(0, 5))]
        )
        poly = symbol.compose(theta)
        assert theta_substitute(poly, s) == reference_theta_substitute(poly, s) == symbol, p
        broken = poly + x * theta ** rng.randint(0, 3)
        messages = []
        for route in (theta_substitute, reference_theta_substitute):
            with pytest.raises(NotThetaRepresentable) as raised:
                route(broken, s)
            messages.append(str(raised.value))
        assert messages[0] == messages[1], p


class TestDualFamily:
    @pytest.mark.parametrize(
        "alpha,beta,gamma",
        [
            (Fraction(1, 2), Fraction(1, 3), Fraction(8)),
            (Fraction(-1, 2), Fraction(5, 3), Fraction(7, 2)),
            # an integer gamma below n gives zero upper products (-gamma+j)_{n-j}
            (Fraction(3), Fraction(-7, 3), Fraction(-10)),
        ],
    )
    def test_sum_matches_reference(self, alpha, beta, gamma):
        for n in range(12):
            assert dual_hahn_polynomial(n, alpha, beta, gamma) == reference_dual_hahn(
                n, alpha, beta, gamma
            )

    def test_degree_and_leading(self):
        alpha, beta, gamma = Fraction(1, 2), Fraction(1, 3), Fraction(8)
        for n in range(5):
            rn = dual_hahn_polynomial(n, alpha, beta, gamma)
            assert rn.degree == n
            assert rn.leading_coefficient == dual_hahn_leading_coefficient(n, alpha)

    def test_alpha_exclusion(self):
        with pytest.raises(ParameterSingularity):
            dual_hahn_polynomial(2, Fraction(-1), Fraction(1, 2), Fraction(5))

    def test_duality_grid(self):
        """R_x evaluated at theta_n equals the duality constant times h_n(x).

        Acceptance criterion 6 covers a = 1/2, b = 1/3, N = 9; this grid takes
        a negative b and an odd N over the whole support.
        """
        p = HahnParams(Fraction(5, 2), Fraction(-2, 3), 7)
        for n in range(p.N + 1):
            for x in range(p.N + 1):
                rx = dual_hahn_polynomial(x, p.a, p.b, p.N)
                assert rx(p.eigenvalue(n)) == duality_factor(n, x, p) * hahn_polynomial(
                    n, p
                )(x)


class TestCompanions:
    def test_twisted_recurrence(self, desk_params):
        """Each companion family solves the ratio-twisted three-term recurrence.

        With A, B, C the recurrence coefficients and e the kind's ratio
        sequence:
            e(n+1) A(n+1) Z_j(theta_{n+1}) - B(n) Z_j(theta_n)
                + (C/e)(n) Z_j(theta_{n-1}) = (slope*j + intercept) Z_j(theta_n).
        The C/e quotient is taken with the common zero at n = N+1 cancelled.
        """
        p = desk_params
        for kind in (1, 2, 3, 4):
            slope, intercept = companion_eigencoefficients(kind, p)
            numer, denom = series_ratio(kind, p)
            repl_numer, repl_denom = ratio_replacement(kind, p)
            for j in range(4):
                z = companion_polynomial(kind, j, p)
                eig = slope * j + intercept
                for n in range(1, 9):
                    lhs = (
                        numer(n + 1) / denom(n + 1)
                        * hahn_recurrence(n + 1, p)[0] * z(p.eigenvalue(n + 1))
                        - hahn_recurrence(n, p)[1] * z(p.eigenvalue(n))
                        + repl_numer(n) / repl_denom(n) * z(p.eigenvalue(n - 1))
                    )
                    assert lhs == eig * z(p.eigenvalue(n)), (kind, j, n)

    def test_eigencoefficients_distinct_roots(self, desk_params):
        # within one kind, distinct degrees give distinct twisted eigenvalues
        for kind in (1, 2, 3, 4):
            slope, intercept = companion_eigencoefficients(kind, desk_params)
            assert slope != 0
            values = {slope * j + intercept for j in range(6)}
            assert len(values) == 6

    def test_kind_bounds(self, desk_params):
        with pytest.raises(ValueError):
            companion_polynomial(0, 1, desk_params)
        with pytest.raises(ValueError):
            companion_eigencoefficients(5, desk_params)


class TestTransformedWeights:
    @pytest.mark.parametrize(
        "quartet",
        [builtin_config(name).quartet for name in BUILTIN_CONFIGS]
        # two elements in every set, and an odd |F1| + |F3| for the sign
        + [SetQuartet.of((1, 3), (2, 4), (1, 2), (2, 3)), SetQuartet.of((2,), (1, 3), (), (1,))],
    )
    def test_weights_match_reference(self, desk_params, quartet):
        pads = default_pads(quartet)
        assert factored_hahn_weight(desk_params, quartet) == reference_factored_weight(
            desk_params, quartet
        )
        assert transformed_hahn_weight(
            desk_params, quartet, pads
        ) == reference_transformed_weight(desk_params, quartet, pads)

    def test_factored_weight_is_christoffel(self, desk_params):
        p = desk_params
        q = SetQuartet.of((), (), (), (2,))
        w = factored_hahn_weight(p, q)
        base = hahn_weight(p)
        for x in range(p.N + 1):
            assert w.mass(x) == (x - 2) * base.mass(x)
        assert w.mass(2) == 0

    def test_transformed_weight_support(self, desk_params):
        p = desk_params
        q = SetQuartet.of((), (), (), (1,))
        pads = (1, 1, 1)
        w = transformed_hahn_weight(p, q, pads)
        assert sorted(w.support) == transformed_support(p, q, pads)
        assert w.size == 10  # N + pad + 1 points minus the dropped atom


class TestCorollaryReduction:
    def test_single_root(self, desk_params):
        red = corollary_reduction(desk_params, SetQuartet.of((), (), (), (1,)))
        assert (red.params.a, red.params.b, red.params.N) == (
            Fraction(5, 2),
            Fraction(1, 3),
            6,
        )
        assert red.quartet == SetQuartet.of((), (), (), (1,))
        assert red.pads == (1, 1, 1)
        assert red.shift == 2

    def test_four_roots(self, desk_params):
        red = corollary_reduction(
            desk_params, SetQuartet.of((1,), (1,), (1,), (1,))
        )
        assert (red.params.a, red.params.b, red.params.N) == (
            Fraction(9, 2),
            Fraction(13, 3),
            4,
        )
        assert red.quartet == SetQuartet.of((1,), (1,), (1,), (1,))
        assert red.shift == 2

    def test_reduced_weight_matches_factored(self, desk_params):
        """Translated inner transformed weight equals the factored weight."""
        for quartet in (
            SetQuartet.of((), (), (), (1,)),
            SetQuartet.of((1,), (1,), (1,), (1,)),
        ):
            red = corollary_reduction(desk_params, quartet)
            inner = transformed_hahn_weight(red.params, red.quartet, red.pads)
            assert inner.translate(red.shift) == factored_hahn_weight(
                desk_params, quartet
            )

    def test_integer_parameter_exclusions(self):
        # a + max F_2 + max F_4 + 1 must not be a nonnegative integer
        with pytest.raises(ParameterSingularity, match="second/fourth"):
            corollary_reduction(
                HahnParams(Fraction(2), Fraction(1, 3), 8),
                SetQuartet.of((), (1,), (), ()),
            )
        with pytest.raises(ParameterSingularity, match="first/third"):
            corollary_reduction(
                HahnParams(Fraction(1, 2), Fraction(3), 8),
                SetQuartet.of((1,), (), (), ()),
            )
        # non-integer parameters sail through
        corollary_reduction(
            HahnParams(Fraction(1, 2), Fraction(1, 3), 8),
            SetQuartet.of((1,), (1,), (), ()),
        )

    def test_reduced_n_must_be_positive(self):
        # the reduced N = N - max F3 - max F4 - 2 must be at least 1
        cases = (
            (Fraction(1, 2), Fraction(1, 3), 8, (7,), 9),
            (Fraction(1, 2), Fraction(-1, 3), 3, (2,), 4),
        )
        for a, b, N, fourth, bound in cases:
            with pytest.raises(
                ParameterSingularity,
                match=rf"the corollary path needs N >= max F3 \+ max F4 \+ 3 = {bound} "
                rf"\(max of an empty set is -1\), got N = {N}$",
            ):
                corollary_reduction(HahnParams(a, b, N), SetQuartet.of((), (), (), fourth))
            red = corollary_reduction(HahnParams(a, b, bound), SetQuartet.of((), (), (), fourth))
            assert red.params.N == 1
