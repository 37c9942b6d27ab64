"""Exact polynomial arithmetic and rational functions in lowest terms."""

import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from krallhahn.context import context_from_degrees
from krallhahn.diffops import DifferenceOperator, eigen_certificate
from krallhahn.errors import NonExactDivision
from krallhahn.hahn import HahnParams
from krallhahn.measures import DiscreteMeasure
from krallhahn.oracle import operator_solution_space
from krallhahn.polynomials import (
    Polynomial,
    antidifference,
    divide_out_roots,
    interpolate,
    newton_form,
    pochhammer,
    taylor_shift,
)
from krallhahn.rationals import (
    as_rational,
    clear_denominators,
    format_rational,
    is_integer_at_most,
)
from krallhahn.sets import SetQuartet
from krallhahn.verify import enumerate_root_couples

from reference import (
    lagrange,
    lowest_terms,
    poly_gcd,
    reference_from_roots,
    reference_newton_form,
)

X = Polynomial.variable()


def test_rational_helpers():
    assert as_rational("3/7") == Fraction(3, 7)
    assert as_rational(5) == Fraction(5)
    assert format_rational(Fraction(-4, 6)) == "-2/3"
    assert format_rational(Fraction(4)) == "4"
    assert is_integer_at_most(Fraction(-3), 0)
    assert not is_integer_at_most(Fraction(1, 2), 5)
    assert not is_integer_at_most(Fraction(7), 6)


def test_clear_denominators():
    ints = [3, -4, 0]
    numerators, den = clear_denominators(ints)
    assert numerators is ints and den == 1  # integers pass through unconverted
    assert clear_denominators([]) == ([], 1)
    assert clear_denominators([Fraction(1, 6), 2, Fraction(-3, 4)]) == ([2, 24, -9], 12)
    assert clear_denominators((Fraction(4, 2), True)) == ([2, 1], 1)


@pytest.mark.parametrize(
    "entry",
    [
        lambda: clear_denominators([Fraction(1, 2), 0.1]),
        lambda: Polynomial([0.1]),
        lambda: Polynomial.constant(0.1) * X**2,
        lambda: X / 0.1,
        lambda: X(0.1),
        lambda: X.shift_argument(0.1),
        lambda: newton_form([1, 1], [0.1]),
    ],
    ids=["clear_denominators", "constructor", "monomial", "scalar division", "evaluation",
         "shift_argument", "newton_form"],
)
def test_floats_are_rejected(entry):
    # Fraction(0.1) would silently store the binary fraction 3602879701896397 / 2^55
    with pytest.raises(TypeError, match="0.1"):
        entry()


@pytest.mark.parametrize(
    "entry",
    [
        lambda: SetQuartet.of((), (), (), (1.7,)),
        lambda: context_from_degrees(HahnParams(Fraction(1, 2), Fraction(1, 3), 8),
                                     ((1.7,), (), (), ())),
        lambda: DifferenceOperator({1.7: X}),
        lambda: enumerate_root_couples(8, [1.7]),
        lambda: enumerate_root_couples(8.0, [1]),
    ],
    ids=["set element", "row degree", "shift offset", "root", "couples N"],
)
def test_integer_inputs_are_not_truncated(entry):
    # int(1.7) would silently read 1 and build a different family
    with pytest.raises(TypeError):
        entry()


@pytest.mark.parametrize(
    "entry",
    [
        lambda: Polynomial(["1e400"]),
        lambda: Polynomial.constant("1e400"),
        lambda: Polynomial.constant("1e400") * X**2,
        lambda: X("1e400"),
        lambda: X.shift_argument("1e400"),
        lambda: DiscreteMeasure({0: "1e400"}),
        lambda: eigen_certificate(DifferenceOperator({0: 1}), [(X, "1e400")]),
        lambda: operator_solution_space([X], ["1e400"], 1, 2),
    ],
    ids=["constructor", "constant", "monomial", "evaluation", "shift_argument",
         "measure", "eigen_certificate", "operator_solution_space"],
)
def test_exponent_notation_is_rejected(entry):
    # Fraction("1e400") would expand the exponent into a 400-digit integer
    with pytest.raises(ValueError, match="exponent notation"):
        entry()


def test_construction_trims_trailing_zeros():
    p = Polynomial([1, 2, 0, 0])
    assert p.degree == 1
    assert p == Polynomial([1, 2])
    assert Polynomial([0, 0]).is_zero
    assert Polynomial.zero().degree == -1
    assert Polynomial.zero().leading_coefficient == 0


def test_ring_arithmetic():
    p = 2 * X**2 - X + 3
    q = X - Fraction(1, 2)
    assert p + q == Polynomial([Fraction(5, 2), 0, 2])
    assert p - p == Polynomial.zero()
    assert (p * q).degree == 3
    assert (p * q)(Fraction(4)) == p(4) * q(4)
    assert p * Polynomial.zero() == Polynomial.zero()
    assert (1 - X) == Polynomial([1, -1])


def test_distributivity_on_a_grid():
    # a, b, c range over a fixed pool of small polynomials
    pool = [Polynomial.zero(), Polynomial.one(), X, X**2 - 1, 3 * X + Fraction(1, 2)]
    for a in pool:
        for b in pool:
            for c in pool:
                assert a * (b + c) == a * b + a * c


def test_compose_and_shift():
    p = X**2 + 1
    assert p.compose(X + 3) == p.shift_argument(3)
    assert p.shift_argument(Fraction(1, 2))(0) == p(Fraction(1, 2))
    assert p.shift_argument(2).shift_argument(-2) == p
    assert p.reflect_argument() == p  # even polynomial
    assert (X**3).reflect_argument() == -(X**3)


def test_shift_composes_additively():
    p = X**3 - 2 * X + Fraction(5, 7)
    for c in (1, -3, Fraction(2, 3)):
        for d in (2, Fraction(-1, 2)):
            assert p.shift_argument(c).shift_argument(d) == p.shift_argument(
                as_rational(c) + as_rational(d)
            )


def test_taylor_shift_matches_horner_compose():
    """The Taylor shift against the Horner composition it replaced."""
    rng = random.Random(5)
    polys = [Polynomial.zero(), Polynomial.constant(7), Polynomial.constant(Fraction(-2, 3))]
    for degree in (1, 4, 11, 30):
        polys.append(Polynomial([
            Fraction(rng.randint(-50, 50), rng.randint(1, 9)) for _ in range(degree)
        ] + [Fraction(rng.randint(1, 50), rng.randint(1, 9))]))
    for p in polys:
        for c in (0, 1, -3, Fraction(2, 3), Fraction(-7, 4), Fraction(1, 2)):
            expected = p.compose(Polynomial((c, 1)))
            assert p.shift_argument(c) == expected, (p, c)
            assert Polynomial(taylor_shift(p.coeffs, Fraction(c))) == expected
    # integer coefficients and shift stay integers
    shifted = taylor_shift([3, -1, 0, 2], -2)
    assert all(type(v) is int for v in shifted)
    assert Polynomial(shifted) == Polynomial((3, -1, 0, 2)).compose(Polynomial((-2, 1)))
    assert taylor_shift([], 5) == []


def test_divmod_and_exact_division():
    p = (X - 1) * (X + 2) * (2 * X - 3)
    quo, rem = p.divmod(X - 1)
    assert rem.is_zero
    assert quo == (X + 2) * (2 * X - 3)
    assert p.divide_exact(X + 2) == (X - 1) * (2 * X - 3)
    with pytest.raises(NonExactDivision) as err:
        (p + 1).divide_exact(X - 1)
    assert err.value.remainder is not None
    with pytest.raises(ZeroDivisionError):
        p.divmod(Polynomial.zero())


def test_poly_gcd():
    p = (X - 1) ** 2 * (X + 3)
    q = (X - 1) * (X - 5)
    assert poly_gcd(p, q) == (X - 1).monic()
    assert poly_gcd(p, Polynomial.zero()) == p.monic()


def test_pochhammer():
    assert pochhammer(Fraction(3, 2), 3) == Fraction(3 * 5 * 7, 8)
    assert pochhammer(Fraction(3, 2), 0) == 1
    assert pochhammer(3, 2) == 12
    with pytest.raises(TypeError):
        pochhammer(X, 2)
    with pytest.raises(ValueError):
        pochhammer(Fraction(1), -1)



@pytest.mark.parametrize(
    "base",
    [Fraction(3, 2), Fraction(-7, 3), Fraction(22, 7), 5, 0, -4, Fraction(-6), Fraction(-13, 5)],
)
def test_pochhammer_matches_fraction_product(base):
    # -4 and -6 cross 0 from length 5 and 7 on
    acc = Fraction(1)
    for length in range(10):
        value = pochhammer(base, length)
        assert type(value) is Fraction and value == acc
        acc *= base + length


@pytest.mark.parametrize("base", [1.5, 2.0, "3", None])
def test_pochhammer_rejects_inexact_bases(base):
    with pytest.raises(TypeError):
        pochhammer(base, 2)
    with pytest.raises(TypeError):
        pochhammer(base, 0)


@pytest.mark.parametrize(
    "roots", [[], [1], [Fraction(1, 2), Fraction(-3, 4), 5], [Fraction(2, 3)] * 4]
)
def test_from_roots_matches_per_root_loop(roots):
    assert Polynomial.from_roots(roots) == reference_from_roots(roots)
    assert Polynomial.from_roots(iter(roots)) == reference_from_roots(roots)


_RATIONALS = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))
# coefficients c_0..c_n and at least the n nodes the sum reads
_NEWTON_DATA = st.lists(_RATIONALS, min_size=1, max_size=8).flatmap(
    lambda cs: st.tuples(
        st.just(cs), st.lists(_RATIONALS, min_size=len(cs) - 1, max_size=len(cs) + 1)
    )
)


@settings(max_examples=100)
@given(_NEWTON_DATA, _RATIONALS)
def test_newton_form_matches_fraction_sum(data, t):
    coeffs, nodes = data
    expected, product = Fraction(0), Fraction(1)
    for j, c in enumerate(coeffs):
        expected += c * product
        if j < len(coeffs) - 1:
            product *= t - nodes[j]
    assert newton_form(coeffs, nodes)(t) == expected


def test_interpolate_matches_lagrange():
    rng = random.Random(20)
    cases = [([7], 1), ([-4], 9), ([0], 5), ([0] * 6, 7), ([-3, -8, -1, -20], 6)]
    # a true degree below K - 1: a quadratic and a constant read at 7 points
    cases += [([2 * x * x - 5 * x + 1 for x in range(7)], 3), ([-9] * 7, 12)]
    for _ in range(30):
        k = rng.randint(1, 10)
        cases.append(([rng.randint(-10**6, 10**6) for _ in range(k)], rng.randint(1, 40)))
    cases = [(values, denominator, None) for values, denominator in cases]  # nodes 0..K-1
    # a single node, a consecutive run that starts above 0, and gapped increasing nodes
    cases += [([5], 3, [7]), ([-2], 1, [-4]), ([3, -1, 4, 1, -5], 2, range(6, 11))]
    gapped = [0, 1, 2, 4, 5]
    cases += [([1, 0, 2], 5, [-3, 0, 4]), ([2 * x * x - 5 for x in gapped], 1, gapped)]
    for _ in range(30):
        nodes = sorted(rng.sample(range(-20, 40), rng.randint(2, 9)))
        values = [rng.randint(-10**6, 10**6) for _ in nodes]
        cases.append((values, rng.randint(1, 40), nodes))
    for values, denominator, nodes in cases:
        poly = interpolate(values, denominator, nodes)
        nodes = range(len(values)) if nodes is None else nodes
        expected = [Fraction(v, denominator) for v in values]
        assert poly == lagrange(nodes, expected)
        assert poly.degree < len(values)
        assert [poly(x) for x in nodes] == expected
    assert interpolate([2 * x * x - 5 * x + 1 for x in range(7)], 3).degree == 2
    assert interpolate([0] * 6, 7).is_zero
    assert interpolate([4, 4], 1) == Polynomial.constant(4)


def test_lane_interpolation_matches_per_table():
    """interpolate on a list of tables, the lanes, equals interpolate on each
    table: K = 1..40 points, 1..13 tables, an all-zero table among them, and
    lanes that are all zero."""
    rng = random.Random(42)
    for K in range(1, 41):
        tables = [[rng.randint(-10**6, 10**6) for _ in range(K)] for _ in range(K % 13 + 1)]
        tables[rng.randrange(len(tables))] = [0] * K
        denominator = rng.randint(1, 40)
        assert interpolate(tables, denominator) == [interpolate(t, denominator) for t in tables], K
    assert interpolate([(0,) * 6] * 3, 5) == [Polynomial.zero()] * 3
    assert interpolate([], 1) == []
    with pytest.raises(ValueError):
        interpolate([[1, 2], [3, 4]], 1, [0, 2])


def test_newton_form_on_integer_nodes_matches_reference():
    """The integer-node branch (q = 1, no powers of q) against Horner with the
    powers of q carried, for rational coefficients at 0..12 integer nodes."""
    rng = random.Random(43)
    for n in range(13):
        coeffs = [Fraction(rng.randint(-50, 50), rng.randint(1, 9)) for _ in range(n + 1)]
        for nodes in (range(n), [rng.randint(-20, 20) for _ in range(n + 1)]):
            assert newton_form(coeffs, nodes) == reference_newton_form(coeffs, nodes), n


def test_antidifference_telescopes():
    for p in (X**2, X**3 - X, Polynomial.constant(7), 5 * X**4 - Fraction(1, 3) * X):
        q = antidifference(p)
        assert q - q.shift_argument(-1) == p
        assert q(Fraction(-1)) == 0
    # partial sums: q(n) = sum_{k=0}^{n} p(k)
    q = antidifference(X**2)
    assert q(3) == 0 + 1 + 4 + 9


def test_divide_out_roots_matches_lowest_terms():
    """Reducing by the denominator's known roots against Euclid's gcd, on seeded
    factored and unfactored numerators, roots shared with multiplicity (in the
    roots, in the numerator, or both), and a zero numerator."""
    rng = random.Random(34)
    cases = [(Polynomial.zero(), [3, -1, 3], 2), (5 * X + 1, [], 1)]
    for _ in range(60):
        q = rng.choice((1, 2, 3, 6))
        roots = [rng.randint(-6, 6) for _ in range(rng.randint(1, 5))]
        shared = [p for p in roots if rng.random() < 0.6] * rng.randint(1, 2)
        own = [rng.randint(-6, 6) for _ in range(rng.randint(0, 2))]
        scale = Fraction(rng.randint(1, 9), rng.choice((1, -2, 7)))
        numer = Polynomial.from_integer_roots(shared + own, q) * scale
        if rng.random() < 0.5:  # a factor with no rational root, expanded
            numer = numer * Polynomial([rng.randint(1, 9), rng.randint(-5, 5), rng.randint(1, 9)])
        cases.append((numer, roots, q))
    divided_twice = 0
    for numer, roots, q in cases:
        quotient, kept = divide_out_roots(numer, roots, q)
        reduced = quotient, Polynomial.from_integer_roots(kept, q)
        assert reduced == lowest_terms(numer, Polynomial.from_integer_roots(roots, q))
        divided = Counter(roots) - Counter(kept)
        divided_twice += any(count > 1 for count in divided.values())
    assert cases[0][0].is_zero and divide_out_roots(*cases[0]) == (Polynomial.zero(), [])
    assert divided_twice


class TestRationalFunction:
    """Rational functions as (numerator, denominator) pairs made by lowest_terms."""

    def test_normalisation(self):
        assert lowest_terms(2 * X + 2, 4 * X + 4) == (Polynomial.constant(Fraction(1, 2)), 1)
        numer, denom = lowest_terms((X - 1) * (X + 2), 3 * (X - 1) * (X - 5))
        assert (numer, denom) == (Fraction(1, 3) * (X + 2), X - 5)

    def test_monic_denominator(self):
        numer, denom = lowest_terms(X, -2 * X**2 + 6)
        assert denom.leading_coefficient == 1
        assert (numer, denom) == (Fraction(-1, 2) * X, X**2 - 3)

    def test_zero_numerator(self):
        assert lowest_terms(Polynomial.zero(), 5 * X**3 + X) == (Polynomial.zero(), 1)

    def test_zero_denominator_raises(self):
        with pytest.raises(ZeroDivisionError):
            lowest_terms(X, Polynomial.zero())

    def test_pole_evaluation_raises(self):
        numer, denom = lowest_terms(X * (X - 1), (X - 1) * (X - 3))
        assert numer(1) / denom(1) == Fraction(1, -2)
        with pytest.raises(ZeroDivisionError):
            numer(3) / denom(3)

    def test_field_arithmetic(self):
        # x/(x+1) and 1/x: product and sum are lowest_terms of the cross products
        product = lowest_terms(X * 1, (X + 1) * X)
        assert product == (Polynomial.one(), X + 1)
        total = lowest_terms(X * X + 1 * (X + 1), (X + 1) * X)
        assert total == (X**2 + X + 1, X**2 + X)
        assert total[0](2) / total[1](2) == Fraction(2, 3) + Fraction(1, 2)
        assert lowest_terms(X - X, X + 1) == (Polynomial.zero(), 1)

    def test_shift_argument(self):
        # shifting both parts of a reduced pair keeps it reduced
        numer, denom = lowest_terms(X**2, 2 * X + 10)
        moved = numer.shift_argument(2), denom.shift_argument(2)
        assert lowest_terms(*moved) == moved
        assert moved[0](0) / moved[1](0) == numer(2) / denom(2)
