"""The integer-content polynomial core against a Fraction-tuple reference.

``reference.FractionPolynomial`` is the representation the core replaced: a
tuple of ``Fraction`` coefficients with every operation done coefficient by
coefficient over the rationals (shifts by Horner composition).  The core must
give the same coefficients for every operation, on seeded random inputs that
include the zero polynomial, constants, negative coefficients and denominators
above 2^200, and every result must be in canonical form.
"""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from krallhahn.errors import NonExactDivision
from krallhahn.polynomials import Polynomial, antidifference, divide_out_roots, horner

from reference import FractionPolynomial, divide_exact, pseudo_divmod, reference_antidifference


def assert_canonical(p):
    """Integer numerators, no trailing zero, denominator > 0, gcd with it 1."""
    nums, den = p.integer_parts
    assert type(den) is int and den > 0
    assert all(type(c) is int for c in nums)
    if not nums:
        assert (nums, den) == ((), 1)
        return
    assert nums[-1] != 0
    assert gcd(den, *nums) == 1


def check(core, ref):
    """The core's result has the reference's coefficients and is canonical."""
    assert_canonical(core)
    assert core.coeffs == ref.coeffs, (core, ref.coeffs)


HUGE = 2**200 + 235


def random_scalar(rng):
    kind = rng.randrange(5)
    if kind == 0:
        return rng.randint(-9, 9)
    if kind == 1:
        return Fraction(rng.randint(-50, 50), rng.randint(1, 12))
    if kind == 2:
        return Fraction(rng.randint(-HUGE, HUGE), rng.randint(HUGE, 2 * HUGE))
    if kind == 3:
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 7), 2 ** rng.randint(1, 6))
    return 0


def random_coeffs(rng, degree):
    if degree < 0:
        return []
    coeffs = [random_scalar(rng) for _ in range(degree)]
    top = 0
    while top == 0:
        top = random_scalar(rng)
    return coeffs + [top]


def cases(seed, count=40, max_degree=9):
    """Pairs (core, reference) of one random polynomial, zero and constants first."""
    rng = random.Random(seed)
    fixed = [[], [1], [-1], [Fraction(-7, 3)], [Fraction(1, HUGE)], [0, 0, Fraction(5, 4)]]
    out = fixed + [random_coeffs(rng, rng.randint(0, max_degree)) for _ in range(count)]
    return [(Polynomial(c), FractionPolynomial(c)) for c in out]


def pairs(seed, count=40):
    rng = random.Random(seed)
    left, right = cases(seed, count), cases(seed + 1, count)
    rng.shuffle(right)
    return list(zip(left, right))


class TestAgainstFractionReference:
    def test_construction_and_accessors(self):
        for core, ref in cases(1):
            check(core, ref)
            assert core.degree == ref.degree
            assert list(core) == list(ref.coeffs)
            for k in range(-1, core.degree + 2):
                expected = ref.coeffs[k] if 0 <= k <= ref.degree else 0
                assert core.coefficient(k) == expected
            lead = ref.coeffs[-1] if ref.coeffs else 0
            assert core.leading_coefficient == lead

    def test_integer_parts_clear_the_reduced_denominators(self):
        # the denominator is the lcm of the reduced coefficient denominators
        for core, ref in cases(2):
            nums, den = core.integer_parts
            assert den == lcm(1, *(c.denominator for c in ref.coeffs))
            assert list(nums) == [c.numerator * (den // c.denominator) for c in ref.coeffs]

    def test_from_integer_parts_inverts_integer_parts(self):
        for core, ref in cases(2):
            nums, den = core.integer_parts
            assert Polynomial.from_integer_parts(nums, den).integer_parts == (nums, den)
            # unreduced parts with trailing zeros come back canonical
            scaled = Polynomial.from_integer_parts([6 * c for c in nums] + [0, 0], 6 * den)
            check(scaled, ref)
        for bad in (0, -1):
            with pytest.raises(ValueError):
                Polynomial.from_integer_parts([1, 2], bad)

    def test_add_sub_mul(self):
        for (f, rf), (g, rg) in pairs(3):
            check(f + g, rf + rg)
            check(f - g, rf - rg)
            check(f * g, rf * rg)
            check(-f, -rf)

    def test_scalar_mul_and_div(self):
        rng = random.Random(4)
        for core, ref in cases(4):
            for c in (random_scalar(rng), 0, -1, 2, Fraction(-3, 8)):
                check(core * c, ref * c)
                check(c * core, ref * c)
                if c != 0:
                    check(core / c, ref / c)
            check(core + 5, ref + FractionPolynomial((5,)))
            check(Fraction(1, 3) - core, FractionPolynomial((Fraction(1, 3),)) - ref)

    def test_divmod_and_divide_exact(self):
        for (f, rf), (g, rg) in pairs(5):
            if g.is_zero:
                with pytest.raises(ZeroDivisionError):
                    pseudo_divmod(f, g)
                continue
            quo, rem = pseudo_divmod(f, g)
            rquo, rrem = rf.divmod(rg)
            check(quo, rquo)
            check(rem, rrem)
            # exact: the product divides back to f
            check(divide_exact(f * g, g), rf)
            if not rem.is_zero:
                with pytest.raises(NonExactDivision) as err:
                    divide_exact(f, g)
                assert err.value.remainder == rem

    def test_negative_leading_divisors(self):
        x = Polynomial.variable()
        for (f, rf), _ in pairs(6, count=15):
            for divisor in (-2 * x + 3, Fraction(-4, 9) * x**2 + x - Fraction(1, HUGE), -x):
                quo, rem = pseudo_divmod(f, divisor)
                rquo, rrem = rf.divmod(FractionPolynomial(divisor.coeffs))
                check(quo, rquo)
                check(rem, rrem)
            # the linear divisors by their roots 3/2 and 0: f * divisor / (x - root)
            # is f times the divisor's leading coefficient
            for divisor, (p, q) in ((-2 * x + 3, (3, 2)), (-x, (0, 1))):
                lead = divisor.leading_coefficient
                quotient, kept = divide_out_roots(f * divisor, [p], q)
                assert kept == []
                check(quotient, rf * lead)
                quotient, kept = divide_out_roots(f, [p], q)
                rquo, rrem = rf.divmod(FractionPolynomial(divisor.coeffs))
                assert kept == ([] if rrem.is_zero else [p])
                check(quotient, rquo * lead if rrem.is_zero else rf)

    @pytest.mark.parametrize("shift", [
        0, 1, -1, 7, -13, Fraction(1, 2), Fraction(-3, 2), Fraction(2, 3),
        Fraction(-7, 4), Fraction(5, 12), Fraction(HUGE, 3), Fraction(-1, HUGE),
    ])
    def test_shift_argument(self, shift):
        for core, ref in cases(7, count=15):
            check(core.shift_argument(shift), ref.shift_argument(shift))

    def test_evaluation(self):
        points = (0, 1, -2, 11, Fraction(1, 2), Fraction(-5, 3), Fraction(7, HUGE))
        for core, ref in cases(8):
            for t in points:
                value = core(t)
                assert type(value) is Fraction and value == ref(t)
                nums, den = core.integer_parts
                scale = den * t.denominator ** max(core.degree, 0)
                assert horner(nums, t.numerator, t.denominator) == ref(t) * scale

    def test_monic_compose_reflect_antidifference(self):
        for (f, rf), (g, rg) in pairs(9, count=20):
            check(f.monic(), rf.monic())
            check(f.reflect_argument(), rf.reflect_argument())
            if g.degree <= 3:
                check(f.compose(g), rf.compose(rg))
            check(antidifference(f), reference_antidifference(rf))
        # one degree far above the random cases' 9, with rational coefficients
        coeffs = random_coeffs(random.Random(174), 24)
        check(antidifference(Polynomial(coeffs)), reference_antidifference(FractionPolynomial(coeffs)))

    def test_from_roots(self):
        rng = random.Random(10)
        for _ in range(20):
            roots = [random_scalar(rng) for _ in range(rng.randint(0, 8))]
            ref = FractionPolynomial((1,))
            for r in roots:
                ref = ref * FractionPolynomial((-Fraction(r), 1))
            check(Polynomial.from_roots(roots), ref)


class TestCanonicalForm:
    def test_two_routes_give_equal_parts_and_hash(self):
        for ((f, _), (g, _)), ((h, _), _) in zip(pairs(11, 20), pairs(12, 20)):
            routes = [
                ((f * g) * h, f * (g * h)),
                ((f + g) - g, f),
                (f * (g + h), f * g + f * h),
                (f.shift_argument(Fraction(3, 7)).shift_argument(Fraction(-3, 7)), f),
                (f.shift_argument(Fraction(1, 2)).shift_argument(Fraction(1, 2)),
                 f.shift_argument(1)),
                (f.reflect_argument().reflect_argument(), f),
            ]
            if not g.is_zero:
                routes.append((divide_exact(f * g, g), f))
            # the divisor (x - 3/2)^2 (x + 1/3) by its known roots
            roots = [9, 9, -2]
            routes.append((divide_out_roots(f * Polynomial.from_integer_roots(roots, 6), roots, 6)[0], f))
            for left, right in routes:
                assert left.integer_parts == right.integer_parts
                assert left == right and hash(left) == hash(right)

    def test_zero_results(self):
        zero = ((), 1)
        for (f, _), (g, _) in pairs(13, 20):
            assert (f - f).integer_parts == zero
            assert (f * 0).integer_parts == zero
            assert (f * g - g * f).integer_parts == zero
            if not g.is_zero:
                assert pseudo_divmod(f * g, g)[1].integer_parts == zero
            assert divide_out_roots(f - f, [1, -3, 1], 4)[0].integer_parts == zero
        assert Polynomial([0, Fraction(0, 5)]).integer_parts == zero
        assert Polynomial.zero().integer_parts == zero

    def test_examples(self):
        assert Polynomial([Fraction(1, 2), Fraction(1, 3)]).integer_parts == ((3, 2), 6)
        assert Polynomial([4, 6]).integer_parts == ((4, 6), 1)
        assert Polynomial([Fraction(2, 3), Fraction(4, 3)]).integer_parts == ((2, 4), 3)
        assert (Polynomial([3, -9]) * Fraction(1, 6)).integer_parts == ((1, -3), 2)
        assert Polynomial([Fraction(-6, 4), 3]).monic().integer_parts == ((-1, 2), 2)
