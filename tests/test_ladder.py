"""Ladder operators, their series action, and the partial-product closed forms."""

from fractions import Fraction

import pytest

from krallhahn.errors import ParameterSingularity
from krallhahn.hahn import HahnParams, hahn_polynomial
from krallhahn.ladder import (
    CLEARING_BLOCKS,
    KINDS,
    falling_roots,
    ladder_operator,
    ratio_product,
    ratio_products,
    rising_roots,
    series_coefficients,
    series_ratio,
    series_shift,
)
from krallhahn.polynomials import Polynomial

from reference import (
    block_ratio_product,
    closed_form_product_values,
    euclid_grid,
    explicit_falling_block,
    explicit_rising_block,
    explicit_series_ratio,
    lowest_terms,
)

X = Polynomial.variable()


def test_series_shift(desk_params):
    s = series_shift(desk_params)
    # -(2n + a + b - 1)
    assert s(0) == -(desk_params.a + desk_params.b - 1)
    assert s(3) == -(6 + desk_params.a + desk_params.b - 1)


def test_kind_validation(desk_params):
    with pytest.raises(ValueError):
        series_ratio(0, desk_params)
    with pytest.raises(ValueError):
        ladder_operator(5, desk_params)


@pytest.mark.parametrize("kind", KINDS)
def test_operators_are_first_order(kind, desk_params):
    op = ladder_operator(kind, desk_params)
    assert op.order == 1


@pytest.mark.parametrize("kind", KINDS)
def test_series_action(kind, desk_params):
    """Applying the operator to h_n triangularises against lower degrees.

    The coefficients returned by series_coefficients are exactly those of the
    expansion in h_n, h_{n-1}, ..., h_0; no residual remains.
    """
    p = desk_params
    op = ladder_operator(kind, p)
    for n in range(7):
        image = op.apply(hahn_polynomial(n, p))
        expansion = Polynomial.zero()
        for j, c in enumerate(series_coefficients(kind, n, p)):
            expansion = expansion + c * hahn_polynomial(n - j, p)
        assert image == expansion, (kind, n)


def test_series_pole_is_reported():
    # kind 4 ratio -(n+b)/(n+a) has an uncancelled pole at n = -a = 2
    p = HahnParams(Fraction(-2), Fraction(1, 2), 1)
    with pytest.raises(ParameterSingularity):
        series_coefficients(4, 2, p)


@pytest.mark.parametrize("kind", KINDS)
def test_ratio_product_matches_explicit_product(kind, desk_params):
    numer, denom = series_ratio(kind, desk_params)
    for length in range(5):
        explicit = (Polynomial.one(), Polynomial.one())
        for j in range(length):
            explicit = lowest_terms(
                explicit[0] * numer.shift_argument(-j), explicit[1] * denom.shift_argument(-j)
            )
        assert ratio_product(kind, length, desk_params) == explicit


@pytest.mark.parametrize("kind", KINDS)
def test_ratios_match_the_euclid_reference(kind):
    """series_ratio and ratio_product (lengths -4..5), from the blocks' roots,
    against the expanded blocks reduced by Euclid's gcd, and the ratio against
    the hand-written one, on a grid where a = b and a + b = -2N - 2 cancel
    factors of every kind but 3."""
    cancelled = 0
    for p in euclid_grid():
        ratio = series_ratio(kind, p)
        assert ratio == block_ratio_product(kind, 1, p) == explicit_series_ratio(kind, p), p
        cancelled += ratio[1].degree < len(CLEARING_BLOCKS[kind])
        for length in range(-4, 6):
            expected = block_ratio_product(kind, length, p)
            assert ratio_product(kind, length, p) == expected, (p, length)
    assert bool(cancelled) == (kind != 3)


@pytest.mark.parametrize("kind", KINDS)
def test_ratio_product_negative_length(kind, desk_params):
    # length -i gives 1 / (ratio(n + i) ... ratio(n + 1)); integer points
    # avoid the kind-4 pole at n = -a
    ratio = series_ratio(kind, desk_params)
    for i in (1, 2, 3):
        numer, denom = ratio_product(kind, -i, desk_params)
        for n in (-1, -2, -5):
            product = ratio_products(ratio, range(n + i, n, -1))[-1]
            assert numer(n) / denom(n) * product == 1


@pytest.mark.parametrize("kind", KINDS)
def test_ratio_product_value_matches_closed_form(kind):
    """Running products against the closed form, in both directions.

    The second set has a + b + N + 1 = 8, so kinds 1 and 2 have a pole at
    n = -8: a range through it raises, and the products before it still
    match.  With a = b the factor (n + b) / (n + a) of kinds 2 and 4 cancels
    in the reduced ratio, so kind 4 has no pole there.
    """
    poles_met = 0
    for p in (HahnParams(Fraction(1, 2), Fraction(1, 3), 8), HahnParams(Fraction(1, 2), Fraction(1, 2), 6)):
        ratio = series_ratio(kind, p)
        for start in range(-12, 17):
            for points in (range(start, start + 6), range(start, start - 6, -1)):
                poles = [i for i, t in enumerate(points) if ratio[1](t) == 0]
                if poles:
                    poles_met += 1
                    with pytest.raises(ParameterSingularity):
                        ratio_products(ratio, points)
                    points = points[: poles[0]]
                expected = closed_form_product_values(kind, points, p)
                assert ratio_products(ratio, points) == expected
    assert bool(poles_met) == (kind in (1, 2))


def test_ratio_products_raise_at_a_pole():
    # kind 4 ratio -(n + b) / (n + a) with b = a + 1 = -2: ratio(3) has a pole
    # and ratio(2) a zero.  The closed form cancels them across the two steps;
    # the running product raises at the pole.
    p = HahnParams(Fraction(-3), Fraction(-2), 1)
    numer, denom = ratio_product(4, 2, p)
    assert numer(3) / denom(3) == -1
    for points in (range(3, 1, -1), range(2, 4), range(0, 5)):
        with pytest.raises(ParameterSingularity):
            ratio_products(series_ratio(4, p), points)
    expected = closed_form_product_values(4, range(4, 7), p)
    assert ratio_products(series_ratio(4, p), range(4, 7)) == expected


def _rising_block(which, length, shift, p, q):
    return Polynomial.from_integer_roots(rising_roots(which, length, shift, p, q), q)


def _falling_block(which, length, shift, p, q):
    block = Polynomial.from_integer_roots(falling_roots(which, length, shift, p, q), q)
    return -block if length % 2 else block


def test_blocks_are_shifted_pochhammers(desk_params):
    """The blocks from their root lists against explicit products of linear
    factors, by hand and from the reference, over one denominator that clears
    every root."""
    p, q = desk_params, 12
    y = X + Fraction(3, 2)
    assert _rising_block(1, 2, Fraction(3, 2), p, q) == (y - 2 + p.b + 1) * (y - 1 + p.b + 1)
    assert _rising_block(2, 1, Fraction(3, 2), p, q) == y - 1 - p.N
    assert _falling_block(1, 2, 0, p, q) == (X - 2 + p.a + 1) * (X - 1 + p.a + 1)
    # odd length flips the sign
    assert _falling_block(2, 1, 0, p, q) == -(X - 1 + p.a + p.b + p.N + 2)
    assert _rising_block(1, 0, 0, p, q) == Polynomial.one()
    for which in (1, 2):
        for length in range(5):
            for shift in (0, -3, Fraction(3, 2)):
                rising = explicit_rising_block(which, length, shift, p)
                falling = explicit_falling_block(which, length, shift, p)
                assert _rising_block(which, length, shift, p, q) == rising
                assert _falling_block(which, length, shift, p, q) == falling
    with pytest.raises(ValueError):
        rising_roots(3, 1, 0, p, q)
    with pytest.raises(ValueError):
        falling_roots(3, 1, 0, p, q)


def test_block_product_law(desk_params):
    """Adjacent blocks merge: a block of length i+j splits at the seam, as
    root multisets."""
    p, q = desk_params, 6
    for which in (1, 2):
        for i in (1, 2):
            for j in (1, 3):
                for roots in (falling_roots, rising_roots):
                    merged = roots(which, i + j, 0, p, q)
                    split = roots(which, j, 0, p, q) + roots(which, i, -j, p, q)
                    assert sorted(merged) == sorted(split)
