"""Shift-operator algebra."""

import random
from fractions import Fraction

import pytest

from krallhahn.diffops import DifferenceOperator, operator_polynomial
from krallhahn.errors import ZeroOperatorError
from krallhahn.polynomials import Polynomial

X = Polynomial.variable()


def _random_operator(rng):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        offset = rng.randint(-2, 2)
        coeff = Polynomial([Fraction(rng.randint(-3, 3)) for _ in range(rng.randint(1, 3))])
        terms[offset] = terms.get(offset, Polynomial.zero()) + coeff
    return DifferenceOperator(terms)


def _random_poly(rng):
    return Polynomial([Fraction(rng.randint(-4, 4)) for _ in range(rng.randint(1, 4))])


def test_construction_drops_zero_coefficients():
    op = DifferenceOperator({1: Polynomial.zero(), 0: X})
    assert op.terms == {0: X}
    assert DifferenceOperator.zero().is_zero


def test_genre_and_order():
    op = DifferenceOperator({-2: X, 3: Polynomial.one()})
    assert op.genre == (-2, 3)
    assert op.order == 5
    with pytest.raises(ZeroOperatorError):
        DifferenceOperator.zero().genre


def test_shift_action():
    # S_l acts on functions of x by evaluation at x + l
    p = X**2 + 1
    assert DifferenceOperator.shift(3).apply(p) == p.shift_argument(3)
    assert DifferenceOperator.forward_difference().apply(X**2) == 2 * X + 1
    assert DifferenceOperator.backward_difference().apply(X**2) == 2 * X - 1


def test_compose_single_terms():
    # (h S_l)(g S_k) = h(x) g(x+l) S_{l+k}
    left = DifferenceOperator.shift(2, X)
    right = DifferenceOperator.shift(-1, X + 1)
    product = left.compose(right)
    assert product.terms == {1: X * (X + 3)}


def test_compose_matches_apply_on_seeded_operators():
    rng = random.Random(11)
    for _ in range(25):
        a, b = _random_operator(rng), _random_operator(rng)
        f = _random_poly(rng)
        assert a.compose(b).apply(f) == a.apply(b.apply(f))


def test_compose_associativity_seeded():
    rng = random.Random(13)
    for _ in range(15):
        a, b, c = (_random_operator(rng) for _ in range(3))
        assert a.compose(b).compose(c) == a.compose(b.compose(c))


def test_linearity():
    rng = random.Random(17)
    for _ in range(10):
        a, b = _random_operator(rng), _random_operator(rng)
        f = _random_poly(rng)
        assert (a + b).apply(f) == a.apply(f) + b.apply(f)
        assert (a - b).apply(f) == a.apply(f) - b.apply(f)
        assert a.scale(X).apply(f) == X * a.apply(f)
        assert (a * Fraction(2, 3)).apply(f) == Fraction(2, 3) * a.apply(f)


def test_translate_conjugates():
    """op.translate(c) applied to f(x-c) equals (op f)(x-c)."""
    rng = random.Random(19)
    for _ in range(10):
        op = _random_operator(rng)
        f = _random_poly(rng)
        for c in (1, -2, Fraction(1, 2)):
            moved = op.translate(c)
            assert moved.apply(f.shift_argument(-c)) == op.apply(f).shift_argument(-c)


def test_operator_polynomial_horner():
    d = DifferenceOperator.forward_difference()
    p = X**2 - 3 * X + 2
    expected = d.compose(d) - d.scale(3) + DifferenceOperator.identity().scale(2)
    assert operator_polynomial(p, d) == expected
    assert operator_polynomial(Polynomial.zero(), d).is_zero
    assert operator_polynomial(Polynomial.one(), d) == DifferenceOperator.identity()
