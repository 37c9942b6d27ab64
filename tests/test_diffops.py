"""Shift-operator algebra."""

import random
from fractions import Fraction

import pytest

from krallhahn.diffops import DifferenceOperator, degree_excess, eigen_certificate
from krallhahn.errors import ZeroOperatorError
from krallhahn.hahn import HahnParams, hahn_operator, hahn_polynomial
from krallhahn.polynomials import Polynomial

from reference import (
    compose,
    identity_operator,
    operator_add,
    operator_polynomial,
    operator_scale,
    operator_sub,
    reference_eigen_certificate,
    zero_operator,
)

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
    assert zero_operator().is_zero


def test_genre_and_order():
    op = DifferenceOperator({-2: X, 3: Polynomial.one()})
    assert op.genre == (-2, 3)
    assert op.order == 5
    with pytest.raises(ZeroOperatorError):
        zero_operator().genre


def test_shift_action():
    # S_l acts on functions of x by evaluation at x + l
    p = X**2 + 1
    assert DifferenceOperator({3: 1}).apply(p) == p.shift_argument(3)
    assert DifferenceOperator({1: 1, 0: -1}).apply(X**2) == 2 * X + 1
    assert DifferenceOperator({0: 1, -1: -1}).apply(X**2) == 2 * X - 1


def test_compose_single_terms():
    # (h S_l)(g S_k) = h(x) g(x+l) S_{l+k}
    left = DifferenceOperator({2: X})
    right = DifferenceOperator({-1: X + 1})
    product = compose(left, right)
    assert product.terms == {1: X * (X + 3)}


def test_compose_matches_apply_on_seeded_operators():
    rng = random.Random(11)
    for _ in range(25):
        a, b = _random_operator(rng), _random_operator(rng)
        f = _random_poly(rng)
        assert compose(a, b).apply(f) == a.apply(b.apply(f))


def test_compose_associativity_seeded():
    rng = random.Random(13)
    for _ in range(15):
        a, b, c = (_random_operator(rng) for _ in range(3))
        assert compose(compose(a, b), c) == compose(a, compose(b, c))


def test_linearity():
    rng = random.Random(17)
    for _ in range(10):
        a, b = _random_operator(rng), _random_operator(rng)
        f = _random_poly(rng)
        assert operator_add(a, b).apply(f) == a.apply(f) + b.apply(f)
        assert operator_sub(a, b).apply(f) == a.apply(f) - b.apply(f)
        assert operator_scale(a, X).apply(f) == X * a.apply(f)
        assert operator_scale(a, Fraction(2, 3)).apply(f) == Fraction(2, 3) * a.apply(f)


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
    d = DifferenceOperator({1: 1, 0: -1})
    p = X**2 - 3 * X + 2
    expected = operator_add(
        operator_sub(compose(d, d), operator_scale(d, 3)), operator_scale(identity_operator(), 2)
    )
    assert operator_polynomial(p, d) == expected
    assert operator_polynomial(Polynomial.zero(), d).is_zero
    assert operator_polynomial(Polynomial.one(), d) == identity_operator()


def _random_rational(rng, size=3):
    return Fraction(rng.randint(-size, size), rng.randint(1, 4))


def _eigenpair(rng):
    """A true eigenpair: a Hahn polynomial under the Hahn operator, carried
    through a random operator polynomial P (eigenvalue P(lambda_n)) and a
    translation by c (eigenfunction f(x - c))."""
    params = _random_params(rng)
    n = rng.randint(0, params.N)
    poly = Polynomial([_random_rational(rng) for _ in range(rng.randint(1, 3))])
    c = rng.choice((0, 1, -2, Fraction(1, 2)))
    op = operator_polynomial(poly, hahn_operator(params)).translate(c)
    return op, hahn_polynomial(n, params).shift_argument(-c), poly(params.eigenvalue(n))


def _random_params(rng):
    return HahnParams(
        Fraction(rng.randint(1, 9), rng.randint(2, 5)),
        Fraction(rng.randint(1, 9), rng.randint(2, 5)),
        rng.randint(3, 7),
    )


def _apply_excess(op):
    """max(0, max_k (deg op(x^k) - k)) over k up to the largest coefficient degree."""
    top = max((h.degree for h in op.terms.values()), default=-1)
    return max([0] + [op.apply(X**k).degree - k for k in range(top + 1)])


def test_degree_excess_matches_apply_on_seeded_operators():
    """degree_excess against the degree op.apply adds to x^k: random operators
    with Fraction coefficients over unequal denominators; operator polynomials
    in the Hahn operator, translated, whose coefficient degrees grow while they
    preserve degree (e = 0); and such an operator plus c x^i S_l, which raises
    e when i > 0."""
    rng = random.Random(29)
    kinds = []
    for trial in range(60):
        kind = trial % 3
        if kind == 0:
            op = DifferenceOperator(
                {rng.randint(-3, 3): Polynomial([_random_rational(rng) for _ in range(4)])
                 for _ in range(rng.randint(0, 3))}
            )
        else:
            poly = Polynomial([_random_rational(rng) for _ in range(rng.randint(1, 4))])
            c = rng.choice((0, 1, -2, Fraction(1, 2)))
            op = operator_polynomial(poly, hahn_operator(_random_params(rng))).translate(c)
            if kind == 2:
                bump = X ** rng.randint(1, 3) * (_random_rational(rng) or 1)
                op = operator_add(op, DifferenceOperator({rng.randint(-2, 2): bump}))
        excess = degree_excess(op)
        assert excess == _apply_excess(op)
        kinds.append((kind, excess))
    # the degree-preserving operators have e = 0 below their coefficient degrees
    assert all(excess == 0 for kind, excess in kinds if kind == 1)
    assert sum(excess > 0 for _, excess in kinds) >= 20
    op = operator_polynomial(X**2 + 1, hahn_operator(HahnParams(Fraction(1, 2), Fraction(1, 3), 8)))
    assert degree_excess(op) == 0 < max(h.degree for h in op.terms.values()) == 4


@pytest.mark.parametrize("terms, excess", [
    # x/2 S_1 - x S_0: the raw numerators 1 and -1 cancel, but M_0 = -x/2
    ({1: X * Fraction(1, 2), 0: -X}, 1),
    # x S_1 - x S_0 = x Delta maps x^k to degree k: M_0 = 0, M_1 = x
    ({1: X, 0: -X}, 0),
    # x^2 / 3 S_2 - 2 x^2 / 3 S_1 + x^2 / 3 S_0 = x^2 Delta^2 / 3: M_0 = M_1 = 0, M_2 = 2 x^2 / 3
    ({2: X**2 * Fraction(1, 3), 1: X**2 * Fraction(-2, 3), 0: X**2 * Fraction(1, 3)}, 0),
    # x^2 S_1 - x^2 S_(-1) / 2: M_0 = x^2 / 2
    ({1: X**2, -1: X**2 * Fraction(-1, 2)}, 2),
    # x^3 (S_1 - S_(-1)) / 3: M_0 = 0, M_1 = 2 x^3 / 3
    ({1: X**3 * Fraction(1, 3), -1: X**3 * Fraction(-1, 3)}, 2),
    ({}, 0),
])
def test_degree_excess_of_hand_made_operators(terms, excess):
    """The moments are summed over one denominator: the first operator has
    raw numerators that cancel and coefficients that do not."""
    op = DifferenceOperator(terms)
    assert degree_excess(op) == excess == _apply_excess(op)


def _integer_zeros(residuals):
    """The integers in -6..11 where every residual vanishes."""
    return [x for x in range(-6, 12) if all(r(x) == 0 for r in residuals)]


def test_eigen_certificate_matches_apply_on_seeded_cases():
    """The certificate against the reference op.apply(f) == lambda f and the
    coefficient-degree route: random operators with offsets -3..3 and
    Fraction coefficients, lambda with a denominator, f = 0, the zero
    operator, true eigenpairs, and true pairs broken by c x^k on one
    coefficient or by a changed eigenvalue.  Each case is also run with the
    integer zeros its residuals share, and each pair with its own."""
    rng = random.Random(23)
    verdicts = []
    for trial in range(60):
        kind = trial % 4
        if kind == 0:
            op = DifferenceOperator(
                {rng.randint(-3, 3): Polynomial([_random_rational(rng) for _ in range(3)])
                 for _ in range(rng.randint(0, 3))}
            )
            pairs = [(_random_poly(rng), _random_rational(rng)) for _ in range(2)]
            pairs.append((Polynomial.zero(), _random_rational(rng)))
            pairs.append((_random_poly(rng), Fraction(0)))
        else:
            op, f, lam = _eigenpair(rng)
            pairs = [(f, lam), (Polynomial.zero(), lam), (f, lam + Fraction(1, 7))]
            if kind == 2:
                offset = rng.choice(sorted(op.terms))
                bump = X ** rng.randint(0, 4) * (_random_rational(rng) or 1)
                op = operator_add(op, DifferenceOperator({offset: bump}))
            elif kind == 3:
                op = zero_operator()
                pairs.append((f, Fraction(0)))
        residuals = [op.apply(f) - f * Fraction(lam) for f, lam in pairs]
        expected = [r.is_zero for r in residuals]
        assert eigen_certificate(op, pairs) == expected == reference_eigen_certificate(op, pairs)
        assert eigen_certificate(op, pairs, zeros=_integer_zeros(residuals)) == expected
        for pair, residual, verdict in zip(pairs, residuals, expected):
            assert eigen_certificate(op, [pair], zeros=_integer_zeros([residual])) == [verdict]
        verdicts += expected
    assert 60 < verdicts.count(True) and 60 < verdicts.count(False)
    assert eigen_certificate(_random_operator(rng), []) == []
    with pytest.raises(TypeError):
        eigen_certificate(identity_operator(), [(X, 0.5)])


def test_eigen_certificate_matches_reference_on_zero_operator_and_gapped_zeros():
    """On the zero operator the residual is -lambda f, zero only for f = 0 or
    lambda = 0: the certificate equals the reference.  Handed non-contiguous
    zeros, it agrees with the reference on true eigenpairs, Hahn polynomials
    of the Hahn operator, whose windows then skip those points."""
    zero = zero_operator()
    pairs = [(Polynomial.zero(), Fraction(3)), (X**3 - 2, Fraction(0)),
             (X**2 - 1, Fraction(-2, 3)), (Polynomial.constant(5), Fraction(1))]
    assert eigen_certificate(zero, pairs) == reference_eigen_certificate(zero, pairs)
    assert eigen_certificate(zero, pairs) == [True, True, False, False]
    p = HahnParams(Fraction(-7, 2), Fraction(5, 3), 9)
    op = hahn_operator(p)
    pairs = [(hahn_polynomial(n, p), p.eigenvalue(n)) for n in range(6)]
    expected = reference_eigen_certificate(op, pairs)
    assert expected == [True] * 6
    for zeros in ([1, 4, 5, 9], [0, 2, 3, 7, 8, 11]):
        assert eigen_certificate(op, pairs, zeros=zeros) == expected, zeros


@pytest.mark.parametrize("k, top, s, lam", [
    (1, 2, 0, Fraction(0)),
    (3, 7, 0, Fraction(-5, 3)),
    (4, 9, 2, Fraction(7, 2)),
    (2, 6, 4, Fraction(1)),
])
def test_eigen_certificate_sees_a_residual_vanishing_at_all_but_the_last_point(k, top, s, lam):
    """f = prod_{i<k} (x - i) and D = lambda + g S_{-s}, where g is the product
    of (x - i) over the i < top that f(x - s) does not vanish at.  Then
    D f - lambda f = prod_{i<top} (x - i): it has degree top = deg f + deg g
    and vanishes at x = 0..top - 1, so only the last of the top + 1 points
    sees it.  The same holds for D = lambda + g' (S_{-s} - S_{-s-1}), with g'
    the product of (x - i) over the i < top that f(x - s) - f(x - s - 1) =
    k prod_{0<i<k} (x - s - i) does not vanish at: its moments are M_0 =
    lambda and M_1 = g', so e = deg g' - 1 is below its coefficient degree.
    Told that x = 0..top - 1 are zeros, the certificate tests only x = top."""
    f = Polynomial.from_roots(range(k))
    g = Polynomial.from_roots(i for i in range(top) if not s <= i < s + k)
    step = Polynomial.from_roots(i for i in range(top) if not s < i < s + k)
    cases = [
        (DifferenceOperator({-s: g}), g.degree, 1),
        (DifferenceOperator({-s: step, -s - 1: -step}), step.degree - 1, k),
    ]
    for term, excess, scale in cases:
        op = operator_add(term, operator_scale(identity_operator(), lam))
        assert degree_excess(op) == excess and f.degree + excess == top
        residual = op.apply(f) - f * lam
        assert residual == Polynomial.from_roots(range(top)) * scale
        assert eigen_certificate(op, [(f, lam), (f, lam)]) == [False, False]
        assert eigen_certificate(op, [(f, lam)], zeros=range(top)) == [False]
        assert eigen_certificate(operator_sub(op, term), [(f, lam)]) == [True]
        assert eigen_certificate(operator_sub(op, term), [(f, lam)], zeros=range(top)) == [True]
