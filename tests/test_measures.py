"""Discrete measures, Christoffel transforms, and the Gram-Schmidt oracle."""

from fractions import Fraction

import pytest

from krallhahn.casorati import krall_polynomial
from krallhahn.config import BUILTIN_CONFIGS, builtin_config, config_from_dict
from krallhahn.errors import DegenerateMoments
from krallhahn.measures import (
    DiscreteMeasure,
    christoffel,
    equal_up_to_sign,
    gram_schmidt,
    orthogonality_table,
    proportionality_constant,
)
from krallhahn.polynomials import Polynomial
from krallhahn.verify import build_run

X = Polynomial.variable()
HALF = Fraction(1, 2)


def test_zero_masses_dropped():
    mu = DiscreteMeasure({0: 1, 1: 0, 2: HALF})
    assert mu.support == [0, 2]
    assert mu.size == 2
    assert mu.mass(1) == 0
    assert mu.total_mass() == Fraction(3, 2)


def test_integration():
    mu = DiscreteMeasure({0: 1, 1: 2, 3: -1})
    assert mu.integrate(X**2) == 0 + 2 * 1 - 9
    assert mu.inner_product(X, X + 1) == 2 * 1 * 2 - 1 * 3 * 4
    assert mu.moments(2) == [Fraction(2), Fraction(-1), Fraction(-7)]


def test_translate_and_scale():
    mu = DiscreteMeasure({0: 1, 2: 3})
    assert mu.translate(HALF).support == [HALF, Fraction(5, 2)]
    assert mu.translate(1).translate(-1) == mu
    assert mu.scale(2).total_mass() == 8
    assert mu.scale(0).size == 0


def test_christoffel_kills_root_atoms():
    mu = DiscreteMeasure({0: 1, 1: 1, 2: 1})
    nu = christoffel(mu, X - 1)
    assert nu.support == [0, 2]
    assert nu.mass(0) == -1
    assert nu.mass(2) == 1


def test_proportionality():
    mu = DiscreteMeasure({0: 2, 1: 4})
    assert proportionality_constant(mu.scale(Fraction(-3, 7)), mu) == Fraction(-3, 7)
    assert proportionality_constant(mu, DiscreteMeasure({0: 2})) is None
    assert proportionality_constant(mu, DiscreteMeasure({0: 2, 1: 5})) is None
    empty = DiscreteMeasure({})
    assert proportionality_constant(empty, empty) == 1
    assert proportionality_constant(mu, empty) is None
    assert equal_up_to_sign(mu, mu.scale(-1))
    assert not equal_up_to_sign(mu, mu.scale(2))


def test_gram_schmidt_two_point_measure():
    # orthogonal polynomials for atoms at 0 and 1 with equal weight
    mu = DiscreteMeasure({0: 1, 1: 1})
    p0, p1 = gram_schmidt(mu, 1)
    assert p0 == Polynomial.one()
    assert p1 == X - HALF
    assert mu.inner_product(p0, p1) == 0


def test_gram_schmidt_exhausted_support():
    mu = DiscreteMeasure({0: 1, 1: 1})
    with pytest.raises(DegenerateMoments) as err:
        gram_schmidt(mu, 3)
    assert err.value.index == 2
    # degree == support size is allowed: the last polynomial has norm zero
    polys = gram_schmidt(mu, 2)
    assert len(polys) == 3
    assert mu.inner_product(polys[2], polys[2]) == 0


def test_orthogonality_table():
    mu = DiscreteMeasure({0: 1, 1: 1, 2: 1})
    polys = gram_schmidt(mu, 2)
    table = orthogonality_table(mu, polys)
    for (i, j), value in table.items():
        if i != j:
            assert value == 0
        else:
            assert value != 0


# -- the evaluation-domain routes against polynomial products -------------------


def _reference_gram_schmidt(measure, up_to):
    """The projection through polynomial products: x^k reduced against every
    earlier polynomial, each pairing integrated as a product polynomial."""
    basis, norms = [], []
    for k in range(up_to + 1):
        candidate = Polynomial.monomial(k)
        for p, norm in zip(basis, norms):
            coeff = measure.integrate(candidate * p) / norm
            if coeff != 0:
                candidate = candidate - coeff * p
        norm = measure.integrate(candidate * candidate)
        if norm == 0 and k < up_to:
            raise DegenerateMoments(k)
        basis.append(candidate)
        norms.append(norm)
    return basis


FAMILY_TEMPLATE = {
    "a": "7/3", "b": "11/5", "N": 17, "F": [[], [], [], [1, 2]], "path": "corollary",
}
# negative masses at rational points, with a few arbitrary polynomials
SIGNED = DiscreteMeasure({Fraction(-1, 2): 3, Fraction(1, 3): -2, 2: Fraction(5, 7),
                          Fraction(7, 2): -1, 5: Fraction(-4, 9)})
SIGNED_POLYS = [Polynomial.one(), X - HALF, (X + 1) ** 3, Polynomial((Fraction(2, 3), 0, -5, 1))]


@pytest.fixture(scope="module")
def families():
    """(measure, polynomials, n_max) for the four builtin configs, one family
    template and a signed measure at rational points."""
    cases = {}
    for name in BUILTIN_CONFIGS:
        run = build_run(builtin_config(name))
        qs = [krall_polynomial(run.ctx, n) for n in range(run.n_max + 1)]
        cases[name] = (run.inner_measure, qs, run.n_max)
    run = build_run(config_from_dict(dict(FAMILY_TEMPLATE)))
    qs = [krall_polynomial(run.ctx, n) for n in range(run.n_max + 1)]
    cases["F4=[1,2] N=17"] = (run.inner_measure, qs, run.n_max)
    cases["signed"] = (SIGNED, SIGNED_POLYS, SIGNED.size - 1)
    return cases


CASES = [*BUILTIN_CONFIGS, "F4=[1,2] N=17", "signed"]


def test_cases_include_negative_masses(families):
    signs = {name: min(families[name][0].atoms.values()) < 0 for name in CASES}
    assert signs["four-roots"] and signs["signed"]


@pytest.mark.parametrize("name", CASES)
def test_inner_products_match_integrated_products(families, name):
    # the norms and the first two off-diagonals: every value vector meets both
    # neighbours, and the reference's cost stays linear in the family size
    measure, polys, _ = families[name]
    table = orthogonality_table(measure, polys)
    assert list(table) == [(i, j) for i in range(len(polys)) for j in range(i, len(polys))]
    for (i, j), value in table.items():
        if j - i <= 2:
            reference = measure.integrate(polys[i] * polys[j])
            assert value == reference
            assert measure.inner_product(polys[i], polys[j]) == reference


def test_values_are_in_support_order():
    assert SIGNED.values(X) == tuple(SIGNED.support)
    assert SIGNED.values(X * X - 1) == tuple(pt * pt - 1 for pt in SIGNED.support)
    assert SIGNED.dot(SIGNED.values(Polynomial.one()), SIGNED.values(X)) == SIGNED.integrate(X)


@pytest.mark.parametrize("name", CASES)
def test_gram_schmidt_matches_product_projection(families, name):
    measure, _, n_max = families[name]
    assert gram_schmidt(measure, n_max) == _reference_gram_schmidt(measure, n_max)


@pytest.mark.parametrize("name", ["single-root", "signed"])
def test_gram_schmidt_exhausted_support_matches_reference(families, name):
    measure = families[name][0]
    size = measure.size
    # degree == support size: the last polynomial has norm zero
    assert gram_schmidt(measure, size) == _reference_gram_schmidt(measure, size)
    for route in (gram_schmidt, _reference_gram_schmidt):
        with pytest.raises(DegenerateMoments) as err:
            route(measure, size + 1)
        assert err.value.index == size
