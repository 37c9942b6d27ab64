"""Discrete measures, Christoffel transforms, and the Gram-Schmidt oracle.

The integer route of :mod:`krallhahn.measures` is compared with test-only
references from ``reference``: the ``Fraction`` value/dot route it replaced
(values, weighted dot products and the Gram table, all on ``Fraction``
values), Gram-Schmidt as the projection through polynomial products and on
integer value vectors, and the ``Fraction`` atom dicts the measure stored
before its integer parts (construction, translation, Christoffel
transforms, equality, and the integer scaling and proportionality helpers of
``reference``).  The orthogonality certificate is
compared with the Gram table it stands in for.  The projection and the
inner-product checks integrate with ``fraction_integrate``, the sum of mass *
p(point) over the atoms, so no reference depends on the route under test.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from krallhahn.casorati import krall_polynomial
from krallhahn.config import BUILTIN_CONFIGS, builtin_config, config_from_dict
from krallhahn.errors import DegenerateMoments
from krallhahn.measures import (
    DiscreteMeasure,
    christoffel,
    gram_schmidt,
    orthogonality_certificate,
    orthogonality_table,
)
from krallhahn.polynomials import Polynomial
from krallhahn.verify import build_run

from reference import (
    dict_christoffel,
    dict_measure,
    dict_proportionality_constant,
    dict_scale,
    dict_translate,
    fraction_dot,
    fraction_integrate,
    fraction_table,
    fraction_values,
    proportionality_constant,
    reference_gram_schmidt,
    scale_measure,
    value_gram_schmidt,
)

X = Polynomial.variable()
HALF = Fraction(1, 2)


def _integrals(measure, polys):
    """Each polynomial's integral, by :meth:`DiscreteMeasure.integrals`."""
    up_to = max(0, *(p.degree for p in polys))
    return [Fraction(*v) for v in measure.integrals(polys, up_to)]


def _moments(measure, up_to):
    """The power moments: the k-th power sum over D e^k."""
    d, e = measure.mass_denominator, measure.point_denominator
    return [Fraction(s, d * e**k) for k, s in enumerate(measure.power_sums(up_to))]


def test_zero_masses_dropped():
    mu = DiscreteMeasure({0: 1, 1: 0, 2: HALF})
    assert mu.support == [0, 2]
    assert mu.size == 2
    assert mu.mass(1) == 0


def test_integration():
    mu = DiscreteMeasure({0: 1, 1: 2, 3: -1})
    assert _integrals(mu, [X**2]) == [0 + 2 * 1 - 9]
    assert mu.inner_product(X, X + 1) == 2 * 1 * 2 - 1 * 3 * 4
    assert _moments(mu, 2) == [Fraction(2), Fraction(-1), Fraction(-7)]


def test_translate_and_scale():
    mu = DiscreteMeasure({0: 1, 2: 3})
    assert mu.translate(HALF).support == [HALF, Fraction(5, 2)]
    assert mu.translate(1).translate(-1) == mu
    assert mu.translate(HALF).translate(-HALF) == mu
    assert scale_measure(mu, 2) == DiscreteMeasure({0: 2, 2: 6})
    assert scale_measure(mu, 0).size == 0


@pytest.mark.parametrize("offset", [0, 3, -HALF, Fraction(7, 3)])
def test_translate_keeps_the_canonical_masses(offset):
    mu = DiscreteMeasure({Fraction(1, 4): Fraction(2, 9), 1: Fraction(-4, 3), 5: 6})
    moved = mu.translate(offset)
    assert moved.masses == mu.masses and moved.mass_denominator == mu.mass_denominator
    assert moved == DiscreteMeasure({pt + offset: m for pt, m in mu.atoms.items()})


def test_christoffel_kills_root_atoms():
    mu = DiscreteMeasure({0: 1, 1: 1, 2: 1})
    nu = christoffel(mu, X - 1)
    assert nu.support == [0, 2]
    assert nu.mass(0) == -1
    assert nu.mass(2) == 1


def test_proportionality():
    mu = DiscreteMeasure({0: 2, 1: 4})
    assert proportionality_constant(scale_measure(mu, Fraction(-3, 7)), mu) == Fraction(-3, 7)
    assert proportionality_constant(mu, DiscreteMeasure({0: 2})) is None
    assert proportionality_constant(mu, DiscreteMeasure({0: 2, 1: 5})) is None
    empty = DiscreteMeasure({})
    assert proportionality_constant(empty, empty) == 1
    assert proportionality_constant(mu, empty) is None
    assert proportionality_constant(mu, scale_measure(mu, -1)) == -1
    assert proportionality_constant(mu, scale_measure(mu, 2)) == Fraction(1, 2)


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
    template, a signed measure at rational points, and the inner measure of
    one config per family benchmark template."""
    cases = {}

    def add(name, cfg):
        run = build_run(cfg)
        qs = [krall_polynomial(run.ctx, n) for n in range(run.n_max + 1)]
        cases[name] = (run.inner_measure, qs, run.n_max)

    for name in BUILTIN_CONFIGS:
        add(name, builtin_config(name))
    add("F4=[1,2] N=17", config_from_dict(dict(FAMILY_TEMPLATE)))
    cases["signed"] = (SIGNED, SIGNED_POLYS, SIGNED.size - 1)
    for name, (F, N) in BENCH_FAMILY_TEMPLATES.items():
        add(name, config_from_dict({"a": "8/5", "b": "9/4", "N": N, "F": F,
                                    "path": "corollary"}))
    return cases


# the family benchmark's templates: (F, N), corollary path
BENCH_FAMILY_TEMPLATES = {
    "family F4=[1] N=16": ([[], [], [], [1]], 16),
    "family F3=[2] N=16": ([[], [], [2], []], 16),
    "family F4=[2] N=16": ([[], [], [], [2]], 16),
    "family F4=[1,2] N=17": ([[], [], [], [1, 2]], 17),
}
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
            reference = fraction_integrate(measure, polys[i] * polys[j])
            assert value == reference
            assert measure.inner_product(polys[i], polys[j]) == reference


@pytest.mark.parametrize("name", CASES)
def test_gram_schmidt_matches_product_projection(families, name):
    # one projection step per degree, on the route's own lower polynomials:
    # with g_0 = 1 this fixes every g_k by induction
    measure, _, n_max = families[name]
    basis = gram_schmidt(measure, n_max)
    assert len(basis) == n_max + 1 and basis[0] == Polynomial.one()
    for k in range(1, n_max + 1):
        projection = X**k
        for g in basis[:k]:
            ratio = fraction_integrate(measure, X**k * g) / fraction_integrate(measure, g * g)
            projection -= ratio * g
        assert basis[k] == projection


@pytest.mark.parametrize("name", ["single-root", "signed"])
def test_gram_schmidt_exhausted_support_matches_reference(families, name):
    measure = families[name][0]
    size = measure.size
    # degree == support size: the last polynomial has norm zero
    assert gram_schmidt(measure, size) == reference_gram_schmidt(measure, size)
    for route in (gram_schmidt, reference_gram_schmidt):
        with pytest.raises(DegenerateMoments) as err:
            route(measure, size + 1)
        assert err.value.index == size


# -- the integer route against the Fraction references -----------------------------


ALL_CASES = [*CASES, *BENCH_FAMILY_TEMPLATES]


def _assert_same_polynomials(got, expected):
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert g == e
        assert g.integer_parts == e.integer_parts


@pytest.mark.parametrize("name", ALL_CASES)
def test_table_matches_fraction_route(families, name):
    measure, polys, _ = families[name]
    assert orthogonality_table(measure, polys) == fraction_table(measure, polys)


@pytest.mark.parametrize("name", ALL_CASES)
def test_gram_schmidt_matches_fraction_route(families, name):
    measure, _, n_max = families[name]
    _assert_same_polynomials(
        gram_schmidt(measure, n_max), reference_gram_schmidt(measure, n_max)
    )


@pytest.mark.parametrize("name", ALL_CASES)
def test_integrals_and_values_match_fraction_route(families, name):
    measure, polys, _ = families[name]
    assert _moments(measure, 3) == [fraction_integrate(measure, X**k) for k in range(4)]
    some = [polys[0], polys[-1], X - HALF]
    assert _integrals(measure, some) == [fraction_integrate(measure, p) for p in some]
    u, v = fraction_values(measure, polys[-1]), fraction_values(measure, X - HALF)
    assert measure.inner_product(polys[-1], X - HALF) == fraction_dot(measure, u, v)


def test_integer_form():
    assert SIGNED.point_denominator == 6 and SIGNED.mass_denominator == 63
    assert [Fraction(p, 6) for p in SIGNED.points] == SIGNED.support
    assert [Fraction(m, 63) for m in SIGNED.masses] == [SIGNED.mass(pt) for pt in SIGNED.support]
    # a Hahn-derived support is integral
    measure = DiscreteMeasure({0: HALF, 1: Fraction(1, 3), 2: 1})
    assert measure.parts == ((0, 1, 2), 1, (3, 2, 6), 6)
    assert DiscreteMeasure({}).parts == ((), 1, (), 1)


@pytest.mark.parametrize(
    "entry",
    [
        lambda: DiscreteMeasure({0.1: 1}),
        lambda: DiscreteMeasure({0: 0.1}),
        lambda: SIGNED.translate(0.1),
        lambda: scale_measure(SIGNED, 0.1),
        lambda: SIGNED.mass(0.1),
    ],
    ids=["point", "mass", "translate", "scale", "mass lookup"],
)
def test_floats_are_rejected(entry):
    with pytest.raises(TypeError, match="0.1"):
        entry()


# -- the certificate against the table, Gram-Schmidt against its references ---------

# integer points with gaps at 3-4 and 7, points of step 1/2 (e = 2), and a hull of
# 13 lattice points over a support of 6: all with signed masses
GAPPED = DiscreteMeasure({0: 3, 1: Fraction(-1, 2), 2: 5, 5: 2, 6: Fraction(7, 3), 8: -4})
HALF_STEP = DiscreteMeasure({Fraction(i, 2): Fraction(2 * i + 3, 5 - i) for i in range(-3, 5)})
SPARSE = DiscreteMeasure({0: 1, 2: 3, 5: Fraction(-2, 3), 7: 4, 9: 1, 12: Fraction(5, 2)})
SCALES = (Fraction(3), Fraction(-2, 5), Fraction(7, 4))


def _scaled_basis(measure):
    """The monic orthogonal basis, each member times a nonmonic constant."""
    basis = gram_schmidt(measure, measure.size - 1)
    return [SCALES[j % 3] * g for j, g in enumerate(basis)]


def _tilted(polys):
    """q_3 + q_1 / 3 and q_top - 2 q_0: two degrees fail, the rest still hold."""
    tilted = list(polys)
    tilted[3] = tilted[3] + Fraction(1, 3) * tilted[1]
    tilted[-1] = tilted[-1] - 2 * tilted[0]
    return tilted


@pytest.fixture(scope="module")
def differential(families):
    cases = {name: families[name] for name in [*BUILTIN_CONFIGS, *BENCH_FAMILY_TEMPLATES]}
    for name, cfg in (
        ("N=50", {"a": "1/2", "b": "1/3", "N": 50, "F": [[], [], [], [1]]}),
        # its Casorati determinant vanishes at n = 6, and deg q_6 = 5
        ("omega-defect", {"a": "11/3", "b": "24/5", "N": 16, "F": [[], [], [1], []]}),
    ):
        run = build_run(config_from_dict({**cfg, "path": "corollary"}))
        qs = [krall_polynomial(run.ctx, n) for n in range(run.n_max + 1)]
        cases[name] = (run.inner_measure, qs, run.n_max)
    for name, measure in (("gapped", GAPPED), ("half-step", HALF_STEP), ("sparse", SPARSE)):
        cases[name] = (measure, _scaled_basis(measure), measure.size - 1)
    return cases


DIFFERENTIAL_CASES = [*BUILTIN_CONFIGS, *BENCH_FAMILY_TEMPLATES, "N=50", "omega-defect",
                      "gapped", "half-step", "sparse"]


def _table_verdict(measure, polys):
    table = orthogonality_table(measure, polys)
    norms = [table[(j, j)] for j in range(len(polys))]
    return norms, [(i, j) for (i, j), value in table.items() if i < j and value != 0]


def test_differential_measures_have_their_shapes(differential):
    assert GAPPED.point_denominator == 1 and 3 not in GAPPED.points
    assert HALF_STEP.point_denominator == 2
    assert min(HALF_STEP.masses) < 0 < max(HALF_STEP.masses)
    assert SPARSE.points[-1] - SPARSE.points[0] + 1 > 2 * SPARSE.size
    polys = differential["omega-defect"][1]
    assert [q.degree for q in polys] != list(range(len(polys)))
    assert polys[6].degree == 5


@pytest.fixture
def rounds(monkeypatch):
    """A list that gains one entry per partial-sum round the certificate takes."""
    import krallhahn.measures as measures

    calls = []
    accumulate = measures.accumulate
    monkeypatch.setattr(measures, "accumulate", lambda sums: calls.append(1) or accumulate(sums))
    return calls


@pytest.mark.parametrize("name", DIFFERENTIAL_CASES)
def test_certificate_matches_table(rounds, differential, name):
    """The norms and the failing pairs equal the table's, for the family and
    for a tilted one whose degrees 3 and top fail.  On the family every degree
    j takes its j rounds of sums, up to the first degree defect (deg q_6 = 5
    in the Omega-defect family), and none past it."""
    measure, polys, _ = differential[name]
    for family in (polys, _tilted(polys)):
        expected = _table_verdict(measure, family)
        rounds.clear()
        assert orthogonality_certificate(measure, family) == expected
        if family is polys:
            summed = 6 if name == "omega-defect" else len(polys)
            assert len(rounds) == summed * (summed - 1) // 2
    assert (1, 3) in expected[1]
    if name != "omega-defect":
        assert _table_verdict(measure, polys)[1] == []


def test_certificate_of_an_empty_measure_or_family():
    assert orthogonality_certificate(DiscreteMeasure({}), [Polynomial.one()]) == ([0], [])
    assert orthogonality_certificate(GAPPED, []) == ([], [])


def _outcome(route, measure, up_to):
    """The route's basis as integer parts, or the degree it found degenerate."""
    try:
        return [g.integer_parts for g in route(measure, up_to)]
    except DegenerateMoments as err:
        return err.index


def test_certificate_reports_a_zero_norm():
    """Masses -1/5, 1, 1 at 0, 1, 2 have m0 m2 = m1^2, so x - 5/3, orthogonal
    to 1, has norm 0: the summed route reports it, as the table does."""
    measure = DiscreteMeasure({0: Fraction(-1, 5), 1: 1, 2: 1})
    family = gram_schmidt(measure, 1)
    assert family[1] == X - Fraction(5, 3)
    for polys in (family, [3 * family[0], -2 * family[1]]):
        assert orthogonality_certificate(measure, polys) == _table_verdict(measure, polys)
        assert orthogonality_certificate(measure, polys)[0][1] == 0


@pytest.mark.parametrize("name", DIFFERENTIAL_CASES)
def test_gram_schmidt_matches_value_and_product_routes(differential, name):
    """Equal bases, or DegenerateMoments at the same degree: the Omega-defect
    measure's moments are degenerate at degree 5."""
    measure, _, n_max = differential[name]
    got = _outcome(gram_schmidt, measure, n_max)
    assert got == _outcome(value_gram_schmidt, measure, n_max)
    assert (got == 5) == (name == "omega-defect")
    if name != "N=50":  # the product route takes seconds there
        assert got == _outcome(reference_gram_schmidt, measure, n_max)


@pytest.mark.parametrize("name", ["single-root", "gapped", "half-step", "sparse"])
def test_gram_schmidt_exhausted_support_matches_both_references(differential, name):
    measure = differential[name][0]
    size = measure.size
    expected = value_gram_schmidt(measure, size)
    _assert_same_polynomials(gram_schmidt(measure, size), expected)
    _assert_same_polynomials(reference_gram_schmidt(measure, size), expected)
    for route in (gram_schmidt, value_gram_schmidt, reference_gram_schmidt):
        with pytest.raises(DegenerateMoments) as err:
            route(measure, size + 1)
        assert err.value.index == size


def test_moments_read_the_power_sums():
    assert HALF_STEP.power_sums(3)[0] == sum(HALF_STEP.masses)
    assert HALF_STEP.power_sums(-1) == []
    assert _moments(HALF_STEP, 4) == [fraction_integrate(HALF_STEP, X**k) for k in range(5)]
    polys = [Polynomial.zero(), X - Fraction(1, 3), (X**4 - 2 * X) / 7]
    integrals = [Fraction(*v) for v in HALF_STEP.integrals(polys, 4)]
    assert integrals == [fraction_integrate(HALF_STEP, p) for p in polys]


# -- property tests on random measures -------------------------------------------

_RATIONALS = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6))
_ATOMS = st.dictionaries(
    _RATIONALS,
    st.one_of(st.just(Fraction(0)), st.builds(Fraction, st.integers(-30, 30), st.integers(1, 20))),
    max_size=8,
)
_MEASURES = _ATOMS.map(DiscreteMeasure)
_POLYNOMIALS = st.lists(
    st.builds(Fraction, st.integers(-40, 40), st.integers(1, 9)), max_size=9
).map(Polynomial)
_PROPERTY = settings(max_examples=100)


@_PROPERTY
@given(_MEASURES, st.lists(_POLYNOMIALS, min_size=1, max_size=4))
def test_random_integrals_and_tables_match_fraction_route(measure, polys):
    assert _integrals(measure, polys) == [fraction_integrate(measure, p) for p in polys]
    assert measure.inner_product(polys[0], polys[-1]) == fraction_dot(
        measure, fraction_values(measure, polys[0]), fraction_values(measure, polys[-1])
    )
    assert orthogonality_table(measure, polys) == fraction_table(measure, polys)


@_PROPERTY
@given(_MEASURES, st.integers(0, 10))
def test_random_gram_schmidt_matches_fraction_route(measure, up_to):
    try:
        expected = reference_gram_schmidt(measure, up_to)
    except DegenerateMoments as err:
        with pytest.raises(DegenerateMoments) as got:
            gram_schmidt(measure, up_to)
        assert got.value.index == err.index
        return
    _assert_same_polynomials(gram_schmidt(measure, up_to), expected)


_NONZERO = st.builds(Fraction, st.integers(1, 30), st.integers(1, 9)).flatmap(
    lambda f: st.sampled_from((f, -f))
)


@settings(max_examples=50)
@given(
    st.integers(1, 3),
    st.integers(-6, 6),
    st.lists(st.tuples(st.integers(0, 11), _NONZERO), min_size=1, max_size=9,
             unique_by=lambda atom: atom[0]),
    st.integers(0, 3),
)
def test_random_certificates_match_table(e, start, atoms, tilt):
    """Lattice measures of step 1/e, dense or sparse, with a nonmonic basis,
    one member tilted by a lower one; a degenerate measure's basis stops at
    its first zero norm, which the certificate must report."""
    measure = DiscreteMeasure({Fraction(start + i, e): mass for i, mass in atoms})
    try:
        basis = gram_schmidt(measure, measure.size - 1)
    except DegenerateMoments as err:
        basis = gram_schmidt(measure, err.index)
    family = [SCALES[j % 3] * g for j, g in enumerate(basis)]
    if 0 < tilt < len(family):
        family[tilt] = family[tilt] + Fraction(1, 2) * family[tilt - 1]
    assert orthogonality_certificate(measure, family) == _table_verdict(measure, family)


# -- the integer parts against the Fraction atom dicts ----------------------------


def _assert_holds(measure, atoms, probe):
    """The measure carries exactly these atoms, in canonical parts."""
    assert measure.atoms == atoms
    assert list(measure.atoms) == measure.support == sorted(atoms)
    assert measure.size == len(atoms)
    assert measure.mass(probe) == atoms.get(probe, 0)
    points, e, masses, d = measure.parts
    assert e > 0 and d > 0 and 0 not in masses
    assert gcd(e, *points) == 1 and gcd(d, *masses) == 1
    rebuilt = DiscreteMeasure(atoms)
    assert measure == rebuilt and hash(measure) == hash(rebuilt)


_OFFSETS = st.one_of(st.integers(-7, 7), _RATIONALS)
_FACTORS = st.one_of(st.just(0), st.integers(-5, 5), _RATIONALS)
_DIFFERENTIAL = settings(max_examples=30)


@_DIFFERENTIAL
@given(_ATOMS, _OFFSETS, _FACTORS, _RATIONALS)
def test_random_translate_and_scale_match_dict_reference(atoms, offset, factor, probe):
    measure, reference = DiscreteMeasure(atoms), dict_measure(atoms)
    _assert_holds(measure, reference, probe)
    moved, scaled = measure.translate(offset), scale_measure(measure, factor)
    _assert_holds(moved, dict_translate(reference, offset), probe)
    _assert_holds(scaled, dict_scale(reference, factor), probe)
    _assert_holds(scale_measure(moved, factor),
                  dict_scale(dict_translate(reference, offset), factor), probe)


@_DIFFERENTIAL
@given(_ATOMS, st.lists(st.integers(0, 7), max_size=3), _POLYNOMIALS, _RATIONALS)
def test_random_christoffel_matches_dict_reference(atoms, killed, other, probe):
    # roots on atoms make the factor vanish there; `other` brings rational
    # coefficients and, when it is zero, the zero measure
    reference = dict_measure(atoms)
    support = sorted(reference)
    roots = [support[i % len(support)] for i in killed] if support else []
    for factor in (Polynomial.from_roots(roots), Polynomial.from_roots(roots) * other, other):
        _assert_holds(christoffel(DiscreteMeasure(atoms), factor),
                      dict_christoffel(reference, factor), probe)


@_DIFFERENTIAL
@given(_ATOMS, _ATOMS, _FACTORS, _OFFSETS)
def test_random_equality_and_proportionality_match_dict_reference(left, right, factor, offset):
    reference = dict_measure(left)
    pairs = [
        (left, right),
        (left, dict(reversed(list(left.items())))),
        (left, dict_scale(reference, factor)),
        (left, dict_translate(reference, offset)),
        # the same support with masses that are proportional only for one atom
        (left, {pt: m * (i + 1) for i, (pt, m) in enumerate(reference.items())}),
    ]
    for a, b in pairs:
        ref_a, ref_b = dict_measure(a), dict_measure(b)
        mu, nu = DiscreteMeasure(a), DiscreteMeasure(b)
        assert (mu == nu) == (ref_a == ref_b)
        if ref_a == ref_b:
            assert hash(mu) == hash(nu)
        expected = dict_proportionality_constant(ref_a, ref_b)
        assert proportionality_constant(mu, nu) == expected
