"""Casorati-determinant construction of bispectral Krall-Hahn families.

A construction context fixes Hahn parameters, one ladder kind per determinant
row, a polynomial per row (in the eigenvalue variable), and an optional
invariant prefactor.  From those this module builds, all exactly:

* the Casorati determinant in denominator-cleared form and its values,
* the new orthogonal polynomials (bordered determinants),
* the eigenvalue polynomial and the spectral polynomial,
* the higher-order difference operator the new family satisfies.

The polynomial determinants here go through the one exact routine
:func:`~krallhahn.matrices.poly_det`: the cleared Casorati determinant and its
minors (the mixing polynomials).  The scalar ones are integer fraction-free
determinants (:func:`~krallhahn.matrices.integer_det`) of the raw Casorati
rows (:func:`casorati_rows`: running products of the series ratios times the
row values, no clearing block, rebuilt at each point read), kept as integers
over one denominator per point.  Each q_n is the sum of the m + 1 maximal
minors of those rows against alternating Hahn polynomials, which is the
bordered determinant expanded along its border.  Every quantity the theory
claims is polynomial is produced by exact division, so a failed cancellation
surfaces as an error instead of an approximation.  The normaliser is a
product of known linear factors, kept as a leading constant and a root
multiset (:func:`normalizer_factors`).  :func:`mixing_polynomial` puts its m
terms over L, the lcm of the m shifted root multisets, so each term is
multiplied by the leftover linear factors and no gcd is taken; the sum makes
one exact division by L, and a remainder raises.  The cross-check of the
cleared determinant, :func:`casorati_rational`, takes integer determinants of
the same raw rows at points.  The Omega scan and the leading-coefficient gate
read the cleared route (:func:`casorati_value`), so they do not compare the
raw rows with themselves.  Symbols in theta come from base-theta digits
(:func:`theta_substitute`).

The stages that several checks read, the series ratios and the Hahn base
polynomials among them, are memoised per context in one bounded store owned by
this module.  Contexts are matched by equality, so equal contexts built by
separate calls share their results; only the few most recently used contexts
are kept, so memory stays flat however many configs one process verifies.
"""

from __future__ import annotations

from collections import Counter, OrderedDict
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import wraps
from math import comb, lcm

from .diffops import DifferenceOperator, operator_sum
from .errors import (
    NonExactDivision,
    NotThetaRepresentable,
    ParameterSingularity,
    ResonantParameters,
)
from .hahn import HahnParams, companion_eigencoefficients, companion_polynomial, hahn_polynomial
from .hahn import hahn_operator
from .ladder import (
    CLEARING_BLOCKS,
    falling_block,
    falling_roots,
    ladder_operator,
    rising_block,
    rising_roots,
    series_ratio,
    series_shift,
)
from .matrices import integer_det, poly_det
from .polynomials import Polynomial, antidifference, horner, lowest_terms
from .rationals import Rational, as_rational, format_rational, is_integer_at_most
from .sets import SetQuartet, default_pads, transform_quartet


@dataclass(frozen=True)
class ConstructionContext:
    """Validated input data for one determinantal construction."""

    params: HahnParams
    row_kinds: tuple[int, ...]
    row_polys: tuple[Polynomial, ...]
    prefactor: Polynomial
    quartet: SetQuartet | None = None
    pads: tuple[int, int, int] | None = None

    def __post_init__(self) -> None:
        # The stage store looks the context up on every stage call; hashing it
        # once spares re-hashing the parameters and every row polynomial.
        # The cached value is not a field, so equality ignores it.
        values = tuple(getattr(self, f.name) for f in fields(self))
        object.__setattr__(self, "_hash", hash(values))

    def __hash__(self) -> int:
        return self._hash

    @property
    def m(self) -> int:
        return len(self.row_kinds)

    @property
    def row_degrees(self) -> tuple[int, ...]:
        return tuple(p.degree for p in self.row_polys)

    @property
    def block_counts(self) -> tuple[int, int, int, int]:
        return tuple(self.row_kinds.count(k) for k in (1, 2, 3, 4))  # type: ignore[return-value]

    @property
    def spectral_roots(self) -> tuple[Fraction, ...]:
        out = []
        for kind, degree in zip(self.row_kinds, self.row_degrees):
            slope, intercept = companion_eigencoefficients(kind, self.params)
            out.append(slope * degree + intercept)
        return tuple(out)

    @property
    def orthogonality_range(self) -> int:
        """Largest degree with guaranteed nonzero norm: N + m3 + m4."""
        counts = self.block_counts
        return self.params.N + counts[2] + counts[3]


def context_from_degrees(
    params: HahnParams,
    degree_sets: tuple[tuple[int, ...], ...],
    row_polys: tuple[Polynomial, ...] | None = None,
    prefactor: Polynomial | None = None,
    quartet: SetQuartet | None = None,
    pads: tuple[int, int, int] | None = None,
) -> ConstructionContext:
    """Build and validate a context from four row-degree sets.

    ``row_polys`` defaults to the companion dual-Hahn polynomials of the
    listed degrees, which is the choice that makes the constructed family
    orthogonal.  Arbitrary polynomials of the same degrees are accepted.
    """
    if len(degree_sets) != 4:
        raise ValueError("expected four degree sets")
    kinds: list[int] = []
    degrees: list[int] = []
    for kind, dset in enumerate(degree_sets, start=1):
        previous = -1
        for u in dset:
            u = int(u)
            if u < 0:
                raise ValueError(f"row degree must be nonnegative, got {u}")
            if u <= previous:
                raise ValueError(f"degrees within a block must increase, got {dset}")
            previous = u
            kinds.append(kind)
            degrees.append(u)
    if row_polys is None:
        row_polys = tuple(
            companion_polynomial(kind, degree, params)
            for kind, degree in zip(kinds, degrees)
        )
    else:
        row_polys = tuple(row_polys)
        if len(row_polys) != len(kinds):
            raise ValueError(f"expected {len(kinds)} row polynomials, got {len(row_polys)}")
        for poly, degree in zip(row_polys, degrees):
            if poly.degree != degree:
                raise ValueError(
                    f"row polynomial degree {poly.degree} does not match listed degree {degree}"
                )
    if prefactor is None:
        prefactor = Polynomial.one()
    ctx = ConstructionContext(
        params=params,
        row_kinds=tuple(kinds),
        row_polys=row_polys,
        prefactor=prefactor,
        quartet=quartet,
        pads=pads,
    )
    roots = ctx.spectral_roots
    for i in range(len(roots)):
        for j in range(i + 1, len(roots)):
            if roots[i] == roots[j]:
                raise ResonantParameters(
                    f"rows {i} and {j} (kinds {kinds[i]},{kinds[j]}, degrees "
                    f"{degrees[i]},{degrees[j]}) share the spectral root "
                    f"{format_rational(roots[i])}"
                )
    if prefactor.degree > 0:
        shift = params.a + params.b - ctx.m - 1
        if reflect(prefactor, shift) != prefactor:
            raise ValueError("prefactor is not invariant under the construction reflection")
    return ctx


def context_from_quartet(
    params: HahnParams,
    quartet: SetQuartet,
    pads: tuple[int, int, int] | None = None,
    row_polys: tuple[Polynomial, ...] | None = None,
    prefactor: Polynomial | None = None,
) -> ConstructionContext:
    """Context for the direct construction driven by a set quartet.

    Validates the parameter bounds the orthogonality statement needs: two
    integrality exclusions on a, b and a + b, plus positive-integer
    exclusions when certain sets are nonempty.
    """
    if pads is None:
        pads = default_pads(quartet)
    if len(pads) != 3 or any(h < 1 for h in pads):
        raise ValueError(f"pads must be three integers >= 1, got {pads}")
    f1m, f2m, f3m, f4m = quartet.maxima
    checks = [
        ("a", params.a, f2m + f4m + pads[1]),
        ("b", params.b, f1m + f3m + pads[0] + pads[2] - 1),
        ("a+b", params.a + params.b, f1m + f2m + f3m + f4m + sum(pads)),
    ]
    for name, value, bound in checks:
        if is_integer_at_most(value, bound):
            raise ParameterSingularity(
                f"{name} = {format_rational(value)} is an integer <= {bound}"
            )
    if quartet.second or quartet.fourth:
        if params.a.denominator == 1 and params.a.numerator >= 1:
            raise ParameterSingularity(
                f"a = {format_rational(params.a)} is a positive integer but the "
                "second or fourth set is nonempty"
            )
    if quartet.first or quartet.third:
        if params.b.denominator == 1 and params.b.numerator >= 1:
            raise ParameterSingularity(
                f"b = {format_rational(params.b)} is a positive integer but the "
                "first or third set is nonempty"
            )
    degree_sets = transform_quartet(quartet, pads)
    return context_from_degrees(
        params, degree_sets, row_polys=row_polys, prefactor=prefactor,
        quartet=quartet, pads=pads,
    )


# -- reflection and eigenvalue-variable substitution --------------------------------


def reflect(poly: Polynomial, shift: Rational | int) -> Polynomial:
    """p(x) -> p(-(x + shift + 1)); an involution fixing theta when shift = a+b."""
    return poly.reflect_argument().shift_argument(as_rational(shift) + 1)


def theta_substitute(poly: Polynomial, ab_sum: Rational | int) -> Polynomial:
    """Rewrite a reflection-invariant polynomial as a polynomial in theta_x.

    theta_x = x(x + a + b + 1).  The base-theta digits come from repeated
    division by theta.  theta is invariant under x -> -(x + a + b + 1) and a
    linear digit is not, so a nonconstant digit means no such form: it raises.
    """
    theta = Polynomial((0, as_rational(ab_sum) + 1, 1))
    digits = []
    while not poly.is_zero:
        poly, digit = poly.divmod(theta)
        if digit.degree > 0:
            raise NotThetaRepresentable(
                "polynomial is not invariant under x -> -(x + a + b + 1)"
            )
        digits.append(digit.coefficient(0))
    return Polynomial(digits)


# -- the stage store --------------------------------------------------------------

# How many contexts keep their stage results.  A run reads one context, so a
# small bound keeps memory flat over any number of configs in one process.
_STORE_CONTEXTS = 4

# context -> {(stage, *args): result}, least recently used context first.
# Keyed by equality: equal contexts built by separate calls share one entry.
_store: OrderedDict[ConstructionContext, dict] = OrderedDict()


def _stage(fn):
    """Memoise ``fn(ctx, *args)`` in ``ctx``'s entry of the stage store."""

    @wraps(fn)
    def memoised(ctx: ConstructionContext, *args):
        results = _store.pop(ctx, {})
        _store[ctx] = results
        if len(_store) > _STORE_CONTEXTS:
            _store.popitem(last=False)
        key = (fn, *args)
        if key not in results:
            results[key] = fn(ctx, *args)
        return results[key]

    return memoised


# -- the cleared Casorati determinant ----------------------------------------------


def _cleared_entry(ctx: ConstructionContext, row: int, col: int) -> Polynomial:
    """Row `row`, column `col` (1-based col) of the denominator-cleared matrix."""
    p, m = ctx.params, ctx.m
    value = ctx.row_polys[row].compose(p.eigenvalue_poly(shift=-col))
    for which in CLEARING_BLOCKS[ctx.row_kinds[row]]:
        value = value * rising_block(which, m - col, -col, p) * falling_block(which, col - 1, -1, p)
    return value


@_stage
def cleared_matrix(ctx: ConstructionContext) -> tuple[tuple[Polynomial, ...], ...]:
    """The denominator-cleared Casorati matrix, as a tuple of row tuples."""
    m = ctx.m
    return tuple(
        tuple(_cleared_entry(ctx, row, col) for col in range(1, m + 1)) for row in range(m)
    )


@_stage
def casorati_cleared(ctx: ConstructionContext) -> Polynomial:
    """Determinant with all row denominators multiplied away."""
    return poly_det(cleared_matrix(ctx))


@_stage
def clearing_factor(ctx: ConstructionContext) -> Polynomial:
    """Product of the per-row denominators removed from the raw determinant."""
    acc = Polynomial.one()
    for kind in ctx.row_kinds:
        for which in CLEARING_BLOCKS[kind]:
            acc = acc * falling_block(which, ctx.m - 1, -1, ctx.params)
    return acc


def casorati_value(ctx: ConstructionContext, point: Rational | int) -> Fraction:
    """Exact value of the (uncleared) Casorati determinant at a point."""
    point = as_rational(point)
    denom = clearing_factor(ctx)(point)
    if denom == 0:
        raise ParameterSingularity(
            f"clearing factor vanishes at {format_rational(point)}"
        )
    return casorati_cleared(ctx)(point) / denom


@_stage
def series_ratios(ctx: ConstructionContext) -> tuple[tuple[Polynomial, Polynomial], ...]:
    """Each row's series ratio, as a reduced (numerator, denominator) pair."""
    return tuple(series_ratio(kind, ctx.params) for kind in ctx.row_kinds)


def casorati_rows(ctx: ConstructionContext, t: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """The raw Casorati rows at the integer t: m integer rows of m + 1 entries
    and one denominator D(t).

    Row r, column c is ratio_r(t - c) ... ratio_r(t - m + 1) * Y_r(theta_{t-c}),
    from the definition, with no clearing block.  Columns 1..m are the
    Casorati matrix at t; column 0 borders it for q_t.  Row r is returned as
    integers over its own denominator d_r, and D(t) is the product of the d_r,
    so a determinant of the integer rows over D(t) is the determinant of the
    rational rows.  With ratio_r = numer / denom on the points s_i = t - m + 1
    + i, entry c is the prefix product of numer(s_i) for i < m - c times the
    suffix product of denom(s_i) for i >= m - c, times Y_r(theta_{t-c}), and
    d_r holds every denom(s_i).  theta_x = x (x Q + P) / Q with a + b + 1 =
    P / Q, so Y_r(theta) is a homogeneous integer Horner sum over Q^deg Y_r.
    A ratio pole at one of t - m + 1, ..., t raises ParameterSingularity.
    """
    m = ctx.m
    shift = ctx.params.a + ctx.params.b + 1
    P, Q = shift.numerator, shift.denominator
    points = range(t - m + 1, t + 1)
    thetas = [(t - c) * ((t - c) * Q + P) for c in range(m + 1)]
    rows = []
    denominator = 1
    for (numer, denom), poly in zip(series_ratios(ctx), ctx.row_polys):
        (numer_nums, numer_den), (denom_nums, denom_den) = numer.integer_parts, denom.integer_parts
        tops = [horner(numer_nums, s) * denom_den for s in points]
        bottoms = [horner(denom_nums, s) * numer_den for s in points]
        if not all(bottoms):
            pole = points[bottoms.index(0)]
            raise ParameterSingularity(f"ladder ratio has a pole at degree {pole}")
        poly_nums, poly_den = poly.integer_parts
        prefix, suffix = [1], [1]
        for top, bottom in zip(tops, reversed(bottoms)):
            prefix.append(prefix[-1] * top)
            suffix.append(suffix[-1] * bottom)
        rows.append(tuple(
            prefix[m - c] * suffix[c] * horner(poly_nums, theta, Q)
            for c, theta in enumerate(thetas)
        ))
        denominator *= suffix[m] * poly_den * Q ** poly.degree
    return tuple(rows), denominator


def casorati_rational(ctx: ConstructionContext) -> dict[int, Fraction]:
    """Raw (uncleared) determinant values at t = 0, 1, ..., the cross-check route.

    Each value is the integer determinant of columns 1..m of
    :func:`casorati_rows` over its denominator D(t).  The rows use no clearing
    block, so the route is independent of the clearing algebra.  Points where
    the rows hit a ratio pole are skipped.

    With den_r the reduced denominator of row r's ratio, E = prod_r prod_{i=1}^{m-1}
    den_r(x - i) clears every row, and E * clearing_factor * R and
    E * casorati_cleared are polynomials of degree at most B, computed below.
    E is nonzero at every point kept, so agreement at the B + 1 points returned
    proves clearing_factor * R = casorati_cleared: a nonzero polynomial of
    degree B has at most B roots.
    """
    m = ctx.m
    raw_degree = denominator_degree = 0
    for (numer, denom), u in zip(series_ratios(ctx), ctx.row_degrees):
        dn, dd = numer.degree, denom.degree
        raw_degree += max((m - c) * dn + (c - 1) * dd for c in range(1, m + 1)) + 2 * u
        denominator_degree += (m - 1) * dd
    bound = max(
        clearing_factor(ctx).degree + raw_degree,
        denominator_degree + casorati_cleared(ctx).degree,
    )
    values: dict[int, Fraction] = {}
    t = 0
    while len(values) <= bound:
        try:
            rows, denominator = casorati_rows(ctx, t)
        except ParameterSingularity:
            pass  # a ratio pole at t - i with i < m: E(t) = 0 or column 0 is undefined
        else:
            values[t] = Fraction(integer_det([row[1:] for row in rows]), denominator)
        t += 1
    return values


# -- the constructed orthogonal polynomials ------------------------------------------


@_stage
def base_polynomial(ctx: ConstructionContext, n: int) -> Polynomial:
    """The degree-n Hahn polynomial of the context's parameters, built once."""
    return hahn_polynomial(n, ctx.params)


def krall_polynomial(ctx: ConstructionContext, n: int) -> Polynomial:
    """Degree-n member of the constructed family (bordered determinant).

    The m raw Casorati rows at n, bordered below by (h_n, -h_{n-1}, ...,
    (-1)^m h_{n-m}) with h_k = 0 for k < 0.  Expanding along the border, the
    cofactor signs (-1)^(m+k) cancel the border's alternation up to (-1)^m, so
    (-1)^m times the determinant is sum_k h_{n-k} * minor_k, where minor_k
    drops column k and minor_0 is the Casorati determinant at n.  Each minor_k
    is an integer determinant of the rows of :func:`casorati_rows` over their
    denominator D(n), and the h_{n-k} are put over the lcm of their
    denominators, so q_n is one integer sum over one denominator.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    rows, denominator = casorati_rows(ctx, n)
    parts = [base_polynomial(ctx, n - k).integer_parts for k in range(min(ctx.m, n) + 1)]
    common = lcm(*(den for _, den in parts))
    acc = [0] * (n + 1)
    for k, (nums, den) in enumerate(parts):
        minor = integer_det([row[:k] + row[k + 1 :] for row in rows])
        if minor:
            scale = minor * (common // den)
            for i, c in enumerate(nums):
                acc[i] += scale * c
    if denominator < 0:
        acc, denominator = [-c for c in acc], -denominator
    return Polynomial.from_integer_parts(acc, common * denominator)


# -- normalisers and the spectral data ------------------------------------------------


@_stage
def normalizer_factors(ctx: ConstructionContext) -> tuple[Fraction, tuple[Fraction, ...]]:
    """The normaliser as (leading constant, roots with multiplicity).

    It is a Pochhammer-product normaliser times the triangular product of
    shifted eigenvalue steps (half-integer shifts), so every factor is linear.
    """
    p, m = ctx.params, ctx.m
    lead = Fraction(-1 if (m * (m - 1) // 2) % 2 else 1)
    roots: list[Fraction] = []
    for which in (1, 2):
        users = sum(which in CLEARING_BLOCKS[kind] for kind in ctx.row_kinds)
        for i in range(1, users):
            roots += rising_roots(which, users - i, users - m - i, p)
            roots += falling_roots(which, users - i, -1, p)
            if (users - i) % 2:
                lead = -lead
    sigma = series_shift(p)
    slope = sigma.coefficient(1)
    root = -sigma.coefficient(0) / slope
    for outer in range(1, m):
        for inner in range(1, outer + 1):
            roots.append(root - (Fraction(inner + outer + 1, 2) - m))
            lead *= slope
    return lead, tuple(roots)


@_stage
def normalizer(ctx: ConstructionContext) -> Polynomial:
    """The divisor of the cleared determinant, built from :func:`normalizer_factors`."""
    lead, roots = normalizer_factors(ctx)
    return Polynomial.from_roots(roots) * lead


@_stage
def core_determinant(ctx: ConstructionContext) -> Polynomial:
    """Cleared determinant divided by the normaliser; polynomial by the theory."""
    return casorati_cleared(ctx).divide_exact(normalizer(ctx))


def core_degree(ctx: ConstructionContext) -> int:
    u_sum = sum(ctx.row_degrees)
    pairs = sum(comb(c, 2) for c in ctx.block_counts)
    return 2 * u_sum - 2 * pairs


def core_leading_coefficient(ctx: ConstructionContext) -> Fraction:
    """Closed form for the leading coefficient of the core determinant."""
    p = ctx.params
    m1, m2, m3, m4 = ctx.block_counts
    sign_exp = sum(comb(c, 2) for c in ctx.block_counts) + m1 * m2 + m2 * m3 + m3 * m4
    acc = Fraction(-1 if sign_exp % 2 else 1)
    per_kind = {k: [] for k in (1, 2, 3, 4)}
    for kind, degree in zip(ctx.row_kinds, ctx.row_degrees):
        per_kind[kind].append(degree)
    for degrees in per_kind.values():
        for i in range(len(degrees)):
            for j in range(i + 1, len(degrees)):
                acc *= degrees[j] - degrees[i]
    for poly in ctx.row_polys:
        acc *= poly.leading_coefficient
    for v in per_kind[2]:
        for w in per_kind[3]:
            acc *= p.N + p.a + 1 - v + w
    for u in per_kind[1]:
        for z in per_kind[4]:
            acc *= p.N + p.b + 1 - u + z
    return acc


def spectral_increment(ctx: ConstructionContext) -> Polynomial:
    """S(x) * Omega(x): the exact increment of the eigenvalue polynomial."""
    sigma = series_shift(ctx.params).shift_argument(Fraction(-(ctx.m - 1), 2))
    return sigma * ctx.prefactor * core_determinant(ctx)


@_stage
def eigenvalue_polynomial(ctx: ConstructionContext) -> Polynomial:
    """lambda with lambda(x) - lambda(x-1) = increment(x), pinned by lambda(-1) = 0."""
    return antidifference(spectral_increment(ctx))


# -- the mixing polynomials ------------------------------------------------------------


def _mixing_prefactor(ctx: ConstructionContext, row: int, j: int) -> Polynomial:
    """Clearing factor for the j-th term of one mixing polynomial."""
    p, m = ctx.params, ctx.m
    acc = Polynomial.one()
    for which in CLEARING_BLOCKS[ctx.row_kinds[row]]:
        acc = acc * rising_block(which, m - j, 0, p) * falling_block(which, j - 1, j - 1, p)
    return acc


@_stage
def _mixing_factors(ctx: ConstructionContext) -> tuple[tuple[Polynomial, ...], Polynomial]:
    """The row-independent parts of every mixing polynomial: for j = 1..m,
    sigma(x + half + j) * prefactor(x + j) * L / N_j, and L itself (see
    :func:`mixing_polynomial`)."""
    p, m = ctx.params, ctx.m
    sigma = series_shift(p)
    half = Fraction(-(m - 1), 2)
    _, roots = normalizer_factors(ctx)
    shifted = [Counter(r - j for r in roots) for j in range(1, m + 1)]
    common = Counter()
    for multiset in shifted:
        common |= multiset
    factors = tuple(
        sigma.shift_argument(half + j)
        * ctx.prefactor.shift_argument(j)
        * Polynomial.from_roots((common - shifted[j - 1]).elements())
        for j in range(1, m + 1)
    )
    return factors, Polynomial.from_roots(common.elements())


@_stage
def mixing_polynomial(ctx: ConstructionContext, row: int) -> Polynomial:
    """The row's mixing polynomial (skew-invariant, divisible by the shifted step).

    Assembled from the minors of the cached cleared matrix, each evaluated at
    x + j by shifting the minor once (det A(x + j) = (det A)(x + j)).  Term j
    is +-numer_j / normalizer(x + j), and normalizer(x + j) = lead * N_j with
    N_j the monic product over the normaliser's roots shifted by -j.  With L
    the lcm of N_1..N_m (the union of their root multisets), each L / N_j is
    the product of the leftover linear factors, so the sum is
    (sum_j +-numer_j * L / N_j) / (lead * L) and no gcd is taken.  The
    factors shared by every row come from :func:`_mixing_factors`, once per
    context.  The sum must collapse to a polynomial, which is one of the
    structural hypotheses of the construction: the division by L must be
    exact, and a remainder raises NonExactDivision naming the degree of the
    reduced denominator.
    """
    m = ctx.m
    lead, _ = normalizer_factors(ctx)
    factors, denominator = _mixing_factors(ctx)
    total = Polynomial.zero()
    rows_kept = [entries for r, entries in enumerate(cleared_matrix(ctx)) if r != row]
    for j in range(1, m + 1):
        minor = poly_det([entries[: j - 1] + entries[j:] for entries in rows_kept])
        term = factors[j - 1] * _mixing_prefactor(ctx, row, j) * minor.shift_argument(j)
        total = total - term if (row + 1 + j) % 2 else total + term
    quotient, remainder = total.divmod(denominator)
    if not remainder.is_zero:
        _, reduced = lowest_terms(total, denominator)
        raise NonExactDivision(
            f"denominator of degree {reduced.degree} does not cancel", remainder=reduced
        )
    return quotient / lead


def mixing_symbol(ctx: ConstructionContext, row: int) -> Polynomial:
    """Mixing polynomial divided by the shifted step, written in theta."""
    sigma_next = series_shift(ctx.params).shift_argument(1)
    quotient = mixing_polynomial(ctx, row).divide_exact(sigma_next)
    return theta_substitute(quotient, ctx.params.a + ctx.params.b)


# -- the spectral polynomial and the operator -------------------------------------------


@_stage
def spectral_polynomial(ctx: ConstructionContext) -> Polynomial:
    """P with P(theta_x) = 2 lambda(x) + sum over rows of Y(theta_x) M(x)."""
    p = ctx.params
    theta = p.eigenvalue_poly()
    acc = 2 * eigenvalue_polynomial(ctx)
    for row in range(ctx.m):
        acc = acc + ctx.row_polys[row].compose(theta) * mixing_polynomial(ctx, row)
    return theta_substitute(acc, p.a + p.b)


@_stage
def krall_operator(ctx: ConstructionContext) -> DifferenceOperator:
    """The higher-order difference operator with the constructed family as
    eigenfunctions (eigenvalues given by the eigenvalue polynomial).

    It is P(D) / 2 + sum_r M_r(D) o L_r o Y_r(D), with D the Hahn operator, P
    the spectral polynomial, and for row r the mixing symbol M_r, the ladder
    operator L_r of its kind and the row polynomial Y_r.  It is assembled on
    integer value tables by :func:`~krallhahn.diffops.operator_sum`: each
    coefficient is computed at x = 0..K-1 and interpolated once.  D's
    coefficients have degree 2 and L_r's degree 1, and a product adds the
    coefficient degrees, so every coefficient has degree at most
    K - 1 = max(2 deg P, max_r 2(deg M_r + deg Y_r) + 1), and K values fix it.
    """
    p = ctx.params
    rows = [
        (mixing_symbol(ctx, row), ladder_operator(kind, p), poly)
        for row, (kind, poly) in enumerate(zip(ctx.row_kinds, ctx.row_polys))
    ]
    return operator_sum(hahn_operator(p), spectral_polynomial(ctx) * Fraction(1, 2), rows)


def operator_halfwidth(ctx: ConstructionContext) -> int:
    """Expected half-order of the constructed operator."""
    return core_degree(ctx) // 2 + 1
