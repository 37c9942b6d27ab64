"""Casorati-determinant construction of bispectral Krall-Hahn families.

A construction context (:mod:`krallhahn.context`) fixes Hahn parameters, one
ladder kind per determinant row, a polynomial per row (in the eigenvalue
variable), and an optional invariant prefactor.  From those this module
builds, all exactly:

* the Casorati determinant in denominator-cleared form and its values,
* the new orthogonal polynomials (bordered determinants),
* the eigenvalue polynomial and the spectral polynomial,
* the higher-order difference operator the new family satisfies.

Entry (r, c) of the cleared Casorati matrix is Y_r(theta) at x - c times the
kind's clearing blocks for column c, whose roots
(:func:`~krallhahn.ladder.block_column_roots`) also make up the clearing
factor and the mixing weights.  Its determinant and cofactors (the mixing
minors) come from integer point values
(:class:`~krallhahn.matrices.PointAdjugate`) read off that structure, with
the blocks that every row kind shares factored out of the lane passes
(:func:`_cleared_adjugate`).  Row r is one sequence read at x - 1, ..., x -
m, so its entries share one degree, and the degree bounds are sums of those
row degrees, not :func:`core_degree`, which the degree check compares.  No
run expands the matrix as polynomials (:func:`cleared_matrix`).

The raw Casorati rows (:meth:`_RawPoints.lanes`: running products of the
series ratios times the row values, no clearing block, as integers over one
denominator per point) are built for a range of t at once, a lane per t, and
one :func:`~krallhahn.matrices.lane_bareiss` pass (det A and adj A b on every
lane, singular or not) puts all m + 1 maximal minors at each t into a table
per context.  Each q_n is the sum of those minors against
alternating Hahn polynomials, the bordered determinant expanded along its
border; minor_0 is the raw determinant that :func:`casorati_rational`, the
cross-check of the cleared route, reads.  At m <= 4 the two routes take
their determinants by different algorithms: the cleared one by Laplace
expansion (:func:`~krallhahn.matrices.lane_laplace`), the raw one by
elimination.  The Omega scan and the
leading-coefficient gate read the cleared route (:func:`casorati_parts`, two
integers by Horner), so they do not compare the raw rows with themselves.

Every quantity the theory claims is polynomial comes from an exact division
or a checked identity, so a failed cancellation surfaces as an error instead
of an approximation.  The normaliser is a product of known linear factors: a
leading constant and integer root numerators over one denominator Q per
context (:func:`normalizer_factors`), never expanded.  Every polynomial
quotient is taken by dividing out such known roots
(:func:`~krallhahn.polynomials.divide_out_roots`): the core determinant is
the cleared one with the normaliser's roots divided out, and each mixing
symbol the mixing polynomial with the root of sigma(x + 1); a root that does
not divide raises NonExactDivision.  :func:`mixing_polynomial` puts its m
terms over L', the lcm of the shifted root multisets less each term's known
numerator roots, so no gcd is taken.  Nothing is expanded: every root
multiset, from the terms' roots to the weights, L' and L'', stays a dict root
-> multiplicity, the weights and L' are evaluated from it with one (x Q - r)^k
pass per distinct root, taken once for all row kinds where every kind holds
the root, the numerator is summed from cofactor values at x + j,
and the small quotient is interpolated from a few points.  Every
cofactor vanishes at a root of the normaliser to an order read off the column
root lists (:func:`_cofactor_orders`), so most of L' cancels in every term;
what is left, L'', fixes how many points K'' = K - deg L' + deg L'' the check
quotient * L' = numerator needs.

The stages that several checks read, the series ratios and the Hahn family
among them, are memoised per context in one bounded store owned by this
module; the family (:class:`~krallhahn.hahn.HahnFamily`) keeps each h_n it
builds, so one context builds each base polynomial once.  Contexts are matched
by equality, so equal contexts built by separate calls share their results;
only the few most recently used contexts are kept, so memory stays flat
however many configs one process verifies.
"""

from __future__ import annotations

from collections import Counter, OrderedDict
from fractions import Fraction
from functools import wraps
from itertools import islice, repeat
from math import comb, gcd, lcm, prod
from operator import add, mul

from .context import ConstructionContext
from .diffops import DifferenceOperator, operator_sum
from .errors import NonExactDivision, ParameterSingularity
from .hahn import HahnFamily, hahn_operator, theta_substitute
from .ladder import (
    CLEARING_BLOCKS,
    block_column_roots,
    falling_roots,
    ladder_operator,
    rising_roots,
    series_ratio,
    series_shift,
)
from .matrices import LANES, PointAdjugate, lane_bareiss
from .polynomials import (
    Polynomial,
    antidifference,
    divide_out_roots,
    horner,
    interpolate,
    quotient_parts,
)
from .rationals import Rational, clear_denominators


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


@_stage
def _row_theta(ctx: ConstructionContext, row: int) -> Polynomial:
    """Y_row(theta_x), once per context."""
    return ctx.row_polys[row].compose(ctx.params.eigenvalue_poly())


@_stage
def _block_roots(ctx: ConstructionContext, which: int) -> list[list[int]]:
    """:func:`~krallhahn.ladder.block_column_roots` over the normaliser's
    denominator Q (:func:`normalizer_factors`), once per context and block."""
    _, _, q = normalizer_factors(ctx)
    return block_column_roots(which, ctx.m, ctx.params, q)


def _column_roots(ctx: ConstructionContext, blocks) -> list[list[int]]:
    """Per column c = 1..m, the roots over Q of the given clearing blocks'
    factors.  Read at x, a row kind's clear the mixing term j = c; read at
    x - c (each root plus c Q), they are column c's factor in the cleared
    matrix, rising(m - c, -c) times falling(c - 1, -1) per block, and column
    m's, falling(m - 1, -1), is the row's share of the clearing factor."""
    columns: list[list[int]] = [[] for _ in range(ctx.m)]
    for which in blocks:
        for roots, block in zip(columns, _block_roots(ctx, which)):
            roots += block
    return columns


@_stage
def cleared_matrix(ctx: ConstructionContext) -> tuple[tuple[Polynomial, ...], ...]:
    """The denominator-cleared Casorati matrix, as a tuple of row tuples: the
    polynomial form of what :func:`_cleared_adjugate` evaluates, which no run
    reads.  Entry (r, c) is Y_r(theta) at x - c times column c's factor of
    row r's kind: its :func:`_column_roots` read at x - c, over the one
    denominator Q of :func:`normalizer_factors`, of sign (-1)^((c - 1)
    |blocks|), each kind's factors expanded once per call."""
    _, _, q = normalizer_factors(ctx)
    factors = {}
    for kind in dict.fromkeys(ctx.row_kinds):
        blocks = CLEARING_BLOCKS[kind]
        factors[kind] = [
            Polynomial.from_integer_roots([r + c * q for r in roots], q) * (-1) ** ((c - 1) * len(blocks))
            for c, roots in enumerate(_column_roots(ctx, blocks), 1)
        ]
    return tuple(
        tuple(_row_theta(ctx, row).shift_argument(-c) * f for c, f in enumerate(factors[kind], 1))
        for row, kind in enumerate(ctx.row_kinds)
    )


def _primitive_values(roots: dict[int, int], divisor: int, points: list[int]) -> list[int]:
    """prod_p ((s Q - p) / gcd(Q, p))^k over the roots p of multiplicity k, at
    each s Q in points, with divisor = prod_p gcd(Q, p)^k: the values of a
    cleared column factor's primitive part."""
    return [v // divisor for v in _linear_product([1] * len(points), roots, points)]


@_stage
def _cleared_adjugate(ctx: ConstructionContext) -> PointAdjugate:
    """The cleared matrix's determinant and cofactors from integer point
    values, the table of ``polynomial_adjugate(cleared_matrix(ctx))`` point
    for point, with its integer rows read off the matrix's structure and no
    entry expanded.

    Entry (r, c) at x is Y_r(theta_s) times row r's column-c factor, both read
    at s = x - c: :func:`_row_theta` and the kind's column-c roots p over Q
    (:func:`~krallhahn.ladder.block_column_roots`), each a factor (s Q - p) /
    Q, with the sign of :func:`cleared_matrix`.  G_c, the product of the
    column-c blocks that every kind present uses, divides every row's factor
    and is taken out of the lane passes: with g_c = prod over G_c's roots of
    (s Q - p) / gcd(Q, p), its primitive part, diag(d) A = B diag(g), where
    B_rc = w_rc y_r(s) h_rc(s), y_r is the primitive part of Y_r o theta,
    h_rc the product of (s Q - p) / gcd(Q, p) over the row's other column-c
    roots, and w_rc an integer.  By Gauss's lemma the content of a product is
    the product of the contents, so the row scales d_r and the w_rc are read
    off the content of Y_r o theta and the factor's, prod_p gcd(Q, p) / Q.
    Each y_r is evaluated once per s and kept, for all m columns, and each g_c
    and h_rc once per column, kind and point.  Every entry of row r has degree
    deg(Y_r o theta) + (m - 1) |blocks|, the row's one degree."""
    m, (_, _, q) = ctx.m, normalizer_factors(ctx)
    kinds = dict.fromkeys(ctx.row_kinds)

    def column_parts(blocks):
        """Per column, the blocks' roots as a dict root -> multiplicity, and
        prod_p gcd(Q, p) over them."""
        return [
            (roots, prod(gcd(q, r) ** k for r, k in roots.items()))
            for roots in map(Counter, _column_roots(ctx, blocks))
        ]

    shared = set.intersection(*(set(CLEARING_BLOCKS[kind]) for kind in kinds)) if m else set()
    common = column_parts(shared)
    own = {kind: column_parts(set(CLEARING_BLOCKS[kind]) - shared) for kind in kinds}
    ys, dens, weights, degrees = [], [], [], []
    for row, kind in enumerate(ctx.row_kinds):
        theta, blocks = _row_theta(ctx, row), len(CLEARING_BLOCKS[kind])
        nums, den = theta.integer_parts
        unit = gcd(*nums)
        ys.append([v // unit for v in nums])
        # entry (row, c) has content tops[c - 1] / bottom, up to sign
        bottom = den * q ** ((m - 1) * blocks)
        tops = [unit * g * h for (_, g), (_, h) in zip(common, own[kind])]
        dens.append(lcm(*(bottom // gcd(top, bottom) for top in tops)))
        weights.append([
            (-top if (c - 1) * blocks % 2 else top) * dens[-1] // bottom for c, top in enumerate(tops, 1)
        ])
        degrees.append(theta.degree + (m - 1) * blocks)

    values: list[list[int]] = [[] for _ in ys]  # values[row][i] is y_row at s = i - m

    def evaluate(block: range) -> tuple[list, list]:
        for nums, kept in zip(ys, values):
            kept += (horner(nums, s) for s in range(len(kept) - m, block.stop - 1))
        rows: list[list[list[int]]] = [[] for _ in range(m)]
        columns = []
        for c in range(1, m + 1):
            points = [(x - c) * q for x in block]
            factors = {kind: _primitive_values(*own[kind][c - 1], points) for kind in kinds}
            for row, kind in enumerate(ctx.row_kinds):
                w, ys_at = weights[row][c - 1], values[row][block.start + m - c : block.stop + m - c]
                rows[row].append([w * y * h for y, h in zip(ys_at, factors[kind])])
            if shared:
                columns.append(_primitive_values(*common[c - 1], points))
        return rows, columns

    return PointAdjugate(dens, degrees, evaluate)


@_stage
def casorati_cleared(ctx: ConstructionContext) -> Polynomial:
    """Determinant with all row denominators multiplied away."""
    return _cleared_adjugate(ctx).det()


@_stage
def clearing_factor(ctx: ConstructionContext) -> Polynomial:
    """Product of the per-row denominators removed from the raw determinant:
    each row's column-m factor, falling(m - 1, -1) per block, expanded from
    all their roots at once, of sign (-1)^((m - 1) |blocks|) per row."""
    m, (_, _, q) = ctx.m, normalizer_factors(ctx)
    roots, sign = [], 1
    for kind in ctx.row_kinds:
        blocks = CLEARING_BLOCKS[kind]
        roots += [r + m * q for r in _column_roots(ctx, blocks)[-1]]
        sign *= -1 if (m - 1) * len(blocks) % 2 else 1
    return Polynomial.from_integer_roots(roots, q) * sign


def casorati_parts(ctx: ConstructionContext, point: Rational | int) -> tuple[int, int]:
    """The (uncleared) Casorati determinant at a point as two integers (top,
    bottom), not reduced, by integer Horner on the cleared determinant and the
    clearing factor (:func:`~krallhahn.polynomials.quotient_parts`): enough to
    test for zero or to cross-multiply.  Where the clearing factor vanishes it
    raises ParameterSingularity."""
    top, bottom = quotient_parts(casorati_cleared(ctx), clearing_factor(ctx), point)
    if not bottom:
        raise ParameterSingularity(f"clearing factor vanishes at {point}")
    return top, bottom


@_stage
def series_ratios(ctx: ConstructionContext) -> tuple[tuple[Polynomial, Polynomial], ...]:
    """Each row's series ratio, as a reduced (numerator, denominator) pair,
    reduced once per row kind."""
    ratios = {kind: series_ratio(kind, ctx.params) for kind in dict.fromkeys(ctx.row_kinds)}
    return tuple(ratios[kind] for kind in ctx.row_kinds)


class _RawPoints:
    """The ladder's integer values for one context, each computed once and
    kept: the :meth:`point` values at s = -m, -m + 1, ... (:meth:`grow`),
    which the table and :func:`~krallhahn.verify.check_foeq` read, and the
    table t -> (minors, D(t)), t >= 0, None at a ratio pole, which
    :func:`casorati_rational` and :func:`krall_polynomial` read: minors[k] is
    the integer maximal minor of the raw rows at t (:meth:`lanes`) without
    column k.
    It grows (:meth:`extend`) to what its reader asks for and, below the
    Omega scan's reach, t <= N + m3 + m4 + 1, by at least a block of
    ``LANES``, so that the pass :func:`casorati_rational` makes also covers
    the q_n degrees there; past the reach it grows exactly to the degree
    asked for.  ``dens[r]`` is Y_r's denominator times Q^deg Y_r,
    a + b + 1 = P / Q.
    """

    def __init__(self, ctx: ConstructionContext) -> None:
        shift = ctx.params.theta_shift
        self.m, self.P, self.Q = ctx.m, shift.numerator, shift.denominator
        self.parts = []
        for (numer, denom), poly in zip(series_ratios(ctx), ctx.row_polys):
            (tn, td), (bn, bd) = numer.integer_parts, denom.integer_parts
            self.parts.append(([c * bd for c in tn], [c * td for c in bn], poly.integer_parts[0]))
        self.dens = [y.integer_parts[1] * self.Q**y.degree for y in ctx.row_polys]
        self.reach = ctx.orthogonality_range + 2
        self.values: list[tuple[int, ...]] = []  # values[i] is at s = i - m
        self.table: list[tuple[tuple[int, ...], int] | None] = []

    def point(self, s: int) -> tuple[int, ...]:
        """At s, over the m rows in turn: the ratios' numerators, their
        denominators (each over one denominator), and Y_r(theta_s) Q^deg Y_r
        with theta_s = s (s Q + P) / Q."""
        theta = s * (s * self.Q + self.P)
        return (
            *(horner(tops, s) for tops, _, _ in self.parts),
            *(horner(bottoms, s) for _, bottoms, _ in self.parts),
            *(horner(ys, theta, self.Q) for _, _, ys in self.parts),
        )

    def grow(self, stop: int) -> list[tuple[int, ...]]:
        """The point values kept, grown to s < stop; entry i is at s = i - m."""
        self.values += map(self.point, range(len(self.values) - self.m, stop))
        return self.values

    def lanes(self, ts: range) -> tuple[list[list[list[int]]], list[int]]:
        """The raw Casorati rows at every t >= 0 of ts at once: m integer rows
        of m + 1 entries and one denominator D(t), entry c of row r a list over
        ts, and so is D(t), 0 at a ratio pole.

        Row r, column c is ratio_r(t - c) ... ratio_r(t - m + 1) *
        Y_r(theta_{t-c}), from the definition, with no clearing block.
        Columns 1..m are the Casorati matrix at t; column 0 borders it for
        q_t.  Row r is taken as integers over its own denominator d_r, and
        D(t) is the product of the d_r, so a determinant of the integer rows
        over D(t) is the determinant of the rational rows.  With ratio_r =
        numer / denom on the points s_i = t - m + 1 + i, entry c is the prefix
        product of numer(s_i) for i < m - c times the suffix product of
        denom(s_i) for i >= m - c, times Y_r(theta_{t-c}), and d_r holds every
        denom(s_i).
        """
        m, count = self.m, len(ts)
        values = self.grow(ts.stop)[ts.start : ts.stop + m]  # values[l + k] at s = ts[l] - m + k
        rows = []
        denominator = [1] * count
        for r, den in enumerate(self.dens):
            tops, bottoms, ys = (
                [v[r] for v in values], [v[m + r] for v in values], [v[2 * m + r] for v in values]
            )
            # prefix[i] = numer(t - m + 1) ... numer(t - m + i),
            # suffix[c] = denom(t - c + 1) ... denom(t)
            prefix, suffix = [[1] * count], [[1] * count]
            for i in range(1, m + 1):
                prefix.append(list(map(mul, prefix[-1], tops[i : i + count])))
                suffix.append(list(map(mul, suffix[-1], bottoms[m - i + 1 : m - i + 1 + count])))
            rows.append([
                [a * b * y for a, b, y in zip(prefix[m - c], suffix[c], ys[m - c : m - c + count])]
                for c in range(m + 1)
            ])
            denominator = [d * s * den for d, s in zip(denominator, suffix[m])]
        return rows, denominator

    def pole(self, ss: range) -> None:
        """Raise ParameterSingularity at the first zero ratio denominator at
        s >= -m in ss, row by row, from the point values kept."""
        m = self.m
        values = self.grow(ss.stop)[ss.start + m : ss.stop + m]
        s = next((s for r in range(m) for s, v in zip(ss, values) if not v[m + r]), None)
        if s is not None:
            raise ParameterSingularity(f"ladder ratio has a pole at degree {s}")

    def extend(self, stop: int) -> None:
        """Grow the table to t < stop, and to at least
        t < min(reach, len + ``LANES``), one
        :func:`~krallhahn.matrices.lane_bareiss` pass per block of ``LANES``.
        On [A | b], with A columns 1..m and b column 0, minor_0 = det A and
        minor_k = (-1)^(k-1) (adj A b)_(k-1) by Cramer's identity, which holds
        on every lane, A singular or not."""
        stop = max(stop, min(self.reach, len(self.table) + LANES))
        for lo in range(len(self.table), stop, LANES):
            rows, denominator = self.lanes(range(lo, min(lo + LANES, stop)))
            live = [i for i, d in enumerate(denominator) if d]
            if len(live) < len(denominator):
                rows = [[[col[i] for i in live] for col in row] for row in rows]
            det, x = lane_bareiss([[*row[1:], row[0]] for row in rows], 1, len(live))
            minors = zip(det, *(
                [-v if j % 2 else v for v in column] for j, (column,) in enumerate(x)
            ))
            block = [None] * len(denominator)
            for i, entry in zip(live, minors):
                block[i] = entry, denominator[i]
            self.table += block

    def entry(self, t: int) -> tuple[tuple[int, ...], int]:
        """(minors, D(t)) at t >= 0 from the table, grown to it first; a ratio
        pole raises ParameterSingularity."""
        if t >= len(self.table):
            self.extend(t + 1)
        entry = self.table[t]
        if entry is None:
            self.pole(range(t - self.m + 1, t + 1))
        return entry


@_stage
def raw_points(ctx: ConstructionContext) -> _RawPoints:
    """The context's :class:`_RawPoints`."""
    return _RawPoints(ctx)


def casorati_rational(ctx: ConstructionContext) -> dict[int, Fraction]:
    """Raw (uncleared) determinant values at t = 0, 1, ..., the cross-check route.

    Each value is minor_0 of the raw rows (:meth:`_RawPoints.lanes`), the
    integer determinant of columns 1..m, over its denominator D(t), read from
    the context's table of minors (:class:`_RawPoints`).  The rows use no
    clearing block, so the route is independent of the clearing algebra.
    Points where the rows hit a ratio pole are skipped.

    With den_r the reduced denominator of row r's ratio, E = prod_r prod_{i=1}^{m-1}
    den_r(x - i) clears every row, so E * R is a polynomial of degree at most
    raw_degree, computed below, and E is nonzero at every point kept.  E
    divides the clearing factor cf: den_r divides the product of the kind's
    falling blocks falling(1, 0), and prod_{i=1}^{m-1} of those at x - i is
    falling(m - 1, -1) per block, row r's share of cf up to sign.  So with C
    the cleared determinant, cf * R - C = (cf / E)(E * R) - C is a polynomial
    of degree at most B' = max(deg cf - deg E + raw_degree, deg C), and
    agreement at the B' + 1 points kept, which are returned, proves cf * R =
    C: a nonzero polynomial of degree B' has at most B' roots.
    """
    m = ctx.m
    raw_degree = denominator_degree = 0
    for (numer, denom), u in zip(series_ratios(ctx), ctx.row_degrees):
        dn, dd = numer.degree, denom.degree
        raw_degree += max((m - c) * dn + (c - 1) * dd for c in range(1, m + 1)) + 2 * u
        denominator_degree += (m - 1) * dd
    bound = max(
        clearing_factor(ctx).degree - denominator_degree + raw_degree,
        casorati_cleared(ctx).degree,
    )
    raw = raw_points(ctx)
    while (missing := bound + 1 - (len(raw.table) - raw.table.count(None))) > 0:
        raw.extend(len(raw.table) + missing)
    kept = ((t, entry) for t, entry in enumerate(raw.table) if entry is not None)
    return {t: Fraction(minors[0], den) for t, (minors, den) in islice(kept, bound + 1)}


# -- the constructed orthogonal polynomials ------------------------------------------


@_stage
def _hahn_family(ctx: ConstructionContext) -> HahnFamily:
    """The context's one :class:`~krallhahn.hahn.HahnFamily`, which keeps each
    h_n it builds."""
    return HahnFamily(ctx.params)


def base_polynomial(ctx: ConstructionContext, n: int) -> Polynomial:
    """The degree-n Hahn polynomial of the context's parameters, read off the
    context's one family, so each degree is built once per context."""
    return _hahn_family(ctx)[n]


def base_leading_coefficient(ctx: ConstructionContext, n: int) -> Fraction:
    """The leading coefficient of :func:`base_polynomial`, the closed form of
    :func:`~krallhahn.hahn.hahn_leading_coefficient` read off the running
    products of the context's one family."""
    return _hahn_family(ctx).leading_coefficient(n)


def krall_polynomial(ctx: ConstructionContext, n: int) -> Polynomial:
    """Degree-n member of the constructed family (bordered determinant).

    The m raw Casorati rows at n, bordered below by (h_n, -h_{n-1}, ...,
    (-1)^m h_{n-m}) with h_k = 0 for k < 0.  Expanding along the border, the
    cofactor signs (-1)^(m+k) cancel the border's alternation up to (-1)^m, so
    (-1)^m times the determinant is sum_k h_{n-k} * minor_k, where minor_k
    drops column k and minor_0 is the Casorati determinant at n.  The minor_k
    are the integer maximal minors of the raw rows (:meth:`_RawPoints.lanes`)
    over their denominator D(n), read from the context's table
    (:class:`_RawPoints`), which grows to n first, and the h_{n-k} come from the context's one family
    (:func:`base_polynomial`) and are put over the lcm of their denominators,
    so q_n is one integer sum over one denominator, added one term at a time.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    minors, denominator = raw_points(ctx).entry(n)
    family = _hahn_family(ctx)
    parts = [family[n - k].integer_parts for k in range(min(ctx.m, n) + 1)]
    common = lcm(*(den for _, den in parts))
    acc = [0] * (n + 1)
    for minor, (nums, den) in zip(minors, parts):
        if minor:
            acc[: len(nums)] = map(add, acc, map((minor * (common // den)).__mul__, nums))
    if denominator < 0:
        acc, denominator = [-c for c in acc], -denominator
    return Polynomial.from_integer_parts(acc, common * denominator)


# -- normalisers and the spectral data ------------------------------------------------


@_stage
def normalizer_factors(ctx: ConstructionContext) -> tuple[int, tuple[int, ...], int]:
    """The normaliser as (leading constant, root numerators with multiplicity,
    their denominator Q).

    It is a Pochhammer-product normaliser times the triangular product of
    shifted eigenvalue steps sigma(x + c) = -2 (x + c - r0), r0 = (1 - a - b) / 2,
    so every factor is linear.  Q = 2 lcm(den a, den b) also clears every root
    that :func:`_mixing_factors` reads.
    """
    p, m = ctx.params, ctx.m
    q = 2 * lcm(p.a.denominator, p.b.denominator)
    lead = -1 if (m * (m - 1) // 2) % 2 else 1
    roots: list[int] = []
    for which in (1, 2):
        users = sum(which in CLEARING_BLOCKS[kind] for kind in ctx.row_kinds)
        for i in range(1, users):
            roots += rising_roots(which, users - i, users - m - i, p, q)
            roots += falling_roots(which, users - i, -1, p, q)
            if (users - i) % 2:
                lead = -lead
    r0 = ((1 - p.a - p.b) / 2 * q).numerator
    for outer in range(1, m):
        for inner in range(1, outer + 1):
            roots.append(r0 - (inner + outer + 1 - 2 * m) * q // 2)
            lead *= -2
    return lead, tuple(roots), q


def _uncancelled(kept: list[int], q: int) -> NonExactDivision:
    """The error for roots p/q of a divisor that did not divide: its remainder
    is the reduced denominator, the product of (x - p/q) over those roots."""
    reduced = Polynomial.from_integer_roots(kept, q)
    return NonExactDivision(f"denominator of degree {reduced.degree} does not cancel", remainder=reduced)


@_stage
def core_determinant(ctx: ConstructionContext) -> Polynomial:
    """Cleared determinant divided by the normaliser; polynomial by the theory.

    The normaliser's roots (:func:`normalizer_factors`) are divided out one by
    one (:func:`divide_out_roots`), then its leading constant; a root that
    does not divide raises NonExactDivision with the factors left."""
    lead, roots, q = normalizer_factors(ctx)
    core, kept = divide_out_roots(casorati_cleared(ctx), roots, q)
    if kept:
        raise _uncancelled(kept, q)
    return core / lead


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


def _lcm_roots(multisets) -> dict[int, int]:
    """Each root of the multisets at its largest multiplicity."""
    out: dict[int, int] = {}
    for multiset in multisets:
        for r, k in multiset.items():
            out[r] = max(k, out.get(r, 0))
    return out


def _cofactor_orders(ctx: ConstructionContext) -> dict[int, list[dict[int, int]]]:
    """Per row kind and column c = 1..m, root -> a lower bound on the order at
    which cofactor (r, c - 1), r a row of that kind, vanishes at that root (over
    Q, at y): sum_w max(0, |U_w - {r}| - |[m] - {c} - I_w|).  U_w holds the rows
    whose kind uses block w, and I_w the columns whose block-w factor, of roots
    rising[c - 1:] + falling[:c - 1] of rising(m - 1, 0) and falling(m - 1, m -
    1) read at y - c, vanishes there.  Every Leibniz term sends the other rows
    of U_w to distinct columns other than c, at most |[m] - {c} - I_w| of them
    outside I_w, and each one inside brings a factor that vanishes there."""
    m, (_, _, q) = ctx.m, normalizer_factors(ctx)
    orders = {kind: [{} for _ in range(m)] for kind in ctx.row_kinds}
    for which in (1, 2):
        if (users := sum(which in CLEARING_BLOCKS[kind] for kind in ctx.row_kinds)) < 2:
            continue  # no other row uses the block
        columns: dict[int, set[int]] = {}
        for c, roots in enumerate(_block_roots(ctx, which), 1):
            for r in roots:
                columns.setdefault(r + c * q, set()).add(c)
        for kind, per_column in orders.items():
            others = users - (which in CLEARING_BLOCKS[kind])
            for r, where in columns.items():
                if (least := others - m + len(where)) >= 0:  # else no column is forced
                    for c, order in enumerate(per_column, 1):
                        if (forced := least + (c not in where)) > 0:
                            order[r] = order.get(r, 0) + forced
    return orders


@_stage
def _term_roots(ctx: ConstructionContext) -> dict[int, list[tuple[dict[int, int], ...]]]:
    """Per row kind and term j = 1..m, the root multisets S_j - N_j, N_j - S_j
    and N_j - S_j - O_j at x, as dicts root -> multiplicity over Q.  At y = x
    + j, N_j holds the roots of the normaliser at y, S_j the term's known
    numerator roots (sigma's, r0, and column j's of :func:`_column_roots`)
    and O_j the cofactor's orders (:func:`_cofactor_orders`)."""
    p, m = ctx.params, ctx.m
    _, roots, q = normalizer_factors(ctx)
    counts = Counter(roots)  # one pass over the normaliser's roots
    # sigma(x + half + j) = -2 (x - r0 + half + j), with half = -(m - 1) / 2
    r0 = ((1 - p.a - p.b) / 2 * q).numerator + (m - 1) * q // 2
    orders, terms = _cofactor_orders(ctx), {}
    for kind in dict.fromkeys(ctx.row_kinds):
        terms[kind] = []
        columns = _column_roots(ctx, CLEARING_BLOCKS[kind])
        for j, (extra, order) in enumerate(zip(columns, orders[kind]), 1):
            net = {r - j * q: -k for r, k in counts.items()}  # S_j - N_j
            for r in (r0 - j * q, *extra):
                net[r] = net.get(r, 0) + 1
            terms[kind].append((
                {r: k for r, k in net.items() if k > 0},
                {r: -k for r, k in net.items() if k < 0},
                {r: k for r in net if (k := -net[r] - order.get(r + j * q, 0)) > 0},
            ))
    return terms


@_stage
def _mixing_factors(ctx: ConstructionContext) -> dict[int, tuple[list[tuple], dict[int, int]]]:
    """Per row kind, the weights of the mixing terms j = 1..m and the roots of
    L' (see :func:`mixing_polynomial`), none expanded, each root multiset a
    dict root -> multiplicity over Q.  Term j is S_j / N_j (:func:`_term_roots`)
    times its cofactor, so L' is the lcm of the N_j - S_j, and weight j,
    sigma(x + half + j) prefactor(x + j) L' / N_j times the kind's blocks
    rising(m - j, 0) and falling(j - 1, j - 1), is (prefactor(x + j), the roots
    S_j - N_j merged with L' - (N_j - S_j), a constant).  The cofactors' orders
    (:func:`_cofactor_orders`) cancel all of L' but the L'' of
    :func:`_mixing_tables` in every term."""
    factors = {}
    for kind, terms in _term_roots(ctx).items():
        divisor = _lcm_roots(deficit for _, deficit, _ in terms)
        factors[kind] = [
            (ctx.prefactor.shift_argument(j),
             {r: k for r in {**surplus, **divisor}
              if (k := surplus.get(r, 0) + divisor.get(r, 0) - deficit.get(r, 0)) > 0},
             2 if (j - 1) * len(CLEARING_BLOCKS[kind]) % 2 else -2)
            for j, (surplus, deficit, _) in enumerate(terms, 1)
        ], divisor
    return factors


def _common_roots(multisets: list[dict[int, int]]) -> dict[int, int]:
    """Each root that all the multisets hold, at its least multiplicity."""
    first, *rest = multisets
    for other in rest:
        first = {r: min(k, other[r]) for r, k in first.items() if r in other}
    return first


def _linear_product(values: list[int], roots: dict[int, int], points: list[int]) -> list[int]:
    """values[i] * prod_r (points[i] - r)^k over the roots r of multiplicity k,
    on integers: one pass per distinct root, a plain product where k = 1 (a
    pow pass took about 40 % longer on a weight of 15 simple roots).
    :func:`_mixing_tables` makes one call per term on the roots that every
    row kind's weight holds, and one per kind on the roots left."""
    for r, k in roots.items():
        factors = map(r.__rsub__, points)
        values = list(map(mul, values, factors if k == 1 else map(pow, factors, repeat(k))))
    return values


@_stage
def _mixing_tables(ctx: ConstructionContext) -> dict[int, tuple[list[int], list, int, list, dict, dict]]:
    """Per row kind, (X, W, s, V, R', R''): weight j is W[j - 1][i] / s at x =
    X[i], and L', of roots R', is V[i] / Q^deg L'.  L'', of roots R'', is the
    lcm of the N_j - S_j - O_j (:func:`_term_roots`), what each term keeps of
    the normaliser once the cofactor's orders at its roots are cancelled.  R'
    and R'' are dicts root -> multiplicity, and each degree is a sum of
    multiplicities.  K - 1, the largest deg w_j plus the largest bound on the
    cofactors of a row of the kind (the sum of the other rows' degrees),
    bounds the numerators n, so n L'' / L' has degree below K'' = K - deg L'
    + deg L'' and X holds the first K'' integers x >= 0 where L' is nonzero:
    enough to prove the division (:func:`mixing_polynomial`).

    The kinds' root multisets overlap.  So for each term j the roots that
    every kind's weight j holds, at their least multiplicity, and the roots
    that every kind's L' holds are multiplied out once, on the union of the
    kinds' X; each kind then multiplies in only its constant, its prefactor
    (each distinct one evaluated once on that union) and its own remaining
    roots.  With one kind the common part is the whole weight.  The cleared
    adjugate is taken, once, to every x + j read."""
    adjugate = _cleared_adjugate(ctx)
    _, _, q = normalizer_factors(ctx)
    factors = _mixing_factors(ctx)
    if not factors:
        return {}
    grids = {}
    for kind, (weights, divisor) in factors.items():
        kept = _lcm_roots(term[2] for term in _term_roots(ctx)[kind])
        bound = max(adjugate.degree_bound(row) for row, k in enumerate(ctx.row_kinds) if k == kind)
        bound += max(prefactor.degree + sum(roots.values()) for prefactor, roots, _ in weights)
        count = max(0, sum(kept.values()) - sum(divisor.values()) + 1 + max(0, bound))
        grids[kind] = [x for x in range(count + len(divisor)) if x * q not in divisor][:count], kept
    union = sorted(set().union(*(xs for xs, _ in grids.values())))
    index = {x: i for i, x in enumerate(union)}
    # the roots common to every kind: per term j, then of L'
    common = [_common_roots([weights[j][1] for weights, _ in factors.values()]) for j in range(ctx.m)]
    common.append(_common_roots([divisor for _, divisor in factors.values()]))
    shared = [_linear_product([1] * len(union), roots, [x * q for x in union]) for roots in common]
    tables, prefactors = {}, {}  # prefactors: numerators -> values on the union
    for kind, (weights, divisor) in factors.items():
        xs, kept = grids[kind]
        at, points = [index[x] for x in xs], [x * q for x in xs]
        scale = lcm(*(f.integer_parts[1] * q ** sum(roots.values()) for f, roots, _ in weights))
        values = []
        for (prefactor, roots, constant), both, done in zip(weights, common, shared):
            nums, den = prefactor.integer_parts
            if nums not in prefactors:
                prefactors[nums] = [horner(nums, x) for x in union]
            factor, ys = constant * (scale // (den * q ** sum(roots.values()))), prefactors[nums]
            rest = {r: left for r, k in roots.items() if (left := k - both.get(r, 0))}
            values.append(_linear_product([factor * ys[i] * done[i] for i in at], rest, points))
        rest = {r: left for r, k in divisor.items() if (left := k - common[-1].get(r, 0))}
        tables[kind] = xs, values, scale, _linear_product([shared[-1][i] for i in at], rest, points), divisor, kept
    adjugate.extend(max((xs[-1] + 1 for xs, *_ in tables.values() if xs), default=0) + ctx.m)
    return tables


@_stage
def mixing_polynomial(ctx: ConstructionContext, row: int) -> Polynomial:
    """The row's mixing polynomial (skew-invariant, divisible by the shifted step).

    Term j is the cofactor (row, j - 1) of the cleared matrix at x + j, signed
    as the term, over the normaliser at x + j, lead * N_j with N_j monic.
    Over L', the lcm of the N_j less their known numerator roots, no gcd is
    taken (:func:`_mixing_factors`).  n = sum_j w_j(x) cofactor(x + j) is
    summed on integers at the K'' points of :func:`_mixing_tables`.  n / L' must be a
    polynomial, a hypothesis of the construction: it is interpolated at the
    first K - deg L' points, and quotient * L' = n is required at all K''.
    Each cofactor vanishes at the roots of N to the orders of
    :func:`_cofactor_orders` at least, so L'' clears every term and n'' = n
    L'' / L' is a polynomial of degree below K''.  L' / L'' is nonzero at the
    points, so quotient * L'' = n'' holds at K'' points, and the division is
    exact.  L' and L'' stay dicts root -> multiplicity, their degrees sums of
    multiplicities.  A mismatch raises NonExactDivision naming the degree of
    the reduced denominator: n'' is interpolated, and each root of L'', the
    one multiset expanded root by root, is divided out where n'' vanishes
    (:func:`divide_out_roots`); the roots left make it."""
    lead, _, q = normalizer_factors(ctx)
    xs, weights, scale, divisor, roots, kept = _mixing_tables(ctx)[ctx.row_kinds[row]]
    adjugate = _cleared_adjugate(ctx)
    numer = [0] * len(xs)
    for j, (weight, values) in enumerate(zip(weights, adjugate.values[row]), 1):
        numer = list(map(add, numer, map(mul, weight, [values[x + j] for x in xs])))
    scale *= prod(adjugate.dens) // adjugate.dens[row]  # n(x) = numer / scale
    power, nodes = q ** sum(roots.values()), max(len(xs) - sum(kept.values()), 0)  # L' = divisor / power
    values = [Fraction(n * power, d * scale * lead) for n, d in zip(numer[:nodes], divisor)]
    quotient = interpolate(*clear_denominators(values), xs[:nodes]) if nodes else Polynomial.zero()
    nums, den = quotient.integer_parts
    lhs, rhs = lead * scale, den * power
    if any(horner(nums, x) * d * lhs != n * rhs for x, n, d in zip(xs, numer, divisor)):
        values = _linear_product(numer, kept, [x * q for x in xs])  # n L'', up to a constant
        values = [Fraction(v, d) for v, d in zip(values, divisor)]  # n'' = n L'' / L'
        _, kept = divide_out_roots(interpolate(*clear_denominators(values), xs), Counter(kept).elements(), q)
        raise _uncancelled(kept, q)
    return quotient


def mixing_symbol(ctx: ConstructionContext, row: int) -> Polynomial:
    """Mixing polynomial divided by the shifted step, written in theta.

    sigma(x + 1) = -2 (x - c) with c = -(a + b + 1) / 2: c is divided out
    (:func:`divide_out_roots`), then -2; where c is no root of the mixing
    polynomial, NonExactDivision names x - c."""
    p = ctx.params
    c = -p.theta_shift / 2
    quotient, kept = divide_out_roots(mixing_polynomial(ctx, row), [c.numerator], c.denominator)
    if kept:
        raise _uncancelled(kept, c.denominator)
    return theta_substitute(quotient * Fraction(-1, 2), p.a + p.b)


# -- the spectral polynomial and the operator -------------------------------------------


@_stage
def spectral_polynomial(ctx: ConstructionContext) -> Polynomial:
    """P with P(theta_x) = 2 lambda(x) + sum over rows of Y(theta_x) M(x)."""
    acc = 2 * eigenvalue_polynomial(ctx)
    for row in range(ctx.m):
        acc = acc + _row_theta(ctx, row) * mixing_polynomial(ctx, row)
    return theta_substitute(acc, ctx.params.a + ctx.params.b)


@_stage
def krall_operator(ctx: ConstructionContext) -> DifferenceOperator:
    """The higher-order difference operator with the constructed family as
    eigenfunctions (eigenvalues given by the eigenvalue polynomial).

    It is P(D) / 2 + sum_r M_r(D) o L_r o Y_r(D), with D the Hahn operator, P
    the spectral polynomial, and for row r the mixing symbol M_r, the ladder
    operator L_r of its kind and the row polynomial Y_r.  It is assembled on
    integer value tables by :func:`~krallhahn.diffops.operator_sum`, as one
    right Horner in D: each coefficient is computed at x = 0..K-1 and
    interpolated once.  D's
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
