"""The slow reference routes that the tests compare the package's fast paths with.

Every fast path in ``krallhahn`` ships with a differential test against an
independent route: the representation or algorithm it replaced, a closed
form, or plain expansion.  Those routes live here, one per job, so a new fast
path adds its reference to this module and its test imports it.  Nothing here
is timed or shipped; each routine favours the obvious computation over speed.
"""

import functools
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import comb, factorial, gcd, isqrt, lcm, prod
from operator import mul
from typing import Sequence

from krallhahn import casorati
from krallhahn.casorati import (
    base_polynomial,
    eigenvalue_polynomial,
    mixing_polynomial,
    normalizer,
    series_ratios,
)
from krallhahn.diffops import DifferenceOperator, coefficient_values
from krallhahn.errors import (
    DegenerateMoments,
    NonExactDivision,
    NotThetaRepresentable,
    ParameterSingularity,
)
from krallhahn.hahn import (
    HahnParams,
    hahn_polynomial,
    reflect,
    transformed_parameters,
)
from krallhahn.ladder import (
    CLEARING_BLOCKS,
    ratio_product,
    ratio_products,
    series_shift,
)
from krallhahn.matrices import _exact_solve
from krallhahn.measures import DiscreteMeasure, _measure, christoffel
from krallhahn.oracle import _primitive, operator_solution_space
from krallhahn.polynomials import (
    Polynomial,
    divide_out_roots,
    horner,
    interpolate,
    newton_form,
    pochhammer,
    taylor_shift,
)
from krallhahn.rationals import Rational, as_rational, clear_denominators, format_rational
from krallhahn.sets import set_max
from krallhahn.verify import build_run

# -- polynomials ---------------------------------------------------------------------


class FractionPolynomial:
    """Reference: exact polynomial arithmetic on a tuple of Fractions."""

    def __init__(self, coeffs=()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self):
        return len(self.coeffs) - 1

    @property
    def is_zero(self):
        return not self.coeffs

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return FractionPolynomial(out)

    def __neg__(self):
        return FractionPolynomial(-c for c in self.coeffs)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, FractionPolynomial):
            return FractionPolynomial(Fraction(other) * c for c in self.coeffs)
        if self.is_zero or other.is_zero:
            return FractionPolynomial()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return FractionPolynomial(out)

    def __truediv__(self, scalar):
        return FractionPolynomial(c / Fraction(scalar) for c in self.coeffs)

    def __call__(self, point):
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * Fraction(point) + c
        return acc

    def compose(self, inner):
        acc = FractionPolynomial()
        for c in reversed(self.coeffs):
            acc = acc * inner + FractionPolynomial((c,))
        return acc

    def shift_argument(self, c):
        return self.compose(FractionPolynomial((c, 1)))

    def reflect_argument(self):
        return FractionPolynomial(-c if k & 1 else c for k, c in enumerate(self.coeffs))

    def divmod(self, divisor):
        if self.degree < divisor.degree:
            return FractionPolynomial(), self
        rem = list(self.coeffs)
        dcoeffs = divisor.coeffs
        dn = len(dcoeffs)
        quo = [Fraction(0)] * (len(rem) - dn + 1)
        for k in range(len(quo) - 1, -1, -1):
            c = rem[k + dn - 1] / dcoeffs[-1]
            quo[k] = c
            for i, d in enumerate(dcoeffs):
                rem[k + i] -= c * d
        return FractionPolynomial(quo), FractionPolynomial(rem)

    def monic(self):
        return self / self.coeffs[-1] if self.coeffs else self


def reference_antidifference(p):
    """q with q(x) - q(x-1) = p(x) and q(-1) = 0, peeling the top coefficient."""
    q = FractionPolynomial()
    residual = p
    while not residual.is_zero:
        d = residual.degree
        mono = FractionPolynomial([0] * (d + 1) + [residual.coeffs[-1] / (d + 1)])
        q = q + mono
        residual = residual - (mono - mono.shift_argument(-1))
    return q - FractionPolynomial((q(-1),))


def reference_from_roots(roots):
    """One integer product per root: times (q x - p) / q for the root p/q."""
    nums, den = [1], 1
    for r in roots:
        p, q = Fraction(r).numerator, Fraction(r).denominator
        nums = [-p * nums[0]] + [
            q * prev - p * cur for prev, cur in zip(nums, nums[1:])
        ] + [q * nums[-1]]
        den *= q
    return Polynomial.from_integer_parts(nums, den)


def reference_newton_form(coeffs, nodes):
    """sum_j coeffs[j] prod_{i<j} (x - nodes[i]) by Horner over q^(n-j) and
    (q x - p_i) for nodes p_i / q, powers of q carried even when q = 1: the
    reference for newton_form's integer-node branch."""
    n = len(coeffs) - 1
    nums, den = clear_denominators(coeffs)
    tops, q = clear_denominators(nodes[:n])
    acc, scale = [nums[n]], 1
    for j in range(n - 1, -1, -1):
        p, scale = tops[j], scale * q
        acc = [nums[j] * scale - p * acc[0]] + [
            q * prev - p * cur for prev, cur in zip(acc, acc[1:])
        ] + [q * acc[-1]]
    return Polynomial.from_integer_parts(acc, den * scale)


def lagrange(nodes, values):
    """sum_i values[i] * prod_{k != i} (x - nodes[k]) / (nodes[i] - nodes[k]) on
    distinct nodes, on Fraction coefficient lists.

    The reference for :func:`krallhahn.polynomials.interpolate`, on its
    default nodes 0..K-1 and on any increasing integer nodes, consecutive or
    not: the interpolant of the same values must be this polynomial.
    """
    total = [Fraction(0)] * len(values)
    for i, v in enumerate(values):
        basis = [Fraction(v)]
        for k, node in enumerate(nodes):
            if k != i:
                times_x = [Fraction(0)] + basis
                basis = [(s - node * b) / (nodes[i] - node) for s, b in zip(times_x, basis + [0])]
        total = [t + b for t, b in zip(total, basis)]
    return Polynomial(total)



def poly_gcd(a, b):
    """Monic greatest common divisor, by Euclid over the rationals."""
    while not b.is_zero:
        a, b = b, a.divmod(b)[1]
    return a.monic()


def lowest_terms(numer, denom):
    """The quotient numer / denom as a coprime pair with monic denominator, by
    Euclid's gcd: the reference for reducing by known roots
    (:func:`krallhahn.polynomials.divide_out_roots`).

    A zero numerator gives (0, 1).  The value at a point t is
    numer(t) / denom(t); the parts are coprime, so a zero of the denominator
    is a genuine pole and that division raises ``ZeroDivisionError``.
    """
    if denom.is_zero:
        raise ZeroDivisionError("rational function with zero denominator")
    if numer.is_zero:
        return Polynomial.zero(), Polynomial.one()
    g = poly_gcd(numer, denom)
    if g.degree > 0:
        numer = numer.divide_exact(g)
        denom = denom.divide_exact(g)
    lead = denom.leading_coefficient
    if lead != 1:
        numer, denom = numer / lead, denom / lead
    return numer, denom

# -- matrices ------------------------------------------------------------------------


def cofactor_det(rows):
    """Reference determinant: Laplace expansion along the top row, with every
    minor computed once; the empty matrix has determinant ``Polynomial.one()``.

    ``minors[cols]`` is the determinant of the bottom ``len(cols)`` rows
    restricted to the columns ``cols``; each pass expands the row above.
    """
    n = len(rows)
    if n == 0:
        return Polynomial.one()
    zero = 0 * rows[0][0]  # the zero of the entries' ring
    minors = {(j,): entry for j, entry in enumerate(rows[-1])}
    for i in range(n - 2, -1, -1):
        row = rows[i]
        expanded = {}
        for cols in combinations(range(n), n - i):
            acc = zero
            for pos, j in enumerate(cols):
                if row[j]:
                    term = row[j] * minors[cols[:pos] + cols[pos + 1 :]]
                    acc = acc - term if pos % 2 else acc + term
            expanded[cols] = acc
        minors = expanded
    return minors[tuple(range(n))]


def gauss_jordan(rows, rhs):
    """Reference solver: Gauss-Jordan elimination over the rationals, with the
    contract of :func:`solve_linear_system` (free variables pinned to 0).
    Each row is kept as a nonzero multiple of itself in coprime integers, so
    a row operation is integer products and one gcd, not a ``Fraction`` per
    entry; the pivots and the solution are those of the rational rows."""
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    aug = [primitive_row([*map(Fraction, row), Fraction(b)]) for row, b in zip(rows, rhs)]
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if aug[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        aug[r], aug[pivot_row] = aug[pivot_row], aug[r]
        pivot = aug[r][c]
        for i in range(nrows):
            if i != r and aug[i][c] != 0:
                factor = aug[i][c]
                combined = [pivot * vi - factor * vr for vi, vr in zip(aug[i], aug[r])]
                content = gcd(*combined)
                aug[i] = [v // content for v in combined] if content else combined
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    for i in range(r, nrows):
        if aug[i][ncols] != 0:
            return None
    solution = [Fraction(0)] * ncols
    for row_idx, col in enumerate(pivots):
        solution[col] = Fraction(aug[row_idx][ncols], aug[row_idx][col])
    return solution, ncols - len(pivots)


def point_cofactor(adjugate, row, col):
    """Cofactor (row, col) of a PointAdjugate's matrix, interpolated from the
    adjugate's point values at the row's cofactor bound + 1 points, taken that
    far first by ``extend``: the cofactor route the mixing polynomials
    replaced."""
    count = max(adjugate.degree_bound(row), 0) + 1
    adjugate.extend(count)
    scale = prod(adjugate.dens) // adjugate.dens[row]
    return interpolate(adjugate.values[row][col][:count], scale)


def sarrus(m):
    # independent 3x3 oracle
    return (
        m[0][0] * m[1][1] * m[2][2]
        + m[0][1] * m[1][2] * m[2][0]
        + m[0][2] * m[1][0] * m[2][1]
        - m[0][2] * m[1][1] * m[2][0]
        - m[0][0] * m[1][2] * m[2][1]
        - m[0][1] * m[1][0] * m[2][2]
    )


# -- the multimodular solver: the oracle's global system --------------------------------

# The 12 largest primes below 2**62.  The first gives the rank profile.  Their
# product M bounds the modular route to solutions whose numerators and
# denominators all stay below sqrt(M / 2), about 2**371.
_PRIMES = (
    4611686018427387847, 4611686018427387817, 4611686018427387787,
    4611686018427387761, 4611686018427387751, 4611686018427387737,
    4611686018427387733, 4611686018427387709, 4611686018427387701,
    4611686018427387631, 4611686018427387617, 4611686018427387587,
)


def solve_linear_system(
    rows: Sequence[Sequence[Fraction | int]], rhs: Sequence[Fraction | int]
) -> tuple[list[Fraction], int] | None:
    """Solve A x = b exactly.

    Returns ``(particular_solution, nullity)`` with free variables pinned to
    zero, or ``None`` when the system is inconsistent.

    Each row of [A | b] is scaled to integers and eliminated modulo the first
    of ``_PRIMES``.  If A has full column rank mod p, one of its ncols x ncols
    minors is nonzero mod p, hence nonzero over the rationals: that certifies
    nullity 0.  If b is then a pivot mod p too, a minor of [A | b] of size
    ncols + 1 is nonzero, so rank [A | b] > rank A certifies that the system is
    unsolvable.  Otherwise the square subsystem on the pivot rows is solved
    modulo further primes, combined by the Chinese remainder theorem and
    rational reconstruction (Wang, 1981).  A candidate is accepted only when it
    satisfies that subsystem exactly, and it is then substituted exactly into
    every other row to decide consistency.  A system that is rank-deficient mod
    p, or whose solution needs more primes than ``_PRIMES`` holds, is solved
    exactly by :func:`_exact_solve` instead; that is the only route that runs
    for nullity > 0.
    """
    if len(rows) != len(rhs):
        raise ValueError("rhs length does not match row count")
    ncols = len(rows[0]) if rows else 0
    aug = [clear_denominators([*row, b])[0] for row, b in zip(rows, rhs)]
    pivots = _echelon_mod(aug, _PRIMES[0])
    solved = None
    if _full_column_rank(pivots, ncols):
        if len(pivots) > ncols:
            return None  # b is a pivot too: rank [A | b] = ncols + 1
        square = [aug[source] for _, source, _ in pivots]
        solved = _multimodular_solve(square, _back_substitute(pivots, _PRIMES[0]))
    if solved is not None:
        chosen = {source for _, source, _ in pivots}
        if any(_residual(row, *solved) for i, row in enumerate(aug) if i not in chosen):
            return None
        solved = (*solved, [])
    else:
        solved = _exact_solve(aug, ncols)
    if solved is None:
        return None
    numerators, denominator, kernel = solved
    return [Fraction(v, denominator) for v in numerators], len(kernel)


def _echelon_mod(aug: list[list[int]], p: int) -> list[tuple[int, int, list[int]]]:
    """Forward elimination of integer rows modulo the prime p.

    Returns the pivots in column order as ``(column, source, row)``: ``source``
    indexes ``aug`` and ``row`` is that row's reduced tail from ``column`` on,
    scaled to a leading 1.  Rows awaiting a pivot are reduced mod p once and
    then only where an entry is read, so each update is one multiply-subtract.
    """
    pending = [(i, [v % p for v in row]) for i, row in enumerate(aug)]
    width = len(aug[0]) if aug else 0
    pivots = []
    for c in range(width):
        if not pending:
            break
        for k, (source, row) in enumerate(pending):
            lead = row[c] % p
            if lead:
                break
        else:
            continue
        del pending[k]
        inv = pow(lead, -1, p)
        tail = [v * inv % p for v in row[c:]]
        for _, other in pending:
            f = other[c] % p
            if f:
                other[c:] = [v - f * t for v, t in zip(other[c:], tail)]
        pivots.append((c, source, tail))
    return pivots


def _full_column_rank(pivots: list[tuple[int, int, list[int]]], ncols: int) -> bool:
    """Whether every one of the first ncols columns holds a pivot."""
    return sum(c < ncols for c, _, _ in pivots) == ncols


def _back_substitute(pivots: list[tuple[int, int, list[int]]], p: int) -> list[int]:
    """Solution mod p of a system whose n pivots sit in columns 0..n-1."""
    x: list[int] = []
    for _, _, tail in reversed(pivots):
        x.insert(0, (tail[-1] - sum(map(mul, tail[1:-1], x))) % p)
    return x


def _multimodular_solve(
    square: list[list[int]], residues: list[int]
) -> tuple[list[int], int] | None:
    """Exact solution ``(numerators, denominator)`` of a nonsingular system.

    ``square`` holds the integer rows [A | b] of a square A that is
    nonsingular mod the first prime, and ``residues`` its solution mod that
    prime.  Returns None when no candidate from the primes in ``_PRIMES``
    satisfies the system exactly.
    """
    for residues, modulus in _crt_rounds(square, residues):
        candidate = _reconstruct(residues, modulus)
        if candidate is not None and not any(_residual(row, *candidate) for row in square):
            return candidate
    return None


def _crt_rounds(square: list[list[int]], residues: list[int]):
    """The solution modulo the first prime, then modulo each growing product.

    A prime that divides det A is skipped.
    """
    modulus = _PRIMES[0]
    yield residues, modulus
    for p in _PRIMES[1:]:
        pivots = _echelon_mod(square, p)
        if not _full_column_rank(pivots, len(square)):
            continue
        inv = pow(modulus, -1, p)
        residues = [
            r + modulus * ((s - r) * inv % p)
            for r, s in zip(residues, _back_substitute(pivots, p))
        ]
        modulus *= p
        yield residues, modulus


def _reconstruct(residues: list[int], modulus: int) -> tuple[list[int], int] | None:
    """Rational reconstruction of every residue over one common denominator."""
    bound = isqrt((modulus - 1) // 2)
    values = []
    for u in residues:
        value = _rational_reconstruction(u, modulus, bound)
        if value is None:
            return None
        values.append(value)
    return clear_denominators(values)


def _rational_reconstruction(u: int, modulus: int, bound: int) -> Fraction | None:
    """The a/b with a = b u mod ``modulus``, |a| <= bound and 0 < b <= bound.

    Wang's half-extended Euclidean algorithm; None when no such fraction exists.
    """
    r0, r1 = modulus, u
    s0, s1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if abs(s1) > bound or gcd(r1, s1) != 1:
        return None
    return Fraction(r1, s1)


def _residual(row: list[int], numerators: list[int], denominator: int) -> int:
    """Row [a | b] at x = numerators / denominator: denominator * (a . x - b)."""
    return sum(map(mul, row, numerators)) - row[-1] * denominator


# -- measures: Fraction values, polynomial products and atom dicts ---------------------


def fraction_integrate(measure, p):
    """The sum of mass * p(point) over the atoms, in Fraction arithmetic."""
    return sum((m * p(pt) for pt, m in measure.atoms.items()), Fraction(0))


def fraction_values(measure, p):
    return tuple(p(pt) for pt in measure.support)


def fraction_dot(measure, u, v):
    masses = [measure.mass(pt) for pt in measure.support]
    return sum((m * x * y for m, x, y in zip(masses, u, v)), Fraction(0))


def fraction_table(measure, polys):
    """The Gram table on Fraction value vectors, each polynomial evaluated once."""
    values = [fraction_values(measure, p) for p in polys]
    return {
        (i, j): fraction_dot(measure, values[i], values[j])
        for i in range(len(values))
        for j in range(i, len(values))
    }


def reference_gram_schmidt(measure, up_to):
    """The projection through polynomial products: x^k reduced against every
    earlier polynomial, each pairing integrated as a product polynomial."""
    basis, norms = [], []
    for k in range(up_to + 1):
        candidate = Polynomial.variable() ** k
        for p, norm in zip(basis, norms):
            coeff = fraction_integrate(measure, candidate * p) / norm
            if coeff != 0:
                candidate = candidate - coeff * p
        norm = fraction_integrate(measure, candidate * candidate)
        if norm == 0 and k < up_to:
            raise DegenerateMoments(k)
        basis.append(candidate)
        norms.append(norm)
    return basis


def value_gram_schmidt(measure, up_to):
    """The projection on integer value vectors, which the moment route replaced.

    Each candidate is an integer coefficient list C and an integer value
    vector W over one shared integer denominator t: the candidate is C / t,
    and its value at support point i is W[i] / (t e^k).  Every pairing is an
    integer dot product with the masses and each update is integer.  After
    all k projections, C, W and t are divided by gcd(t, C), keeping t
    positive."""
    points, e = measure.points, measure.point_denominator
    power = [1] * len(points)  # P_i^k: the value vector of x^k
    basis = []
    # per earlier g_j: (C_j, W_j, M o W_j, N_j), with <g_j, g_j> = N_j / (D t_j^2 e^(2j))
    done = []
    for k in range(up_to + 1):
        if k:
            power = [p * pt for p, pt in zip(power, points)]
        coeffs, values, den = [0] * k + [1], power, 1
        for j, (c_j, w_j, mw_j, norm_j) in enumerate(done):
            # with a = sum_i M_i P_i^k W_j[i] and b = e^(k-j) N_j, the update is
            # C/t - (a t_j / b) C_j/t_j = (C b - a t C_j) / (t b)
            a = sum(p * w for p, w in zip(power, mw_j))
            if a == 0:
                continue
            ekj = e ** (k - j)
            u, b = a * den, ekj * norm_j
            g = gcd(u, b)
            u, b = u // g, b // g
            coeffs = [c * b for c in coeffs]
            for i, c in enumerate(c_j):
                coeffs[i] -= u * c
            u *= ekj
            values = [v * b - u * w for v, w in zip(values, w_j)]
            den *= b
        g = gcd(den, *coeffs)
        if den < 0:
            g = -g
        if g != 1:
            coeffs = [c // g for c in coeffs]
            values = [v // g for v in values]
            den //= g
        weighted = measure.weighted(values)
        norm = sum(v * w for v, w in zip(values, weighted))
        if norm == 0 and k < up_to:
            raise DegenerateMoments(k)
        basis.append(Polynomial.from_integer_parts(coeffs, den))
        done.append((coeffs, values, weighted, norm))
    return basis


def dict_measure(atoms):
    """The atom dict the measure stored: zero masses dropped."""
    cleaned = {}
    for point, mass in atoms.items():
        mass = Fraction(mass)
        if mass != 0:
            cleaned[Fraction(point)] = mass
    return cleaned


def dict_translate(atoms, offset):
    c = Fraction(offset)
    return dict_measure({pt + c: m for pt, m in atoms.items()})


def dict_scale(atoms, factor):
    f = Fraction(factor)
    return dict_measure({pt: f * m for pt, m in atoms.items()})


def scale_measure(measure, factor):
    """Every mass times factor, on the measure's integer parts: the masses'
    numerators times the factor's, over the mass denominator times its
    denominator.  A float factor raises ``TypeError``."""
    f = as_rational(factor)
    points, e, masses, d = measure.parts
    return _measure(points, e, [m * f.numerator for m in masses], d * f.denominator)


def dict_christoffel(atoms, factor):
    return dict_measure({pt: m * factor(pt) for pt, m in atoms.items()})


def proportionality_constant(
    left: DiscreteMeasure, right: DiscreteMeasure
) -> Fraction | None:
    """The constant c with left = c * right, or ``None`` when there is none,
    by cross-multiplying the integer masses.

    Zero measures are proportional only to each other (with c = 1); others
    when their points agree and every L_i R_0 equals L_0 R_i.
    """
    if left.points != right.points or left.point_denominator != right.point_denominator:
        return None
    if not right.masses:
        return Fraction(1)
    l0, r0 = left.masses[0], right.masses[0]
    if any(l * r0 != l0 * r for l, r in zip(left.masses, right.masses)):
        return None
    return Fraction(l0 * right.mass_denominator, r0 * left.mass_denominator)


def dict_proportionality_constant(left, right):
    if not right:
        return Fraction(1) if not left else None
    if set(left) != set(right):
        return None
    pt = next(iter(right))
    c = left[pt] / right[pt]
    for point, mass in right.items():
        if left[point] != c * mass:
            return None
    return c


# -- the classical family --------------------------------------------------------------


def reference_hahn(n, p):
    """The defining sum term by term in Fractions, with (-x)_j carried from j - 1."""
    a, b, N = p.a, p.b, p.N
    outer = pochhammer(2 + a + b + N, n)
    minus_x = Polynomial((0, -1))
    acc = Polynomial.zero()
    rising = Polynomial.one()  # (-x)_j
    for j in range(n + 1):
        if j:
            rising = rising * (minus_x + j - 1)
        coeff = (
            pochhammer(Fraction(N - n + 1), n - j)
            * pochhammer(a + b + 1, j + n)
            / (outer * pochhammer(a + 1, j) * factorial(n - j) * factorial(j))
        )
        acc = acc + coeff * rising
    return acc


def per_degree_hahn_polynomial(n: int, p: HahnParams) -> Polynomial:
    """Degree-n Hahn polynomial with every Pochhammer prefix, binomial and the
    denominator recomputed for this degree alone: the reference for the running
    products of ``hahn.HahnFamily``.

    Term j is (N-n+1)_{n-j} (a+b+1)_{n+j} / ((2+a+b+N)_n (a+1)_j (n-j)! j!)
    on (-x)_j.  With a+b+1 = P/Q and a+1 = p/q, so that 2+a+b+N = (P + (N+1)Q)/Q,
    every term is an integer over the one denominator
    Q^n n! prod_{i<n} (P + (N+1+i)Q) prod_{i<n} (p + iq):
    C(n, j) prod_{i<n+j} (P + iQ) q^j times (N-n+1)_{n-j} prod_{j<=i<n} (p + iq) Q^(n-j).
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    P, Q, q, outer, low = _per_degree_hahn_factors(n, p)
    N = p.N
    den = Q**n * factorial(n) * outer * prod(low)
    falling = [1 if den > 0 else -1]
    for j in range(n - 1, -1, -1):
        falling.append(falling[-1] * (N - j) * low[j] * Q)
    falling.reverse()
    rising = prod(P + i * Q for i in range(n))
    coeffs = []  # on (-x)_j = (-1)^j prod_{i<j} (x - i)
    for j in range(n + 1):
        if j:
            rising *= (P + (n + j - 1) * Q) * q
        term = comb(n, j) * rising * falling[j]
        coeffs.append(-term if j % 2 else term)
    numerators, _ = newton_form(coeffs, range(n)).integer_parts
    return Polynomial.from_integer_parts(numerators, abs(den))


def _per_degree_hahn_factors(n: int, p: HahnParams) -> tuple[int, int, int, int, list[int]]:
    """(P, Q, q, outer, low) with a+b+1 = P/Q and a+1 = p/q: (2+a+b+N)_n is
    outer / Q^n and (a+1)_j is prod(low[:j]) / q^j.  Where either Pochhammer
    vanishes the Hahn polynomial is undefined: that raises ParameterSingularity."""
    a, N = p.a, p.N
    P, Q = p.theta_shift.numerator, p.theta_shift.denominator
    outer = prod(P + (N + 1 + i) * Q for i in range(n))
    if outer == 0:
        raise ParameterSingularity(
            f"(2+a+b+N)_{n} vanishes for a+b = {format_rational(p.theta_shift - 1)}, N = {N}"
        )
    q = a.denominator
    low = [a.numerator + (1 + i) * q for i in range(n)]
    if 0 in low:
        raise ParameterSingularity(
            f"(a+1)_{low.index(0) + 1} vanishes for a = {format_rational(a)}"
        )
    return P, Q, q, outer, low


def per_degree_hahn_leading_coefficient(n: int, p: HahnParams) -> Fraction:
    """The leading coefficient from the per-degree factors of
    :func:`per_degree_hahn_polynomial`."""
    P, Q, q, outer, low = _per_degree_hahn_factors(n, p)
    top = prod(P + i * Q for i in range(2 * n)) * q**n
    return Fraction(-top if n % 2 else top, Q**n * outer * prod(low) * factorial(n))


def per_atom_hahn_weight(p):
    """Each mass from two Pochhammer products and two factorials, the reference
    for the one-step ratio route."""
    return {
        Fraction(x): pochhammer(p.a + 1, x)
        * pochhammer(p.b + 1, p.N - x)
        / (factorial(x) * factorial(p.N - x))
        for x in range(p.N + 1)
    }


def fraction_hahn_weight(p: HahnParams) -> DiscreteMeasure:
    """Each mass a ``Fraction``, stepped by its one-step ratio as one reduced
    ``Fraction``, then handed to the measure constructor as a dict: the route
    that the integer-pair stepping of ``hahn.hahn_weight`` replaced."""
    a, b, N = p.a, p.b, p.N
    pa, qa, pb, qb = a.numerator, a.denominator, b.numerator, b.denominator
    mass = pochhammer(b + 1, N) / factorial(N)
    masses = {Fraction(0): mass}
    for x in range(N):
        # the step with a = pa/qa and b = pb/qb, as one reduced integer ratio
        step = Fraction(((x + 1) * qa + pa) * (N - x) * qb, (x + 1) * ((N - x) * qb + pb) * qa)
        mass = mass * step
        masses[Fraction(x + 1)] = mass
    return DiscreteMeasure(masses)


def pochhammer_hahn_leading_coefficient(n, p):
    """(-1)^n (a+b+1)_{2n} / ((2+a+b+N)_n (a+1)_n n!) from three Pochhammer
    products, the reference for the integer-product route."""
    a, b = p.a, p.b
    sign = -1 if n % 2 else 1
    return (
        sign
        * pochhammer(a + b + 1, 2 * n)
        / (pochhammer(2 + a + b + p.N, n) * pochhammer(a + 1, n) * factorial(n))
    )


def reference_dual_hahn(n, alpha, beta, gamma):
    """The defining dual sum with every Pochhammer factor recomputed per term."""
    x = Polynomial.variable()
    s = alpha + beta + 1
    acc = Polynomial.zero()
    lattice = Polynomial.one()  # prod_{i<j} (x - i(i + alpha + beta + 1))
    for j in range(n + 1):
        num = (
            pochhammer(Fraction(-n), j)
            * pochhammer(-gamma + j, n - j)
            / (pochhammer(alpha + 1, j) * factorial(j))
        )
        acc = acc + (-num if j % 2 else num) * lattice
        lattice = lattice * (x - j * (j + s))
    return acc


def fraction_dual_hahn_polynomial(
    n: int, alpha: Rational | int, beta: Rational | int, gamma: Rational | int
) -> Polynomial:
    """The dual sum's coefficients stepped as ``Fraction``s, then one Newton
    form: the route that the integer terms of ``hahn.dual_hahn_polynomial``
    replaced."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    alpha, beta, gamma = as_rational(alpha), as_rational(beta), as_rational(gamma)
    if alpha.denominator == 1 and alpha.numerator <= -1:
        raise ParameterSingularity(
            f"dual family needs alpha not in -1,-2,...; got {format_rational(alpha)}"
        )
    s = alpha + beta + 1
    # Term j is (-1)^j (-n)_j (-gamma+j)_{n-j} / ((alpha+1)_j j!) on prod_{i<j} (x - i(i+s));
    # (-1)^j (-n)_j / j! = C(n, j) is stepped up, (-gamma+j)_{n-j} down.
    upper = [Fraction(1)]  # upper[k] = (-gamma+n-k)_k
    for k in range(n):
        upper.append(upper[-1] * (n - 1 - k - gamma))
    head = Fraction(1)
    coeffs = []
    for j in range(n + 1):
        if j:
            head = head * (n - j + 1) / (j * (alpha + j))
        coeffs.append(head * upper[n - j])
    return newton_form(coeffs, [j * (j + s) for j in range(n)])


def dual_hahn_leading_coefficient(n, alpha):
    """The closed form 1 / (alpha + 1)_n of R_n's leading coefficient."""
    return 1 / pochhammer(as_rational(alpha) + 1, n)


def duality_factor(n, x, p):
    """Constant linking R_x at theta_n with h_n at x (exact duality)."""
    a, b, N = p.a, p.b, p.N
    sign = -1 if n % 2 else 1
    return (
        sign
        * factorial(n)
        * pochhammer(Fraction(N) + a + b + 2, n)
        * pochhammer(Fraction(-N), x)
        / (pochhammer(a + b + 1, n) * pochhammer(Fraction(-N), n))
    )


def reference_factored_weight(p, quartet):
    """The Christoffel factor multiplied up one linear factor at a time, on the
    ``Fraction`` weight."""
    x = Polynomial.variable()
    factor = Polynomial.one()
    for f in quartet.first:
        factor = factor * (p.b + p.N + 1 + f - x)
    for f in quartet.second:
        factor = factor * (x + p.a + 1 + f)
    for f in quartet.third:
        factor = factor * (p.N - f - x)
    for f in quartet.fourth:
        factor = factor * (x - f)
    return christoffel(fraction_hahn_weight(p), factor)


def reference_transformed_weight(p, quartet, pads):
    """The shifted, translated ``Fraction`` base weight times its factor, built
    the same way."""
    f4m = set_max(quartet.fourth)
    base = fraction_hahn_weight(transformed_parameters(p, quartet, pads)).translate(
        Fraction(-f4m - 1)
    )
    x = Polynomial.variable()
    factor = Polynomial.one()
    for f in quartet.first:
        factor = factor * (p.b + p.N + 1 - f - x)
    for f in quartet.second:
        factor = factor * (x + p.a + 1 - f)
    for f in quartet.third:
        factor = factor * (p.N + f - x)
    for f in quartet.fourth:
        factor = factor * (x + f4m + 1 - f)
    return christoffel(base, factor)


# -- ladder ratio products -------------------------------------------------------------


def closed_form_product_values(kind, points, p):
    """ratio_products along a unit-step range, read off the closed form."""
    out = []
    for k in range(len(points) + 1):
        base = points.start if points.step < 0 else points.start + k - 1
        numer, denom = ratio_product(kind, k, p)
        out.append(numer(base) / denom(base))
    return out



def euclid_grid():
    """The parameter triples of the differential tests against Euclid's gcd.

    Hand-picked: a = b, where kinds 2 and 4 cancel (n + b) / (n + a); a + b =
    -2N - 2, where kinds 1 and 2 cancel (n - N - 1) / (n + a + b + N + 1);
    a + b = 0 and 1, where the recurrence cancels a factor of n or 2n + s - 1;
    the ladder pole cases; and a + b = -2N - 4.  Then 60 valid seeded random ones.
    """
    half, third = Fraction(1, 2), Fraction(1, 3)
    triples = [
        (half, third, 8), (half, half, 6), (Fraction(7, 3), Fraction(7, 3), 8),
        (third, third, 8), (2, 2, 5), (half, Fraction(-17, 2), 3), (3, -11, 3),
        (half, -half, 4), (Fraction(2, 3), third, 4), (-2, half, 1), (-3, -2, 1),
        (Fraction(-11, 2), Fraction(-9, 2), 3),
    ]
    grid = [HahnParams(Fraction(a), Fraction(b), N) for a, b, N in triples]
    rng = random.Random(34)
    while len(grid) < len(triples) + 60:
        a, b = (Fraction(rng.randint(-24, 24), rng.randint(1, 6)) for _ in range(2))
        try:
            grid.append(HahnParams(a, b, rng.randint(1, 10)))
        except ParameterSingularity:
            pass
    return grid


def explicit_series_ratio(kind, p):
    """Each kind's ratio written out by hand, reduced by Euclid's gcd."""
    n = Polynomial.variable()
    a, b, N = p.a, p.b, p.N
    if kind == 1:
        return lowest_terms(-(n - N - 1), n + a + b + N + 1)
    if kind == 2:
        return lowest_terms((n - N - 1) * (n + b), (n + a) * (n + a + b + N + 1))
    if kind == 3:
        return Polynomial.one(), Polynomial.one()
    return lowest_terms(-(n + b), n + a)


@functools.lru_cache(maxsize=None)
def _descending_product(top, length):
    """The product of (x + top - s), s = 1..length, one linear factor at a
    time: each length is the one before times its last factor."""
    if not length:
        return Polynomial.one()
    return _descending_product(top, length - 1) * Polynomial((top - length, 1))


def explicit_rising_block(which, length, shift, p):
    """rising(length, shift) as an explicit product: with y = x + shift,
    (y - length + b + 1)_length for which = 1 and (y - length - N)_length for
    which = 2, the reference for the blocks' root lists."""
    offsets = {1: p.b + 1, 2: -p.N}
    if which not in offsets:
        raise ValueError(f"which must be 1 or 2, got {which}")
    return _descending_product(shift + offsets[which], length)


def explicit_falling_block(which, length, shift, p):
    """falling(length, shift) as an explicit product: with y = x + shift,
    (-1)^length (y - length + a + 1)_length for which = 1 and
    (-1)^length (y - length + a + b + N + 2)_length for which = 2."""
    offsets = {1: p.a + 1, 2: p.a + p.b + p.N + 2}
    if which not in offsets:
        raise ValueError(f"which must be 1 or 2, got {which}")
    block = _descending_product(shift + offsets[which], length)
    return -block if length % 2 else block


def explicit_column_factors(ctx, kind):
    """The factors of columns c = 1..m in a row of this kind, per block
    rising(m - c, -c) times falling(c - 1, -1), from the explicit blocks."""
    p, m = ctx.params, ctx.m
    factors = []
    for col in range(1, m + 1):
        acc = Polynomial.one()
        for which in CLEARING_BLOCKS[kind]:
            acc = acc * explicit_rising_block(which, m - col, -col, p)
            acc = acc * explicit_falling_block(which, col - 1, -1, p)
        factors.append(acc)
    return tuple(factors)


def explicit_cleared_matrix(ctx):
    """The cleared Casorati matrix: entry (r, c) is Y_r(theta_(x - c)) times
    the explicit column factor of row r's kind."""
    p = ctx.params
    return tuple(
        tuple(
            poly.compose(p.eigenvalue_poly(shift=-col)) * factor
            for col, factor in enumerate(explicit_column_factors(ctx, kind), 1)
        )
        for kind, poly in zip(ctx.row_kinds, ctx.row_polys)
    )


def explicit_clearing_factor(ctx):
    """The clearing factor: falling(m - 1, -1) per block of every row, each an
    explicit product."""
    acc = Polynomial.one()
    for kind in ctx.row_kinds:
        for which in CLEARING_BLOCKS[kind]:
            acc = acc * explicit_falling_block(which, ctx.m - 1, -1, ctx.params)
    return acc


def block_ratio_product(kind, length, p):
    """ratio_product from the explicit clearing blocks, reduced by Euclid's gcd;
    a negative length is the reciprocal of the product based at x - length."""
    if length < 0:
        numer, denom = block_ratio_product(kind, -length, p)
        return lowest_terms(denom.shift_argument(-length), numer.shift_argument(-length))
    numer = denom = Polynomial.one()
    for which in CLEARING_BLOCKS[kind]:
        numer = numer * explicit_rising_block(which, length, 0, p)
        denom = denom * explicit_falling_block(which, length, 0, p)
    return lowest_terms(numer, denom)


def euclid_recurrence_functions(p):
    """hahn_recurrence_functions with expanded denominators, reduced by Euclid's gcd."""
    a, b, N = p.a, p.b, p.N
    n = Polynomial.variable()
    s = a + b
    A = lowest_terms(-(n * (n + a) * (n + s + N + 1)), (2 * n + s - 1) * (2 * n + s))
    B = lowest_terms(
        Polynomial.constant(N * (a + 1) * s) + n * (2 * N + b - a) * (n + s + 1),
        (2 * n + s) * (2 * n + s + 2),
    )
    C = lowest_terms(-((n + s) * (n + b) * (N - n + 1)), (2 * n + s) * (2 * n + s + 1))
    return A, B, C

# -- the determinant engine over Q(x) ----------------------------------------------------
# Elements of Q(x) are reduced (numerator, denominator) pairs.

ONE = (Polynomial.one(), Polynomial.one())
ZERO = (Polynomial.zero(), Polynomial.one())


def times(f, g):
    return lowest_terms(f[0] * g[0], f[1] * g[1])


def add(f, g):
    return lowest_terms(f[0] * g[1] + g[0] * f[1], f[1] * g[1])


def neg(f):
    return -f[0], f[1]


def shifted(f, c):
    return f[0].shift_argument(c), f[1].shift_argument(c)


def value(f, t):
    return f[0](t) / f[1](t)


def as_polynomial(f):
    assert f[1] == 1, f"denominator of degree {f[1].degree} does not cancel"
    return f[0]


def rational_det(rows):
    """Cofactor determinant over Q(x), the reference for the pointwise route."""
    if not rows:
        return ONE
    if len(rows) == 1:
        return rows[0][0]
    acc = ZERO
    for j, top in enumerate(rows[0]):
        if not top[0].is_zero:
            term = times(top, rational_det([row[:j] + row[j + 1 :] for row in rows[1:]]))
            acc = add(acc, neg(term) if j % 2 else term)
    return acc


def closed_form_products_by_kind(ctx):
    """Per row kind, the closed-form ratio products of lengths 0..m."""
    return {
        kind: tuple(ratio_product(kind, length, ctx.params) for length in range(ctx.m + 1))
        for kind in set(ctx.row_kinds)
    }


def rational_casorati(ctx):
    """The raw determinant over Q(x), from the closed-form ratio products."""
    m, p = ctx.m, ctx.params
    products = closed_form_products_by_kind(ctx)
    return rational_det([
        [
            times(
                shifted(products[kind][m - col], -col),
                (poly.compose(p.eigenvalue_poly(shift=-col)), Polynomial.one()),
            )
            for col in range(1, m + 1)
        ]
        for kind, poly in zip(ctx.row_kinds, ctx.row_polys)
    ])


def closed_form_krall_polynomial(ctx, n):
    """The bordered polynomial with its columns from the closed-form products."""
    p, m = ctx.params, ctx.m
    products = closed_form_products_by_kind(ctx)
    columns = [
        [value(products[kind][m - col], n - col) * poly(p.eigenvalue(n - col))
         for kind, poly in zip(ctx.row_kinds, ctx.row_polys)]
        for col in range(m + 1)
    ]
    acc = Polynomial.zero()
    for k in range(min(m, n) + 1):
        minor = cofactor_det([columns[c] for c in range(m + 1) if c != k])
        acc = acc + minor * hahn_polynomial(n - k, p)
    return acc


def block_normalizer(ctx):
    """The normaliser as a product of explicit block and step polynomials, the
    reference for the root-multiset route."""
    p, m = ctx.params, ctx.m
    acc = Polynomial.one()
    for which in (1, 2):
        users = sum(which in CLEARING_BLOCKS[kind] for kind in ctx.row_kinds)
        for i in range(1, users):
            acc = acc * explicit_rising_block(which, users - i, users - m - i, p)
            acc = acc * explicit_falling_block(which, users - i, -1, p)
    sigma = series_shift(p)
    for outer in range(1, m):
        for inner in range(1, outer + 1):
            acc = acc * sigma.shift_argument(Fraction(inner + outer + 1, 2) - m)
    return -acc if (m * (m - 1) // 2) % 2 else acc


def fraction_casorati_value(ctx, point):
    """The cleared determinant over the clearing factor, each evaluated as a
    ``Fraction``: the reference for the integer Horner route."""
    point = Fraction(point)
    denom = casorati.clearing_factor(ctx)(point)
    if denom == 0:
        raise ParameterSingularity(f"clearing factor vanishes at {point}")
    return casorati.casorati_cleared(ctx)(point) / denom


def casorati_value(ctx, point):
    """The (uncleared) Casorati determinant at a point as one ``Fraction`` of
    casorati.casorati_parts."""
    return Fraction(*casorati.casorati_parts(ctx, point))


def block_mixing_prefactor(ctx, row, j):
    """The clearing factor of a mixing polynomial's j-th term, as products of
    explicit rising and falling clearing blocks."""
    acc = Polynomial.one()
    for which in CLEARING_BLOCKS[ctx.row_kinds[row]]:
        acc = acc * explicit_rising_block(which, ctx.m - j, 0, ctx.params)
        acc = acc * explicit_falling_block(which, j - 1, j - 1, ctx.params)
    return acc


def polynomial_mixing_factors(ctx):
    """Per row kind, the mixing weights over the full L, and L: multisets of
    ``Fraction`` roots and chains of polynomial products, the reference for
    the integer root-multiset route.  Weight j is sigma(x + half + j) *
    prefactor(x + j) * L / N_j times the kind's block prefactor."""
    p, m = ctx.params, ctx.m
    sigma = series_shift(p)
    half = Fraction(-(m - 1), 2)
    _, roots, q = casorati.normalizer_factors(ctx)
    shifted = [Counter(Fraction(r, q) - j for r in roots) for j in range(1, m + 1)]
    common = Counter()
    for multiset in shifted:
        common |= multiset
    weights = {kind: [] for kind in ctx.row_kinds}
    for j in range(1, m + 1):
        factor = sigma.shift_argument(half + j) * ctx.prefactor.shift_argument(j)
        factor = factor * reference_from_roots((common - shifted[j - 1]).elements())
        for kind, terms in weights.items():
            terms.append(factor * block_mixing_prefactor(ctx, ctx.row_kinds.index(kind), j))
    return weights, reference_from_roots(common.elements())


def pair_route_mixing(ctx, row):
    """The mixing polynomial summed as reduced pairs: lowest_terms per term and
    per partial sum, the reference for the gcd-free route."""
    p, m = ctx.params, ctx.m
    sigma = series_shift(p)
    half = Fraction(-(m - 1), 2)
    divisor_base = block_normalizer(ctx)
    acc = ZERO
    rows_kept = [entries for r, entries in enumerate(casorati.cleared_matrix(ctx)) if r != row]
    for j in range(1, m + 1):
        minor = cofactor_det([entries[: j - 1] + entries[j:] for entries in rows_kept])
        numer = (
            sigma.shift_argument(half + j)
            * ctx.prefactor.shift_argument(j)
            * block_mixing_prefactor(ctx, row, j)
            * minor.shift_argument(j)
        )
        term = lowest_terms(numer, divisor_base.shift_argument(j))
        acc = add(acc, term if (row + 1 + j) % 2 == 0 else neg(term))
    return as_polynomial(acc)


def shifted_entry_mixing(ctx, row):
    """The mixing polynomial with every minor entry shifted before the
    expansion, the reference for the minors of the matrix shifted once."""
    p, m = ctx.params, ctx.m
    sigma = series_shift(p)
    half = Fraction(-(m - 1), 2)
    divisor_base = normalizer(ctx)
    acc = ZERO
    rows_kept = [entries for r, entries in enumerate(casorati.cleared_matrix(ctx)) if r != row]
    for j in range(1, m + 1):
        minor = cofactor_det([
            [entry.shift_argument(j) for c, entry in enumerate(entries, 1) if c != j]
            for entries in rows_kept
        ])
        numer = (
            sigma.shift_argument(half + j)
            * ctx.prefactor.shift_argument(j)
            * block_mixing_prefactor(ctx, row, j)
            * minor
        )
        term = lowest_terms(numer, divisor_base.shift_argument(j))
        acc = add(acc, term if (row + 1 + j) % 2 == 0 else neg(term))
    return as_polynomial(acc)


def flat_linear_product(values, roots, points):
    """values[i] * prod_r (points[i] - r) over a flat root list, one root at a
    time: the reference for casorati._linear_product's pass per distinct root."""
    for r in roots:
        values = list(map(mul, values, map(r.__rsub__, points)))
    return values


def entry_cofactor_bounds(ctx):
    """(row, col) -> sum_{i != row} max_{c != col} deg A[i][c], A the
    explicit cleared matrix: the per-entry bound on cofactor (row, col) that
    the sum of the other rows' degrees (PointAdjugate.degree_bound(row))
    replaced."""
    degrees = [[entry.degree for entry in entries] for entries in explicit_cleared_matrix(ctx)]
    return {
        (row, col): sum(
            max((d for c, d in enumerate(degs) if c != col), default=-1)
            for i, degs in enumerate(degrees) if i != row
        )
        for row in range(ctx.m) for col in range(ctx.m)
    }


def full_mixing_tables(ctx):
    """Per row kind, (K, W, s, V, R): weight j is W[j - 1][x] / s at x = 0..K-1
    and L', of roots R, is V[x] / Q^deg L', from their linear factors, with K -
    1 the largest deg w_j + the per-entry bound on cofactor (row, j - 1)
    (``entry_cofactor_bounds``); the cleared adjugate is taken to every x + j
    read.  The root multisets of the weights
    and of L' are flattened into root lists and multiplied out one root at a
    time (``flat_linear_product``).  The tables of the full-K route."""
    adjugate = casorati._cleared_adjugate(ctx)
    _, _, q = casorati.normalizer_factors(ctx)
    tables, bounds = {}, entry_cofactor_bounds(ctx)
    for kind, (weights, divisor) in casorati._mixing_factors(ctx).items():
        weights = [(f, tuple(Counter(roots).elements()), c) for f, roots, c in weights]
        divisor = tuple(Counter(divisor).elements())
        count = 1 + max(0, *(
            prefactor.degree + len(roots) + bounds[row, col]
            for row in range(ctx.m) if ctx.row_kinds[row] == kind
            for col, (prefactor, roots, _) in enumerate(weights)
        ))
        points = range(0, q * count, q)
        scale = lcm(*(f.integer_parts[1] * q ** len(roots) for f, roots, _ in weights))
        values = []
        for prefactor, roots, constant in weights:
            nums, den = prefactor.integer_parts
            factor = constant * (scale // (den * q ** len(roots)))
            start = [factor * horner(nums, x) for x in range(count)]
            values.append(flat_linear_product(start, roots, points))
        tables[kind] = count, values, scale, flat_linear_product([1] * count, divisor, points), divisor
    adjugate.extend(max(count for count, *_ in tables.values()) + ctx.m)
    return tables


def full_mixing_polynomial(ctx, row):
    """The mixing polynomial checked at all K points: the numerator n summed at
    x = 0..K-1, the quotient interpolated at the first K - deg L' points where
    L' is nonzero, and quotient * L' = n required at every point; a mismatch
    names the reduced denominator of n / L' from the roots of L'.  The
    reference for the check at K'' points."""
    lead, _, q = casorati.normalizer_factors(ctx)
    count, weights, scale, divisor, roots = full_mixing_tables(ctx)[ctx.row_kinds[row]]
    adjugate = casorati._cleared_adjugate(ctx)
    numer = [0] * count
    for j, (weight, values) in enumerate(zip(weights, adjugate.values[row]), 1):
        numer = [n + w * v for n, w, v in zip(numer, weight, values[j : j + count])]
    scale *= prod(adjugate.dens) // adjugate.dens[row]
    power = q ** len(roots)
    nodes = [x for x, d in enumerate(divisor) if d][: max(count - len(roots), 0)]
    values = [Fraction(numer[x] * power, divisor[x] * scale * lead) for x in nodes]
    quotient = interpolate(*clear_denominators(values), nodes) if nodes else Polynomial.zero()
    nums, den = quotient.integer_parts
    lhs, rhs = lead * scale, den * power
    if any(horner(nums, x) * d * lhs != n * rhs for x, (n, d) in enumerate(zip(numer, divisor))):
        _, kept = divide_out_roots(interpolate(numer, scale), roots, q)
        reduced = Polynomial.from_integer_roots(kept, q)
        raise NonExactDivision(
            f"denominator of degree {reduced.degree} does not cancel", remainder=reduced
        )
    return quotient


def per_kind_mixing_tables(ctx):
    """casorati._mixing_tables with every row kind's weights and L' multiplied
    out on its own points, one ``_linear_product`` pass per distinct root of
    each, and K read off the per-entry cofactor bounds
    (``entry_cofactor_bounds``): the routes that the passes over the roots
    common to every kind and the sum of row degrees replaced.  Per row kind,
    (X, W, s, V, R', R'')."""
    _, _, q = casorati.normalizer_factors(ctx)
    tables, bounds = {}, entry_cofactor_bounds(ctx)
    for kind, (weights, divisor) in casorati._mixing_factors(ctx).items():
        kept = casorati._lcm_roots(term[2] for term in casorati._term_roots(ctx)[kind])
        count = max(0, sum(kept.values()) - sum(divisor.values()) + 1 + max(0, *(
            prefactor.degree + sum(roots.values()) + bounds[row, col]
            for row in range(ctx.m) if ctx.row_kinds[row] == kind
            for col, (prefactor, roots, _) in enumerate(weights)
        )))
        xs = [x for x in range(count + len(divisor)) if x * q not in divisor][:count]
        points = [x * q for x in xs]
        scale = lcm(*(f.integer_parts[1] * q ** sum(roots.values()) for f, roots, _ in weights))
        values = []
        for prefactor, roots, constant in weights:
            nums, den = prefactor.integer_parts
            factor = constant * (scale // (den * q ** sum(roots.values())))
            values.append(casorati._linear_product([factor * horner(nums, x) for x in xs], roots, points))
        tables[kind] = xs, values, scale, casorati._linear_product([1] * count, divisor, points), divisor, kept
    return tables


def reference_theta_substitute(poly, ab_sum):
    """The base-theta digits by repeated Polynomial.divmod by theta, the route
    that the one integer pass of hahn.theta_substitute replaced: a digit of
    positive degree raises."""
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


def peeling_theta_substitute(poly, ab_sum):
    """The theta expansion by a reflection check and peeling of leading terms
    with fresh theta powers, the reference for the digit route."""
    if reflect(poly, ab_sum) != poly:
        raise NotThetaRepresentable("polynomial is not invariant")
    theta = Polynomial((0, Fraction(ab_sum) + 1, 1))
    out = {}
    residual = poly
    while residual.degree > 0:
        if residual.degree % 2:
            raise NotThetaRepresentable("invariant polynomial with odd-degree residual")
        k = residual.degree // 2
        out[k] = residual.leading_coefficient
        residual = residual - out[k] * theta**k
    if not residual.is_zero:
        out[0] = residual.coefficient(0)
    return Polynomial([out.get(k, 0) for k in range(max(out, default=0) + 1)])


def reference_casorati_rows(ctx, t):
    """The raw rows as Fraction products, ratio_products times Y_r(theta): the
    reference for the integer rows."""
    p, m = ctx.params, ctx.m
    thetas = [p.eigenvalue(t - c) for c in range(m + 1)]
    rows = []
    for ratio, poly in zip(casorati.series_ratios(ctx), ctx.row_polys):
        products = ratio_products(ratio, range(t - m + 1, t + 1))
        rows.append([products[m - c] * poly(theta) for c, theta in enumerate(thetas)])
    return rows


def casorati_rows(ctx, t):
    """The raw Casorati rows at the integer t >= 0, as m integer rows of m + 1
    entries and one denominator D(t): one lane of the context's
    ``raw_points(ctx).lanes``.  A ratio pole at one of t - m + 1, ..., t
    raises ParameterSingularity through ``pole``; the point values are kept
    from s = -m, so a negative t raises ``ValueError``."""
    if t < 0:
        raise ValueError("degree must be nonnegative")
    raw = casorati.raw_points(ctx)
    rows, (denominator,) = raw.lanes(range(t, t + 1))
    if not denominator:
        raw.pole(range(t - raw.m + 1, t + 1))
    return tuple(tuple(v for (v,) in row) for row in rows), denominator


def reference_krall_polynomial(ctx, n):
    """q_n as one bordered cofactor_det over the reference rows."""
    border = [Polynomial.zero()] * (ctx.m + 1)
    for k in range(min(ctx.m, n) + 1):
        h = hahn_polynomial(n - k, ctx.params)
        border[k] = -h if k % 2 else h
    q = cofactor_det([*reference_casorati_rows(ctx, n), border])
    return -q if ctx.m % 2 else q


def theta_inputs(ctx):
    """The polynomials the construction expands in theta: the spectral sum and
    each mixing polynomial divided by the shifted step."""
    p = ctx.params
    theta = p.eigenvalue_poly()
    spectral = 2 * eigenvalue_polynomial(ctx)
    for row in range(ctx.m):
        spectral = spectral + ctx.row_polys[row].compose(theta) * mixing_polynomial(ctx, row)
    sigma_next = series_shift(p).shift_argument(1)
    return [spectral] + [
        mixing_polynomial(ctx, row).divide_exact(sigma_next) for row in range(ctx.m)
    ]


def reference_krall_operator(ctx):
    """(D, P, [M_r]): the spectral polynomial P and the mixing symbols M_r by
    reference_theta_substitute on theta_inputs, and D = P(H)/2 + sum_r
    M_r(H) L_r Y_r(H) by compose_operator on the reference Hahn operator H and
    ladder operators L_r: the reference for krall_operator,
    spectral_polynomial and mixing_symbol."""
    p = ctx.params
    s = p.a + p.b
    spectral, *symbols = [reference_theta_substitute(poly, s) for poly in theta_inputs(ctx)]
    rows = [
        (symbol, reference_ladder_operator(kind, p), poly)
        for symbol, kind, poly in zip(symbols, ctx.row_kinds, ctx.row_polys)
    ]
    operator = compose_operator(reference_hahn_operator(p), spectral * Fraction(1, 2), rows)
    return operator, spectral, symbols


def reference_hahn_operator(p):
    """The Hahn operator by Polynomial algebra on Fraction scalars, the
    reference for hahn.hahn_operator's integer parts."""
    x = Polynomial.variable()
    down = x * (x - p.b - p.N - 1)
    up = (x + p.a + 1) * (x - p.N)
    return DifferenceOperator({-1: down, 0: -(up + down), 1: up})


def reference_ladder_operator(kind, p):
    """The ladder operator as the identity times (a + b + 1)/2 plus a scaled
    forward or backward difference, the reference for ladder.ladder_operator's
    integer parts."""
    x = Polynomial.variable()
    half = Polynomial.constant(Fraction(p.a + p.b + 1, 2))
    identity = DifferenceOperator({0: half})
    forward, backward = DifferenceOperator({1: 1, 0: -1}), DifferenceOperator({0: 1, -1: -1})
    if kind == 1:
        return operator_add(identity, operator_scale(backward, x))
    if kind == 2:
        return operator_add(identity, operator_scale(forward, x - p.N))
    if kind == 3:
        return operator_add(identity, operator_scale(forward, x + p.a + 1))
    if kind == 4:
        return operator_add(identity, operator_scale(backward, x - p.b - p.N - 1))
    raise ValueError(f"kind must be 1..4, got {kind}")


# -- the operator algebra: the polynomial reference for diffops.operator_sum -------------


def zero_operator():
    return DifferenceOperator({})


def identity_operator():
    return DifferenceOperator({0: Polynomial.one()})


def operator_add(left, right):
    """left + right, shift by shift."""
    merged = dict(left.terms)
    for offset, coeff in right.terms.items():
        merged[offset] = merged.get(offset, Polynomial.zero()) + coeff
    return DifferenceOperator(merged)


def operator_scale(op, factor):
    """Left multiplication by a polynomial or a scalar in x."""
    factor = factor if isinstance(factor, Polynomial) else Polynomial.constant(factor)
    return DifferenceOperator({l: factor * c for l, c in op.terms.items()})


def operator_sub(left, right):
    """left - right."""
    return operator_add(left, operator_scale(right, -1))


def compose(left, right):
    """The operator product: compose(left, right)(f) = left(right(f)), term by
    term from h S_l g S_k = h(x) g(x + l) S_(l+k)."""
    out = {}
    for l, h in left.terms.items():
        for k, g in right.terms.items():
            out[l + k] = out.get(l + k, Polynomial.zero()) + h * g.shift_argument(l)
    return DifferenceOperator(out)


def operator_polynomial(poly, base):
    """poly(base), with base**0 the identity operator (Horner)."""
    acc = zero_operator()
    for c in reversed(poly.coeffs):
        acc = operator_add(compose(acc, base), operator_scale(identity_operator(), c))
    return acc


def compose_operator(base, head, rows):
    """head(base) + sum_r M_r(base) o L_r o Y_r(base) for rows (M_r, L_r, Y_r),
    by operator_polynomial and compose: the reference for the table route."""
    acc = operator_polynomial(head, base)
    for symbol, ladder, poly in rows:
        left = compose(operator_polynomial(symbol, base), ladder)
        acc = operator_add(acc, compose(left, operator_polynomial(poly, base)))
    return acc


# -- the eigen certificate ---------------------------------------------------------------


def reference_eigen_certificate(op, pairs):
    """For each (f, lambda), whether op.apply(f) == lambda * f, on the
    coefficient-degree bound: the residual has degree at most
    d = deg f + max_l deg h_l, so it is tested at every x = 0..d, with
    (lo, hi) the genre widened to hold 0."""
    pairs = [(f.integer_parts[0], as_rational(lam)) for f, lam in pairs]
    lo, hi = min((0, *op.terms)), max((0, *op.terms))
    coeff_degree = max((h.degree for h in op.terms.values()), default=0)
    points = max((len(nums) + coeff_degree for nums, _ in pairs), default=0)
    values, common = coefficient_values(op, range(points))  # H_l at x = 0..points - 1
    terms = [(l - lo, row) for l, row in values.items()]
    verdicts = []
    for nums, lam in pairs:
        last = len(nums) - 1 + coeff_degree
        at = [horner(nums, y) for y in range(lo, last + hi + 1)]  # at[y - lo] = F(y)
        scale = lam.numerator * common
        verdicts.append(
            all(
                lam.denominator * sum(values[x] * at[x + k] for k, values in terms)
                == scale * at[x - lo]
                for x in range(last + 1)
            )
        )
    return verdicts


# -- the oracle --------------------------------------------------------------------------


def fraction_rows(qs, lambdas, halfwidth, degree_cap):
    """The equation rows over the rationals, built from shifted polynomials."""
    offsets = range(-halfwidth, halfwidth + 1)
    width = degree_cap + 1
    rows, rhs = [], []
    for qn, lam in zip(qs, lambdas):
        shifted = {l: qn.shift_argument(l) for l in offsets}
        target = Fraction(lam) * qn
        for power in range(qn.degree + degree_cap + 1):
            row = [Fraction(0)] * ((2 * halfwidth + 1) * width)
            for col, l in enumerate(offsets):
                q_shift = shifted[l]
                for d in range(width):
                    if 0 <= power - d <= q_shift.degree:
                        row[col * width + d] = q_shift.coefficient(power - d)
            rows.append(row)
            rhs.append(target.coefficient(power))
    return rows, rhs


def _integer_rows(
    qs: Sequence[Polynomial],
    lambdas: Sequence[Rational],
    halfwidth: int,
    degree_cap: int,
) -> tuple[list[list[int]], list[int]]:
    """One equation per coefficient of D(q_n) - lambda_n q_n, as primitive integer rows.

    The unknowns are the coefficients of x^d (d <= degree_cap) in the operator
    coefficient at each shift.  Each row is the rational equation times the
    denominator of lambda_n and that of q_n, divided by its content.
    """
    offsets = range(-halfwidth, halfwidth + 1)
    width = degree_cap + 1
    rows: list[list[int]] = []
    rhs: list[int] = []
    for qn, lam in zip(qs, lambdas):
        cleared, _ = qn.integer_parts
        shifted = [[lam.denominator * c for c in taylor_shift(cleared, l)] for l in offsets]
        for power in range(qn.degree + degree_cap + 1):
            row = [0] * (len(offsets) * width)
            for col, q_shift in enumerate(shifted):
                for d in range(max(0, power - qn.degree), min(power, degree_cap) + 1):
                    row[col * width + d] = q_shift[power - d]
            target = lam.numerator * cleared[power] if power <= qn.degree else 0
            *row, target = _primitive([*row, target])
            rows.append(row)
            rhs.append(target)
    return rows, rhs


def _solve_globally(
    qs: Sequence[Polynomial],
    lambdas: Sequence[Rational],
    halfwidth: int,
    degree_cap: int,
) -> tuple[DifferenceOperator | None, int]:
    """One system in every coefficient of D, by :func:`solve_linear_system`.

    A rank profile modulo a prime certifies nullity 0 or inconsistency, a
    solution found modulo primes counts only after exact substitution into
    every equation, and a system rank-deficient modulo the prime is decided
    by exact fraction-free elimination of the integer rows.
    """
    solved = solve_linear_system(*_integer_rows(qs, lambdas, halfwidth, degree_cap))
    if solved is None:
        return None, 0
    solution, nullity = solved
    width = degree_cap + 1
    terms = {}
    for col, l in enumerate(range(-halfwidth, halfwidth + 1)):
        coeffs = solution[col * width : (col + 1) * width]
        terms[l] = Polynomial(coeffs)
    return DifferenceOperator(terms), nullity


@functools.cache
def cached_global_solve(qs, lambdas, halfwidth, degree_cap):
    """:func:`_solve_globally` on tuples, once per probe: the oracle tests and
    the verify tests compare the oracle check's probes with it."""
    return _solve_globally(list(qs), list(lambdas), halfwidth, degree_cap)


def window_pointwise_nodes(qs, lambdas, halfwidth, degree_cap):
    """Reference: the solution set of the pointwise system at each
    x = 0..degree_cap, by one Gauss-Jordan solve (:func:`gauss_jordan`) per
    point in the values h_l(x) themselves, as (aug, h, nullity): the integer
    rows [A | b], a particular h as ``Fraction`` values and the dimension of
    the kernel; None at the first inconsistent point.  No solver of the
    package runs here, so the nullity is independent of the oracle's.

    The row of q_n = Q_n / d_n at x is [den(lambda_n) Q_n(x + l) for l] +
    [num(lambda_n) Q_n(x)], its equation times d_n den(lambda_n).  Each Q_n
    is evaluated once per point, by integer Horner, as the scan reaches it.
    """
    width = 2 * halfwidth + 1
    numerators = [q.integer_parts[0] for q in qs]
    scales = [(Fraction(lam).denominator, Fraction(lam).numerator) for lam in lambdas]
    values: list[list[int]] = []  # values[i]: every Q_n at the point i - halfwidth
    sets = []
    for x in range(degree_cap + 1):
        while len(values) < x + width:
            y = len(values) - halfwidth
            values.append([horner(nums, y) for nums in numerators])
        window = values[x : x + width]
        centre = window[halfwidth]
        aug = [
            _primitive([den * column[n] for column in window] + [num * centre[n]])
            for n, (den, num) in enumerate(scales)
        ]
        solved = gauss_jordan([row[:-1] for row in aug], [row[-1] for row in aug])
        if solved is None:
            return None
        sets.append((aug, *solved))
    return sets


def primitive_row(row):
    """A rational row scaled by a positive factor to coprime integers."""
    scale = lcm(*(v.denominator for v in row))
    ints = [v.numerator * (scale // v.denominator) for v in row]
    content = gcd(*ints)
    return [v // content for v in ints] if content else ints


# -- the verification checks --------------------------------------------------------------


def apply_route_failures(cfg, op, build):
    """The eigen-equation failures by the reference route: each q_n through
    the degree and leading-coefficient gates, then op.apply(q_n) == lambda_n q_n."""
    run = build_run(cfg)
    ctx = run.ctx
    lam = eigenvalue_polynomial(ctx)
    failures = []
    for n in range(run.n_max + 1):
        qn = build(ctx, n)
        if qn.degree != n:
            failures.append({"n": n, "reason": f"degree {qn.degree}"})
        elif qn.leading_coefficient != fraction_casorati_value(
            ctx, n
        ) * pochhammer_hahn_leading_coefficient(n, ctx.params):
            failures.append({"n": n, "reason": "leading coefficient mismatch"})
        elif op.apply(qn) != Fraction(lam(n)) * qn:
            failures.append({"n": n, "reason": "eigen-equation residual nonzero"})
    return failures


def solve_lower_probe(qs, lambdas, r):
    """Reference: the second solve, at half-width r - 1, that the check used to make."""
    lower_cap = max(2 * (r - 1), 0)
    lower, _ = operator_solution_space(qs, lambdas, r - 1, lower_cap)
    return f"solvable with degree cap {lower_cap}" if lower is not None else "unsolvable"


def fraction_check_foeq(ctx, measure):
    """The criteria check on Fraction arithmetic: each moment integrated over
    the support, the forward ratio products as Fraction running products, and
    every ratio sum and comparison in Fractions.  A forward pole raises
    ParameterSingularity from ``ratio_products``."""
    p = ctx.params
    m = ctx.m
    if m == 0:
        return True, {"note": "no determinant rows; criteria are vacuous"}
    ratios = series_ratios(ctx)
    for kind, ratio in sorted(dict(zip(ctx.row_kinds, ratios)).items()):
        bad = [t for t in range(1 - m, 1) if not all(poly(t) for poly in ratio)]
        if bad:
            return False, {
                "precondition": f"ratio sequence of kind {kind} vanishes or blows "
                f"up at nonpositive integer(s) {bad}"
            }
    roots = ctx.spectral_roots
    theta_start = p.eigenvalue(-1)
    denominators = []
    for i in range(m):
        pprime = Fraction(1)
        for j in range(m):
            if j != i:
                pprime *= roots[i] - roots[j]
        start_value = ctx.row_polys[i](theta_start)
        if start_value == 0:
            return False, {
                "precondition": f"row {i} polynomial vanishes at the starting "
                "eigenvalue; the criteria sums are undefined"
            }
        denominators.append(pprime * start_value)

    # xi_i(n) = ratio(0) ... ratio(n) for n >= -1, and 1 / (ratio(-1) ...
    # ratio(n + 1)) below, down to the boundary n = -m
    forward = [ratio_products(ratio, range(p.N + 1)) for ratio in ratios]
    backward = [ratio_products(ratio, range(-1, -m, -1)) for ratio in ratios]

    def ratio_sum(n: int) -> Fraction:
        theta = p.eigenvalue(n)
        total = Fraction(0)
        for i in range(m):
            xi = forward[i][n + 1] if n >= -1 else 1 / backward[i][-n - 1]
            total += xi * ctx.row_polys[i](theta) / denominators[i]
        return total

    constant = None
    fit_at = None
    failures = []
    for n in range(p.N + 1):
        lhs = fraction_integrate(measure, base_polynomial(ctx, n))
        rhs = ratio_sum(n) * (-1 if n % 2 else 1)
        if constant is None:
            if rhs != 0:
                constant = lhs / rhs
                fit_at = n
                if constant == 0:
                    failures.append({"n": n, "reason": "fitted constant is zero"})
                    break
            elif lhs != 0:
                failures.append({"n": n, "reason": "moment nonzero but sum zero"})
        elif lhs != constant * rhs:
            failures.append(
                {
                    "n": n,
                    "moment": format_rational(lhs),
                    "scaled_sum": format_rational(constant * rhs),
                }
            )
    negative_failures = []
    for n in range(1 - m, 0):
        total = ratio_sum(n)
        if total != 0:
            negative_failures.append({"n": n, "sum": format_rational(total)})
    boundary = ratio_sum(-m)
    witness = {
        "constant": format_rational(constant) if constant is not None else None,
        "fitted_at": fit_at,
        "checked_up_to": p.N,
        "moment_failures": failures,
        "negative_range": [1 - m, -1],
        "negative_failures": negative_failures,
        "boundary_sum": format_rational(boundary),
    }
    ok = (
        constant is not None
        and not failures
        and not negative_failures
        and boundary != 0
    )
    return ok, witness
