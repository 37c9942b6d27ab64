"""Hahn and dual Hahn families: polynomials, operator, recurrence, weights.

The Hahn polynomials are built straight from their defining sum, so the
three-term recurrence and the second-order eigenvalue equation remain
independent checks of the same family.  The coefficients of a Hahn sum, and
of a dual Hahn sum, are integers over one denominator, stepped by integer
running products from the integer parts of the parameters, and each sum is
expanded by integer Horner in Newton form.  The Hahn polynomials of one
parameter triple come from one :class:`HahnFamily`, which keeps those running
products from degree to degree and each h_n it builds.

Weights are stored with the constant N! * Gamma(a+1) * Gamma(b+1) divided
out, which keeps every mass rational; all weight comparisons in this package
are up to a global constant anyway.  The masses are stepped by their one-step
ratio (Koekoek et al., 9.5), each kept as a reduced integer pair: the step is
reduced and cross-cancelled against the mass before it multiplies (Knuth,
TAOCP 4.5.1), and the masses go to the measure as integer parts over the lcm
of their denominators, canonical as they are, with no ``Fraction`` built.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb, factorial, gcd, lcm, prod
from operator import sub

from .diffops import DifferenceOperator
from .errors import NotThetaRepresentable, ParameterSingularity
from .measures import DiscreteMeasure, canonical_measure, christoffel
from .polynomials import Polynomial, divide_out_roots, newton_form
from .rationals import Rational, as_rational, format_rational
from .sets import SetQuartet, default_pads, set_max


@dataclass(frozen=True)
class HahnParams:
    """Parameter triple (a, b, N) with N a positive integer.

    Validation matches the classical requirements for the finite weight on
    {0, ..., N}: a, b must avoid -1, ..., -N and a + b must avoid
    -1, ..., -2N-1.
    """

    a: Fraction
    b: Fraction
    N: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", as_rational(self.a))
        object.__setattr__(self, "b", as_rational(self.b))
        if not isinstance(self.N, int) or self.N < 1:
            raise ParameterSingularity(f"N must be a positive integer, got {self.N!r}")
        for name, value in (("a", self.a), ("b", self.b)):
            if value.denominator == 1 and -self.N <= value.numerator <= -1:
                raise ParameterSingularity(
                    f"{name} = {format_rational(value)} lies in -1..-{self.N}"
                )
        s = self.a + self.b
        if s.denominator == 1 and -2 * self.N - 1 <= s.numerator <= -1:
            raise ParameterSingularity(
                f"a+b = {format_rational(s)} lies in -1..-{2 * self.N + 1}"
            )

    @cached_property
    def theta_shift(self) -> Fraction:
        """a + b + 1, as in theta_x = x (x + a + b + 1), taken once per triple:
        the integer routes read its parts."""
        return self.a + self.b + 1

    def eigenvalue(self, n: Rational | int) -> Fraction:
        """theta_n = n (n + a + b + 1)."""
        n = as_rational(n)
        return n * (n + self.a + self.b + 1)

    def eigenvalue_poly(self, shift: Rational | int = 0) -> Polynomial:
        """theta_{x+shift} as a polynomial in x."""
        base = Polynomial((0, self.a + self.b + 1, 1))
        return base.shift_argument(shift)


def reflect(poly: Polynomial, shift: Rational | int) -> Polynomial:
    """p(x) -> p(-(x + shift + 1)); an involution fixing theta when shift = a+b."""
    return poly.reflect_argument().shift_argument(as_rational(shift) + 1)


def theta_substitute(poly: Polynomial, ab_sum: Rational | int) -> Polynomial:
    """Rewrite a reflection-invariant polynomial as a polynomial in theta_x.

    theta_x = x(x + a + b + 1).  With a + b + 1 = P/Q, y = Q x and p = C / den
    of degree d, Q^d p is the integer polynomial E(y) = sum_k C_k Q^(d-k) y^k,
    and Q^2 theta = T(y) = y(y + P) is monic in y.  So E's base-T digits come
    from integer subtractions alone, in one pass: dividing by T leaves the
    remainder in E's two lowest slots and the quotient above them, and the
    quotient is divided in place in turn.  Digit k, r_k + s_k y, stands for
    r_k Q^(2k) theta^k / (Q^d den).  theta is invariant under
    x -> -(x + a + b + 1) and a linear digit is not, so a nonzero s_k means
    no such form: it raises.
    """
    nums, den = poly.integer_parts
    shift = as_rational(ab_sum) + 1
    P, Q = shift.numerator, shift.denominator
    top = len(nums) - 1
    digits, power = [], 1
    for c in reversed(nums):
        digits.append(c * power)
        power *= Q
    digits.reverse()  # digits[k] = C_k Q^(top - k)
    for start in range(2, top + 1, 2):
        for i in range(top, start - 1, -1):
            digits[i - 1] -= P * digits[i]
    if any(digits[1::2]):
        raise NotThetaRepresentable("polynomial is not invariant under x -> -(x + a + b + 1)")
    scaled, power = [], 1
    for r in digits[::2]:
        scaled.append(r * power)
        power *= Q * Q
    return Polynomial.from_integer_parts(scaled, den * Q ** max(top, 0))


class HahnFamily:
    """The Hahn polynomials h_n of one parameter triple, each built once, on request.

    With a+b+1 = P/Q and a+1 = p/q, term j of h_n (:func:`hahn_polynomial`)
    is an integer over one denominator:

        den_n  = Q^n n! prod_{i<n} (P + (N+1+i)Q) prod_{i<n} (p + iq),
        term_j = C(n, j) R_{n+j} q^j prod_{j<=i<n} (N-i)(p + iq)Q,

    with R_k = prod_{i<k} (P + iQ).  Each of these factors steps from one index
    to the next by one integer product, so the family keeps den_n, R_k up to
    k = 2n, q^j and the steps (N-i)(p + iq)Q as running lists, grown to the
    largest degree asked for (Koekoek, Lesky and Swarttouw, 9.5).  A degree
    then takes its falling products and its binomials, stepped down Pascal's
    row from j = n, inside one Horner pass on the integer nodes 0..n-1 of
    (-x)_j = prod_{i<j} (i - x), and is normalised once.

    (2+a+b+N)_n vanishes for every n past the index i with P + (N+1+i)Q = 0,
    and (a+1)_n past the i with p + iq = 0.  The sum is undefined there, and
    that raises ParameterSingularity in whatever order the degrees are asked
    for.
    """

    def __init__(self, p: HahnParams) -> None:
        self.params = p
        P, Q, q = p.theta_shift.numerator, p.theta_shift.denominator, p.a.denominator
        self._parts = P, Q, p.a.numerator + q, q
        # the indices at which P + (N+1+i)Q and p + iq vanish, negative for none:
        # -P/Q - N - 1 (-p/q) must be an integer, so Q = 1 (q = 1)
        self._zeros = -P - p.N - 1 if Q == 1 else -1, -p.a.numerator - q if q == 1 else -1
        self._dens, self._steps, self._rising, self._powers, self._built = [1], [], [1], [1], {}

    def __getitem__(self, n: int) -> Polynomial:
        """h_n, built on the first request and kept."""
        if n in self._built:
            return self._built[n]
        self._grow(n)
        den, steps, rising, powers = self._dens[n], self._steps, self._rising, self._powers
        # the falling products start from the sign of den, so that the denominator is positive
        acc, falling, binomial = [], 1 if den > 0 else -1, 1
        for j in range(n, -1, -1):
            if j < n:
                falling *= steps[j]
                binomial = binomial * (j + 1) // (n - j)
            term = binomial * powers[j] * rising[n + j] * falling
            # acc -> (j - x) acc + term: (-x)_(j+1) = (-x)_j (j - x)
            acc = [term + j * acc[0], *map(sub, map(j.__mul__, acc[1:]), acc), -acc[-1]] if acc else [term]
        self._built[n] = Polynomial.from_integer_parts(acc, abs(den))
        return self._built[n]

    def leading_coefficient(self, n: int) -> Fraction:
        """(-1)^n (a+b+1)_{2n} / ((2+a+b+N)_n (a+1)_n n!) = (-1)^n R_{2n} q^n / den_n."""
        self._grow(n)
        return Fraction((-1) ** n * self._rising[2 * n] * self._powers[n], self._dens[n])

    def _grow(self, n: int) -> None:
        """Raise for a degree that the sum leaves undefined; else extend the
        running products to degree n."""
        p, (outer, low) = self.params, self._zeros
        if n < 0:
            raise ValueError("degree must be nonnegative")
        if 0 <= outer < n:
            raise ParameterSingularity(
                f"(2+a+b+N)_{n} vanishes for a+b = {format_rational(p.theta_shift - 1)}, N = {p.N}"
            )
        if 0 <= low < n:
            raise ParameterSingularity(f"(a+1)_{low + 1} vanishes for a = {format_rational(p.a)}")
        (P, Q, lo, q), N = self._parts, p.N
        dens, steps, rising, powers = self._dens, self._steps, self._rising, self._powers
        for i in range(len(steps), n):
            factor = lo + i * q
            steps.append((N - i) * factor * Q)
            dens.append(dens[i] * ((i + 1) * Q * (P + (N + 1 + i) * Q) * factor))
            powers.append(powers[i] * q)
        for k in range(len(rising) - 1, 2 * n):
            rising.append(rising[k] * (P + k * Q))


def hahn_polynomial(n: int, p: HahnParams) -> Polynomial:
    """Degree-n Hahn polynomial from the defining hypergeometric-type sum,

        h_n(x) = sum_j (N-n+1)_{n-j} (a+b+1)_{n+j} / ((2+a+b+N)_n (a+1)_j (n-j)! j!) (-x)_j,

    read off a fresh :class:`HahnFamily`: O(n) integer products and one
    O(n^2) Horner pass.  A degree the sum leaves undefined raises
    ParameterSingularity, and a negative degree ValueError."""
    return HahnFamily(p)[n]


def hahn_leading_coefficient(n: int, p: HahnParams) -> Fraction:
    """Leading coefficient of the degree-n Hahn polynomial,
    (-1)^n (a+b+1)_{2n} / ((2+a+b+N)_n (a+1)_n n!), as one ``Fraction`` of the
    integer running products of a fresh :class:`HahnFamily`."""
    return HahnFamily(p).leading_coefficient(n)


def hahn_operator(p: HahnParams) -> DifferenceOperator:
    """Second-order difference operator with the Hahn family as eigenfunctions:
    down S_-1 - (up + down) S_0 + up S_1, with down = x(x - b - N - 1) and
    up = (x + a + 1)(x - N), on the integer parts of a and b over
    L = lcm(den a, den b)."""
    N, a, b = p.N, p.a, p.b
    den = lcm(a.denominator, b.denominator)
    A, B = a.numerator * (den // a.denominator), b.numerator * (den // b.denominator)
    down = (0, -B - (N + 1) * den, den)
    up = (-N * (A + den), A + den - N * den, den)
    middle = [-(u + d) for u, d in zip(up, down)]
    return DifferenceOperator({
        l: Polynomial.from_integer_parts(nums, den)
        for l, nums in ((-1, down), (0, middle), (1, up))
    })


def hahn_recurrence_functions(p: HahnParams) -> tuple[tuple[Polynomial, Polynomial], ...]:
    """The three-term recurrence coefficients as rational functions of the degree.

    Each is a reduced (numerator, denominator) pair with monic denominator.
    Convention: x h_n = A(n+1) h_{n+1} + B(n) h_n + C(n) h_{n-1}.  Each
    denominator, a product of two factors 2n + s + k with s = a + b, is 4 times
    the monic product over their roots -(s + k)/2, taken over q = 2 den(s).
    """
    a, b, N = p.a, p.b, p.N
    n = Polynomial.variable()
    s = a + b
    q = 2 * s.denominator

    def over(numer: Polynomial, *ks: int) -> tuple[Polynomial, Polynomial]:
        roots = [-s.numerator - k * s.denominator for k in ks]
        numer, kept = divide_out_roots(numer, roots, q)
        return numer / 4, Polynomial.from_integer_roots(kept, q)

    return (
        over(-(n * (n + a) * (n + s + N + 1)), -1, 0),
        over(Polynomial.constant(N * (a + 1) * s) + n * (2 * N + b - a) * (n + s + 1), 0, 2),
        over(-((n + s) * (n + b) * (N - n + 1)), 0, 1),
    )


def hahn_recurrence(n: int, p: HahnParams) -> tuple[Fraction, Fraction, Fraction]:
    """(A(n), B(n), C(n)) evaluated at integer degree n."""
    if n == 0:  # the reduced forms cancel a factor that is 0/0 here at a + b = 0 or 1
        s = p.a + p.b
        return Fraction(0), p.N * (p.a + 1) / (s + 2), -p.b * (p.N + 1) / (s + 1)
    try:
        return tuple(  # type: ignore[return-value]
            numer(n) / denom(n) for numer, denom in hahn_recurrence_functions(p)
        )
    except ZeroDivisionError as exc:
        raise ParameterSingularity(
            f"recurrence coefficient undefined at n = {n} for a+b = "
            f"{format_rational(p.a + p.b)}"
        ) from exc


def hahn_weight(p: HahnParams) -> DiscreteMeasure:
    """Weight on {0, ..., N} modulo the global constant N! Gamma(a+1) Gamma(b+1).

    w(x) = (a+1)_x (b+1)_{N-x} / (x! (N-x)!), from w(0) and the step
    w(x+1) / w(x) = (x+a+1)(N-x) / ((x+1)(N-x+b)), nonzero by the exclusions.
    Each mass is a reduced pair num / den.  With a = pa/qa and b = pb/qb the
    step is up / down in integers, reduced; then num up / (den down) is reduced
    by gcd(num, down) and gcd(up, den) alone.  A den may be negative: the lcm L
    of the dens is positive, and the exact quotient L // den carries the sign.
    L and each L // den come from a tree of lcms (:func:`_lcm_cofactors`).
    The masses over L are canonical parts, handed over with no further gcd:
    for a prime p dividing L, take a den with the largest power of p; then p
    divides neither L // den nor, the pair being reduced, its num.
    """
    a, b, N = p.a, p.b, p.N
    pa, qa, pb, qb = a.numerator, a.denominator, b.numerator, b.denominator
    num, den = prod(pb + (1 + i) * qb for i in range(N)), qb**N * factorial(N)
    g = gcd(num, den)
    num, den = num // g, den // g
    pairs = [(num, den)]
    for x in range(N):
        up, down = ((x + 1) * qa + pa) * (N - x) * qb, (x + 1) * ((N - x) * qb + pb) * qa
        g = gcd(up, down)
        up, down = up // g, down // g
        g, h = gcd(num, down), gcd(up, den)
        num, den = (num // g) * (up // h), (den // h) * (down // g)
        pairs.append((num, den))
    common, cofactors = _lcm_cofactors([den for _, den in pairs])
    masses = tuple(num * c for (num, _), c in zip(pairs, cofactors))
    return canonical_measure(tuple(range(N + 1)), 1, masses, common)


# below about 32 operands of the sizes hahn_weight hands over, one flat lcm
# is faster than a tree of pairs, which only adds calls
_LCM_BLOCK = 32


def _lcm_cofactors(dens: list[int]) -> tuple[int, list[int]]:
    """(L, [L // d for d in dens]) for nonzero integers, L their lcm > 0.

    Each block of _LCM_BLOCK dens takes one flat lcm, and L is a balanced
    tree of lcms of pairs over those, so no lcm reads a large operand against
    a small one.  Each L // d is the product of the exact quotients
    parent // child on the path from the root down to d.
    """
    blocks = [dens[i : i + _LCM_BLOCK] for i in range(0, len(dens), _LCM_BLOCK)]
    levels = [[lcm(*block) for block in blocks]]
    while len(levels[-1]) > 1:
        below = levels[-1]
        levels.append([lcm(*below[i : i + 2]) for i in range(0, len(below), 2)])
    factors = [1]
    for above, below in zip(levels[:0:-1], levels[-2::-1]):
        factors = [factors[i // 2] * (above[i // 2] // node) for i, node in enumerate(below)]
    return levels[-1][0], [
        f * (top // d) for f, top, block in zip(factors, levels[0], blocks) for d in block
    ]


def dual_hahn_polynomial(
    n: int, alpha: Rational | int, beta: Rational | int, gamma: Rational | int
) -> Polynomial:
    """Degree-n dual Hahn polynomial with parameters (alpha, beta, gamma).

    The third parameter plays the role of the support size but may be any
    rational here.  Requires alpha != -1, -2, ...
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    alpha, beta, gamma = as_rational(alpha), as_rational(beta), as_rational(gamma)
    if alpha.denominator == 1 and alpha.numerator <= -1:
        raise ParameterSingularity(
            f"dual family needs alpha not in -1,-2,...; got {format_rational(alpha)}"
        )
    # Term j is (-1)^j (-n)_j (-gamma+j)_{n-j} / ((alpha+1)_j j!) on prod_{i<j} (x - i(i+s)),
    # s = alpha+beta+1 = P/Q, and (-1)^j (-n)_j / j! = C(n, j).  With alpha = pa/qa and
    # gamma = pg/qg, (alpha+1)_j = prod(low[:j]) / qa^j and (-gamma+j)_{n-j} is
    # prod_{j<=i<n} (i qg - pg) / qg^(n-j), so over the one denominator qg^n prod(low)
    # term j is C(n, j) (qa qg)^j prod_{j<=i<n} (i qg - pg) low[i].
    pa, qa, pg, qg = alpha.numerator, alpha.denominator, gamma.numerator, gamma.denominator
    s = alpha + beta + 1
    P, Q = s.numerator, s.denominator
    low = [pa + (1 + i) * qa for i in range(n)]
    den = qg**n * prod(low)
    # the factors of term j that fall with j, stepped down from j = n; the sign
    # of the denominator starts the product, so that the denominator is positive
    falling = [1 if den > 0 else -1]
    for j in range(n - 1, -1, -1):
        falling.append(falling[-1] * (j * qg - pg) * low[j])
    falling.reverse()
    coeffs, rising = [], 1
    for j in range(n + 1):
        if j:
            rising *= qa * qg
        coeffs.append(comb(n, j) * rising * falling[j])
    nodes = [Fraction(j * (j * Q + P), Q) for j in range(n)]
    numerators, scale = newton_form(coeffs, nodes).integer_parts
    return Polynomial.from_integer_parts(numerators, scale * abs(den))


# -- the four companion families -------------------------------------------------

_COMPANION_SIGNS = {1: ("b", "a", 1), 2: ("a", "b", 1), 3: ("b", "a", -1), 4: ("a", "b", -1)}


def companion_parameters(kind: int, p: HahnParams) -> tuple[Fraction, Fraction, Fraction]:
    """(alpha, beta, gamma) of the dual family attached to a ladder kind."""
    if kind not in _COMPANION_SIGNS:
        raise ValueError(f"kind must be 1..4, got {kind}")
    first, second, which = _COMPANION_SIGNS[kind]
    alpha = -getattr(p, first)
    beta = -getattr(p, second)
    gamma = Fraction(p.a + p.b + p.N) if which == 1 else Fraction(-2 - p.N)
    return alpha, beta, gamma


def companion_polynomial(kind: int, degree: int, p: HahnParams) -> Polynomial:
    """Dual-family polynomial, in the eigenvalue variable, for one ladder kind.

    These are the default determinant-row polynomials: they satisfy the Hahn
    three-term recurrence twisted by the kind's ladder ratio.
    """
    alpha, beta, gamma = companion_parameters(kind, p)
    base = dual_hahn_polynomial(degree, alpha, beta, gamma)
    return base.shift_argument(p.a + p.b)


def companion_eigencoefficients(kind: int, p: HahnParams) -> tuple[Fraction, Fraction]:
    """(slope, intercept): the twisted recurrence multiplies by slope*j + intercept."""
    table = {
        1: (Fraction(1), -p.b - p.N),
        2: (Fraction(-1), Fraction(p.a)),
        3: (Fraction(-1), Fraction(-p.N - 1)),
        4: (Fraction(1), Fraction(1)),
    }
    if kind not in table:
        raise ValueError(f"kind must be 1..4, got {kind}")
    return table[kind]


# -- transformed weights -----------------------------------------------------------


def factored_hahn_weight(p: HahnParams, quartet: SetQuartet) -> DiscreteMeasure:
    """Christoffel transform of the Hahn weight by the quartet's factor polynomial."""
    f1, f2, f3, f4 = quartet.sets
    # prod (b+N+1+f - x) prod (x + a+1+f) prod (N-f - x) prod (x - f)
    factor = Polynomial.from_roots(
        [p.b + p.N + 1 + f for f in f1] + [-p.a - 1 - f for f in f2]
        + [p.N - f for f in f3] + list(f4)
    )
    return christoffel(hahn_weight(p), factor * (-1) ** (len(f1) + len(f3)))


def transformed_parameters(
    p: HahnParams, quartet: SetQuartet, pads: tuple[int, int, int]
) -> HahnParams:
    """Parameters of the shifted base weight used by the direct construction."""
    f1m, f2m, f3m, f4m = quartet.maxima
    a = p.a - f2m - f4m - pads[1] - 1
    b = p.b - f1m - f3m - pads[0] - pads[2]
    N = p.N + f3m + f4m + pads[2] + 1
    try:
        return HahnParams(a, b, N)
    except ParameterSingularity as exc:
        raise ParameterSingularity(f"shifted base weight is degenerate: {exc}") from exc


def transformed_hahn_weight(
    p: HahnParams, quartet: SetQuartet, pads: tuple[int, int, int]
) -> DiscreteMeasure:
    """The measure the constructed polynomials are orthogonal against.

    A polynomial factor times the Hahn weight with shifted parameters,
    translated so the support starts at -(max of the fourth set) - 1.
    """
    shifted = transformed_parameters(p, quartet, pads)
    f4m = set_max(quartet.fourth)
    base = hahn_weight(shifted).translate(Fraction(-f4m - 1))
    f1, f2, f3, f4 = quartet.sets
    # prod (b+N+1-f - x) prod (x + a+1-f) prod (N+f - x) prod (x + max F4+1-f)
    factor = Polynomial.from_roots(
        [p.b + p.N + 1 - f for f in f1] + [f - p.a - 1 for f in f2]
        + [p.N + f for f in f3] + [f - f4m - 1 for f in f4]
    )
    return christoffel(base, factor * (-1) ** (len(f1) + len(f3)))


def transformed_support(p: HahnParams, quartet: SetQuartet, pads: tuple[int, int, int]) -> list[int]:
    """Expected support of the transformed weight, in increasing order, from the
    set data alone."""
    f3m, f4m = set_max(quartet.third), set_max(quartet.fourth)
    removed = {p.N + f for f in quartet.third} | {-f4m - 1 + f for f in quartet.fourth}
    return [x for x in range(-f4m - 1, p.N + f3m + pads[2] + 1) if x not in removed]


@dataclass(frozen=True)
class CorollaryReduction:
    """Direct-construction data equivalent to a Christoffel-factored weight.

    Running the construction at ``params`` with ``quartet`` and ``pads``, then
    translating every output by ``shift``, realises the factored weight at the
    original parameters.
    """

    params: HahnParams
    quartet: SetQuartet
    pads: tuple[int, int, int]
    shift: int


def corollary_reduction(p: HahnParams, quartet: SetQuartet) -> CorollaryReduction:
    """Reduce a factored-weight problem to a direct construction.

    Validates the stronger parameter constraints this reduction needs: a, b,
    a+b off the negative integers, and two positive-integer exclusions tied
    to the set maxima, and a reduced N = N - max F3 - max F4 - 2 of at least 1.
    """
    for name, value in (("a", p.a), ("b", p.b), ("a+b", p.a + p.b)):
        if value.denominator == 1 and value.numerator <= -1:
            raise ParameterSingularity(
                f"{name} = {format_rational(value)} is a negative integer"
            )
    f1m, f2m, f3m, f4m = quartet.maxima
    if quartet.second or quartet.fourth:
        probe = p.a + f2m + f4m + 1
        if probe.denominator == 1 and probe.numerator >= 0:
            raise ParameterSingularity(
                "a plus the second/fourth set maxima plus 1 is the nonnegative "
                f"integer {format_rational(probe)}"
            )
    if quartet.first or quartet.third:
        probe = p.b + f1m + f3m + 1
        if probe.denominator == 1 and probe.numerator >= 0:
            raise ParameterSingularity(
                "b plus the first/third set maxima plus 1 is the nonnegative "
                f"integer {format_rational(probe)}"
            )
    if p.N - f3m - f4m - 2 < 1:
        raise ParameterSingularity(
            f"the corollary path needs N >= max F3 + max F4 + 3 = {f3m + f4m + 3} "
            f"(max of an empty set is -1), got N = {p.N}"
        )
    inner = HahnParams(
        p.a + f2m + f4m + 2,
        p.b + f1m + f3m + 2,
        p.N - f3m - f4m - 2,
    )
    return CorollaryReduction(inner, quartet.reversal(), default_pads(quartet), f4m + 1)
