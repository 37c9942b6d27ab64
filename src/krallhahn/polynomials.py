"""Dense univariate polynomials over the rationals.

A :class:`Polynomial` stores a tuple of ``int`` numerators, constant term
first and with no trailing zeros, over one ``int`` denominator > 0.  The form
is canonical: the gcd of the numerators and the denominator is 1, and the
zero polynomial is ``((), 1)``.  Equal polynomials therefore have equal parts,
and ``==`` and ``hash`` read the parts.

Sums scale both sides to the lcm of the denominators, products are integer
convolutions, evaluation is homogeneous integer Horner (on bare integer
numerators too, by :func:`horner`), :meth:`Polynomial.shift_argument` is an
integer Taylor shift (a rational shift p/q goes through q^n f(y/q)), and
Newton-form sums are integer Horner (:func:`newton_form`); ``/`` divides by a
scalar only.  :func:`interpolate` is the one route from integer values at
integer nodes back to a polynomial, :func:`antidifference` among its callers;
several tables of one length go through it in one call, as lanes.  Each
result is made canonical once.
``Fraction`` appears only at the edges: scalars are read by
:func:`~krallhahn.rationals.as_rational`, so a ``float`` raises ``TypeError``,
and ``coefficient``, ``leading_coefficient``, ``coeffs``, iteration,
evaluation and the string forms give ``Fraction`` values.  Every polynomial
quotient the construction takes is by linear factors with known roots: the
ladder ratios and recurrence coefficients, reduced to (numerator,
denominator) pairs, the mixing quotient's error path, the core determinant
over the normaliser and the mixing polynomials over the shifted step.  One
synthetic division per root takes them all (:func:`divide_out_roots`), so no
pseudo-division or polynomial gcd is taken.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm
from operator import add, mul, sub
from typing import Iterable, Iterator, Sequence, Union

from .rationals import as_rational, clear_denominators, format_rational

Scalar = Union[int, Fraction]


class Polynomial:
    """Univariate polynomial with exact rational coefficients."""

    __slots__ = ("_numerators", "_denominator")

    def __init__(self, coeffs: Iterable[Scalar] = ()) -> None:
        canonical = _make(*clear_denominators(tuple(coeffs)))
        self._numerators = canonical._numerators
        self._denominator = canonical._denominator

    # -- construction helpers ------------------------------------------------

    @classmethod
    def zero(cls) -> "Polynomial":
        return _ZERO

    @classmethod
    def one(cls) -> "Polynomial":
        return _ONE

    @classmethod
    def constant(cls, c: Scalar) -> "Polynomial":
        return cls((c,))

    @classmethod
    def variable(cls) -> "Polynomial":
        """The monomial x."""
        return _X

    @classmethod
    def from_roots(cls, roots: Iterable[Scalar]) -> "Polynomial":
        """The monic product of (x - r) over the roots, with multiplicity."""
        return cls.from_integer_roots(*clear_denominators(list(roots)))

    @classmethod
    def from_integer_roots(cls, numerators: Iterable[int], denominator: int) -> "Polynomial":
        """The monic product of (x - p / denominator) over the integers p, with
        multiplicity: prod (denominator x - p) over denominator^k, expanded on
        integers, for a denominator > 0."""
        acc, q, k = [1], denominator, 0
        for p in numerators:
            middle = [q * prev - p * cur for prev, cur in zip(acc, acc[1:])]
            acc = [-p * acc[0], *middle, q * acc[-1]]
            k += 1
        return _make(acc, q**k)

    # -- basic queries -------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial mapped to -1."""
        return len(self._numerators) - 1

    @property
    def is_zero(self) -> bool:
        return not self._numerators

    @property
    def integer_parts(self) -> tuple[tuple[int, ...], int]:
        """(numerators, denominator): the polynomial is sum_k numerators[k] x^k / denominator.

        The denominator is the lcm of the reduced coefficients' denominators.
        """
        return self._numerators, self._denominator

    @classmethod
    def from_integer_parts(cls, numerators: Sequence[int], denominator: int) -> "Polynomial":
        """The polynomial sum_k numerators[k] x^k / denominator; the inverse of
        :attr:`integer_parts` for any parts with a positive denominator."""
        if denominator <= 0:
            raise ValueError(f"denominator must be positive, got {denominator}")
        return _make(list(numerators), denominator)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients, constant term first; built on each access."""
        den = self._denominator
        return tuple(Fraction(c, den) for c in self._numerators)

    @property
    def leading_coefficient(self) -> Fraction:
        if not self._numerators:
            return Fraction(0)
        return Fraction(self._numerators[-1], self._denominator)

    def coefficient(self, k: int) -> Fraction:
        if 0 <= k < len(self._numerators):
            return Fraction(self._numerators[k], self._denominator)
        return Fraction(0)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "Polynomial | Scalar") -> "Polynomial":
        other = _promote(other)
        if other is NotImplemented:
            return NotImplemented
        a, da = self._numerators, self._denominator
        b, db = other._numerators, other._denominator
        if not b:
            return self
        if not a:
            return other
        if da != db:
            den = lcm(da, db)
            if den != da:
                a = [c * (den // da) for c in a]
            if den != db:
                b = [c * (den // db) for c in b]
            da = den
        if len(a) < len(b):
            a, b = b, a
        out = list(map(add, a, b))
        out += a[len(b):]
        return _make(out, da)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return _wrap(tuple(-c for c in self._numerators), self._denominator)

    def __sub__(self, other: "Polynomial | Scalar") -> "Polynomial":
        other = _promote(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: Scalar) -> "Polynomial":
        return (-self) + other

    def __mul__(self, other: "Polynomial | Scalar") -> "Polynomial":
        if isinstance(other, Polynomial):
            a, b = self._numerators, other._numerators
            if not a or not b:
                return _ZERO
            return _make(_convolve(a, b), self._denominator * other._denominator)
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        p, q = other.numerator, other.denominator
        if q == 1 and p == 1:
            return self
        return _make([c * p for c in self._numerators], self._denominator * q)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = _ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __truediv__(self, other: Scalar) -> "Polynomial":
        """Division by a scalar; a polynomial divides out its known roots
        (:func:`divide_out_roots`)."""
        return self * (1 / as_rational(other))

    def __eq__(self, other: object) -> bool:
        other = _promote(other)
        if other is NotImplemented:
            return NotImplemented
        return (
            self._numerators == other._numerators
            and self._denominator == other._denominator
        )

    def __hash__(self) -> int:
        return hash((self._numerators, self._denominator))

    def __bool__(self) -> bool:
        return bool(self._numerators)

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.coeffs)

    # -- evaluation and substitution ------------------------------------------

    def __call__(self, point: Scalar) -> Fraction:
        """Evaluate at p/q as sum_k c_k p^k q^(n-k) / (denominator q^n), by Horner."""
        nums = self._numerators
        if not nums:
            return Fraction(0)
        if not isinstance(point, (int, Fraction)):
            point = as_rational(point)
        q = point.denominator
        return Fraction(horner(nums, point.numerator, q), self._denominator * q ** (len(nums) - 1))

    def compose(self, inner: "Polynomial") -> "Polynomial":
        """self(inner(x)), by Horner over polynomials."""
        acc = _ZERO
        for c in reversed(self._numerators):
            acc = acc * inner + c
        return acc * Fraction(1, self._denominator)

    def shift_argument(self, c: Scalar) -> "Polynomial":
        """p(x + c) for a rational shift c, by an integer Taylor shift.

        For c = p/q, q^n f(y/q) has integer coefficients; it is shifted by p
        and then y = q x is put back, so the loop sees integers only.
        """
        nums = self._numerators
        if not isinstance(c, (int, Fraction)):
            c = as_rational(c)
        if not c or len(nums) < 2:
            return self
        p, q = c.numerator, c.denominator
        if q == 1:
            # a unimodular change of variable: content and degree stay
            return _wrap(tuple(taylor_shift(nums, p)), self._denominator)
        n = len(nums) - 1
        powers = [1]
        for _ in range(n):
            powers.append(powers[-1] * q)
        shifted = taylor_shift([v * powers[n - k] for k, v in enumerate(nums)], p)
        return _make(
            [v * powers[k] for k, v in enumerate(shifted)], self._denominator * powers[n]
        )

    def reflect_argument(self) -> "Polynomial":
        """p(-x)."""
        return _wrap(
            tuple(-c if k & 1 else c for k, c in enumerate(self._numerators)),
            self._denominator,
        )

    def monic(self) -> "Polynomial":
        nums = self._numerators
        if not nums:
            return self
        if nums[-1] < 0:
            nums = [-c for c in nums]
        return _make(nums, nums[-1])

    # -- serialisation ---------------------------------------------------------

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        coeffs = self.coeffs
        parts: list[str] = []
        for k in range(self.degree, -1, -1):
            c = coeffs[k]
            if c == 0:
                continue
            mag = format_rational(abs(c))
            if k == 0:
                term = mag
            else:
                xk = "x" if k == 1 else f"x^{k}"
                term = xk if abs(c) == 1 else f"{mag}*{xk}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Polynomial({self})"


def _wrap(nums: tuple[int, ...], den: int) -> Polynomial:
    """A polynomial from parts that are already canonical."""
    poly = object.__new__(Polynomial)
    poly._numerators = nums
    poly._denominator = den
    return poly


def _make(nums: Sequence[int], den: int) -> Polynomial:
    """The canonical polynomial with these numerators over a denominator > 0."""
    end = len(nums)
    while end and not nums[end - 1]:
        end -= 1
    if not end:
        return _ZERO
    if end != len(nums):
        nums = nums[:end]
    if den != 1:
        g = gcd(den, *nums)
        if g != 1:
            nums = [c // g for c in nums]
            den //= g
    return _wrap(tuple(nums), den)


def horner(numerators: Sequence[int], p: int, q: int = 1) -> int:
    """sum_k numerators[k] p^k q^(d-k) with d = len(numerators) - 1: q^d times
    the polynomial with these integer numerators at p/q, on integers."""
    acc, qk = 0, 1
    if q == 1:  # the plain value at an integer: no powers of q to carry
        for c in reversed(numerators):
            acc = acc * p + c
        return acc
    for c in reversed(numerators):
        acc = acc * p + c * qk
        qk *= q
    return acc


def quotient_parts(numer: Polynomial, denom: Polynomial, point: Scalar) -> tuple[int, int]:
    """numer(point) / denom(point) as two integers (top, bottom), not reduced:
    at p/q, homogeneous integer Horner gives q^d times each polynomial's
    numerators at p/q.  bottom is 0 where denom vanishes."""
    if type(point) is not int:
        point = as_rational(point)
    p, q = point.numerator, point.denominator
    (nn, nd), (dn, dd) = numer.integer_parts, denom.integer_parts
    top = horner(nn, p, q) * dd * q ** max(len(dn) - len(nn), 0)
    return top, horner(dn, p, q) * nd * q ** max(len(nn) - len(dn), 0)


def newton_form(coeffs: Sequence[Scalar], nodes: Sequence[Scalar]) -> Polynomial:
    """sum_j coeffs[j] prod_{i<j} (x - nodes[i]) for nonempty coeffs, by Horner.

    With coeffs[j] = c_j / d and the first n = len(coeffs) - 1 nodes p_i / q,
    this is sum_j c_j q^(n-j) prod_{i<j} (q x - p_i) / (d q^n): integers only.
    On integer nodes q = 1, so no powers of q are carried, and each step
    (x - p_j) acc + c_j is one ``map`` pass.
    """
    n = len(coeffs) - 1
    nums, den = clear_denominators(coeffs)
    tops, q = clear_denominators(nodes[:n])
    acc, scale = [nums[n]], 1
    if q == 1:
        for j in range(n - 1, -1, -1):
            p = tops[j]
            acc = [nums[j] - p * acc[0], *map(sub, acc, map(p.__mul__, acc[1:])), acc[-1]]
        return _make(acc, den)
    for j in range(n - 1, -1, -1):
        p, scale = tops[j], scale * q
        acc = [nums[j] * scale - p * acc[0]] + [
            q * prev - p * cur for prev, cur in zip(acc, acc[1:])
        ] + [q * acc[-1]]
    return _make(acc, den * scale)


def interpolate(
    values: Sequence[int] | Sequence[Sequence[int]],
    denominator: int,
    nodes: Sequence[int] | None = None,
) -> Polynomial | list[Polynomial]:
    """The polynomial p of degree below K = len(values) >= 1 with
    p(nodes[i]) = values[i] / denominator, for a denominator > 0 and
    increasing integer nodes, by default 0..K-1.

    Newton's form by integer divided differences: level k of the table is kept
    over s_1 ... s_k, with s_k the lcm of the level's gaps, so each difference
    is scaled by s_k / gap.  On consecutive nodes (last - first = K - 1) every
    gap at level k is k: plain differences, and s_k = k.  Scaled by
    s_(j+1) ... s_(K-1), the coefficients are integers over s_1 ... s_(K-1)
    times the denominator, so one :func:`newton_form` call builds p.

    ``values`` may instead be a list of tables of one length on 0..K-1, the
    lanes: one polynomial per table comes back, two or more tables through
    one Newton expansion (:func:`_interpolate_lanes`).
    """
    if not values or not isinstance(values[0], int):
        if nodes is not None:
            raise ValueError("lanes are interpolated on the nodes 0..K-1")
        if len(values) > 1:
            return _interpolate_lanes(values, denominator)
        return [interpolate(table, denominator) for table in values]
    top = len(values) - 1
    nodes = range(top + 1) if nodes is None else nodes
    diffs, leading, steps = list(values), [values[0]], range(1, top + 1)
    if nodes[top] - nodes[0] == top:
        for _ in steps:
            diffs = [b - a for a, b in zip(diffs, diffs[1:])]
            leading.append(diffs[0])
    else:
        steps = []
        for k in range(1, top + 1):
            gaps = [b - a for a, b in zip(nodes, nodes[k:])]
            steps.append(lcm(*gaps))
            diffs = [(b - a) * (steps[-1] // g) for a, b, g in zip(diffs, diffs[1:], gaps)]
            leading.append(diffs[0])
    scale, coeffs = 1, [leading[top]]
    for j in range(top - 1, -1, -1):
        scale *= steps[j]
        coeffs.append(leading[j] * scale)
    coeffs.reverse()  # coeffs[j] = leading[j] * s_(j+1) ... s_top, and scale = s_1 ... s_top
    numerators, _ = newton_form(coeffs, nodes).integer_parts
    return Polynomial.from_integer_parts(numerators, scale * denominator)


def _interpolate_lanes(tables: Sequence[Sequence[int]], denominator: int) -> list[Polynomial]:
    """p = sum_j Delta^j p(0) (K - 1)! / j! prod_(i<j) (x - i) over (K - 1)!
    for each table: its forward differences first, then one Horner pass for
    all tables, each coefficient of acc a list with one entry per table, so
    that a step (x - j) acc + c_j is one ``map`` pass per coefficient."""
    top = len(tables[0]) - 1
    lanes = []  # lanes[s][j]: the j-th forward difference of table s at 0
    for values in tables:
        diffs, lane = list(values), [values[0]]
        for _ in range(top):
            diffs = list(map(sub, diffs[1:], diffs))
            lane.append(diffs[0])
        lanes.append(lane)
    leading = list(zip(*lanes))  # leading[j]: the j-th differences of every table
    acc, factor = [leading[top]], 1
    for j in range(top - 1, -1, -1):
        factor *= j + 1  # (K - 1)! / j!
        c = map(factor.__mul__, leading[j])
        acc = [
            list(map(sub, c, map(j.__mul__, acc[0]))),
            *(list(map(sub, low, map(j.__mul__, high))) for low, high in zip(acc, acc[1:])),
            acc[-1],
        ]
    return [_make(numerators, factor * denominator) for numerators in zip(*acc)]


def _convolve(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Schoolbook product of two nonempty integer coefficient sequences."""
    if len(a) < len(b):
        a, b = b, a
    la, lb = len(a), len(b)
    if lb == 1:
        c = b[0]
        return [c * v for v in a]
    rb = b[::-1]
    out = []
    for k in range(la + lb - 1):
        lo = k - lb + 1 if k >= lb else 0
        hi = k + 1 if k < la else la
        start = lb - 1 - k + lo
        out.append(sum(map(mul, a[lo:hi], rb[start : start + hi - lo])))
    return out


_ZERO = _wrap((), 1)
_ONE = _wrap((1,), 1)
_X = _wrap((0, 1), 1)


def _promote(value: "Polynomial | Scalar") -> Polynomial:
    if isinstance(value, Polynomial):
        return value
    if isinstance(value, (int, Fraction)):
        return _wrap((value.numerator,), value.denominator) if value else _ZERO
    return NotImplemented


def taylor_shift(coeffs: Sequence, shift):
    """Coefficients of f(x + shift), given f's coefficients constant term first.

    Ring-generic: ``int`` coefficients and shift stay integers, ``Fraction``
    ones stay rational.  Quadratic in the length, with no polynomial products.
    """
    out = list(coeffs)
    for i in range(len(out) - 1):
        for j in range(len(out) - 2, i - 1, -1):
            out[j] += shift * out[j + 1]
    return out


def divide_out_roots(
    numer: Polynomial, roots: Iterable[int], q: int
) -> tuple[Polynomial, list[int]]:
    """numer / prod (x - p/q) over the integers p in roots, in lowest terms.

    The package's one polynomial division.  Each p, multiplicity counted, is
    read as b/a in lowest terms and tried by one synthetic division on numer's
    integer numerators c_n..c_0: with B_n = 0, each step B_(k-1) = (c_k + b
    B_k) / a must be exact (Gauss's lemma: a x - b is primitive) and c_0 + b
    B_0 must be 0.  Where both hold, the quotient is a B over the same
    denominator; the zero polynomial is divisible by every root.  The other
    roots are kept.  The next root is tried on B, and the product of the a's
    is multiplied in once, at the end, so no step carries their content.
    Returns (quotient, kept); the reduced, monic denominator is
    ``Polynomial.from_integer_roots(kept, q)``.
    """
    (nums, den), kept, scale = numer.integer_parts, [], 1
    for p in roots:
        g = gcd(p, q)
        b, a = p // g, q // g
        acc, quotient = 0, []
        for c in nums[:0:-1]:
            acc, left = divmod(c + b * acc, a)
            if left:
                break
            quotient.append(acc)
        else:
            if not nums or nums[0] + b * acc == 0:
                nums, scale = quotient[::-1], scale * a
                continue
        kept.append(p)
    return _make([v * scale for v in nums], den), kept


def pochhammer(base: Fraction | int, length: int) -> Fraction:
    """Rising factorial base*(base+1)*...*(base+length-1); 1 when ``length`` is 0.

    With base = p/q the factors are the integers p + iq, and their product
    becomes a ``Fraction`` once, over q^length.
    """
    if length < 0:
        raise ValueError("pochhammer length must be nonnegative")
    if not isinstance(base, (int, Fraction)):
        raise TypeError(f"unsupported pochhammer base {type(base).__name__}")
    p, q = base.numerator, base.denominator
    acc = 1
    for i in range(length):
        acc *= p + i * q
    return Fraction(acc, q**length)


def antidifference(p: Polynomial) -> Polynomial:
    """The polynomial q with q(x) - q(x-1) = p(x) and q(-1) = 0: q(x) is the
    partial sum p(0) + ... + p(x), of degree deg p + 1, so it is interpolated
    from those sums at x = 0..deg p + 1, on p's integer numerators."""
    nums, den = p.integer_parts
    return interpolate(list(accumulate(horner(nums, x) for x in range(len(nums) + 1))), den)
