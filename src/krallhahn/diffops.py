"""Difference operators with polynomial coefficients.

An operator is a finite sum of shift terms h_l(x) * S_l where S_l moves the
argument by the integer l, i.e. (S_l f)(x) = f(x + l).  Acting on polynomials
this stays exact.  Products follow from S_l h(x) = h(x + l) S_l.

Whether D f = lambda f is decided by :func:`eigen_certificate` from values
at integer points, on integers, at as many points as the residual's degree
needs: deg f + e + 1, with e the :func:`degree_excess` read off the shift
moments sum_l l^j h_l, less the points a caller already knows to be zeros.
An operator in the algebra of the paper maps each polynomial to one of no
higher degree (e = 0), however large its coefficient degrees.
:meth:`DifferenceOperator.apply` builds the polynomial D f and is the slow
reference.  :func:`operator_sum`, which assembles
:func:`~krallhahn.casorati.krall_operator`, is the one route that multiplies
operators: as integer value tables at points, with every shift interpolated
in one call.  The polynomial operator algebra (sums, scaling, composition and
operator polynomials) is its reference, in ``tests/reference.py``.
"""

from __future__ import annotations

from itertools import count, filterfalse, islice
from math import lcm
from operator import add, index, mul, sub
from typing import Iterable, Mapping, Sequence

from .errors import ZeroOperatorError
from .polynomials import Polynomial, horner, interpolate
from .rationals import Rational, as_rational


class DifferenceOperator:
    """Finite linear combination of integer shifts with polynomial coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[int, Polynomial]) -> None:
        cleaned: dict[int, Polynomial] = {}
        for offset in sorted(terms):
            coeff = terms[offset]
            if not isinstance(coeff, Polynomial):
                coeff = Polynomial.constant(coeff)
            if not coeff.is_zero:
                cleaned[index(offset)] = coeff
        object.__setattr__(self, "terms", cleaned)

    # -- structure ---------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def genre(self) -> tuple[int, int]:
        """Smallest and largest shift present; undefined for the zero operator."""
        if not self.terms:
            raise ZeroOperatorError("zero operator has no genre")
        offsets = self.terms.keys()
        return min(offsets), max(offsets)

    @property
    def order(self) -> int:
        lo, hi = self.genre
        return hi - lo

    def coefficient(self, offset: int) -> Polynomial:
        return self.terms.get(offset, Polynomial.zero())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DifferenceOperator):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(tuple(sorted(self.terms.items())))

    # -- action ------------------------------------------------------------------

    def apply(self, f: Polynomial) -> Polynomial:
        """D f as a polynomial, one Taylor shift and one product per term; see
        :func:`eigen_certificate` to decide D f = lambda f without building it."""
        acc = Polynomial.zero()
        for l, h in self.terms.items():
            acc = acc + h * f.shift_argument(l)
        return acc

    def translate(self, offset) -> "DifferenceOperator":
        """Conjugate by argument translation: if self(f) = g then the result
        maps f(x - offset) to g(x - offset)."""
        offset = as_rational(offset)
        return DifferenceOperator(
            {l: c.shift_argument(-offset) for l, c in self.terms.items()}
        )

    # -- serialisation -----------------------------------------------------------

    def __repr__(self) -> str:
        if not self.terms:
            return "DifferenceOperator(0)"
        parts = [f"S_{l}: {c!r}" for l, c in sorted(self.terms.items())]
        return "DifferenceOperator({" + ", ".join(parts) + "})"


def _common_numerators(op: DifferenceOperator) -> tuple[dict[int, list[int]], int]:
    """({l: numerators of H_l}, L): every coefficient h_l = H_l / L over L,
    the lcm of the coefficients' denominators."""
    common = lcm(*(h.integer_parts[1] for h in op.terms.values()))
    numerators = {}
    for l, h in op.terms.items():
        nums, den = h.integer_parts
        numerators[l] = [c * (common // den) for c in nums]
    return numerators, common


def coefficient_values(
    op: DifferenceOperator, points: Sequence[int]
) -> tuple[dict[int, list[int]], int]:
    """({l: [H_l(x) for x in points]}, L): every coefficient h_l = H_l / L at
    the integer points, over L, the lcm of the coefficients' denominators."""
    numerators, common = _common_numerators(op)
    return {l: [horner(nums, x) for x in points] for l, nums in numerators.items()}, common


def degree_excess(op: DifferenceOperator) -> int:
    """The least e >= 0 with deg op(f) <= deg f + e for every polynomial f.

    With the shift moments M_j = sum_l l^j h_l, op(x^k) = sum_l h_l(x)
    (x + l)^k = sum_(j<=k) C(k, j) x^(k-j) M_j(x), so e is the largest
    i - j over nonzero [x^i] M_j with i > j, or 0 if there is none; it is
    attained at f = x^j for the least j with [x^(j+e)] M_j nonzero.  An
    operator with an eigenpolynomial of every degree has e = 0, however
    large its coefficient degrees.  The moments are summed on the H_l of
    :func:`coefficient_values`, over one denominator: for each i from the
    largest coefficient degree down, the vector (l^j [x^i] H_l)_l is stepped
    by one multiplication per j, up to the first nonzero sum, trying only
    the j < i - e that would raise e.
    """
    numerators, _ = _common_numerators(op)
    offsets = list(numerators)
    excess = 0
    for i in range(_max_degree(op), 0, -1):
        if i <= excess:
            break
        moment = [nums[i] if i < len(nums) else 0 for nums in numerators.values()]
        for j in range(i - excess):
            if sum(moment):
                excess = i - j
                break
            moment = list(map(mul, offsets, moment))
    return excess


def _max_degree(op: DifferenceOperator) -> int:
    return max((h.degree for h in op.terms.values()), default=-1)


def _reach(op: DifferenceOperator) -> int:
    return max((abs(l) for l in op.terms), default=0)


def _sum_points(base: DifferenceOperator, head: Polynomial, rows) -> int:
    """K for :func:`operator_sum`: one more than
    max(e deg head, max_r e (deg M_r + deg Y_r) + f_r), with e and f_r the
    largest coefficient degrees of base and L_r (e read as 0 for a zero base)."""
    e = max(_max_degree(base), 0)
    bound = max([e * head.degree] + [
        e * (symbol.degree + poly.degree) + _max_degree(ladder) for symbol, ladder, poly in rows
    ])
    return max(bound, 0) + 1


def _right_multiply(table: dict[int, list[int]], factor: dict[int, list[int]], window: int):
    """The values of T o B at x = 0..K-1 from T's values there and B's at
    x = -window..K-1+window: (T o B)_{j+k}(x) = sum_j T_j(x) b_k(x + j)."""
    out: dict[int, list[int]] = {}
    for j, left in table.items():
        start = j + window
        for k, right in factor.items():
            terms = map(mul, left, right[start : start + len(left)])
            acc = out.get(j + k)
            out[j + k] = list(terms) if acc is None else list(map(add, acc, terms))
    return out


def _accumulate(acc: dict[int, list[int]], table: dict[int, list[int]], scale: int) -> None:
    """acc += scale * table, shift by shift."""
    for shift, values in table.items():
        old = acc.get(shift)
        if old is None:
            acc[shift] = [scale * v for v in values]
        else:
            acc[shift] = [a + scale * v for a, v in zip(old, values)]


def operator_sum(
    base: DifferenceOperator,
    head: Polynomial,
    rows: Sequence[tuple[Polynomial, DifferenceOperator, Polynomial]],
) -> DifferenceOperator:
    """head(base) + sum_r M_r(base) o L_r o Y_r(base) for rows (M_r, L_r, Y_r),
    assembled on integer value tables.

    An operator is held as a table: for each shift l, the numerators of
    h_l(x) at x = 0..K-1 over one denominator.  Products are right
    multiplications by base or L_r (:func:`_right_multiply`), whose
    coefficients are evaluated once (:func:`coefficient_values`) on the window
    of points x + j the shifts reach.  With base = B / d, the powers
    base^i = B^i / d^i are built once; T o c(base), for c with integer parts
    (c_i, q), is sum_i c_i d^(deg c - i) T B^i over q d^(deg c), and the
    T B^i of Y_r(base) are repeated right multiplications of
    T = M_r(base) o L_r by base.  The denominators are known before any table
    is built, so every term is added into one table over their lcm, and the
    shifts are interpolated in one call, as lanes
    (:func:`~krallhahn.polynomials.interpolate`).

    A product adds the coefficient degrees: the S_{j+k} coefficient of T o B
    is sum_j T_j(x) b_k(x + j).  With e and f_r the largest coefficient
    degrees of base and L_r, base^i has degree at most e i, head(base) at
    most e deg head, and M_r(base) o L_r o base^i with i <= deg Y_r at most
    e (deg M_r + deg Y_r) + f_r.  K - 1 is the largest of these
    (:func:`_sum_points`; a zero polynomial has degree -1 and adds nothing),
    and a polynomial of degree below K is fixed by its values at K points,
    so the result is exact.  Composition and operator polynomials over the
    polynomial coefficients, in ``tests/reference.py``, are the reference.
    """
    K = _sum_points(base, head, rows)
    reach = _reach(base)

    def span(poly: Polynomial) -> int:
        """A bound on the largest shift of poly(base)."""
        return reach * max(poly.degree, 0)

    # the largest shift of any table, so that every b_k(x + j) read is in the window
    window = max([span(head)] + [
        span(symbol) + _reach(ladder) + span(poly) for symbol, ladder, poly in rows
    ])
    points = range(-window, K + window)
    values, d = coefficient_values(base, points)
    ladders = [coefficient_values(ladder, points) for _, ladder, _ in rows]

    def denominator(poly: Polynomial) -> int:
        """q d^deg, for poly's integer parts (c, q)."""
        nums, den = poly.integer_parts
        return den * d ** max(len(nums) - 1, 0)

    dens = [denominator(head)] + [
        denominator(symbol) * ladder_den * denominator(poly)
        for (symbol, _, poly), (_, ladder_den) in zip(rows, ladders)
    ]
    common = lcm(*dens)

    def add_polynomial(acc: dict[int, list[int]], poly: Polynomial, tables, scale: int) -> None:
        """acc += scale * sum_i c_i d^(deg - i) tables[i], for poly's numerators
        c and tables[i] = T B^i: scale * q d^deg times T o poly(base)."""
        nums, _ = poly.integer_parts
        top = len(nums) - 1
        for i, (c, table) in enumerate(zip(nums, tables)):
            if c:
                _accumulate(acc, table, scale * c * d ** (top - i))

    def right_powers(table):
        while True:
            yield table
            table = _right_multiply(table, values, window)

    powers = [{0: [1] * K}]
    for _ in range(max([head.degree] + [symbol.degree for symbol, _, _ in rows])):
        powers.append(_right_multiply(powers[-1], values, window))
    total: dict[int, list[int]] = {}
    add_polynomial(total, head, powers, common // dens[0])
    for (symbol, _, poly), (ladder_values, _), den in zip(rows, ladders, dens[1:]):
        left: dict[int, list[int]] = {}
        add_polynomial(left, symbol, powers, 1)
        product = _right_multiply(left, ladder_values, window)
        add_polynomial(total, poly, right_powers(product), common // den)
    return DifferenceOperator(dict(zip(total, interpolate(list(total.values()), common))))


def eigen_certificate(
    op: DifferenceOperator,
    pairs: Iterable[tuple[Polynomial, Rational]],
    zeros: Iterable[int] = (),
) -> list[bool]:
    """For each (f, lambda), whether op.apply(f) == lambda * f.

    The residual sum_l h_l(x) f(x + l) - lambda f(x) has degree at most
    deg f + e, with e the :func:`degree_excess` of op, and a nonzero
    polynomial of degree d has at most d roots.  ``zeros`` are distinct
    integers where the caller already knows every pair's residual to vanish
    (the oracle's nodes); a residual is then zero iff it also vanishes at
    the first deg f + e + 1 - len(zeros) integers x >= 0 not in ``zeros``.
    With every h_l = H_l / L over the lcm L of their denominators, f = F / c
    and lambda = num / den, the residual vanishes at x iff
    den * sum_l H_l(x) F(x + l) == num * L * F(x), on integers: each H_l is
    evaluated once at the consecutive points from the first tested to the
    last, and each F once at the consecutive points x + l those reach, l = 0
    or a shift of op, so the sum is one pass per shift.  The zero operator
    has no terms, so its sum is 0 and the residual is -lambda f.  A float
    lambda raises ``TypeError``.
    """
    pairs = [(f.integer_parts[0], as_rational(lam)) for f, lam in pairs]
    known = set(zeros)
    extra = degree_excess(op) - len(known)  # points needed beyond deg f + 1
    needed = max((len(nums) + extra for nums, _ in pairs), default=0)
    points = list(islice(filterfalse(known.__contains__, count()), max(needed, 0)))
    first, last = (points[0], points[-1]) if points else (0, -1)
    offsets = [x - first for x in points]
    values, common = coefficient_values(op, range(first, last + 1))  # H_l from first to last
    lo, hi = min((0, *op.terms)), max((0, *op.terms))
    terms = [(l - lo, row) for l, row in values.items()]
    verdicts = []
    for nums, lam in pairs:
        size = max(len(nums) + extra, 0)
        if not size:
            verdicts.append(True)
            continue
        span = offsets[size - 1] + 1
        at = [horner(nums, y) for y in range(first + lo, first + span + hi)]  # F(first + lo ..)
        sums = [0] * span
        for k, row in terms:
            sums = list(map(add, sums, map(mul, row, at[k : k + span])))
        residual = list(map(
            sub, map(lam.denominator.__mul__, sums),
            map((lam.numerator * common).__mul__, at[-lo : span - lo]),
        ))
        verdicts.append(not any(map(residual.__getitem__, offsets[:size])))
    return verdicts
