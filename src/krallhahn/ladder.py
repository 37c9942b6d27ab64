"""The four first-order ladder operators attached to the Hahn family.

Each kind is defined by a ratio sequence and the common shift sequence
-(2n + a + b - 1); the operator acts on the basis by a triangular series whose
coefficients are products of consecutive ratios.  At integer points those
products are running products (:func:`ratio_products`); as rational functions
of the degree they have Pochhammer closed forms, built from the roots of the
clearing blocks (:data:`CLEARING_BLOCKS`) and reduced by dividing out the
roots shared; the ratio is the one-step product.  A clearing block has one
form: its roots, as integer numerators over a given denominator
(:func:`rising_roots`, :func:`falling_roots`), and a polynomial is expanded
only from those roots.  :func:`block_column_roots` groups one block's per
column of a row, for the cleared Casorati matrix, the clearing factor and the
mixing weights alike.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable

from .diffops import DifferenceOperator
from .errors import ParameterSingularity
from .hahn import HahnParams
from .polynomials import Polynomial, divide_out_roots
from .rationals import Rational, as_rational

KINDS = (1, 2, 3, 4)


def series_ratio(kind: int, p: HahnParams) -> tuple[Polynomial, Polynomial]:
    """The ratio sequence of one ladder kind: (numerator, denominator) in n,
    the one-step :func:`ratio_product`."""
    return ratio_product(kind, 1, p)


def series_shift(p: HahnParams) -> Polynomial:
    """-(2n + a + b - 1), common to all four kinds, as a polynomial in n."""
    return Polynomial((-(p.a + p.b - 1), -2))


def ladder_operator(kind: int, p: HahnParams) -> DifferenceOperator:
    """First-order difference operator realising the triangular series action:
    (a + b + 1)/2 plus x - root times the backward difference S_0 - S_-1
    (kinds 1, 4) or the forward difference S_1 - S_0 (kinds 2, 3), with
    root 0, N, -a - 1 and b + N + 1 for kinds 1-4, on integer parts: with
    a + b + 1 = P/Q and root = r/q, over L = lcm(2Q, q)."""
    if kind not in KINDS:
        raise ValueError(f"kind must be 1..4, got {kind}")
    a, b, N = p.a, p.b, p.N
    top, q = (
        (0, 1), (N, 1), (-a.numerator - a.denominator, a.denominator),
        (b.numerator + (N + 1) * b.denominator, b.denominator),
    )[kind - 1]
    P, Q = p.theta_shift.numerator, p.theta_shift.denominator
    den = lcm(2 * Q, q)
    half, root = P * (den // (2 * Q)), top * (den // q)
    if kind in (2, 3):  # half - (x - root) on S_0, x - root on S_1
        terms = {0: (half + root, -den), 1: (-root, den)}
    else:  # half + (x - root) on S_0, -(x - root) on S_-1
        terms = {-1: (root, -den), 0: (half - root, den)}
    return DifferenceOperator({
        l: Polynomial.from_integer_parts(nums, den) for l, nums in terms.items()
    })


def ratio_products(ratio: tuple[Polynomial, Polynomial], points: Iterable[int]) -> list[Fraction]:
    """Partial products of a ratio along integer points.

    Entry k is ratio(t_1) ratio(t_2) ... ratio(t_k) for the points t_1, t_2,
    ... in order, so entry 0 is 1.  A pole of the reduced ratio at any point
    raises ParameterSingularity, even where a zero at another point would
    cancel it in the closed form :func:`ratio_product`.
    """
    numer, denom = ratio
    out = [Fraction(1)]
    for t in points:
        d = denom(t)
        if not d:
            raise ParameterSingularity(f"ladder ratio has a pole at degree {t}")
        out.append(out[-1] * numer(t) / d)
    return out


def series_coefficients(kind: int, n: int, p: HahnParams) -> list[Fraction]:
    """Coefficients of h_n, h_{n-1}, ..., h_0 in the series expansion.

    The image of h_n under the ladder operator is
    -shift(n+1)/2 * h_n  +  sum_j (-1)^{j+1} shift(n-j+1) ratio(n)...ratio(n-j+1) h_{n-j}.
    """
    shift = series_shift(p)
    products = ratio_products(series_ratio(kind, p), range(n, 0, -1))
    out = [-shift(n + 1) / 2]
    for j in range(1, n + 1):
        term = shift(n - j + 1) * products[j]
        out.append(term if j % 2 else -term)
    return out


# -- partial products of the ratios and their clearing factors ---------------------

# The blocks (the ``which`` argument below) whose rising and falling forms give
# the numerator and denominator of each kind's ratio products.
CLEARING_BLOCKS = {1: (2,), 2: (1, 2), 3: (), 4: (1,)}


def _rising_offset(which: int, length: int, p: HahnParams) -> Fraction | int:
    if which == 1:
        return p.b + 1 - length
    if which == 2:
        return -length - p.N
    raise ValueError(f"which must be 1 or 2, got {which}")


def _falling_offset(which: int, length: int, p: HahnParams) -> Fraction:
    if which == 1:
        return p.a + 1 - length
    if which == 2:
        return p.a + p.b + p.N + 2 - length
    raise ValueError(f"which must be 1 or 2, got {which}")


def _block_roots(start: Fraction, length: int, q: int) -> list[int]:
    """The roots -(start + t), t < length, as integer numerators over q, a
    multiple of start's denominator."""
    top = (start * q).numerator
    return [-(top + t * q) for t in range(length)]


def rising_roots(which: int, length: int, shift: Rational | int, p: HahnParams, q: int) -> list[int]:
    """Roots, as integer numerators over q, of the numerator clearing block
    rising(length, shift), a monic Pochhammer block at y = x + shift: which = 1
    gives (y - length + b + 1)_length and which = 2 gives (y - length - N)_length."""
    return _block_roots(as_rational(shift) + _rising_offset(which, length, p), length, q)


def falling_roots(which: int, length: int, shift: Rational | int, p: HahnParams, q: int) -> list[int]:
    """Roots, as integer numerators over q, of the denominator clearing block
    falling(length, shift), (-1)^length times a Pochhammer block at y = x +
    shift: which = 1 gives (y - length + a + 1)_length and which = 2 gives
    (y - length + a + b + N + 2)_length."""
    return _block_roots(as_rational(shift) + _falling_offset(which, length, p), length, q)


def block_column_roots(which: int, m: int, p: HahnParams, q: int) -> list[list[int]]:
    """Roots over q of one clearing block's part of the clearing factors of
    the columns c = 1..m of a row: rising(m - c, 0) times falling(c - 1,
    c - 1), of leading coefficient (-1)^(c - 1), whose roots are the last
    m - c of rising(m - 1, 0)'s and the first c - 1 of falling(m - 1, m - 1)'s.

    Read at x, term c clears the mixing term j = c.  Read at x - c (each root
    plus c q), it is the block's part of column c of the cleared Casorati
    matrix, rising(m - c, -c) times falling(c - 1, -1); column m's,
    falling(m - 1, -1), is its share of the clearing factor."""
    rising = rising_roots(which, m - 1, 0, p, q)
    falling = falling_roots(which, m - 1, m - 1, p, q)
    return [rising[c - 1 :] + falling[: c - 1] for c in range(1, m + 1)]


def ratio_product(kind: int, length: int, p: HahnParams) -> tuple[Polynomial, Polynomial]:
    """Product ratio(x) ratio(x-1) ... ratio(x-length+1) in closed form.

    Per clearing block, rising(length, 0) over falling(length, 0), from their
    roots (:func:`rising_roots`, :func:`falling_roots`) over q = lcm(den a,
    den b), with the sign (-1)^(length |blocks|), as a reduced pair with monic
    denominator (:func:`~krallhahn.polynomials.divide_out_roots`).  length 0
    gives 1; a negative length gives the reciprocal of the product based at
    x - length, whose two root lists swap.
    """
    if kind not in CLEARING_BLOCKS:
        raise ValueError(f"kind must be 1..4, got {kind}")
    blocks, steps = CLEARING_BLOCKS[kind], abs(length)
    shift = steps if length < 0 else 0  # the product based at x - length
    q = lcm(p.a.denominator, p.b.denominator)
    rising = [t for which in blocks for t in rising_roots(which, steps, shift, p, q)]
    falling = [t for which in blocks for t in falling_roots(which, steps, shift, p, q)]
    if length < 0:
        rising, falling = falling, rising
    numer = Polynomial.from_integer_roots(rising, q)  # a falling block of odd length is negated
    numer, kept = divide_out_roots(-numer if steps * len(blocks) % 2 else numer, falling, q)
    return numer, Polynomial.from_integer_roots(kept, q)
