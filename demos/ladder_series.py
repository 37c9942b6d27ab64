"""The four first-order operators and their triangular series action.

Each kind pairs a ratio sequence with one shared shift sequence; applying the
operator to h_n lands in the span of h_0, ..., h_n with coefficients built
from partial products of the ratio.  Run with  python3 demos/ladder_series.py
"""

from fractions import Fraction

from krallhahn.hahn import HahnParams, hahn_polynomial
from krallhahn.ladder import (
    ladder_operator,
    ratio_product,
    series_coefficients,
    series_ratio,
    series_shift,
)
from krallhahn.polynomials import Polynomial
from krallhahn.rationals import format_rational


def main() -> None:
    p = HahnParams(Fraction(1, 2), Fraction(1, 3), 8)
    print(f"a = {p.a}, b = {p.b}, N = {p.N}")
    print(f"shared shift sequence sigma(n) = {series_shift(p)}\n")

    for kind in (1, 2, 3, 4):
        numer, denom = series_ratio(kind, p)
        print(f"kind {kind}: ratio epsilon(n) = ({numer}) / ({denom})")
        op = ladder_operator(kind, p)
        for offset in sorted(op.terms):
            print(f"  shift {offset:+d}: {op.terms[offset]}")

        n = 4
        coeffs = series_coefficients(kind, n, p)
        image = Polynomial.zero()
        for j, c in enumerate(coeffs):
            image = image + hahn_polynomial(n - j, p) * c
        shown = ", ".join(format_rational(c) for c in coeffs)
        print(f"  image of h_{n}: coefficients on h_4..h_0: [{shown}]")
        print(f"  operator form == series form: {op.apply(hahn_polynomial(n, p)) == image}")

        # partial products of the ratio collapse to a ratio of Pochhammer blocks
        product_numer, product_denom = numer, denom
        for i in (1, 2):
            product_numer = product_numer * numer.shift_argument(-i)
            product_denom = product_denom * denom.shift_argument(-i)
        closed_numer, closed_denom = ratio_product(kind, 3, p)
        agrees = product_numer * closed_denom == product_denom * closed_numer
        print(f"  three-step product closed form agrees: {agrees}\n")


if __name__ == "__main__":
    main()
