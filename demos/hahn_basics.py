"""Tour of the classical family: weight, orthogonality, recurrence, operator.

Everything printed here is an exact rational; run with  python3 demos/hahn_basics.py
"""

from fractions import Fraction

from krallhahn.hahn import (
    HahnParams,
    hahn_operator,
    hahn_polynomial,
    hahn_recurrence,
    hahn_weight,
)
from krallhahn.measures import orthogonality_certificate
from krallhahn.polynomials import Polynomial
from krallhahn.rationals import format_rational


def main() -> None:
    p = HahnParams(Fraction(1, 2), Fraction(1, 3), 8)
    print(f"parameters: a = {p.a}, b = {p.b}, N = {p.N}")
    print(f"support: x = 0, ..., {p.N}  (weight stored modulo one global constant)\n")

    weight = hahn_weight(p)
    hs = [hahn_polynomial(n, p) for n in range(5)]
    for n, h in enumerate(hs):
        print(f"h_{n}(x) = {h}")

    norms, pairs = orthogonality_certificate(weight, hs)
    print("\nnorms <h_n, h_n> for n <= 4:")
    for n, norm in enumerate(norms):
        print(f"  n = {n}: {format_rational(norm)}")
    print(f"pairs i < j with <h_i, h_j> != 0: {pairs}")

    print("\nthree-term recurrence  x h_n = A(n+1) h_{n+1} + B(n) h_n + C(n) h_{n-1}:")
    x = Polynomial.variable()
    for n in (1, 2, 3):
        a_next = hahn_recurrence(n + 1, p)[0]
        _, b_here, c_here = hahn_recurrence(n, p)
        lhs = x * hs[n]
        rhs = a_next * hahn_polynomial(n + 1, p) + b_here * hs[n] + c_here * hs[n - 1]
        print(f"  n = {n}: A = {a_next}, B = {b_here}, C = {c_here},"
              f"  identity holds: {lhs == rhs}")

    op = hahn_operator(p)
    print(f"\nsecond-order operator, genre {op.genre}:")
    for offset in sorted(op.terms):
        print(f"  shift {offset:+d}: {op.terms[offset]}")
    print("eigenvalues theta(n) = n(n+a+b+1):")
    for n in range(5):
        image = op.apply(hahn_polynomial(n, p))
        theta = p.eigenvalue(n)
        print(f"  n = {n}: theta = {format_rational(theta)},"
              f"  D h_n == theta h_n: {image == theta * hahn_polynomial(n, p)}")

    # degrees N+1 and N+2 vanish on every atom: the family stops being a basis
    for n in (p.N + 1, p.N + 2):
        values = [hahn_polynomial(n, p)(Fraction(xx)) for xx in range(p.N + 1)]
        print(f"h_{n} on the support: all zero: {all(v == 0 for v in values)}")


if __name__ == "__main__":
    main()
