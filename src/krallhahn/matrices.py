"""Exact determinants and exact linear solving.

:func:`poly_det` is the one determinant routine for exact entries: the same
code runs on polynomial entries and on ``Fraction`` scalars, because it uses
only ring operations and exact division.  Small matrices go through cofactor
expansion, each minor computed once; anything larger uses the Bareiss
fraction-free scheme (Bareiss, 1968), whose interior divisions are exact.  A separate cofactor routine over
rational functions serves only the cross-check route, and a Gaussian solver
over the rationals backs the operator-existence probe.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .polynomials import Polynomial, RationalFunction

_COFACTOR_LIMIT = 5  # cofactor expansion up to this size, Bareiss beyond


def _square_size(rows: Sequence[Sequence]) -> int:
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError(
            f"determinant needs a square matrix, got row lengths {[len(r) for r in rows]}"
        )
    return n


def poly_det(rows: Sequence[Sequence[Polynomial | Fraction | int]]) -> Polynomial | Fraction:
    """Determinant of a square matrix of polynomials or of rational scalars.

    If any entry is a :class:`Polynomial` the result is one; otherwise the
    entries are read as ``Fraction`` and so is the result.  The empty matrix
    has determinant ``Polynomial.one()``.
    """
    n = _square_size(rows)
    if n == 0:
        return Polynomial.one()
    polynomial = any(isinstance(e, Polynomial) for row in rows for e in row)
    lift = _as_polynomial if polynomial else Fraction
    entries = [[lift(e) for e in row] for row in rows]
    if n <= _COFACTOR_LIMIT:
        return _cofactor_det(entries)
    return _bareiss_det(entries)


def _as_polynomial(entry: Polynomial | Fraction | int) -> Polynomial:
    return entry if isinstance(entry, Polynomial) else Polynomial.constant(entry)


def _cofactor_det(rows):
    """Laplace expansion along the top row, with every minor computed once.

    ``minors[cols]`` is the determinant of the bottom ``len(cols)`` rows
    restricted to the columns ``cols``; each pass expands the row above.
    """
    n = len(rows)
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


def _bareiss_det(rows):
    n = len(rows)
    m = [list(row) for row in rows]
    sign = 1
    prev = None
    for k in range(n - 1):
        if not m[k][k]:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return m[k][k]  # a zero column below the diagonal: the zero pivot
        pivot = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                step = pivot * m[i][j] - m[i][k] * m[k][j]
                m[i][j] = step if prev is None else step / prev  # exact division
        prev = pivot
    det = m[n - 1][n - 1]
    return det if sign == 1 else -det


def rational_det(rows: Sequence[Sequence[RationalFunction]]) -> RationalFunction:
    """Cofactor determinant over the rational-function field.

    Slower than :func:`poly_det`; kept for independent cross-checks of the
    denominator-cleared computations.
    """
    if _square_size(rows) == 0:
        return RationalFunction.one()
    return _rf_cofactor([list(row) for row in rows])


def _rf_cofactor(rows: list[list[RationalFunction]]) -> RationalFunction:
    n = len(rows)
    if n == 1:
        return rows[0][0]
    acc = RationalFunction.zero()
    for j, top in enumerate(rows[0]):
        if top.is_zero:
            continue
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        term = top * _rf_cofactor(minor)
        acc = acc - term if j % 2 else acc + term
    return acc


def solve_linear_system(
    rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> tuple[list[Fraction], int] | None:
    """Solve A x = b exactly by Gaussian elimination.

    Returns ``(particular_solution, nullity)`` with free variables pinned to
    zero, or ``None`` when the system is inconsistent.
    """
    nrows = len(rows)
    if nrows != len(rhs):
        raise ValueError("rhs length does not match row count")
    ncols = len(rows[0]) if nrows else 0
    aug = [[Fraction(v) for v in row] + [Fraction(rhs[i])] for i, row in enumerate(rows)]
    pivots: list[int] = []
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
        inv = 1 / aug[r][c]
        aug[r] = [v * inv for v in aug[r]]
        for i in range(nrows):
            if i != r and aug[i][c] != 0:
                factor = aug[i][c]
                aug[i] = [vi - factor * vr for vi, vr in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    for i in range(r, nrows):
        if aug[i][ncols] != 0:
            return None
    solution = [Fraction(0)] * ncols
    for row_idx, col in enumerate(pivots):
        solution[col] = aug[row_idx][ncols]
    return solution, ncols - len(pivots)
