"""Exact determinants and exact linear solving.

:func:`poly_det` is the one determinant routine for exact entries: the same
code runs on polynomial entries and on ``Fraction`` scalars, because it uses
only ring operations and exact division.  Small matrices go through cofactor
expansion, each minor computed once; anything larger uses the Bareiss
fraction-free scheme (Bareiss, 1968), whose interior divisions are exact.  No
determinant here works over rational functions: the construction clears row
denominators first, and its cross-check compares scalar determinants at
points.

:func:`solve_linear_system` backs the operator-existence probe.  Its verdicts
rest on one of two things.  Either a minor that is nonzero modulo a word-size
prime (so nonzero over the rationals) certifies full column rank, and with it
nullity 0 or, when b is a pivot too, inconsistency; a solution found modulo
further primes is then accepted only after exact substitution.  Or exact
Gauss-Jordan elimination over the rationals decides, which happens when the
system is rank-deficient modulo the first prime or its solution needs more
primes than the fixed tuple holds.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd, isqrt, lcm
from operator import mul
from typing import Sequence

from .polynomials import Polynomial

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
    p, or whose solution needs more primes than ``_PRIMES`` holds, is solved by
    exact Gauss-Jordan elimination over the rationals instead; that is the only
    route that runs for nullity > 0.
    """
    if len(rows) != len(rhs):
        raise ValueError("rhs length does not match row count")
    ncols = len(rows[0]) if rows else 0
    aug = [clear_denominators([*row, b]) for row, b in zip(rows, rhs)]
    pivots = _echelon_mod(aug, _PRIMES[0])
    if not _full_column_rank(pivots, ncols):
        return _gauss_jordan(rows, rhs)
    if len(pivots) > ncols:
        return None  # b is a pivot too: rank [A | b] = ncols + 1
    square = [aug[source] for _, source, _ in pivots]
    solved = _multimodular_solve(square, _back_substitute(pivots, _PRIMES[0]))
    if solved is None:
        return _gauss_jordan(rows, rhs)
    numerators, denominator = solved
    chosen = {source for _, source, _ in pivots}
    for i, row in enumerate(aug):
        if i not in chosen and _residual(row, numerators, denominator):
            return None
    return [Fraction(v, denominator) for v in numerators], 0


def clear_denominators(values: Sequence) -> list[int]:
    """The values scaled by the lcm of their denominators, as Python ints."""
    if all(type(v) is int for v in values):
        return values
    fractions = [Fraction(v) for v in values]
    scale = lcm(*(f.denominator for f in fractions))
    return [f.numerator * (scale // f.denominator) for f in fractions]


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
    denominator = lcm(*(v.denominator for v in values))
    return [v.numerator * (denominator // v.denominator) for v in values], denominator


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


def _gauss_jordan(
    rows: Sequence[Sequence[Fraction | int]], rhs: Sequence[Fraction | int]
) -> tuple[list[Fraction], int] | None:
    """Solve A x = b by Gauss-Jordan elimination over the rationals.

    Same contract as :func:`solve_linear_system`, at any nullity.
    """
    nrows = len(rows)
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
