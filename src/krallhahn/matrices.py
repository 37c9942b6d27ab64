"""Exact determinants and exact linear solving, on the integers.

One fraction-free forward elimination (Bareiss, 1968), :func:`_eliminate`,
and one Cramer back-substitution, :func:`_cramer`, do every exact elimination
here, on rows whose entries are lists of integers, one per matrix (a lane, say
a point); a lane with a zero pivot swaps up its own rows.
:func:`lane_bareiss` composes them and is total: it gives det A and
adj A * B on every lane, so no caller handles a singular lane.  By Cramer's
identity, (adj A * B)[k][j] = det(A with column k replaced by B_j) for every
A; a singular lane's [A | B] is eliminated again on its own, and its entries
are 0 below rank n - 1 of A or rank n of [A | B], and otherwise one
determinant pass.  :func:`integer_dets` takes determinants of one size as the
lanes of one pass, and :func:`_exact_solve` runs the elimination on one lane.

At n <= 4 elimination is the wrong tool for det A and adj A: on [A | I] it
makes 94 lane passes at n = 4, each entry an exact division, and a singular
lane a second elimination.  :func:`lane_laplace` gives the same two from the
2 x 2 minors of rows 0, 1 and of rows 2, 3 (the generalized Laplace
expansion) in 29 passes with no division, singular lanes included; its
reference is :func:`lane_bareiss`, which stays the only elimination.
:class:`PointAdjugate` keeps one table of the integer values of the
determinant and the adjugate of a polynomial matrix at x = 0, 1, ..., both
from one lane pass on B(x) per block of :data:`LANES` points, and
interpolates the determinant on the sum of its row degrees (von zur Gathen
and Gerhard, Modern Computer Algebra, ch. 5); B holds integer rows read off
the matrix's structure, with column factors taken out.
:func:`polynomial_adjugate` reads B off a matrix of polynomials entry by
entry, and :func:`poly_det` takes its determinant on any square matrix.
Nothing here eliminates polynomials or rational functions: the construction
clears row denominators first, and its cross-check and the family q_n take
lane passes on integer rows kept over one denominator per point.

:func:`_exact_solve` solves integer rows [A | b] as integer numerators over
one denominator, with a kernel basis of A from the same pass: the oracle's
residual systems at each point, and the one small system that couples the
kernels of its singular points.  It is the only linear solver here.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import lcm, prod
from operator import mul
from typing import Callable, Sequence

from .polynomials import Polynomial, horner, interpolate


def _square_size(rows: Sequence[Sequence]) -> int:
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError(
            f"determinant needs a square matrix, got row lengths {[len(r) for r in rows]}"
        )
    return n


def _eliminate(
    rows: list[list[list[int]]], width: int, count: int
) -> tuple[list[int], list[int], set[int]]:
    """Fraction-free forward elimination of the first ``width`` columns of
    rows whose entries are lists of ``count`` integers, one per lane.

    Returns the pivot columns in order, each lane's sign of its row
    permutation, and the lanes reported: those with no pivot in a column
    where another lane has one (for a square A, the singular lanes), whose
    results are meaningless.  Pivot k sits in row k.  A lane whose entry in
    row k is zero swaps up its first row below with a nonzero entry; a column
    where no lane has one is skipped, and a reported lane gets 1 for its
    pivot, so that later divisions stay defined.  Then every entry right of
    the column in each row below becomes
    (pivot * entry - lead * pivot_entry) // previous_pivot.  By Sylvester's
    identity that is a minor of the original matrix, so the division is
    exact, and the pivot of row k is the minor on the first k + 1 pivot rows
    and columns.  Entries left of a row's pivot are not cleared; nothing
    reads them.  The rows are overwritten, but no entry list is changed in
    place.
    """
    pivots: list[int] = []
    sign = [1] * count
    reported: set[int] = set()
    prev = [1] * count
    for c in range(width):
        r = len(pivots)
        if r == len(rows):
            break
        if not all(rows[r][c]):
            missing = set()
            for lane in [lane for lane, v in enumerate(rows[r][c]) if not v]:
                top, low = rows[r], next((row for row in rows[r + 1 :] if row[c][lane]), None)
                if low is None:
                    missing.add(lane)
                    continue
                for j in range(c, len(top)):
                    top[j], low[j] = top[j][:], low[j][:]
                    top[j][lane], low[j][lane] = low[j][lane], top[j][lane]
                sign[lane] = -sign[lane]
            if len(missing) == count:
                continue
            reported |= missing
            rows[r][c] = [v or 1 for v in rows[r][c]]
        pivot, tail = rows[r][c], rows[r][c + 1 :]
        for row in rows[r + 1 :]:
            row[c + 1 :] = [
                [(p * v - l * t) // q for p, v, l, t, q in zip(pivot, vs, row[c], ts, prev)]
                for vs, ts in zip(row[c + 1 :], tail)
            ]
        prev = pivot
        pivots.append(c)
    return pivots, sign, reported


def _cramer(
    rows: list[list[list[int]]], pivots: list[int], ncols: int, width: int, det: list[int]
) -> list[list[list[int]]]:
    """det * X for the rows [A | B] after :func:`_eliminate`, A of ``ncols``
    columns and B of ``width``, as ``x[k][j]``, row k and column j a list over
    the lanes; det per lane is the last pivot or its negative.  That pivot is
    the minor on the pivot rows and columns, so by Cramer's rule each pivot
    row fixes the row of det * X at its pivot column by one exact division; a
    column without a pivot keeps a zero row.
    """
    x = [[[0] * len(det) for _ in range(width)] for _ in range(ncols)]
    for k in range(len(pivots) - 1, -1, -1):
        c, row = pivots[k], rows[k]
        acc = [[d * v for d, v in zip(det, vs)] for vs in row[ncols : ncols + width]]
        for j in pivots[k + 1 :]:
            acc = [[a - e * b for a, e, b in zip(sums, row[j], xs)] for sums, xs in zip(acc, x[j])]
        x[c] = [[a // p for a, p in zip(sums, row[c])] for sums in acc]
    return x


def lane_bareiss(
    rows: list[list[list[int]]], width: int, count: int
) -> tuple[list[int], list[list[list[int]]]]:
    """det A and adj A * B for the n rows [A | B] on ``count`` lanes at once,
    B of ``width`` columns, as ``(det, x)``: det A per lane, and adj A * B as
    ``x[k][j]``, a list over the lanes, which by Cramer's identity is
    det(A with column k replaced by B_j) on every lane, singular or not.

    :func:`_eliminate`, then :func:`_cramer`, whose det A * A^-1 B is adj A * B
    where A is nonsingular.  Where A is singular, det A is 0, and with
    ``width`` that lane's [A | B] is eliminated again on its own: adj A * B
    is 0 if rank A < n - 1 or rank [A | B] < n, and otherwise its n * width
    entries are one :func:`integer_dets` pass.  The rows are overwritten,
    their entry lists not.
    """
    n = len(rows)
    kept = [row[:] for row in rows] if width else []
    pivots, sign, singular = _eliminate(rows, n, count)
    if len(pivots) < n:
        singular = set(range(count))
    last = rows[n - 1][n - 1] if n else [1] * count
    det = [0 if i in singular else s * p for i, (s, p) in enumerate(zip(sign, last))]
    x = _cramer(rows, pivots, n, width, det)
    for i in singular if width else ():
        point = [[entry[i] for entry in row] for row in kept]
        own, _, _ = _eliminate([[[v] for v in row] for row in point], n + width, 1)
        if sum(c < n for c in own) < n - 1 or len(own) < n:
            values = [0] * (n * width)
        else:
            values = integer_dets([
                [row[:k] + [row[n + j]] + row[k + 1 : n] for row in point]
                for k in range(n) for j in range(width)
            ])
        for k, column in enumerate(x):
            for j, lanes in enumerate(column):
                lanes[i] = values[k * width + j]
    return det, x


def _expand(row: list[list[int]], keep: tuple[int, ...], minors: dict, sign: int) -> list[int]:
    """sign * sum_i (-1)^i row[keep[i]] * minors[keep less keep[i]] on every
    lane, in one pass: the determinant on the columns ``keep`` of ``row``
    above the rows whose minors these are, expanded along ``row``."""
    a, b, *c = (row[j] for j in keep)
    x, y, *z = (minors[keep[:i] + keep[i + 1 :]] for i in range(len(keep)))
    if c:
        return [sign * (p * u - q * v + r * w) for p, q, r, u, v, w in zip(a, b, *c, x, y, *z)]
    return [sign * (p * u - q * v) for p, q, u, v in zip(a, b, x, y)]


def lane_laplace(
    rows: list[list[list[int]]], count: int
) -> tuple[list[int], list[list[list[int]]]]:
    """det A and adj A for the n rows A, 1 <= n <= 4, on ``count`` lanes at
    once, as ``lane_bareiss([A | I], n, count)`` gives them: ``adj[c][r]`` is
    the cofactor (r, c), a list over the lanes.

    The generalized Laplace expansion along rows 0 and 1, with no division,
    so a singular lane is no special case.  The 2 x 2 minors of rows 0 and 1
    on every column pair are taken once, and those of rows 2 and 3 (at n = 3,
    row 2's entries).  The cofactor (r, c) is the determinant on the other
    columns of the other rows: for r < 2, row 1 - r expanded against the
    minors of rows 2.., for r >= 2 the other row of 2.. against those of rows
    0 and 1 (at n = 3, their minor itself), at most three products in one
    pass.  det A is row 0 times its own cofactors: 29 passes at n = 4.  Past
    n = 4 the expansion needs minors of k >= 3 rows, C(n, k) of them, so
    larger n stays on :func:`lane_bareiss`.  The rows are left as they were.
    """
    n = len(rows)
    if not 1 <= n <= 4:
        raise ValueError(f"lane_laplace takes 1 to 4 rows, got {n}")
    if n == 1:
        return rows[0][0][:], [[[1] * count]]
    if n == 2:
        (a, b), (c, d) = rows
        det = [p * s - q * r for p, q, r, s in zip(a, b, c, d)]
        return det, [[d[:], [-v for v in b]], [[-v for v in c], a[:]]]

    def minors(u, v):
        return {
            (j, k): [p * s - q * r for p, q, r, s in zip(u[j], u[k], v[j], v[k])]
            for j, k in combinations(range(n), 2)
        }

    top = minors(*rows[:2])
    low = minors(*rows[2:]) if n == 4 else {(j,): e for j, e in enumerate(rows[2])}
    adj = [[None] * n for _ in range(n)]
    for c in range(n):
        keep = tuple(j for j in range(n) if j != c)
        for r in range(n):
            sign = -1 if (r + c) % 2 else 1
            if r < 2:
                adj[c][r] = _expand(rows[1 - r], keep, low, sign)
            elif n == 4:
                adj[c][r] = _expand(rows[5 - r], keep, top, sign)
            else:
                adj[c][r] = [sign * v for v in top[keep]]
    own = zip(*(column[0] for column in adj))
    det = [sum(map(mul, es, cs)) for es, cs in zip(zip(*rows[0]), own)]
    return det, adj


def integer_dets(mats: Sequence[Sequence[Sequence[int]]]) -> list[int]:
    """Determinants of square integer matrices of one size, each on its own
    lane of one :func:`lane_bareiss` pass; the empty matrix has determinant 1."""
    if len({_square_size(rows) for rows in mats}) > 1:
        raise ValueError("integer_dets needs matrices of one size")
    lanes = [[list(entry) for entry in zip(*row)] for row in zip(*mats)]
    return lane_bareiss(lanes, 0, len(mats))[0]


# Points per lane pass: bounds the working set of the point routes at large m.
LANES = 32


class PointAdjugate:
    """det A and adj A of a square polynomial matrix A at x = 0, 1, ..., in
    one table: with row i scaled to integers by d_i, ``dets[x]`` is
    prod_i d_i det A(x) and ``values[r][c][x]`` prod_{i != r} d_i times the
    cofactor (r, c).  Both always hold the same points, and grow only by
    :meth:`extend`, one :func:`lane_laplace` pass per block of points for
    1 <= n <= 4 and one :func:`lane_bareiss` pass on [B | I] otherwise; the
    constructor takes them to the determinant's degree bound.

    ``dens`` holds the d_i, ``degrees`` one bound per row on the degrees of
    its entries, and ``evaluate(block)`` gives, as lists over the points of
    ``block``, integer rows B and column values g (or none, all ones) with
    diag(d) A = B diag(g) there.
    """

    def __init__(
        self,
        dens: Sequence[int],
        degrees: Sequence[int],
        evaluate: Callable[[range], tuple[list, list]],
    ) -> None:
        self.dens, self.degrees, self.evaluate = list(dens), list(degrees), evaluate
        self.dets: list[int] = []
        self.values: list[list[list[int]]] = [[[] for _ in self.dens] for _ in self.dens]
        self.extend(max(self.degree_bound(), 0) + 1)

    def extend(self, stop: int) -> None:
        """Take ``dets`` and ``values`` to every x < stop, det B(x) and
        adj B(x) together, singular points included, per block of
        :data:`LANES` points: one :func:`lane_laplace` for 1 <= n <= 4, else
        one :func:`lane_bareiss` on [B(x) | I].  With A = B diag(g) (row
        scales aside), det A = det B prod_c g_c and adj A = adj(diag g) adj B:
        row c of adj B times prod_{c' != c} g_c', an identity at every point,
        singular or not."""
        n = len(self.dens)
        for lo in range(len(self.dets), stop, LANES):
            block = range(lo, min(lo + LANES, stop))
            rows, columns = self.evaluate(block)
            ones, zeros = [1] * len(block), [0] * len(block)
            if 1 <= n <= 4:
                det, adj = lane_laplace(rows, len(block))
            else:
                aug = [
                    [*row, *(ones if j == i else zeros for j in range(n))] for i, row in enumerate(rows)
                ]
                det, adj = lane_bareiss(aug, n, len(block))
            if columns:
                for c in range(n):
                    others = [prod(gs) for gs in zip(ones, *columns[:c], *columns[c + 1 :])]
                    adj[c] = [list(map(mul, lanes, others)) for lanes in adj[c]]
                det = [prod(gs) for gs in zip(det, *columns)]
            self.dets += det
            for c, column in enumerate(adj):  # adj A[c][r] is the cofactor (r, c)
                for r, lanes in enumerate(column):
                    self.values[r][c] += lanes

    def degree_bound(self, row: int | None = None) -> int:
        """sum_i deg_i over the rows but ``row``: with no row a bound on deg
        det A, else on the degree of every cofactor (row, c) (-1 or less: it
        is 0)."""
        return sum(self.degrees) - (self.degrees[row] if row is not None else 0)

    def det(self) -> Polynomial:
        count = max(self.degree_bound(), 0) + 1
        return interpolate(self.dets[:count], prod(self.dens))


def polynomial_adjugate(rows: Sequence[Sequence[Polynomial]]) -> PointAdjugate:
    """:class:`PointAdjugate` of a square matrix of polynomials, read entry by
    entry: row i is scaled to integers by d_i, its entries' lcm denominator,
    and its degree is the largest of its entries'."""
    _square_size(rows)
    dens = [lcm(*(e.integer_parts[1] for e in row)) for row in rows]
    scaled = [
        [[c * (den // d) for c in nums] for nums, d in (e.integer_parts for e in row)]
        for den, row in zip(dens, rows)
    ]

    def evaluate(block):
        return [[[horner(nums, x) for x in block] for nums in row] for row in scaled], []

    return PointAdjugate(dens, [max(e.degree for e in row) for row in rows], evaluate)


def poly_det(rows: Sequence[Sequence[Polynomial | Fraction | int]]) -> Polynomial:
    """The determinant of a square matrix, a scalar entry read as a constant
    polynomial (the empty matrix gives ``Polynomial.one()``), by
    :func:`polynomial_adjugate`."""
    return polynomial_adjugate([
        [e if isinstance(e, Polynomial) else Polynomial.constant(e) for e in row] for row in rows
    ]).det()


def _exact_solve(
    aug: list[list[int]], ncols: int
) -> tuple[list[int], int, list[list[int]]] | None:
    """``(numerators, denominator, kernel)`` for the integer rows [A | b], by
    one :func:`_eliminate` and one :func:`_cramer` on one lane; None if
    inconsistent.

    x = numerators / denominator with the free variables 0, and the
    denominator det is the last pivot (1 if none), which may be negative.
    :func:`_cramer` back-substitutes B = [b | the free columns of A], a free
    column's entries left of a row's pivot read as 0 (they are not cleared),
    so det * A_P^-1 B comes from the same pass.  Free column f gives one
    kernel vector: det at f, -det * A_P^-1 A_f on the pivot columns and 0
    elsewhere; the nullity is ``len(kernel)``.
    """
    rows = [[[v] for v in row] for row in aug]
    pivots, _, _ = _eliminate(rows, ncols + 1, 1)
    if pivots and pivots[-1] == ncols:
        return None  # b is a pivot: rank [A | b] > rank A
    free = [f for f in range(ncols) if f not in pivots]
    det = rows[len(pivots) - 1][pivots[-1]] if pivots else [1]
    rows = [
        row[: ncols + 1] + [row[f] if f > c else [0] for f in free] for row, c in zip(rows, pivots)
    ]
    x = [[v for (v,) in column] for column in _cramer(rows, pivots, ncols, 1 + len(free), det)]
    kernel = []
    for j, f in enumerate(free, 1):
        vector = [-column[j] for column in x]
        vector[f] = det[0]
        kernel.append(vector)
    return [column[0] for column in x], det[0], kernel
