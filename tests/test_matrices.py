"""Determinants and exact linear solving."""

import random
from collections import Counter, OrderedDict
from fractions import Fraction
from math import gcd, prod

import pytest

import reference
from krallhahn import casorati, matrices
from krallhahn.config import builtin_config
from krallhahn.errors import NonExactDivision
from krallhahn.matrices import integer_dets, lane_bareiss, poly_det, polynomial_adjugate
from krallhahn.polynomials import Polynomial
from krallhahn.rationals import clear_denominators
from krallhahn.verify import build_run

from reference import (
    _PRIMES,
    cofactor_det,
    gauss_jordan,
    point_cofactor,
    sarrus,
    solve_linear_system,
)

X = Polynomial.variable()


def _exact_solve(rows, rhs):
    """The exact solve on its own, whatever the modular route would decide,
    with the nullity read as the size of its kernel basis."""
    ncols = len(rows[0]) if rows else 0
    aug = [clear_denominators([*row, b])[0] for row, b in zip(rows, rhs)]
    solved = matrices._exact_solve(aug, ncols)
    if solved is None:
        return None
    numerators, denominator, kernel = solved
    return [Fraction(v, denominator) for v in numerators], len(kernel)


def test_matrix_shape_checks():
    with pytest.raises(ValueError):
        poly_det([[1, 2], [3]])
    with pytest.raises(ValueError):
        poly_det([[X, 2], [3]])
    with pytest.raises(ValueError):
        poly_det([[1, 2, 3], [4, 5, 6]])
    assert poly_det([]) == Polynomial.one()
    assert poly_det([[X]]) == X


def test_numeric_vandermonde():
    nodes = [1, 2, 3]
    rows = [[Fraction(v) ** k for k in range(3)] for v in nodes]
    det = poly_det(rows)
    assert isinstance(det, Polynomial) and det == 2
    # scalar entries among polynomials give a polynomial
    det = poly_det([[Polynomial.constant(row[0]), *row[1:]] for row in rows])
    assert det == Polynomial.constant(2)


def test_polynomial_division_is_exact():
    assert (X**2 - 1).divide_exact(X + 1) == X - 1
    with pytest.raises(NonExactDivision):
        (X**2 + 1).divide_exact(X + 1)
    assert (2 * X) / 2 == X
    # ``/`` divides by scalars only
    with pytest.raises(TypeError):
        (X**2 - 1) / (X + 1)


def test_poly_det_3x3_against_sarrus():
    rows = [
        [X, X + 1, Polynomial.constant(2)],
        [X**2, Polynomial.one(), X - 3],
        [Polynomial.constant(Fraction(1, 2)), X, X**2 + 1],
    ]
    assert poly_det(rows) == sarrus(rows)


def test_poly_det_equal_rows_vanishes():
    row = [X, X**2 - 1, 3 * X]
    assert poly_det([row, row, [1, X, Polynomial.one()]]).is_zero


def _random_entries(rng):
    def rand_poly():
        return Polynomial([Fraction(rng.randint(-3, 3)) for _ in range(rng.randint(1, 3))])

    def rand_fraction():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 5))

    return ((rand_poly, Polynomial, Polynomial.zero(), Polynomial.one()),
            (rand_fraction, Fraction, Fraction(0), Fraction(1)))


def test_bareiss_agrees_with_cofactor():
    """The fraction-free elimination against plain expansion on seeded matrices
    of sizes 0-7, once with polynomial entries and once with Fraction entries,
    including singular instances."""
    rng = random.Random(7)
    for rand_entry, kind, _, _ in _random_entries(rng):
        for n in range(8):
            rows = [[rand_entry() for _ in range(n)] for _ in range(n)]
            expected = cofactor_det(rows)
            got = poly_det(rows)
            assert got == expected, (kind, n)
            assert type(got) is Polynomial
        for n in (3, 6):
            singular = [[rand_entry() for _ in range(n)] for _ in range(n - 1)]
            singular.append(list(singular[0]))  # duplicate row
            assert cofactor_det(singular) == 0
            got = poly_det(singular)
            assert got == 0 and type(got) is Polynomial


def test_integer_det_agrees_with_cofactor():
    """Integer entries, exact floor division: sizes 0-7, a zero first pivot, a
    duplicate row and a zero column, each against plain expansion."""
    rng = random.Random(5)
    for n in range(8):
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        if n > 1:
            rows[0][0] = 0
        (got,) = integer_dets([rows])
        assert type(got) is int and got == cofactor_det(rows), n
    rows = [[rng.randint(-9, 9) for _ in range(5)] for _ in range(4)]
    assert integer_dets([[*rows, rows[1]]]) == [0]
    assert integer_dets([[row[:2] + [0] + row[3:] for row in rows + [rows[0]]]]) == [0]
    assert integer_dets([[]]) == [1] and integer_dets([[[0, 1], [1, 0]]]) == [-1]
    with pytest.raises(ValueError):
        integer_dets([[[1, 2], [3]]])


def test_integer_dets_take_one_lane_per_matrix():
    """Seeded matrices of one size, some singular or with a zero leading
    entry, against plain expansion; matrices of two sizes, or not square,
    raise."""
    rng = random.Random(7)
    for n in (0, 1, 3, 4):
        mats = [[[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)] for _ in range(9)]
        for k, rows in enumerate(mats):
            if k % 3 == 1 and n:
                rows[0][0] = 0
            if k % 3 == 2 and n > 1:
                rows[-1] = list(rows[0])
        assert integer_dets(mats) == [cofactor_det(rows) for rows in mats], n
    with pytest.raises(ValueError):
        integer_dets([[[1]], [[1, 0], [0, 1]]])
    with pytest.raises(ValueError):
        integer_dets([[[1, 2]]])


def _minor(rows, r, c):
    return [row[:c] + row[c + 1 :] for i, row in enumerate(rows) if i != r]


def _cofactor(rows, r, c):
    minor = cofactor_det(_minor(rows, r, c)) if len(rows) > 1 else 1
    return -minor if (r + c) % 2 else minor


def _adjugate(rows):
    """(det A, adj A) from lane_bareiss on [A | I] on one lane."""
    n = len(rows)
    lanes = [[[v] for v in (*row, *(int(i == j) for j in range(n)))] for i, row in enumerate(rows)]
    (det,), x = lane_bareiss(lanes, n, 1)
    return det, [[v for (v,) in column] for column in x]


def test_integer_adjugate_matches_cofactor_minors():
    """det A and adj A[c][r] = (-1)^(r+c) minor(r, c) against plain expansion on
    seeded integer matrices of sizes 1-6: full rank with a zero first pivot,
    rank n - 1 (one row the sum of two others: the adjugate has rank 1) and
    rank n - 2 (the adjugate is 0, read off the pivot count), each from a
    one-lane lane_bareiss on [A | I]."""
    rng = random.Random(11)
    assert _adjugate([]) == (1, [])
    for n in range(1, 7):
        for shape in ("full", "rank n-1", "rank n-2"):
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            rows[0][0] = 0
            if shape == "rank n-1" and n > 2:
                rows[-1] = [a + b for a, b in zip(rows[0], rows[1])]
            if shape == "rank n-2" and n > 3:
                rows[-1], rows[-2] = list(rows[0]), [2 * v for v in rows[1]]
            det, adj = _adjugate(rows)
            assert det == cofactor_det(rows), (n, shape)
            assert adj == [[_cofactor(rows, r, c) for r in range(n)] for c in range(n)]
            if shape != "full" and n > 3:
                assert det == 0
                assert any(map(any, adj)) == (shape == "rank n-1"), (n, shape)


def test_lane_bareiss_matches_the_scalar_routes():
    """lane_bareiss on seeded integer matrices, one per lane, against cofactor
    expansion lane by lane (det A, and adj A * B by Cramer's identity: the
    cofactors for B = I, det(A with column k replaced by b) for one column),
    for sizes 0, 1, 2 and 5 with B empty, one column and I.  The lanes hold
    matrices whose leading 1 x 1 or 2 x 2 minor vanishes though the
    determinant does not, where a lane swaps its own rows, and singular ones:
    rank n - 1, rank n - 1 with b inside A's column space (adj A b = 0 though
    adj A != 0), and rank n - 2 (adj A = 0).  Every lane agrees, singular or
    not, and the caller's entry lists are left as they were."""
    rng = random.Random(29)
    for n in (0, 1, 2, 5):
        mats, rhs = [], []
        for lane in range(12):
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            b = [rng.randint(-9, 9) for _ in range(n)]
            if lane % 6 == 1 and n > 1:  # rank n - 1
                rows[-1] = [u - v for u, v in zip(rows[0], rows[1])]
            if lane % 6 == 2 and n:  # leading 1 x 1 minor zero
                rows[0][0] = 0
            if lane % 6 == 3 and n > 2:  # leading 2 x 2 minor zero
                rows[1][:2] = [3 * v for v in rows[0][:2]]
            if lane % 6 == 4 and n > 1:  # rank n - 1, b = A y
                for row in rows:
                    row[-1] = 2 * row[0]
                b = [sum(u * v for u, v in zip(row, b)) for row in rows]
            if lane % 6 == 5 and n > 3:  # rank n - 2
                rows[-1], rows[-2] = list(rows[0]), list(rows[1])
            mats.append(rows)
            rhs.append(b)
        dets = [cofactor_det(rows) for rows in mats]
        singular = {i for i, det in enumerate(dets) if det == 0}
        leading_zero = {
            i for i, rows in enumerate(mats)
            if any(cofactor_det([row[:k] for row in rows[:k]]) == 0 for k in range(1, n + 1))
        }
        if n > 2:
            assert leading_zero - singular and {1, 4, 5} <= singular
        for kind in ("none", "column", "identity"):
            lanes = [
                [[rows[r][c] for rows in mats] for c in range(n)]
                + ([[v[r] for v in rhs]] if kind == "column" else [])
                + ([[int(r == j)] * len(mats) for j in range(n)] if kind == "identity" else [])
                for r in range(n)
            ]
            entries = [list(row) for row in lanes]
            copies = [[list(entry) for entry in row] for row in lanes]
            width = len(lanes[0]) - n if n else 0
            det, x = lane_bareiss(lanes, width, len(mats))
            assert entries == copies, (n, kind)
            assert det == dets, (n, kind)
            assert len(x) == n and all(len(column) == width for column in x)
            for i, rows in enumerate(mats):
                if kind == "identity":
                    got = [[v[i] for v in column] for column in x]
                    assert got == [[_cofactor(rows, r, c) for r in range(n)] for c in range(n)]
                    if n == 5:  # adj A = 0 only at rank n - 2
                        assert any(map(any, got)) == (i % 6 != 5), i
                elif kind == "column":
                    for k in range(n):
                        replaced = [row[:k] + [v] + row[k + 1 :] for row, v in zip(rows, rhs[i])]
                        assert x[k][0][i] == cofactor_det(replaced), (n, i, k)
            if kind == "column" and n == 5:  # a rank n - 1 lane with adj A b != 0
                assert any(x[k][0][i] for i in (1, 7) for k in range(n))


def _point_adjugate_cases():
    """Seeded polynomial matrices of sizes 0-5 with rational coefficients, zero
    entries and rows of unequal degree, then one with a zero row and one with
    row 0 times (x - 1), whose determinant vanishes at x = 1."""
    rng = random.Random(13)

    def entry():
        if rng.random() < 0.2:
            return Polynomial.zero()
        size = rng.randint(1, 4)
        return Polynomial([Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(size)])

    cases = [[[entry() for _ in range(n)] for _ in range(n)] for n in range(6) for _ in range(3)]
    zero_row = [[entry() for _ in range(4)] for _ in range(4)]
    zero_row[2] = [Polynomial.zero()] * 4
    vanishing = [[entry() + X for _ in range(4)] for _ in range(4)]
    vanishing[0] = [(X - 1) * e for e in vanishing[0]]
    return [*cases, zero_row, vanishing]


def test_point_adjugate_matches_cofactor_route():
    """det and every cofactor of seeded polynomial matrices against plain
    expansion, and every degree bound at least the reference degree.  The
    matrices have sizes 0-5, rational coefficients, zero entries and rows of
    unequal degree; one has a zero row, and one has row 0 times (x - 1), so
    its determinant vanishes at x = 1 and the direct minors are taken there.
    ``extend`` takes every adjugate value three points further, and each
    stored value is the cofactor's at its point, times its row scale."""
    cases = _point_adjugate_cases()
    vanishing = cases[-1]
    for rows in cases:
        n = len(rows)
        adjugate = polynomial_adjugate(rows)
        det = cofactor_det(rows)
        assert adjugate.det() == det, rows
        assert adjugate.degree_bound() >= det.degree
        stop = len(adjugate.values[0][0]) + 3 if n else 0
        adjugate.extend(stop)
        for r in range(n):
            for c in range(n):
                expected = _cofactor(rows, r, c) * Polynomial.one()
                assert point_cofactor(adjugate, r, c) == expected, (rows, r, c)
                assert adjugate.degree_bound(r) >= expected.degree
                scale = prod(adjugate.dens) // adjugate.dens[r]
                assert adjugate.values[r][c] == [expected(x) * scale for x in range(stop)]
    assert polynomial_adjugate(vanishing).dets[1] == 0
    assert point_cofactor(polynomial_adjugate(vanishing), 0, 0)(1) != 0


def _assert_one_table(adjugate, calls):
    """dets and every values[r][c] hold the same points, and each entry was
    evaluated once per point."""
    n, stop = len(adjugate.degrees), len(adjugate.dets)
    assert all(len(values) == stop for column in adjugate.values for values in column)
    assert len(calls) == n * n * stop


def test_point_adjugate_takes_each_point_once(monkeypatch):
    """det and adjugate come from one table: after the constructor and after
    each ``extend``, ``dets`` and every ``values[r][c]`` have the same length,
    and every entry is evaluated once per point, never again by a later pass.
    The seeded matrices of the cofactor test, then the four-roots cleared
    adjugate, whose rows are read off the matrix's structure: taken to every
    point its mixing rows read, past the block the constructor took, it evaluates each
    row's Y_r o theta once at each s = x - c it reads, s = -m .. stop - 2."""
    calls, horner = [], matrices.horner

    def counted(*args):
        calls.append(args)
        return horner(*args)

    monkeypatch.setattr(matrices, "horner", counted)
    for rows in _point_adjugate_cases():
        calls.clear()
        adjugate = polynomial_adjugate(rows)
        assert len(adjugate.dets) == max(adjugate.degree_bound(), 0) + 1
        _assert_one_table(adjugate, calls)
        for stop in (len(adjugate.dets) + 3, len(adjugate.dets) + 40, 2):
            adjugate.extend(stop)
            assert len(adjugate.dets) >= stop
            _assert_one_table(adjugate, calls)
    monkeypatch.setattr(casorati, "_store", OrderedDict())
    ctx = build_run(builtin_config("four-roots")).ctx
    m, rows = ctx.m, {}
    for row in range(ctx.m):
        nums, _ = casorati._row_theta(ctx, row).integer_parts
        rows[tuple(v // gcd(*nums) for v in nums)] = row
    assert len(rows) == m
    values, horner = Counter(), casorati.horner

    def counted_rows(nums, x, *rest):
        if tuple(nums) in rows:
            values[rows[tuple(nums)], x] += 1
        return horner(nums, x, *rest)

    monkeypatch.setattr(casorati, "horner", counted_rows)
    tables = casorati._mixing_tables(ctx)
    adjugate = casorati._cleared_adjugate(ctx)
    stop = len(adjugate.dets)
    assert stop >= max(xs[-1] + 1 for xs, *_ in tables.values()) + m > adjugate.degree_bound() + 1
    assert all(len(values) == stop for column in adjugate.values for values in column)
    assert set(values.values()) == {1}
    assert sorted(values) == [(row, s) for row in range(m) for s in range(-m, stop - 1)]


def test_poly_det_scalar_rows_above_a_polynomial_row():
    """Fraction rows above one polynomial row, the shape of the bordered family.

    The scalars are eliminated as constant polynomials; where a column of the
    scalar rows is zero, the polynomial row is swapped up as the pivot.
    """
    rng = random.Random(11)
    (rand_poly, *_), (rand_fraction, *_) = _random_entries(rng)
    for n in (1, 2, 4, 6):
        scalars = [[rand_fraction() for _ in range(n)] for _ in range(n - 1)]
        border = [rand_poly() for _ in range(n)]
        for col in (None, 0, n - 1):
            rows = [
                [Fraction(0) if c == col else v for c, v in enumerate(row)] for row in scalars
            ]
            rows.append(border)
            got = poly_det(rows)
            assert got == cofactor_det(rows) and type(got) is Polynomial, (n, col)


def test_poly_det_row_swaps_zero_columns_and_result_type():
    rng = random.Random(3)
    for rand_entry, kind, zero, one in _random_entries(rng):
        for n in (2, 3, 5):
            rows = [[rand_entry() for _ in range(n)] for _ in range(n)]
            rows[0][0] = zero  # the first pivot needs a row swap
            rows[-1][0] = rows[-1][0] or one
            assert poly_det(rows) == cofactor_det(rows), (kind, n)
            # the first column is zero in every row but the last: the swap crosses rows
            swapped = [[zero, *row[1:]] for row in rows[:-1]] + [rows[-1]]
            assert poly_det(swapped) == cofactor_det(swapped)
            for col in (0, n - 1):
                blank = [row[:col] + [zero] + row[col + 1 :] for row in rows]
                got = poly_det(blank)
                assert got == 0 and type(got) is Polynomial
    # an exact permutation: the sign of each swap counts
    perm = [[0, 0, 1], [0, 1, 0], [1, 0, 0]]
    assert poly_det(perm) == -1
    assert poly_det([[0, 1], [1, 0]]) == -1
    assert poly_det([[0, X], [X + 1, 2]]) == -X * (X + 1)
    # scalar entries are read as constant polynomials, mixed or not
    assert type(poly_det([[1, 2], [3, 4]])) is Polynomial
    assert poly_det([[1, 2], [3, X]]) == X - 6


def test_solve_unique():
    rows = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(-1)]]
    solution, nullity = solve_linear_system(rows, [Fraction(5), Fraction(1)])
    assert nullity == 0
    assert solution == [Fraction(2), Fraction(1)]


def test_solve_underdetermined_pins_free_variables():
    rows = [[Fraction(1), Fraction(1), Fraction(0)]]
    solution, nullity = solve_linear_system(rows, [Fraction(3)])
    assert nullity == 2
    assert solution == [Fraction(3), Fraction(0), Fraction(0)]


def test_solve_inconsistent_returns_none():
    rows = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    assert solve_linear_system(rows, [Fraction(1), Fraction(3)]) is None


def test_solve_overdetermined_consistent():
    rows = [[Fraction(1)], [Fraction(2)], [Fraction(-1)]]
    rhs = [Fraction(3), Fraction(6), Fraction(-3)]
    solution, nullity = solve_linear_system(rows, rhs)
    assert (solution, nullity) == ([Fraction(3)], 0)


def test_solve_shape_mismatch():
    with pytest.raises(ValueError):
        solve_linear_system([[Fraction(1)]], [Fraction(1), Fraction(2)])


# -- the reference's certified modular route and the exact solve against Gauss-Jordan --


def _is_prime(n):
    # Miller-Rabin with the first twelve primes as bases is exact below 3.3e24
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n in bases:
        return True
    if n < 2 or any(n % q == 0 for q in bases):
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def test_primes_are_distinct_word_size_primes():
    assert len(set(_PRIMES)) == len(_PRIMES)
    assert all(p < 2**62 and _is_prime(p) for p in _PRIMES)


@pytest.fixture
def routes(monkeypatch):
    """Counts exact fallbacks and modular eliminations per solve."""
    calls = {"fallback": 0, "echelon": 0}
    echelon = reference._echelon_mod
    exact_solve = matrices._exact_solve

    def fallback(aug, ncols):
        calls["fallback"] += 1
        return exact_solve(aug, ncols)

    def counted_echelon(aug, p):
        calls["echelon"] += 1
        return echelon(aug, p)

    monkeypatch.setattr(matrices, "_exact_solve", fallback)
    monkeypatch.setattr(reference, "_exact_solve", fallback)
    monkeypatch.setattr(reference, "_echelon_mod", counted_echelon)
    return calls


def _system(matrix, x):
    rhs = [sum(Fraction(a) * v for a, v in zip(row, x)) for row in matrix]
    return matrix, rhs


def test_full_rank_consistent_is_solved_modularly(routes):
    rng = random.Random(11)
    x = [Fraction(rng.randint(-50, 50), rng.randint(1, 9)) for _ in range(6)]
    rows, rhs = _system([[rng.randint(-9, 9) for _ in range(6)] for _ in range(9)], x)
    assert solve_linear_system(rows, rhs) == gauss_jordan(rows, rhs) == (x, 0)
    assert routes["fallback"] == 0


def test_b_as_pivot_certifies_inconsistency(routes, monkeypatch):
    rows = [[1, 0], [0, 1], [1, 1]]
    rhs = [1, 1, 3]
    monkeypatch.setattr(
        reference, "_multimodular_solve", lambda *args: pytest.fail("solved, not certified")
    )
    assert solve_linear_system(rows, rhs) is None
    assert gauss_jordan(rows, rhs) is None
    assert routes == {"fallback": 0, "echelon": 1}


def test_inconsistency_hidden_mod_p_is_found_by_substitution(routes):
    # b = (0, p) lies in the image of A mod p but not over the rationals
    rows, rhs = [[1], [1]], [0, _PRIMES[0]]
    assert solve_linear_system(rows, rhs) is None
    assert gauss_jordan(rows, rhs) is None
    assert routes["fallback"] == 0


def test_positive_nullity_goes_to_gauss_jordan(routes):
    rows = [[1, 2, 3], [2, 4, 6], [1, 0, 1]]
    rhs = [6, 12, 2]
    expected = gauss_jordan(rows, rhs)
    assert expected[1] == 1
    assert solve_linear_system(rows, rhs) == expected
    assert routes["fallback"] == 1


def test_singular_mod_the_first_prime_goes_to_gauss_jordan(routes):
    p = _PRIMES[0]
    rows = [[p, 1], [2 * p, 3]]  # det = p, zero mod p
    rhs = [1, 5]
    expected = gauss_jordan(rows, rhs)
    assert expected == ([Fraction(-2, p), Fraction(3)], 0)
    assert solve_linear_system(rows, rhs) == expected
    assert routes["fallback"] == 1


def test_solution_needing_several_primes(routes):
    x = [Fraction(3**100, 7**40), Fraction(-(5**60), 11**30)]
    rows, rhs = _system([[1, 2], [3, 5], [2, -7]], x)
    assert solve_linear_system(rows, rhs) == gauss_jordan(rows, rhs) == (x, 0)
    assert routes["fallback"] == 0
    assert routes["echelon"] >= 5  # the first prime alone reconstructs 30 bits


def test_prime_dividing_the_minor_is_skipped(routes):
    rows, rhs = [[_PRIMES[1], 0], [0, 1]], [1, 1]
    solved = solve_linear_system(rows, rhs)
    assert solved == ([Fraction(1, _PRIMES[1]), Fraction(1)], 0)
    assert routes["fallback"] == 0


def test_solution_too_large_for_the_primes(routes):
    x = [Fraction(3**500, 7**300), Fraction(1, 2)]
    rows, rhs = _system([[1, 1], [1, -1]], x)
    assert solve_linear_system(rows, rhs) == gauss_jordan(rows, rhs) == (x, 0)
    assert routes["fallback"] == 1
    assert routes["echelon"] == len(_PRIMES)  # the full system once, then each further prime


def test_random_systems_match_gauss_jordan():
    rng = random.Random(5)
    for trial in range(40):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 5)
        rows = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(ncols)]
                for _ in range(nrows)]
        if trial % 4 == 0 and ncols > 1:  # a repeated column: nullity > 0
            for row in rows:
                row[-1] = row[0]
        if trial % 2:
            rhs = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(nrows)]
        else:
            x = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(ncols)]
            rhs = _system(rows, x)[1]
        expected = gauss_jordan(rows, rhs)
        assert solve_linear_system(rows, rhs) == expected, trial
        assert _exact_solve(rows, rhs) == expected, trial


@pytest.mark.parametrize(
    "rows,rhs",
    [
        ([[1, 2, 3], [2, 4, 6], [1, 0, 1]], [6, 12, 2]),  # rank-deficient, consistent
        ([[1, 2, 3], [2, 4, 6], [1, 0, 1]], [6, 11, 2]),  # rank-deficient, inconsistent
        ([[0, 1, 2], [0, 3, 4]], [5, 6]),  # a zero column: its variable is free
        ([[1, 0, 2], [3, 0, 4], [5, 0, 6]], [1, 1, 1]),  # a zero column, inconsistent
        ([[0, 0], [0, 0]], [0, 0]),  # the zero matrix
        ([[0, 0], [0, 0]], [0, 1]),
        ([[1, 1], [1, -1], [2, 0], [3, 1], [0, 2]], [3, 1, 4, 7, 2]),  # tall, consistent
        ([[1, 1], [1, -1], [2, 0], [3, 1], [0, 2]], [3, 1, 4, 7, 3]),  # tall, inconsistent
        ([[0, 2, 1], [0, 0, 0], [3, 1, 0], [6, 2, 0]], [1, 0, 2, 4]),  # swaps past zero rows
        ([[Fraction(1, 2), Fraction(2, 3)], [Fraction(3, 4), 1]], [1, Fraction(3, 2)]),
        ([[1, 2], [3, 4]], [1, 1]),  # pivots 1 and -2: a negative denominator
    ],
)
def test_exact_fallback_matches_gauss_jordan(routes, rows, rhs):
    expected = gauss_jordan(rows, rhs)
    assert _exact_solve(rows, rhs) == expected
    assert solve_linear_system(rows, rhs) == expected
    if expected is not None and expected[1] > 0:
        assert routes["fallback"] == 2  # the direct call and the solver's own


def test_exact_solve_kernel_is_a_basis_of_the_null_space():
    """Each kernel vector is annihilated by A, the vectors are independent,
    and there are as many as Gauss-Jordan's nullity; the particular solution
    solves every row."""
    rng = random.Random(29)
    for trial in range(40):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(nrows)]
        for row in rows[: trial % 3]:  # repeated columns and zero columns
            row[-1] = row[0] if trial % 2 else 0
        x = [rng.randint(-5, 5) for _ in range(ncols)]
        aug = [row + [sum(a * v for a, v in zip(row, x))] for row in rows]
        numerators, denominator, kernel = matrices._exact_solve(aug, ncols)
        assert len(kernel) == gauss_jordan(rows, [b for *_, b in aug])[1], trial
        for vector in kernel:
            assert not any(sum(a * v for a, v in zip(row, vector)) for row in rows), trial
        if kernel:  # independent: only t = 0 solves sum_k t_k K_k = 0
            assert gauss_jordan([list(c) for c in zip(*kernel)], [0] * ncols)[1] == 0, trial
        assert all(
            sum(a * v for a, v in zip(row, numerators)) == b * denominator for *row, b in aug
        ), trial
