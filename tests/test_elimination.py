"""Elimination with unit pivots against the cofactor expansion and against
fraction-free (Bareiss) elimination, the oracle in `tests/oracles.py`."""

import pytest

from eqpush.algebra import InvariantError, LaurentPolynomial, parameter_table, zt_table
from eqpush.elimination import determinant, solve

from conftest import random_laurent
from oracles import bareiss_determinant, bareiss_solve

T22 = zt_table(2, 2)
ONE = LaurentPolynomial.one(T22)
ZERO = LaurentPolynomial.zero(T22)
T1, T2 = LaurentPolynomial.variable(T22, "t1"), LaurentPolynomial.variable(T22, "t2")


def _cofactor_determinant(m):
    if len(m) == 1:
        return m[0][0]
    total = LaurentPolynomial.zero(m[0][0].table)
    for j, entry in enumerate(m[0]):
        minor = _cofactor_determinant([row[:j] + row[j + 1:] for row in m[1:]])
        total = total + entry * minor if j % 2 == 0 else total - entry * minor
    return total


def _product(a, b):
    zero = LaurentPolynomial.zero(a[0][0].table)
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), zero)
             for j in range(len(b[0]))] for i in range(len(a))]


def _times(m, x):
    return [row[0] for row in _product(m, [[v] for v in x])]


def _lu_example():
    # L * U with L unit lower triangular and U upper triangular with unit
    # monomial diagonal: every leading minor, so every pivot in order, is a
    # single term, and the determinant is the product of U's diagonal.
    low = [[ONE, ZERO, ZERO, ZERO],
           [T1 - T2, ONE, ZERO, ZERO],
           [T2 ** -1 + 2, 1 - T1, ONE, ZERO],
           [T1 * T2, T2 ** 2 - 1, T1 ** -1 - T2, ONE]]
    diagonal = [T1 ** -1, -T2, T1 * T2 ** -2, -ONE]
    up = [[diagonal[i] if i == j else (T1 + j - i if j > i else ZERO) for j in range(4)]
          for i in range(4)]
    return _product(low, up), diagonal


def test_unit_pivots_match_cofactor_expansion_and_bareiss():
    m, diagonal = _lu_example()
    for k in range(1, 5):
        assert len(_cofactor_determinant([row[:k] for row in m[:k]])) == 1
    det = _cofactor_determinant(m)
    assert det == diagonal[0] * diagonal[1] * diagonal[2] * diagonal[3]
    assert determinant(m) == bareiss_determinant(m) == det
    x = [T2 - 1, T1 ** -2, ONE.scale(3), T1 * T2 + T2 ** -1]
    rhs = _times(m, x)
    assert solve(m, rhs) == bareiss_solve(m, rhs) == (det, x)


def test_a_unit_pivot_below_the_diagonal_is_swapped_in():
    # Rows 0 and 1 exchanged: the (0, 0) entry (t1 - t2) / t1 is no unit,
    # the entry below it is, and the one swap flips the determinant's sign.
    m, _ = _lu_example()
    swapped = [m[1], m[0], m[2], m[3]]
    assert len(swapped[0][0]) == 2 and len(swapped[1][0]) == 1
    det = _cofactor_determinant(swapped)
    assert det == -_cofactor_determinant(m)
    assert determinant(swapped) == det
    x = [T1, ONE, T2 ** -1 - 2, ZERO]
    assert solve(swapped, _times(swapped, x)) == (det, x)


def test_bareiss_scales_a_row_whose_head_is_already_zero():
    # one-step Bareiss multiplies such a row by the pivot too, or the
    # determinant loses that pivot as a factor
    m = [[T1.scale(2), ONE], [ZERO, ONE]]
    assert bareiss_determinant(m) == _cofactor_determinant(m) == T1.scale(2)
    assert bareiss_determinant(m[::-1]) == determinant(m[::-1]) == T1.scale(-2)


def _random_unimodular(rng, table, n):
    """P * L * U with U's diagonal units c*t^e and every entry of L below its
    diagonal zero or of two terms or more, so each column of L * U has one
    unit at or below the diagonal, which P moves to a random row."""
    zero = LaurentPolynomial.zero(table)

    def entry():
        while True:
            p = random_laurent(rng, table, nterms=3, max_exp=2)
            if len(p) != 1:
                return p

    def unit():
        exps = tuple(rng.randint(-2, 2) for _ in range(len(table)))
        return LaurentPolynomial(table, {exps: rng.choice([1, -1, 2, -3])})

    low = [[LaurentPolynomial.one(table) if i == j
            else (entry() if j < i and rng.random() < 0.7 else zero)
            for j in range(n)] for i in range(n)]
    up = [[unit() if i == j else (random_laurent(rng, table, 2, 2) if j > i else zero)
           for j in range(n)] for i in range(n)]
    rows = _product(low, up)
    rng.shuffle(rows)
    return rows


def test_random_unimodular_matrices_match_bareiss(rng):
    table = parameter_table("t1", "t2")
    for n in [1, 2, 3, 4, 5] * 3:
        m = _random_unimodular(rng, table, n)
        x = [random_laurent(rng, table, 3, 2, rational_coeffs=True) for _ in range(n)]
        rhs = _times(m, x)
        det = bareiss_determinant(m)
        assert len(det) == 1
        assert determinant(m) == det
        assert solve(m, rhs) == bareiss_solve(m, rhs) == (det, x)


@pytest.mark.parametrize("rows, det", [
    ([[ONE + T1, ONE], [T2 + 2, ONE]], T1 - T2 - 1),
    ([[T1, T1 * T2], [T2, T2 ** 2]], ZERO),
], ids=["no-unit-entry", "singular"])
def test_a_column_without_a_unit_pivot_is_an_internal_fault(rows, det):
    assert bareiss_determinant(rows) == _cofactor_determinant(rows) == det
    with pytest.raises(InvariantError, match="no unit pivot"):
        determinant(rows)
    with pytest.raises(InvariantError, match="no unit pivot"):
        solve(rows, [ONE, ZERO])



def test_shape_errors():
    with pytest.raises(ValueError, match="empty matrix"):
        determinant([])
    for rows, rhs in [([[ONE]], [ONE, ZERO]), ([[ONE, ZERO], [ZERO, ONE]], [ONE]), ([], [])]:
        with pytest.raises(ValueError, match="shape mismatch"):
            solve(rows, rhs)
