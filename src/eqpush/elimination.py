"""Gaussian elimination over the Laurent-polynomial ring with unit pivots.

A unit of the ring is a one-term polynomial c*t^e, with inverse c^-1*t^-e.
Column k pivots on the first row at or below k whose entry is a unit, so
row_i -= (head * pivot^-1) * row_k costs one product per entry and no
division.  A column without a unit entry, as in a singular matrix, raises
InvariantError: the matrices eliminated here are unimodular by construction.
"""

from __future__ import annotations

from .algebra import InvariantError, LaurentPolynomial, Monomial, quotient


def _unit_inverse(p: LaurentPolynomial):
    """(monomial, coefficient) of p^-1 if p is a unit, else None."""
    if len(p.terms) != 1:
        return None
    (exps, c), = p.terms.items()
    return Monomial(p.table, tuple(-e for e in exps)), quotient(1, c)


def _forward(matrix, tails):
    """(determinant, upper-triangular rows of matrix | tails, pivot inverses)."""
    n = len(matrix)
    aug = [list(row) + list(tail) for row, tail in zip(matrix, tails)]
    det = LaurentPolynomial.one(matrix[0][0].table)
    inverses = []
    for k in range(n):
        for r in range(k, n):
            inverse = _unit_inverse(aug[r][k])
            if inverse is not None:
                break
        else:
            raise InvariantError(f"no unit pivot in column {k + 1} of {n}")
        if r != k:
            aug[k], aug[r] = aug[r], aug[k]
            det = -det
        det = det * aug[k][k]
        inverses.append(inverse)
        mono, coeff = inverse
        pivot_row = aug[k]
        for row in aug[k + 1:]:
            if not row[k].is_zero:
                factor = row[k].mul_monomial(mono, -coeff)
                for j in range(k + 1, len(row)):
                    if not pivot_row[j].is_zero:
                        row[j] = row[j] + factor * pivot_row[j]
    return det, aug, inverses


def determinant(matrix) -> LaurentPolynomial:
    """Exact determinant of a square matrix of Laurent polynomials."""
    if not matrix:
        raise ValueError("empty matrix")
    return _forward(matrix, [()] * len(matrix))[0]


def solve(matrix, rhs):
    """Solve matrix * x = rhs exactly; returns (determinant, [x_i])."""
    n = len(matrix)
    if n == 0 or len(rhs) != n:
        raise ValueError("shape mismatch")
    det, aug, inverses = _forward(matrix, [(b,) for b in rhs])
    solution = [None] * n
    for i in range(n - 1, -1, -1):
        acc = aug[i][n]
        for j in range(i + 1, n):
            acc = acc - aug[i][j] * solution[j]
        solution[i] = acc.mul_monomial(*inverses[i])
    return det, solution


# The names the benchmark's tracer wraps; they go with ROADMAP item 1's refresh.
bareiss_determinant = determinant
bareiss_solve = solve
