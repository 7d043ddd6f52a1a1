"""The rank-two Schur and Grothendieck classes S_ab and G_ab, a >= b >= 0,
as two-term bialternant closed forms evaluated by exact division.

The n-variable symmetric Grothendieck polynomial, built independently by
isobaric divided differences, is the test oracle of the flag push-forward
identity and of these closed forms (`tests/oracles.py`).
"""

from __future__ import annotations

from functools import lru_cache

from .algebra import LaurentPolynomial, VariableTable, exact_divide


def schur_pair(a: int, b: int, table: VariableTable, names=("x1", "x2")) -> LaurentPolynomial:
    """Two-variable Schur polynomial S_ab via the bialternant quotient."""
    if not (a >= b >= 0):
        raise ValueError("need a >= b >= 0")
    x1 = LaurentPolynomial.variable(table, names[0])
    x2 = LaurentPolynomial.variable(table, names[1])
    num = x1 ** (a + 1) * x2 ** b - x2 ** (a + 1) * x1 ** b
    return exact_divide(num, x1 - x2)


@lru_cache(maxsize=None)
def grothendieck_pair(a: int, b: int, table: VariableTable) -> LaurentPolynomial:
    """Rank-two Grothendieck class of the dual tautological bundle.

    The output is a polynomial in the z variables (the splitting roots of the
    bundle itself): [z2*(1-z1)^(a+1)*(1-z2)^b - z1*(1-z2)^(a+1)*(1-z1)^b] / (z2-z1).
    """
    if not (a >= b >= 0):
        raise ValueError("need a >= b >= 0")
    one = LaurentPolynomial.one(table)
    z1 = LaurentPolynomial.variable(table, "z1")
    z2 = LaurentPolynomial.variable(table, "z2")
    num = z2 * (one - z1) ** (a + 1) * (one - z2) ** b \
        - z1 * (one - z2) ** (a + 1) * (one - z1) ** b
    return exact_divide(num, z2 - z1)

