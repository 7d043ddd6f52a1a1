"""Partitions and the rank-two Schur and Grothendieck classes.

Rank-two classes come from two-term bialternant closed forms evaluated by
exact division.  The n-variable symmetric Grothendieck polynomial, built
independently by isobaric divided differences, is the test oracle of the
flag push-forward identity and of these closed forms (`tests/oracles.py`).
"""

from __future__ import annotations

from functools import lru_cache

from .algebra import Frozen, LaurentPolynomial, VariableTable, exact_divide


class Partition(Frozen):
    """Weakly decreasing tuple of positive parts (trailing zeros stripped)."""

    __slots__ = ("parts",)

    def __init__(self, parts: tuple):
        parts = tuple(int(p) for p in parts)
        if any(p < 0 for p in parts):
            raise ValueError("partition parts must be nonnegative")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"parts must be weakly decreasing: {parts}")
        while parts and parts[-1] == 0:
            parts = parts[:-1]
        object.__setattr__(self, "parts", parts)

    def _key(self) -> tuple:
        return (self.parts,)

    @property
    def size(self) -> int:
        return sum(self.parts)

    def part(self, i: int) -> int:
        return self.parts[i] if i < len(self.parts) else 0

    def render(self) -> str:
        """Bracketed digit string, e.g. [41]; the empty partition is [0]."""
        if not self.parts:
            return "[0]"
        return "[" + "".join(str(p) for p in self.parts) + "]"

    def __repr__(self):
        return f"Partition{self.render()}"


def rectangle_partitions(rows: int, cols: int) -> list:
    """All partitions in a rows x cols box, by size then descending lex order."""
    out = []

    def grow(prefix, maximum, length):
        out.append(Partition(tuple(prefix)))
        if length == rows:
            return
        for p in range(1, maximum + 1):
            grow(prefix + [p], p, length + 1)

    grow([], cols, 0)
    out.sort(key=lambda lam: (lam.size, tuple(-p for p in lam.parts)))
    return out


# -- rank-two closed forms ----------------------------------------------------


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

