"""Partitions and the Schur / Grothendieck polynomial families.

Rank-two classes come from two-term bialternant closed forms evaluated by
exact division.  The n-variable symmetric Grothendieck polynomial is built
independently by isobaric divided differences acting on the dominant
monomial, which serves as the oracle for the flag push-forward identity.
"""

from __future__ import annotations

from functools import lru_cache

from .algebra import (Frozen, LaurentPolynomial, Monomial, VariableTable, exact_divide,
                      parameter_table, zt_table)


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

    @staticmethod
    def of(*parts: int) -> "Partition":
        return Partition(tuple(parts))

    def __len__(self):
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    @property
    def size(self) -> int:
        return sum(self.parts)

    def part(self, i: int) -> int:
        return self.parts[i] if i < len(self.parts) else 0

    def fits_in(self, rows: int, cols: int) -> bool:
        return len(self.parts) <= rows and (not self.parts or self.parts[0] <= cols)

    def contains(self, other: "Partition") -> bool:
        return all(self.part(i) >= other.part(i) for i in range(len(other)))

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


def complement_partition(j: Partition, rows: int, cols: int) -> Partition:
    """Rectangle complement: reverse of (cols - parts) padded to `rows`."""
    if not j.fits_in(rows, cols):
        raise ValueError(f"{j.render()} does not fit in a {rows}x{cols} box")
    padded = [j.part(i) for i in range(rows)]
    return Partition(tuple(cols - p for p in reversed(padded)))


# -- rank-two closed forms ----------------------------------------------------


@lru_cache(maxsize=None)
def _default_pair_table() -> VariableTable:
    return zt_table(2, 2)


def schur_pair(a: int, b: int, table: VariableTable | None = None,
               names=("x1", "x2")) -> LaurentPolynomial:
    """Two-variable Schur polynomial S_ab via the bialternant quotient."""
    if not (a >= b >= 0):
        raise ValueError("need a >= b >= 0")
    if table is None:
        table = parameter_table("x1", "x2", "t1", "t2")
    x1 = LaurentPolynomial.variable(table, names[0])
    x2 = LaurentPolynomial.variable(table, names[1])
    num = x1 ** (a + 1) * x2 ** b - x2 ** (a + 1) * x1 ** b
    return exact_divide(num, x1 - x2)


def grothendieck_pair(a: int, b: int, table: VariableTable | None = None) -> LaurentPolynomial:
    """Rank-two Grothendieck class of the dual tautological bundle.

    The output is a polynomial in the z variables (the splitting roots of the
    bundle itself): [z2*(1-z1)^(a+1)*(1-z2)^b - z1*(1-z2)^(a+1)*(1-z1)^b] / (z2-z1).
    """
    if not (a >= b >= 0):
        raise ValueError("need a >= b >= 0")
    if table is None:
        table = _default_pair_table()
    return _grothendieck_pair_cached(a, b, table)


@lru_cache(maxsize=None)
def _grothendieck_pair_cached(a: int, b: int, table: VariableTable) -> LaurentPolynomial:
    one = LaurentPolynomial.one(table)
    z1 = LaurentPolynomial.variable(table, "z1")
    z2 = LaurentPolynomial.variable(table, "z2")
    num = z2 * (one - z1) ** (a + 1) * (one - z2) ** b \
        - z1 * (one - z2) ** (a + 1) * (one - z1) ** b
    return exact_divide(num, z2 - z1)


# -- n-variable symmetric Grothendieck polynomials ----------------------------


@lru_cache(maxsize=None)
def _x_table(n: int) -> VariableTable:
    return parameter_table(*[f"x{i + 1}" for i in range(n)])


def _isobaric_step(f: LaurentPolynomial, i: int, table: VariableTable) -> LaurentPolynomial:
    """Divided difference of x_i*(1-x_{i+1})*f with respect to (x_i, x_{i+1})."""
    xi = LaurentPolynomial.variable(table, f"x{i}")
    xj = LaurentPolynomial.variable(table, f"x{i + 1}")
    g = xi * (LaurentPolynomial.one(table) - xj) * f
    swapped = g.substitute_monomials(
        {f"x{i}": Monomial.of(table, **{f"x{i + 1}": 1}),
         f"x{i + 1}": Monomial.of(table, **{f"x{i}": 1})},
        partial=True)
    return exact_divide(g - swapped, xi - xj)


def grothendieck_general(lam: Partition, n: int,
                         table: VariableTable | None = None) -> LaurentPolynomial:
    """Symmetric Grothendieck polynomial in t1..tn for a partition of length <= n.

    Built by isobaric divided differences from the dominant monomial in
    internal x variables, then evaluated at x_i = 1 - 1/t_i.
    """
    if len(lam) > n:
        raise ValueError("partition longer than the variable count")
    if table is None:
        table = zt_table(n, n)
    xt = _x_table(n)
    f = LaurentPolynomial(
        xt, {tuple(lam.part(i) for i in range(n)): 1})
    # Bubble-sort reduced word of the longest permutation; each step either
    # symmetrizes an adjacent pair or fixes an already symmetric one.
    for sweep in range(1, n):
        for i in range(sweep, 0, -1):
            f = _isobaric_step(f, i, xt)
    # evaluate x_i -> 1 - 1/t_i
    images = {}
    one = LaurentPolynomial.one(table)
    for i in range(n):
        ti = LaurentPolynomial.variable(table, f"t{i + 1}", -1)
        images[f"x{i + 1}"] = one - ti
    if not f.occurring_variables():
        return LaurentPolynomial.constant(table, f.constant_term())
    return f.substitute_polynomials(images, target=table)
