"""Ordered multisets of multiplicative characters and their bracket products.

A character is a Laurent monomial; a CharacterList is an ordered sequence of
them (duplicates allowed; the ordering matters for the positive-root
construction).  The bracket of a list is the product of (1 - 1/a) over its
entries, the K-theoretic Euler factor attached to a weight list.
"""

from __future__ import annotations

from .algebra import Frozen, LaurentPolynomial, Monomial, VariableTable


class CharacterList(Frozen):
    """Ordered multiset of Laurent monomials."""

    __slots__ = ("entries",)

    def __init__(self, entries: tuple):
        for m in entries:
            if not isinstance(m, Monomial):
                raise TypeError("character lists hold monomials")
        object.__setattr__(self, "entries", entries)

    def _key(self) -> tuple:
        return (self.entries,)

    @staticmethod
    def of(*entries: Monomial) -> "CharacterList":
        return CharacterList(tuple(entries))

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def __add__(self, other: "CharacterList") -> "CharacterList":
        return CharacterList(self.entries + other.entries)

    def inverse(self) -> "CharacterList":
        return CharacterList(tuple(m.inverse() for m in self.entries))

    def render(self) -> str:
        return "(" + ", ".join(m.render() for m in self.entries) + ")"

    def __repr__(self):
        return f"CharacterList{self.render()}"


def standard_sets(kind: str, n: int, table: VariableTable) -> CharacterList:
    """The named generator lists T, Z, T_pm and T_sharp of size n."""

    def tvar(i, k=1):
        return Monomial.of(table, **{f"t{i}": k})

    def zvar(i, k=1):
        return Monomial.of(table, **{f"z{i}": k})

    if n < 1:
        raise ValueError(f"size must be at least 1 for kind {kind!r}")
    if kind == "T":
        return CharacterList(tuple(tvar(i + 1) for i in range(n)))
    if kind == "Z":
        return CharacterList(tuple(zvar(i + 1) for i in range(n)))
    if kind == "T_pm":
        return CharacterList(tuple(tvar(i + 1) for i in range(n))
                             + tuple(tvar(i + 1, -1) for i in range(n)))
    if kind == "T_sharp":
        return CharacterList(tuple(tvar(i + 1) for i in range(n))
                             + tuple(tvar(i + 1, -1) for i in range(n))
                             + (Monomial.one(table),))
    raise ValueError(f"unknown standard set kind {kind!r}")


def lambda_set(a: CharacterList) -> CharacterList:
    """Products a_i*a_j over strictly increasing index pairs."""
    e = a.entries
    return CharacterList(tuple(e[i] * e[j] for i in range(len(e)) for j in range(i + 1, len(e))))


def sym_set(a: CharacterList) -> CharacterList:
    """Products a_i*a_j over weakly increasing index pairs."""
    e = a.entries
    return CharacterList(tuple(e[i] * e[j] for i in range(len(e)) for j in range(i, len(e))))


def roots(a: CharacterList) -> CharacterList:
    """Ratios a_i/a_j over all ordered pairs of distinct positions."""
    e = a.entries
    return CharacterList(tuple(e[i] / e[j]
                               for i in range(len(e)) for j in range(len(e)) if i != j))


def pos_roots(a: CharacterList) -> CharacterList:
    """Ratios a_i/a_j with i < j; depends on the ordering of the list."""
    e = a.entries
    return CharacterList(tuple(e[i] / e[j] for i in range(len(e)) for j in range(i + 1, len(e))))


def quotient_set(a: CharacterList, b: CharacterList) -> CharacterList:
    return CharacterList(tuple(x / y for x in a.entries for y in b.entries))


def pairwise_product(a: CharacterList, b: CharacterList) -> CharacterList:
    return CharacterList(tuple(x * y for x in a.entries for y in b.entries))


def bracket(a: CharacterList, table: VariableTable | None = None) -> LaurentPolynomial:
    """Product of (1 - 1/entry); the empty list gives 1.

    An entry equal to 1 makes the whole product zero, which is legal.
    """
    if table is None:
        if not a.entries:
            raise ValueError("bracket of an empty list needs an explicit table")
        table = a.entries[0].table
    out = LaurentPolynomial.one(table)
    for m in a.entries:
        out = out * (LaurentPolynomial.one(table) - m.inverse().as_polynomial())
    return out

