"""Named weight lists and their bracket products.

A character is a Laurent monomial, and a weight list is a plain tuple of them
(duplicates allowed; the ordering matters for the positive-root
construction).  The bracket of a list is the product of (1 - 1/a) over its
entries, the K-theoretic Euler factor attached to a weight list.
"""

from __future__ import annotations

from .algebra import LaurentPolynomial, Monomial, VariableTable


def standard_sets(kind: str, n: int, table: VariableTable) -> tuple:
    """The named generator lists T, Z, T_pm and T_sharp of size n."""
    if n < 1:
        raise ValueError(f"size must be at least 1 for kind {kind!r}")
    if kind == "Z":
        return tuple(Monomial.of(table, **{f"z{i + 1}": 1}) for i in range(n))
    if kind not in ("T", "T_pm", "T_sharp"):
        raise ValueError(f"unknown standard set kind {kind!r}")
    ts = tuple(Monomial.of(table, **{f"t{i + 1}": 1}) for i in range(n))
    if kind == "T":
        return ts
    if kind == "T_pm":
        return ts + inverses(ts)
    return ts + inverses(ts) + (Monomial.one(table),)


def inverses(a: tuple) -> tuple:
    return tuple(x.inverse() for x in a)


def lambda_set(a: tuple) -> tuple:
    """Products a_i*a_j over strictly increasing index pairs."""
    return tuple(a[i] * a[j] for i in range(len(a)) for j in range(i + 1, len(a)))


def sym_set(a: tuple) -> tuple:
    """Products a_i*a_j over weakly increasing index pairs."""
    return tuple(a[i] * a[j] for i in range(len(a)) for j in range(i, len(a)))


def roots(a: tuple) -> tuple:
    """Ratios a_i/a_j over all ordered pairs of distinct positions."""
    return tuple(a[i] / a[j] for i in range(len(a)) for j in range(len(a)) if i != j)


def pos_roots(a: tuple) -> tuple:
    """Ratios a_i/a_j with i < j; depends on the ordering of the list."""
    return tuple(a[i] / a[j] for i in range(len(a)) for j in range(i + 1, len(a)))


def quotient_set(a: tuple, b: tuple) -> tuple:
    return tuple(x / y for x in a for y in b)


def pairwise_product(a: tuple, b: tuple) -> tuple:
    return tuple(x * y for x in a for y in b)


def bracket(a: tuple, table: VariableTable) -> LaurentPolynomial:
    """Product of (1 - 1/entry) over `table`; the empty list gives 1.

    Each factor is applied as a shift, out - out/entry, with no polynomial
    product.  An entry equal to 1 makes the whole product zero, which is
    legal.
    """
    out = LaurentPolynomial.one(table)
    for m in a:
        out = out - out.mul_monomial(m.inverse())
    return out
