"""Shared exceptional-group data: the rank-two torus, the swap of its two
parameters, tangent weight lists and the fundamental-class lift used by the
residue formulas for both quotient spaces.
"""

from __future__ import annotations

from functools import lru_cache

from .algebra import LaurentPolynomial, Monomial, VariableTable, zt_table


@lru_cache(maxsize=None)
def g2_table() -> VariableTable:
    return zt_table(2, 2)


def _mono(**powers) -> Monomial:
    return Monomial.of(g2_table(), **powers)


@lru_cache(maxsize=None)
def swap_map():
    return {"t1": _mono(t2=1), "t2": _mono(t1=1)}


@lru_cache(maxsize=None)
def quotient_identity_tangent() -> tuple:
    """Tangent characters of the 5-dimensional quotient space at the identity coset."""
    return (
        _mono(t2=-1), _mono(t1=1, t2=-2), _mono(t1=-1), _mono(t2=1, t1=-2),
        _mono(t1=-1, t2=-1))


@lru_cache(maxsize=None)
def borel_identity_tangent() -> tuple:
    """Tangent characters of the 6-dimensional full quotient at the identity:
    the inverses of the six positive roots, the quotient's five and the
    fibre P2/B's, the inverse t1^-1*t2 of the swap's simple root."""
    return quotient_identity_tangent() + (_mono(t1=-1, t2=1),)


@lru_cache(maxsize=None)
def seven_weights() -> tuple:
    """Weights of the 7-dimensional representation restricted to the torus."""
    return (
        _mono(t1=1), _mono(t2=1), _mono(t1=1, t2=-1), Monomial.one(g2_table()),
        _mono(t1=-1, t2=1), _mono(t2=-1), _mono(t1=-1))


@lru_cache(maxsize=None)
def weight_sum_t() -> LaurentPolynomial:
    """Sum of the seven weights minus 7: t1 + 1/t1 + t2 + 1/t2 + t1/t2 + t2/t1 - 6."""
    return sum((w.as_polynomial() for w in seven_weights()),
               LaurentPolynomial.constant(g2_table(), -7))


@lru_cache(maxsize=None)
def weight_sum_z() -> LaurentPolynomial:
    """The same sum in the auxiliary variables: the substitution t1 -> z1, t2 -> 1/z2."""
    return weight_sum_t().substitute({"t1": _mono(z1=1), "t2": _mono(z2=-1)})


@lru_cache(maxsize=None)
def fundamental_class_lift() -> LaurentPolynomial:
    """Lift of the quotient-space fundamental class to the ambient Grassmannian:
    z1*z2*(1-z1)*(1-z2)*(1-z1*z2)*(weight_sum_z - weight_sum_t)."""
    t = g2_table()
    one = LaurentPolynomial.one(t)
    z1 = LaurentPolynomial.variable(t, "z1")
    z2 = LaurentPolynomial.variable(t, "z2")
    return z1 * z2 * (one - z1) * (one - z2) * (one - z1 * z2) \
        * (weight_sum_z() - weight_sum_t())


@lru_cache(maxsize=None)
def half_sum_a() -> LaurentPolynomial:
    """First of the two reporting variables: 3 - t1 - 1/t2 - t2/t1."""
    t = g2_table()
    return LaurentPolynomial.constant(t, 3) - _mono(t1=1).as_polynomial() \
        - _mono(t2=-1).as_polynomial() - _mono(t2=1, t1=-1).as_polynomial()


@lru_cache(maxsize=None)
def half_sum_b() -> LaurentPolynomial:
    """Swap image of the first reporting variable: 3 - t2 - 1/t1 - t1/t2."""
    return half_sum_a().substitute(swap_map())
