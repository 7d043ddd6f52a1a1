"""Shared exceptional-group data: the rank-two torus, the two simple
reflections of the G2 Weyl group (the swap of its two parameters and the
reflection in the long root), tangent weight lists and the fundamental-class
lift used by the residue formulas for both quotient spaces, and the gr:2,7
pairing at the seven weights in closed form, for both theories."""

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
def simple_reflections() -> tuple:
    """(substitution, simple root a with s(a) = 1/a) for the two simple
    reflections: the swap, in the short root t1^-1*t2, and t2 -> t1*t2^-1,
    in the long root t1*t2^-2."""
    return ((swap_map(), _mono(t1=-1, t2=1)),
            ({"t1": _mono(t1=1), "t2": _mono(t1=1, t2=-1)}, _mono(t1=1, t2=-2)))


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
    """Sum h_1 of the seven weights minus 7: t1 + 1/t1 + t2 + 1/t2 + t1/t2 + t2/t1 - 6."""
    return h_row(seven_weights, 1)[7] - 7


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


@lru_cache(maxsize=None)
def h_row(weights, m: int) -> tuple:
    """h_m of the first k of weights(), k = 0..7 (0 for m < 0); the key is
    weights, a theory's cached function of its seven weights, as polynomials
    do not hash.  Row m is built from row m - 1 one weight at a time,
    h_m(w_1..w_k) = h_m(w_1..w_k-1) + w_k h_m-1(w_1..w_k), after the rows
    below it are read in order, so no call recurses more than one level."""
    ws = weights()
    if m <= 0:
        return (LaurentPolynomial.constant(ws[0].table, int(m == 0)),) * (len(ws) + 1)
    for i in range(1, m):
        h_row(weights, i)
    prev, row = h_row(weights, m - 1), [LaurentPolynomial.zero(ws[0].table)]
    for k, w in enumerate(ws):
        row.append(row[k] + prev[k + 1] * w)
    return tuple(row)


@lru_cache(maxsize=None)
def gr27_orbit_class(residue, canon: tuple) -> LaurentPolynomial:
    """The gr:2,7 pairing of the orbit class of canon = (p, q) in the theory
    whose one-variable residue is F = residue: z1^a z2^b pairs to (1/2)(2 F(a)
    F(b) - F(a+1) F(b-1) - F(a-1) F(b+1)), and over the orbit the two outer
    terms give the same total, so the 1/2 cancels.  Keyed on residue as
    h_row is on weights: the one cache of both theories' orbit values."""
    return sum(residue(a) * residue(b) - residue(a - 1) * residue(b + 1)
               for a, b in {canon, canon[::-1]})
