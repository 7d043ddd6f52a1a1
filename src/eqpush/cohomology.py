"""Cohomological integration over the rank-two quotient and the ambient
Grassmannian, Schur integrals and the equivariant fundamental-class
consistency check.

Classes are polynomials in the Chern roots x1, x2 and in t1, t2, symmetric in
x1, x2.  Both integrals split a class into orbit classes x1^p x2^q +
x1^q x2^p, whose t-polynomial coefficients are pulled out; that split
(`spaces._SpaceCalc.decompose`) enforces the symmetry.  The two integrals
run independent paths, so the class check compares two computations:

- `g2_integral` runs the additive Demazure chain of `spaces` on g2p2, the
  `log` image of the K-theoretic one (t^e -> sum e_i*t_i, Chern roots
  x = -log z, steps (g - s g)/log a), which holds on every kind but q.
- `gr27_integral` is the cohomological Grassmannian residue at infinity:
  `g2core.gr27_orbit_class`, the closed form of `g2`'s K-theoretic pairing,
  with the one-variable residue F(c) = (-1)^c h_(c-5) of the seven weight
  logs (`_residue`).
"""

from __future__ import annotations

from functools import lru_cache, partial

from .algebra import LaurentPolynomial, VariableTable, parameter_table
from .g2 import AMBIENT_SPACE, BOX, QUOTIENT_SPACE
from .polyfam import schur_pair
from .spaces import _calc, _check_class, log
from . import g2core


@lru_cache(maxsize=None)
def coh_table() -> VariableTable:
    return parameter_table("x1", "x2", "t1", "t2")


def _t(name):
    return LaurentPolynomial.variable(coh_table(), name)


@lru_cache(maxsize=None)
def _g2_class(canon: tuple) -> LaurentPolynomial:
    """The additive chain of g2p2 on the orbit class x1^p x2^q + x1^q x2^p
    of canon = (p, q) (once on the diagonal)."""
    calc = _calc(QUOTIENT_SPACE)
    return calc.engine.additive_sum(calc.orbit_sum(canon)).substitute({}, coh_table())


@lru_cache(maxsize=None)
def _weight_logs() -> tuple:
    """The logs of the seven weights, over the Chern-root table."""
    return tuple(log(w, coh_table()) for w in g2core.seven_weights())


@lru_cache(maxsize=None)
def _residue(c: int) -> LaurentPolynomial:
    """F(c) = (-1)^c h_(c-5)(log w), (-1)^c times the finite residues of
    u^(c+1)/Q(u), so that `g2core.gr27_orbit_class` is the gr:2,7 integral
    as the Grassmannian residue at infinity.

    The fixed point {i, j} has the Chern roots x = -u at u = (w_i, w_j) and
    contributes f(x)/prod (w_b - w_a) over a in {i, j}, b not, which is
    -f(-u) (u1 - u2)^2 / (Q'(u1) Q'(u2)) with Q(u) = prod (u - w_k).  Half
    the sum over the ordered pairs i != j is the sum over all pairs (i, j),
    since (u1 - u2)^2 vanishes at i = j, and the finite residues of
    u^c/Q(u) add up to h_(c-6).  So x1^a x2^b integrates to -(-1)^(a+b)/2
    times h_(a-4) h_(b-6) - 2 h_(a-5) h_(b-5) + h_(a-6) h_(b-4), which is
    (1/2)(2 F(a) F(b) - F(a+1) F(b-1) - F(a-1) F(b+1))."""
    return g2core.h_row(_weight_logs, c - 5)[7].scale(-1 if c % 2 else 1)


# the gr:2,7 integral of the orbit class of canon = (p, q)
_gr27_class = partial(g2core.gr27_orbit_class, _residue)


def g2_integral(f: LaurentPolynomial) -> LaurentPolynomial:
    """Integral of a polynomial in the Chern roots over the five-dimensional
    quotient space."""
    _check_class(f)
    return _calc(QUOTIENT_SPACE).pushforward(f, _g2_class)


def gr27_integral(f: LaurentPolynomial) -> LaurentPolynomial:
    """Integral over the ambient Grassmannian of two-planes, the torus acting
    through the seven restricted weights."""
    _check_class(f)
    return _calc(AMBIENT_SPACE).pushforward(f, _gr27_class)


def equivariant_class_expression() -> LaurentPolynomial:
    """The degree-five equivariant class in Chern roots:
    2*x1*x2*(x1+x2)*((x1^2+x1*x2+x2^2) - (t1^2-t1*t2+t2^2))."""
    x1, x2 = _t("x1"), _t("x2")
    return 2 * x1 * x2 * (x1 + x2) * ((x1 ** 2 + x1 * x2 + x2 ** 2) - torus_invariant())


def torus_invariant() -> LaurentPolynomial:
    t1, t2 = _t("t1"), _t("t2")
    return t1 ** 2 - t1 * t2 + t2 ** 2


def cohomology_class_check() -> bool:
    """Verify the equivariant fundamental class against both integration sides.

    Checks the Schur-basis presentation (coefficients 2, 2 and the quadratic
    correction) and, for every box pair J, that pairing the class with
    S_J over the ambient Grassmannian equals the direct quotient integral.
    """
    ct = coh_table()
    cls = equivariant_class_expression()
    expanded = (2 * schur_pair(4, 1, ct) + 2 * schur_pair(3, 2, ct)
                - 2 * torus_invariant() * schur_pair(2, 1, ct))
    if cls != expanded:
        return False
    for a, b in BOX:
        schur = schur_pair(a, b, ct)
        if gr27_integral(schur * cls) != g2_integral(schur):
            return False
    return True
