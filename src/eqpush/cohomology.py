"""Additive (cohomological) integration over the rank-two quotient and the
ambient Grassmannian, Schur integrals and the equivariant fundamental-class
consistency check.

Both integrals are the additive image of the K-theoretic Demazure chain of
`spaces`: on the same reduced word, a character t^e becomes the linear form
log t^e = sum e_i*t_i, the Chern roots are x = -log z, and each step is the
ordinary divided difference (g - s g)/log a.  Classes are polynomials in x1,
x2, t1, t2, symmetric in x1, x2; the chain runs once per orbit class
x1^p x2^q + x1^q x2^p, whose t-polynomial coefficient is pulled out; that
split (`spaces._SpaceCalc.decompose`) enforces the symmetry.  A chain value
reaches the x, t table by one `LaurentPolynomial.substitute`.
"""

from __future__ import annotations

from functools import lru_cache

from .algebra import LaurentPolynomial, VariableTable, parameter_table
from .g2 import AMBIENT_SPACE, QUOTIENT_SPACE
from .polyfam import Partition, rectangle_partitions, schur_pair
from .spaces import _calc, log
from . import g2core


@lru_cache(maxsize=None)
def coh_table() -> VariableTable:
    return parameter_table("x1", "x2", "t1", "t2")


def _t(name, k=1):
    return LaurentPolynomial.variable(coh_table(), name, k)


def _check_class(f: LaurentPolynomial) -> None:
    if any(e < 0 for key in f.terms for e in key):
        raise ValueError("cohomology classes must have nonnegative exponents")


def _orbit_integral(space, canon: tuple) -> LaurentPolynomial:
    """The additive chain of a catalogue space on the orbit class
    x1^p x2^q + x1^q x2^p of canon = (p, q) (once on the diagonal), over the
    space's table."""
    calc = _calc(space)
    return calc.engine.additive_sum(calc.orbit_sum(canon))


@lru_cache(maxsize=None)
def _g2_class(canon: tuple) -> LaurentPolynomial:
    return _orbit_integral(QUOTIENT_SPACE, canon).substitute({}, coh_table())


@lru_cache(maxsize=None)
def _gr27_class(canon: tuple) -> LaurentPolynomial:
    """The gr:2,7 value with t1..t7 -> the logs of the seven weights; only the
    specialized value is cached."""
    weights = {f"t{i + 1}": log(w, coh_table()) for i, w in enumerate(g2core.seven_weights())}
    return _orbit_integral(AMBIENT_SPACE, canon).substitute(weights, coh_table())


def g2_integral(f: LaurentPolynomial) -> LaurentPolynomial:
    """Integral of a polynomial in the Chern roots over the five-dimensional
    quotient space."""
    _check_class(f)
    return _calc(QUOTIENT_SPACE).pushforward(f, _g2_class, ("x1", "x2"))


def gr27_integral(f: LaurentPolynomial) -> LaurentPolynomial:
    """Integral over the ambient Grassmannian of two-planes, the torus acting
    through the seven restricted weights."""
    _check_class(f)
    return _calc(AMBIENT_SPACE).pushforward(f, _gr27_class, ("x1", "x2"))


def equivariant_class_expression() -> LaurentPolynomial:
    """The degree-five equivariant class in Chern roots:
    2*x1*x2*(x1+x2)*((x1^2+x1*x2+x2^2) - (t1^2-t1*t2+t2^2))."""
    x1, x2, t1, t2 = _t("x1"), _t("x2"), _t("t1"), _t("t2")
    return 2 * x1 * x2 * (x1 + x2) * ((x1 ** 2 + x1 * x2 + x2 ** 2)
                                      - (t1 ** 2 - t1 * t2 + t2 ** 2))


def _schur(lam: Partition) -> LaurentPolynomial:
    return schur_pair(lam.part(0), lam.part(1), coh_table())


def torus_invariant() -> LaurentPolynomial:
    t1, t2 = _t("t1"), _t("t2")
    return t1 ** 2 - t1 * t2 + t2 ** 2


def cohomology_class_check() -> bool:
    """Verify the equivariant fundamental class against both integration sides.

    Checks the Schur-basis presentation (coefficients 2, 2 and the quadratic
    correction) and, for every box partition J, that pairing the class with
    S_J over the ambient Grassmannian equals the direct quotient integral.
    """
    cls = equivariant_class_expression()
    expanded = (2 * _schur(Partition.of(4, 1)) + 2 * _schur(Partition.of(3, 2))
                - 2 * torus_invariant() * _schur(Partition.of(2, 1)))
    if cls != expanded:
        return False
    for lam in rectangle_partitions(2, 5):
        left = gr27_integral(_schur(lam) * cls)
        right = g2_integral(_schur(lam))
        if left != right:
            return False
    return True
