import random
from functools import lru_cache

import pytest

from eqpush.algebra import LaurentPolynomial, zt_table
from eqpush.cohomology import (coh_table, cohomology_class_check,
                               equivariant_class_expression, g2_integral,
                               gr27_integral, torus_invariant)
from eqpush.polyfam import rectangle_partitions, schur_pair
from eqpush.spaces import SymmetryViolation, _calc, log, parse_space
from eqpush import g2core

from oracles import factored_rational_sum, fixed_points


def T(name, k=1):
    return LaurentPolynomial.variable(coh_table(), name, k)


def test_printed_integrals():
    inv = torus_invariant()
    cases = [
        ((5, 0), LaurentPolynomial.zero(coh_table())),
        ((4, 1), LaurentPolynomial.constant(coh_table(), 2)),
        ((3, 2), LaurentPolynomial.constant(coh_table(), 2)),
        ((5, 2), 4 * inv),
        ((4, 3), 2 * inv),
        ((5, 4), 2 * inv * inv),
    ]
    for (a, b), expected in cases:
        assert g2_integral(schur_pair(a, b, coh_table())) == expected


def test_low_degree_vanishing():
    for lam in rectangle_partitions(2, 5):
        if lam.size < 5:
            assert g2_integral(schur_pair(lam.part(0), lam.part(1), coh_table())).is_zero


def test_gr27_top_pairings():
    x1, x2 = T("x1"), T("x2")
    assert gr27_integral((x1 * x2) ** 5) == LaurentPolynomial.one(coh_table())
    assert gr27_integral(schur_pair(1, 0, coh_table())
                         * schur_pair(5, 4, coh_table())) == LaurentPolynomial.one(coh_table())
    assert gr27_integral(schur_pair(3, 2, coh_table())).is_zero


def test_class_expression_schur_coefficients():
    expanded = 2 * schur_pair(4, 1, coh_table()) + 2 * schur_pair(3, 2, coh_table()) \
        - 2 * torus_invariant() * schur_pair(2, 1, coh_table())
    assert equivariant_class_expression() == expanded


def test_class_check():
    assert cohomology_class_check()


def test_rejects_negative_exponents():
    with pytest.raises(ValueError):
        g2_integral(T("x1", -1))


@pytest.mark.parametrize("integral", [g2_integral, gr27_integral])
def test_rejects_asymmetric_class(integral):
    x1, x2 = T("x1"), T("x2")
    with pytest.raises(SymmetryViolation):
        integral(x1 ** 6 * x2 ** 4 + x1 ** 3)


def test_gr27_rejects_negative_exponents():
    with pytest.raises(ValueError):
        gr27_integral(T("x1", -1) * T("x2", -1))


@lru_cache(maxsize=None)
def additive_points(key):
    """(Chern roots x = -log z, linear tangent weights) at every fixed point of
    a catalogue space, in t1, t2: on gr:2,7 through t1..t7 -> the seven weights."""
    if key == "gr:2,7":
        weights = {f"t{i + 1}": log(w, coh_table())
                   for i, w in enumerate(g2core.seven_weights())}

        def additive(char):
            return log(char, zt_table(2, 7)).substitute(weights, coh_table())
    else:
        def additive(char):
            return log(char, coh_table())
    return tuple(((-additive(p.subst_map()["z1"]), -additive(p.subst_map()["z2"])),
                  [additive(c) for c in p.tangent])
                 for p in fixed_points(parse_space(key)))


def flat_integral(key, f):
    """The literal sum of f(point)/prod(tangent weights) over the fixed points."""
    return factored_rational_sum(
        (f.substitute({"x1": x1, "x2": x2}), weights)
        for (x1, x2), weights in additive_points(key))


def random_symmetric_class(rng, max_exp):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        p, q = rng.randint(0, max_exp), rng.randint(0, max_exp)
        t = (rng.randint(0, 2), rng.randint(0, 2))
        c = rng.choice([-3, -2, -1, 1, 2, 5])
        for key in ((p, q) + t, (q, p) + t):
            terms[key] = c
    return LaurentPolynomial(coh_table(), terms)


def test_chain_matches_flat_fixed_point_sum():
    cls = equivariant_class_expression()
    schurs = [schur_pair(lam.part(0), lam.part(1), coh_table())
              for lam in rectangle_partitions(2, 5)]
    rng = random.Random("cohomology-flat")
    for s in schurs:
        assert g2_integral(s) == flat_integral("g2p2", s)
        assert gr27_integral(s * cls) == flat_integral("gr:2,7", s * cls)
    for _ in range(4):
        f = random_symmetric_class(rng, 6)
        assert g2_integral(f) == flat_integral("g2p2", f)
        f = random_symmetric_class(rng, 12)
        assert gr27_integral(f) == flat_integral("gr:2,7", f)


def test_ambient_additive_chain_multiplies_no_polynomials(monkeypatch):
    # the base point z -> -log t and each gr:2,7 step permute or negate
    # variables: one-term images, applied by exponent arithmetic alone
    calc = _calc(parse_space("gr:2,7"))
    products = []
    original = LaurentPolynomial.__mul__

    def counted(self, other):
        products.append(other)
        return original(self, other)

    monkeypatch.setattr(LaurentPolynomial, "__mul__", counted)
    assert calc.engine.additive_sum(calc.orbit_sum((3, 1))).is_zero  # degree 4 < dim 10
    assert not calc.engine.additive_sum(calc.orbit_sum((7, 5))).is_zero
    assert products == []
