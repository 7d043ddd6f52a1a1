import random
from functools import lru_cache

import pytest

from eqpush.algebra import LaurentPolynomial, zt_table
from eqpush.cohomology import (coh_table, cohomology_class_check,
                               equivariant_class_expression, g2_integral,
                               gr27_integral, torus_invariant)
from eqpush.g2 import AMBIENT_SPACE, BOX
from eqpush.polyfam import schur_pair
from eqpush.spaces import SymmetryViolation, _calc, log, parse_space
from eqpush import g2core

from oracles import additive_ambient_chain_class, factored_rational_sum, fixed_points


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
    for a, b in BOX:
        if a + b < 5:
            assert g2_integral(schur_pair(a, b, coh_table())).is_zero


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
    schurs = [schur_pair(a, b, coh_table()) for a, b in BOX]
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


def class_check_schurs():
    """S_J for the 21 box pairs J of the class check."""
    return [schur_pair(a, b, coh_table()) for a, b in BOX]


def test_residue_matches_additive_chain_on_the_class_check_orbits():
    cls = equivariant_class_expression()
    calc = _calc(AMBIENT_SPACE)
    canons = set()
    for s in class_check_schurs():
        canons |= set(calc.decompose(s * cls, ("x1", "x2")))
    assert len(canons) == 40
    for canon in sorted(canons):
        f = LaurentPolynomial(coh_table(), dict.fromkeys({canon + (0, 0), canon[::-1] + (0, 0)}, 1))
        assert gr27_integral(f) == additive_ambient_chain_class(canon), canon


def test_residue_matches_additive_chain_on_seeded_classes():
    # one orbit class (p, q), p >= q, per total degree, with a t-dependent
    # coefficient: below degree 10 every value is 0, odd degrees give 0, and
    # so does q < 4, which is drawn only below degree 8.  The classes read h_m
    # up to m = 7, beyond the class check's 5.  The chain takes 0.7-3 s per
    # class beyond degree 20; test_chain_matches_flat_fixed_point_sum reaches
    # degree 24 and the degree-40 test below m = 32 against the flat sum.
    rng = random.Random("cohomology-residue")
    calc = _calc(AMBIENT_SPACE)
    nonzero = 0
    for degree in range(21):
        p = degree - rng.randint(min(4, degree // 2), degree // 2)
        coeff = LaurentPolynomial(coh_table(), {
            (0, 0, 0, 0): rng.choice([-2, -1, 1, 3]),
            (0, 0, rng.randint(0, 2), rng.randint(0, 2)): rng.choice([-1, 2])})
        orbit = LaurentPolynomial(coh_table(), dict.fromkeys({(p, degree - p, 0, 0),
                                                              (degree - p, p, 0, 0)}, 1))
        f = coeff * orbit
        value = gr27_integral(f)
        assert value == calc.pushforward(f, additive_ambient_chain_class, ("x1", "x2")), (p, degree - p)
        nonzero += not value.is_zero
    assert nonzero >= 5


def test_a_wrong_class_fails_some_pairing():
    # the pairing compares two independent paths: a nonzero symmetric
    # degree-5 change to the class shows up in at least one of them
    x1, x2 = T("x1"), T("x2")
    wrong = equivariant_class_expression() + x1 ** 3 * x2 ** 2 + x1 ** 2 * x2 ** 3
    assert any(gr27_integral(s * wrong) != g2_integral(s) for s in class_check_schurs())


def test_gr27_integral_of_degree_forty_matches_flat_sum():
    # the h table has no fixed cap: degree 40 reads h_m up to m = 32
    x1, x2 = T("x1"), T("x2")
    f = (x1 * x2) ** 20 + (T("t1") - 2 * T("t2")) * (x1 ** 36 * x2 ** 4 + x1 ** 4 * x2 ** 36)
    value = gr27_integral(f)
    assert not value.is_zero
    assert value == flat_integral("gr:2,7", f)
