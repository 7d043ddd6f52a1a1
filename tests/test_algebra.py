import pytest

from eqpush.algebra import (LaurentPolynomial, Monomial, NotDivisible,
                            MixedVariableTables, exact_divide,
                            exact_divide_many, parameter_table, rational,
                            zt_table)
from eqpush import g2core

from conftest import random_laurent
from oracles import factored_rational_sum


def V(table, name, k=1):
    return LaurentPolynomial.variable(table, name, k)


def test_difference_of_squares(table22):
    one = LaurentPolynomial.one(table22)
    t1 = V(table22, "t1")
    assert (one - t1) * (one + t1) == one - t1 * t1


def test_monomial_clearing(table22):
    one = LaurentPolynomial.one(table22)
    t1 = V(table22, "t1")
    assert (one - t1 ** -1) * t1 == t1 - one


def test_block_expansion(table22):
    one = LaurentPolynomial.one(table22)
    z, t1, t2 = V(table22, "z1"), V(table22, "t1"), V(table22, "t2")
    left = (one - z * t1 ** -1) * (one - z * t2 ** -1)
    expected = one - z * t1 ** -1 - z * t2 ** -1 + z * z * (t1 * t2) ** -1
    assert left == expected


def test_mixed_tables_rejected():
    a = LaurentPolynomial.one(zt_table(1, 1))
    b = LaurentPolynomial.one(zt_table(2, 2))
    with pytest.raises(MixedVariableTables):
        a + b


def test_negative_power_needs_monomial(table22):
    t1 = V(table22, "t1")
    one = LaurentPolynomial.one(table22)
    assert (t1 * t1) ** -2 == V(table22, "t1", -4)
    with pytest.raises(NotDivisible):
        (one + t1) ** -1


def test_monomial_power_matches_products(table22):
    m = LaurentPolynomial(table22, {(1, 0, 0, -2): rational(-2, 3)})
    inverse = LaurentPolynomial(table22, {(-1, 0, 0, 2): rational(-3, 2)})
    one = LaurentPolynomial.one(table22)
    for k in range(-4, 6):
        product = one
        for _ in range(abs(k)):
            product = product * (m if k > 0 else inverse)
        assert m ** k == product
    zero = LaurentPolynomial.zero(table22)
    assert zero ** 0 == one and (zero ** 3).is_zero


def test_substitute_rotation(table22):
    # t1/t2 under t1 -> t2, t2 -> t2/t1 gives t1
    p = V(table22, "t1") * V(table22, "t2", -1)
    q = p.substitute_monomials(g2core.rotation_map(), partial=True)
    assert q == V(table22, "t1")


def test_rotation_order_six(table22):
    maps = g2core.rotation_orbit()
    assert len(maps) == 6
    final = g2core.compose_maps(g2core.rotation_map(), maps[-1])
    for name in ("t1", "t2"):
        assert final[name] == Monomial.of(table22, **{name: 1})
    # the cube is the global inversion
    cube = maps[3]
    assert cube["t1"] == Monomial.of(table22, t1=-1)
    assert cube["t2"] == Monomial.of(table22, t2=-1)


def test_nonequivariant_specialization(table22):
    one = LaurentPolynomial.one(table22)
    p = one - V(table22, "t2") * V(table22, "t1", -1)
    q = p.substitute_monomials({"t1": Monomial.one(table22), "t2": Monomial.one(table22)})
    assert q.is_zero


def test_substitute_requires_total_map(table22):
    p = V(table22, "t1") + V(table22, "z1")
    with pytest.raises(KeyError):
        p.substitute_monomials({"t1": Monomial.one(table22)})


def test_compose_reporting_variables(table22):
    ab = parameter_table("A", "B")
    q = LaurentPolynomial.variable(ab, "A") + LaurentPolynomial.variable(ab, "B")
    image = q.substitute_polynomials({"A": g2core.half_sum_a(), "B": g2core.half_sum_b()})
    assert image == g2core.half_sum_a() + g2core.half_sum_b()
    assert image.render() == "6 - t1 - t1^-1 - t2 - t2^-1 - t1*t2^-1 - t1^-1*t2"


def test_compose_weight_sums(table22):
    image = g2core.weight_sum_z().substitute_monomials(
        {"z1": Monomial.of(table22, t1=1), "z2": Monomial.of(table22, t2=-1)}, partial=True)
    assert image == g2core.weight_sum_t()


def test_compose_zero(table22):
    ab = parameter_table("A", "B")
    q = LaurentPolynomial.zero(ab)
    assert q.substitute_polynomials({"A": g2core.half_sum_a()}, target=table22).is_zero


def test_exact_divide_basic(table22):
    one = LaurentPolynomial.one(table22)
    t1, t2 = V(table22, "t1"), V(table22, "t2")
    assert exact_divide(one - t1 * t1, one - t1) == one + t1
    with pytest.raises(NotDivisible):
        exact_divide(one - t1 * t2, one - t1)


def test_exact_divide_class_lift(table22):
    one = LaurentPolynomial.one(table22)
    z1, z2 = V(table22, "z1"), V(table22, "z2")
    lifted = g2core.fundamental_class_lift()
    peeled = exact_divide(lifted, one - z1 * z2)
    expected = z1 * z2 * (one - z1) * (one - z2) \
        * (g2core.weight_sum_z() - g2core.weight_sum_t())
    assert peeled == expected


def test_exact_divide_roundtrip(rng, table22):
    for _ in range(40):
        p = random_laurent(rng, table22, nterms=5)
        d = random_laurent(rng, table22, nterms=3)
        if d.is_zero:
            continue
        assert exact_divide(p * d, d) == p


def test_exact_divide_many_matches_sequential(rng, table22):
    for _ in range(10):
        p = random_laurent(rng, table22, nterms=4)
        d1 = random_laurent(rng, table22, nterms=2)
        d2 = random_laurent(rng, table22, nterms=2)
        if d1.is_zero or d2.is_zero:
            continue
        product = p * d1 * d2
        assert exact_divide_many(product, [d1, d2]) == p


def test_ring_laws(rng, table22):
    for _ in range(25):
        a = random_laurent(rng, table22)
        b = random_laurent(rng, table22)
        c = random_laurent(rng, table22)
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)


def test_substitution_is_ring_homomorphism(rng, table22):
    sub = g2core.rotation_map()
    for _ in range(20):
        p = random_laurent(rng, table22)
        q = random_laurent(rng, table22)
        left = (p * q).substitute_monomials(sub, partial=True)
        right = p.substitute_monomials(sub, partial=True) \
            * q.substitute_monomials(sub, partial=True)
        assert left == right


def test_factored_rational_sum(table22):
    one = LaurentPolynomial.one(table22)
    r = V(table22, "t1") * V(table22, "t2", -1)
    total = factored_rational_sum([(one, [one - r]), (one, [one - r ** -1])])
    assert total == one


def test_integrality_and_constants(table22):
    p = LaurentPolynomial.constant(table22, rational(1, 2)) + V(table22, "t1")
    assert not p.is_integral()
    assert (p + p).is_integral()
    assert LaurentPolynomial.zero(table22).is_integral()


def test_render_and_json(table22):
    one = LaurentPolynomial.one(table22)
    p = one - V(table22, "t1", -1)
    assert p.render() == "1 - t1^-1"
    assert p.json_terms() == [
        {"coeff_num": "1", "coeff_den": "1", "exponents": {}},
        {"coeff_num": "-1", "coeff_den": "1", "exponents": {"t1": -1}},
    ]
    assert LaurentPolynomial.zero(table22).json_terms() == []
    assert LaurentPolynomial.zero(table22).render() == "0"
