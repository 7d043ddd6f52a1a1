import pytest

from eqpush.algebra import LaurentPolynomial, Monomial, NotPolynomial, parameter_table, zt_table
from eqpush import g2
from eqpush.polyfam import grothendieck_pair

from oracles import (factored_rational_sum, grothendieck_general, orthogonal_character,
                     symplectic_character, weyl_alternant, weyl_denominator_factors)


def test_not_polynomial_surfaces():
    # one fixed point of the projective line alone does not sum to a Laurent
    # polynomial
    table = zt_table(1, 2)
    one = LaurentPolynomial.one(table)
    t1_over_t2 = Monomial.of(table, t1=1, t2=-1).as_polynomial()
    with pytest.raises(NotPolynomial):
        factored_rational_sum([(one, [one - t1_over_t2])])


def test_grothendieck_general_base_cases():
    table = zt_table(1, 1)
    one = LaurentPolynomial.one(table)
    t1inv = LaurentPolynomial.variable(table, "t1", -1)
    for a in range(4):
        assert grothendieck_general((a,), 1, table) == (one - t1inv) ** a
    assert grothendieck_general((), 3) == LaurentPolynomial.one(zt_table(3, 3))


def test_grothendieck_general_symmetry():
    table = zt_table(2, 2)
    swap = {"t1": Monomial.of(table, t2=1), "t2": Monomial.of(table, t1=1)}
    g = grothendieck_general((1,), 2, table)
    assert g.substitute(swap) == g


def test_grothendieck_general_matches_pair():
    # the rank-two closed form under z_i -> 1/t_i is the symmetric polynomial,
    # on every class of the G2 table and intersection matrix
    table = zt_table(2, 2)
    sub = {"z1": Monomial.of(table, t1=-1), "z2": Monomial.of(table, t2=-1)}
    assert len(g2.BOX) == 21
    for a, b in g2.BOX:
        pair = grothendieck_pair(a, b, table)
        assert pair.substitute(sub) == grothendieck_general((a, b), 2, table), (a, b)


def test_grothendieck_general_rejects_long_partition():
    with pytest.raises(ValueError):
        grothendieck_general((1, 1, 1), 2)


def test_symplectic_denominator_factors_multiply_to_the_determinant():
    for n in range(1, 5):
        determinant = weyl_alternant("lg", n)
        product = LaurentPolynomial.one(determinant.table)
        for factor in weyl_denominator_factors("lg", n):
            product = product * factor
        assert product == determinant, n


def test_orthogonal_denominator_factors_multiply_to_the_determinant():
    # type B: the product is det(t_j^(n-i+1) - t_j^-(n-i)); type D: half of
    # det(t_j^(n-i) + t_j^-(n-i))
    for kind, scale in (("ogO", 1), ("ogE", 2)):
        for n in range(1, 5):
            determinant = weyl_alternant(kind, n)
            product = LaurentPolynomial.constant(determinant.table, scale)
            for factor in weyl_denominator_factors(kind, n):
                product = product * factor
            assert product == determinant, (kind, n)


def test_symplectic_character_small_cases():
    # Sp(2): the character of Sym^k of the standard representation; Sp(4):
    # the unit, the standard representation and its second exterior power
    # less the unit (dimensions 1, 4 and 5)
    t = parameter_table("t1")
    for k in range(4):
        assert symplectic_character(1, (k,)) == \
            sum((LaurentPolynomial.variable(t, "t1", e) for e in range(-k, k + 1, 2)),
                LaurentPolynomial.zero(t))
    table = parameter_table("t1", "t2")
    one = LaurentPolynomial.one(table)
    t1, t2 = (LaurentPolynomial.variable(table, name) for name in table.names)
    u1, u2 = (LaurentPolynomial.variable(table, name, -1) for name in table.names)
    assert symplectic_character(2, ()) == one
    assert symplectic_character(2, (1,)) == t1 + u1 + t2 + u2
    assert symplectic_character(2, (1, 1)) == t1 * t2 + t1 * u2 + u1 * t2 + u1 * u2 + one
    with pytest.raises(ValueError):
        symplectic_character(1, (1, 1))


def test_orthogonal_character_small_cases():
    # SO(3): the unit and the standard representation t + 1 + 1/t; on ogE:1
    # and ogE:2 both components count, so the unit is 2 and the standard
    # representation of SO(4) comes twice
    t = parameter_table("t1")
    one = LaurentPolynomial.one(t)
    t1, u1 = LaurentPolynomial.variable(t, "t1"), LaurentPolynomial.variable(t, "t1", -1)
    assert orthogonal_character("ogO", 1, ()) == one
    assert orthogonal_character("ogO", 1, (1,)) == t1 + one + u1
    assert orthogonal_character("ogE", 1, ()) == 2 * one
    assert orthogonal_character("ogE", 1, (2,)) == t1 * t1 + u1 * u1
    table = parameter_table("t1", "t2")
    t1, t2 = (LaurentPolynomial.variable(table, name) for name in table.names)
    u1, u2 = (LaurentPolynomial.variable(table, name, -1) for name in table.names)
    assert orthogonal_character("ogE", 2, (1,)) == 2 * (t1 + u1 + t2 + u2)
    with pytest.raises(ValueError):
        orthogonal_character("ogO", 1, (1, 1))
    with pytest.raises(ValueError):
        orthogonal_character("lg", 2, (1,))
