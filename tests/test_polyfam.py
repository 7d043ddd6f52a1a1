import pytest

from eqpush.algebra import LaurentPolynomial, Monomial, parameter_table
from eqpush import g2
from eqpush.polyfam import grothendieck_pair, schur_pair


def test_schur_pair_values():
    t = parameter_table("x1", "x2", "t1", "t2")
    x1 = LaurentPolynomial.variable(t, "x1")
    x2 = LaurentPolynomial.variable(t, "x2")
    assert schur_pair(1, 0, t) == x1 + x2
    assert schur_pair(1, 1, t) == x1 * x2
    assert schur_pair(2, 1, t) == x1 ** 2 * x2 + x1 * x2 ** 2
    with pytest.raises(ValueError):
        schur_pair(1, 2, t)


def test_grothendieck_pair_values(table22):
    one = LaurentPolynomial.one(table22)
    z1 = LaurentPolynomial.variable(table22, "z1")
    z2 = LaurentPolynomial.variable(table22, "z2")
    assert grothendieck_pair(0, 0, table22) == one
    assert grothendieck_pair(1, 0, table22) == one - z1 * z2
    assert grothendieck_pair(2, 1, table22) == (one - z1) * (one - z2) * (one - z1 * z2)
    assert grothendieck_pair(2, 2, table22) == ((one - z1) * (one - z2)) ** 2
    assert grothendieck_pair(3, 1, table22) == (one - z1) * (one - z2) * (
        z2 * z1 ** 2 + z2 ** 2 * z1 - 3 * z1 * z2 + one)


def test_grothendieck_pair_symmetric_and_at_one(table22):
    swap = {"z1": Monomial.of(table22, z2=1), "z2": Monomial.of(table22, z1=1)}
    ones = {"z1": Monomial.one(table22), "z2": Monomial.one(table22)}
    for a, b in g2.BOX:
        g = grothendieck_pair(a, b, table22)
        assert g.substitute(swap) == g
        at_one = g.substitute(ones)
        if a == 0:
            assert at_one == LaurentPolynomial.one(table22)
        else:
            assert at_one.is_zero

