import pytest

from eqpush.algebra import LaurentPolynomial, Monomial, NotPolynomial, zt_table

from oracles import factored_rational_sum


def test_not_polynomial_surfaces():
    # one fixed point of the projective line alone does not sum to a Laurent
    # polynomial
    table = zt_table(1, 2)
    one = LaurentPolynomial.one(table)
    t1_over_t2 = Monomial.of(table, t1=1, t2=-1).as_polynomial()
    with pytest.raises(NotPolynomial):
        factored_rational_sum([(one, [one - t1_over_t2])])
