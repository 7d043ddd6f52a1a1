import pytest

from eqpush import g2core
from eqpush.algebra import LaurentPolynomial, Monomial, zt_table
from eqpush.characters import (CharacterList, bracket, lambda_set, pos_roots,
                               roots, standard_sets, sym_set)

from conftest import assert_immutable_value


@pytest.fixture
def table():
    return zt_table(2, 4)


def mono(table, **kw):
    return Monomial.of(table, **kw)


def test_character_list_is_an_immutable_value(table22):
    z1, t1 = Monomial.of(table22, z1=1), Monomial.of(table22, t1=-1)
    assert_immutable_value(CharacterList, (z1, t1))
    assert CharacterList.of(z1, t1) != CharacterList.of(t1, z1)
    with pytest.raises(TypeError, match="monomials"):
        CharacterList((z1, "t1"))


def test_t_flat_order():
    # the gr:2,7 specialization t1..t7 -> the seven G2 weights relies on this order
    names = [m.render() for m in g2core.seven_weights()]
    assert names == ["t1", "t2", "t1*t2^-1", "1", "t1^-1*t2", "t2^-1", "t1^-1"]


def test_t_sharp_one():
    table = zt_table(1, 1)
    got = standard_sets("T_sharp", 1, table)
    assert [m.render() for m in got] == ["t1", "t1^-1", "1"]


def test_t_pm_two(table22):
    got = standard_sets("T_pm", 2, table22)
    assert [m.render() for m in got] == ["t1", "t2", "t1^-1", "t2^-1"]


def test_standard_sets_reject_size_and_kind(table22):
    with pytest.raises(ValueError):
        standard_sets("T", 0, table22)
    with pytest.raises(ValueError):
        standard_sets("T_flat", 7, table22)


def test_lambda_and_sym(table22):
    z = standard_sets("Z", 2, table22)
    assert [m.render() for m in lambda_set(z)] == ["z1*z2"]
    assert [m.render() for m in sym_set(z)] == ["z1^2", "z1*z2", "z2^2"]


def test_counts(table):
    t = standard_sets("T", 4, table)
    k = len(t)
    assert len(lambda_set(t)) == k * (k - 1) // 2
    assert len(sym_set(t)) == k * (k + 1) // 2
    assert len(roots(t)) == k * (k - 1)
    assert len(pos_roots(t)) == k * (k - 1) // 2


def test_roots_split_into_positive_halves(table):
    t = standard_sets("T", 4, table)
    all_roots = sorted(m.exps for m in roots(t))
    pos = pos_roots(t)
    both = sorted([m.exps for m in pos] + [m.inverse().exps for m in pos])
    assert all_roots == both


def test_bracket_examples(table22):
    one = LaurentPolynomial.one(table22)
    t1 = LaurentPolynomial.variable(table22, "t1")
    assert bracket(CharacterList.of(mono(table22, t1=1))) == one - t1 ** -1
    assert bracket(CharacterList.of(Monomial.one(table22))).is_zero
    z = standard_sets("Z", 2, table22)
    r = bracket(roots(z))
    z1, z2 = LaurentPolynomial.variable(table22, "z1"), LaurentPolynomial.variable(table22, "z2")
    assert r == (one - z2 * z1 ** -1) * (one - z1 * z2 ** -1)
    assert bracket(CharacterList(()), table22) == one


def test_bracket_concat_multiplicative(table22):
    a = standard_sets("Z", 2, table22)
    b = standard_sets("T", 2, table22)
    assert bracket(a + b) == bracket(a) * bracket(b)


def test_bracket_of_inverse_singleton(table22):
    one = LaurentPolynomial.one(table22)
    a = mono(table22, t1=1, t2=-2)
    assert bracket(CharacterList.of(a.inverse())) == one - a.as_polynomial()
