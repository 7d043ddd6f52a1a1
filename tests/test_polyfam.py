import pytest

from eqpush.algebra import LaurentPolynomial, Monomial, parameter_table
from eqpush.polyfam import Partition, grothendieck_pair, rectangle_partitions, schur_pair

from conftest import assert_immutable_value


def test_partition_normalization():
    assert Partition((3, 2, 0, 0)).parts == (3, 2)
    assert Partition(()).parts == ()
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((-1,))


def test_partition_is_an_immutable_value():
    assert_immutable_value(Partition, (2, 1))
    assert Partition((2, 1, 0)) == Partition((2, 1)) and Partition((2, 1, 0)).parts == (2, 1)
    assert hash(Partition((2, 1, 0))) == hash(Partition((2, 1)))
    with pytest.raises(ValueError, match="weakly decreasing"):
        Partition((1, 2))


def test_partition_render():
    assert Partition((4, 1)).render() == "[41]"
    assert Partition(()).render() == "[0]"


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
    for lam in rectangle_partitions(2, 5):
        g = grothendieck_pair(lam.part(0), lam.part(1), table22)
        assert g.substitute(swap) == g
        at_one = g.substitute(ones)
        if lam.size == 0:
            assert at_one == LaurentPolynomial.one(table22)
        else:
            assert at_one.is_zero


def test_rectangle_partition_order():
    parts = rectangle_partitions(2, 5)
    assert len(parts) == 21
    rendered = [p.render() for p in parts]
    assert rendered[:12] == ["[0]", "[1]", "[2]", "[11]", "[3]", "[21]",
                             "[4]", "[31]", "[22]", "[5]", "[41]", "[32]"]
    assert rendered[12:] == ["[51]", "[42]", "[33]", "[52]", "[43]",
                             "[53]", "[44]", "[54]", "[55]"]
