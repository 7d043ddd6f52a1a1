import pytest

from eqpush.algebra import LaurentPolynomial, Monomial, parameter_table, zt_table
from eqpush.polyfam import (Partition, complement_partition,
                            grothendieck_general, grothendieck_pair,
                            rectangle_partitions, schur_pair)

from conftest import assert_immutable_value


def test_partition_normalization():
    assert Partition.of(3, 2, 0, 0).parts == (3, 2)
    assert Partition.of().parts == ()
    with pytest.raises(ValueError):
        Partition.of(1, 2)
    with pytest.raises(ValueError):
        Partition.of(-1)


def test_partition_is_an_immutable_value():
    assert_immutable_value(Partition, (2, 1))
    assert Partition((2, 1, 0)) == Partition((2, 1)) and Partition((2, 1, 0)).parts == (2, 1)
    assert hash(Partition((2, 1, 0))) == hash(Partition((2, 1)))
    with pytest.raises(ValueError, match="weakly decreasing"):
        Partition((1, 2))


def test_partition_render():
    assert Partition.of(4, 1).render() == "[41]"
    assert Partition.of().render() == "[0]"


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
        assert g.substitute_monomials(swap, partial=True) == g
        at_one = g.substitute_monomials(ones, partial=True)
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


def test_complement():
    assert complement_partition(Partition.of(5, 5), 2, 5) == Partition.of()
    assert complement_partition(Partition.of(4, 1), 2, 5) == Partition.of(4, 1)
    assert complement_partition(Partition.of(3), 2, 5) == Partition.of(5, 2)
    for lam in rectangle_partitions(2, 5):
        assert complement_partition(complement_partition(lam, 2, 5), 2, 5) == lam
    with pytest.raises(ValueError):
        complement_partition(Partition.of(6), 2, 5)


def test_grothendieck_general_base_cases():
    table = zt_table(1, 1)
    one = LaurentPolynomial.one(table)
    t1inv = LaurentPolynomial.variable(table, "t1", -1)
    for a in range(4):
        assert grothendieck_general(Partition.of(a), 1, table) == (one - t1inv) ** a
    assert grothendieck_general(Partition.of(), 3) == LaurentPolynomial.one(zt_table(3, 3))


def test_grothendieck_general_symmetry():
    table = zt_table(2, 2)
    swap = {"t1": Monomial.of(table, t2=1), "t2": Monomial.of(table, t1=1)}
    g = grothendieck_general(Partition.of(1), 2, table)
    assert g.substitute_monomials(swap, partial=True) == g


def test_grothendieck_general_matches_pair():
    # the rank-two closed form under z_i -> 1/t_i is the symmetric polynomial
    table = zt_table(2, 2)
    sub = {"z1": Monomial.of(table, t1=-1), "z2": Monomial.of(table, t2=-1)}
    for lam in [Partition.of(1), Partition.of(2, 1), Partition.of(3, 2),
                Partition.of(5, 5)]:
        pair = grothendieck_pair(lam.part(0), lam.part(1), table)
        assert pair.substitute_monomials(sub, partial=True) == \
            grothendieck_general(lam, 2, table)


def test_grothendieck_general_rejects_long_partition():
    with pytest.raises(ValueError):
        grothendieck_general(Partition.of(1, 1, 1), 2)
