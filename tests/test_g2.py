import math
import random

import pytest

from eqpush.algebra import LaurentPolynomial, Monomial, exact_divide
from eqpush import cohomology, g2, g2core
from eqpush.elimination import determinant, solve
from eqpush.polyfam import grothendieck_pair
from eqpush.spaces import (SpaceDescriptor, SymmetryViolation, _calc,
                           localization_pushforward, residue_pushforward)

from conftest import sum_of_products, with_frames_left
from oracles import (ambient_chain_class, ambient_matrix_by_pushforward, ambient_residue_class,
                     bareiss_determinant, bareiss_solve)

GT = g2core.g2_table()
ONE = LaurentPolynomial.one(GT)
BOREL_SPACE = SpaceDescriptor("g2b")


def test_weight_sum_relation():
    assert g2core.half_sum_a() + g2core.half_sum_b() == -g2core.weight_sum_t()


def test_lift_vanishes_on_unit_root():
    lift = g2core.fundamental_class_lift()
    killed = lift.substitute({"z1": Monomial.one(GT)})
    assert killed.is_zero


def test_lift_symmetric():
    lift = g2core.fundamental_class_lift()
    swap = {"z1": Monomial.of(GT, z2=1), "z2": Monomial.of(GT, z1=1)}
    assert lift.substitute(swap) == lift


def test_ambient_pushforward_rejects_asymmetric_class():
    z1, z2 = LaurentPolynomial.variable(GT, "z1"), LaurentPolynomial.variable(GT, "z2")
    for f in (z1, z1 + 2 * z2):
        with pytest.raises(SymmetryViolation):
            g2.ambient_pushforward(f)
    # the tautological subbundle has no cohomology; its dual has the seven weights
    assert g2.ambient_pushforward(z1 + z2).is_zero
    weights = sum((w.as_polynomial() for w in g2core.seven_weights()), LaurentPolynomial.zero(GT))
    assert g2.ambient_pushforward(z1 ** -1 + z2 ** -1) == weights


def quotient_pushforward(f):
    return localization_pushforward(g2.QUOTIENT_SPACE, f)


def test_cyclic_pushforward_examples():
    assert quotient_pushforward(grothendieck_pair(0, 0, GT)) == ONE
    a, b = g2core.half_sum_a(), g2core.half_sum_b()
    assert quotient_pushforward(grothendieck_pair(5, 0, GT)) == a + b
    g54 = quotient_pushforward(grothendieck_pair(5, 4, GT))
    expected = (a * b) ** 2 + a ** 3 + b ** 3 - 3 * a ** 2 * b - 3 * a * b ** 2 \
        - 3 * a ** 2 - 3 * b ** 2 + 8 * a * b
    assert g54 == expected


def test_verify_ab_expression():
    # a table entry equals sum c * a^i * b^j for its {(i, j): c} in A, B
    a, b = g2core.half_sum_a(), g2core.half_sum_b()

    def ab(coeffs):
        out = LaurentPolynomial.zero(GT)
        for (i, j), c in coeffs.items():
            out = out + (a ** i * b ** j).scale(c)
        return out

    assert quotient_pushforward(grothendieck_pair(5, 0, GT)) == ab({(1, 0): 1, (0, 1): 1})
    assert quotient_pushforward(grothendieck_pair(4, 4, GT)) == ab({(1, 1): -1})


def test_box_order():
    assert len(g2.BOX) == len(set(g2.BOX)) == 21
    assert all(5 >= a >= b >= 0 for a, b in g2.BOX)
    rendered = [g2.box_label(pair) for pair in g2.BOX]
    assert rendered[:12] == ["[0]", "[1]", "[2]", "[11]", "[3]", "[21]",
                             "[4]", "[31]", "[22]", "[5]", "[41]", "[32]"]
    assert rendered[12:] == ["[51]", "[42]", "[33]", "[52]", "[43]",
                             "[53]", "[44]", "[54]", "[55]"]


def test_box_label():
    assert g2.box_label((4, 1)) == "[41]"
    assert g2.box_label((4, 0)) == "[4]"
    assert g2.box_label((0, 0)) == "[0]"


def test_grothendieck_table_special_entries():
    table = g2.grothendieck_table()
    assert table[(3, 3)].is_zero
    assert table[(4, 0)] == LaurentPolynomial.constant(GT, 2)
    assert table[(2, 2)] == ONE


def test_borel_pushforward_methods_agree():
    z1 = LaurentPolynomial.variable(GT, "z1")
    f = z1 + z1 ** -2 * LaurentPolynomial.variable(GT, "z2")
    weyl = localization_pushforward(BOREL_SPACE, f)
    res = residue_pushforward(BOREL_SPACE, f)
    assert weyl == res


def test_borel_pushforward_symmetric_matches_quotient():
    f = grothendieck_pair(4, 1, GT)
    expected = LaurentPolynomial.constant(GT, 2)
    assert localization_pushforward(BOREL_SPACE, f) == expected
    assert residue_pushforward(BOREL_SPACE, f) == expected
    assert localization_pushforward(BOREL_SPACE, ONE) == ONE


def test_ambient_pushforward_unit():
    assert g2.ambient_pushforward(ONE) == ONE


def matrix_orbit_classes() -> list:
    """Every orbit class the 231 products of the intersection matrix decompose into."""
    calc = _calc(g2.AMBIENT_SPACE)
    classes = [grothendieck_pair(a, b, GT) for a, b in g2.BOX]
    canons = set()
    for i, a in enumerate(classes):
        for b in classes[i:]:
            canons.update(calc.decompose(a * b))
    return sorted(canons)


def test_ambient_residue_matches_the_chain_oracle():
    canons = matrix_orbit_classes()
    assert len(canons) == 66
    for canon in canons:
        assert g2core.gr27_orbit_class.__wrapped__(g2._residue, canon) == \
            ambient_chain_class(canon), canon


def test_ambient_closed_form_matches_the_residue_oracle():
    # negative exponents reach the h_(-c) half of the one-variable residue
    canons = [(p, q) for p in range(-4, 11) for q in range(-4, p + 1)]
    assert len(canons) == 120
    for canon in canons:
        assert g2core.gr27_orbit_class.__wrapped__(g2._residue, canon) == \
            ambient_residue_class(canon), canon


def test_matrix_orbit_classes_build_each_h_row_once(monkeypatch):
    # from cold caches: 7 products for each row h_1..h_4 (F(11) = h_4 is the
    # highest residue the 66 classes read), each built once, and 2 for each
    # of the 121 members of their orbits
    canons = matrix_orbit_classes()
    g2core.gr27_orbit_class.cache_clear()
    g2._residue.cache_clear()
    g2core.h_row.cache_clear()
    products, mul = 0, LaurentPolynomial.__mul__

    def counting_mul(a, b):
        nonlocal products
        products += 1
        return mul(a, b)

    monkeypatch.setattr(LaurentPolynomial, "__mul__", counting_mul)
    for canon in canons:
        g2._ambient_class(canon)
    assert products == 7 * 4 + 2 * 121


def test_both_theories_bind_the_one_cache_of_orbit_values():
    assert g2._ambient_class.func is cohomology._gr27_class.func is g2core.gr27_orbit_class


def test_h_is_the_sum_of_weight_monomials_at_any_depth():
    # as for the weight logs: m = 50 needs no more frames than m = 1, and at
    # t = 1 h_m counts the C(m + 6, 6) multisets of m weights
    h = with_frames_left(40, g2core.h_row, g2core.seven_weights, 50)[7]
    assert sum(h.terms.values()) == math.comb(56, 6)
    for m in range(-1, 7):
        assert g2core.h_row(g2core.seven_weights, m)[7] == \
            sum_of_products(g2core.seven_weights(), m), m


def test_gram_matrix_matches_per_entry_pushforward():
    matrix = g2.intersection_matrix()
    expected = ambient_matrix_by_pushforward()
    assert len(matrix) == len(expected) == 21
    for i, (row, expected_row) in enumerate(zip(matrix, expected)):
        assert len(row) == 21
        for j, (entry, expected_entry) in enumerate(zip(row, expected_row)):
            assert entry == expected_entry, (i, j)


def test_gram_matrix_rejects_an_asymmetric_class(monkeypatch):
    # G[3,1] with z1 * z2^2 added: every product with it is asymmetric, so
    # reading its members with p >= q alone would give a wrong matrix
    real = g2.grothendieck_pair
    planted = Monomial.of(GT, z1=1, z2=2).as_polynomial()

    def with_planted_term(a, b, table):
        cls = real(a, b, table)
        return cls + planted if (a, b) == (3, 1) else cls

    monkeypatch.setattr(g2, "grothendieck_pair", with_planted_term)
    with pytest.raises(SymmetryViolation):
        g2.intersection_matrix()


def test_unit_pivot_elimination_matches_bareiss_in_box_order():
    table = g2.grothendieck_table()
    matrix = g2.intersection_matrix()
    rhs = [table[pair] for pair in g2.BOX]
    det, solution = solve(matrix, rhs)
    assert (det, solution) == bareiss_solve(matrix, rhs)
    assert determinant(matrix) == bareiss_determinant(matrix) == det
    assert det == -1
    assert g2.fundamental_class_solve() == dict(zip(g2.BOX, solution))


def _permutation_sign(order):
    return (-1) ** sum(a > b for i, a in enumerate(order) for b in order[i + 1:])


def test_row_order_does_not_change_determinant_or_solution():
    # equation order is free: elimination finds its own unit pivots, whether
    # the rows come in box order, shuffled, or paired by box complement
    table = g2.grothendieck_table()
    matrix = g2.intersection_matrix()
    rhs = [table[pair] for pair in g2.BOX]
    _, expected = solve(matrix, rhs)
    index = {pair: i for i, pair in enumerate(g2.BOX)}
    complement = [index[(5 - b, 5 - a)] for a, b in g2.BOX]
    rng = random.Random(1818)
    orders = [complement] + [rng.sample(range(len(g2.BOX)), len(g2.BOX)) for _ in range(5)]
    for order in orders:
        rows = [matrix[i] for i in order]
        det, solution = solve(rows, [rhs[i] for i in order])
        assert det.scale(_permutation_sign(order)) == -1, order
        assert determinant(rows) == det, order
        assert solution == expected, order


def test_projection_formula():
    # the quotient's push-forward of G[a,b] is the ambient one of G[a,b] * lift
    lift = g2core.fundamental_class_lift()
    for a, b in g2.BOX:
        cls = grothendieck_pair(a, b, GT)
        assert g2.ambient_pushforward(cls * lift) == quotient_pushforward(cls), (a, b)


def test_lift_pairing_rejects_shifted_lift():
    # criterion 3's lift pairing tells the lift from the lift plus one
    lift = g2core.fundamental_class_lift()
    pairings = [(g2.ambient_pushforward(cls * lift), g2.ambient_pushforward(cls * (lift + ONE)))
                for cls in (grothendieck_pair(a, b, GT) for a, b in g2.BOX)]
    assert any(left != right for left, right in pairings)


def test_appendix_combination_strip():
    # removing the three-term factor leaves the product of the other factors
    lift = g2core.fundamental_class_lift()
    z1 = LaurentPolynomial.variable(GT, "z1")
    z2 = LaurentPolynomial.variable(GT, "z2")
    quotient = exact_divide(lift, ONE - z1 * z2)
    assert quotient == z1 * z2 * (ONE - z1) * (ONE - z2) \
        * (g2core.weight_sum_z() - g2core.weight_sum_t())
