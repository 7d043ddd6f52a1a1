from fractions import Fraction

import pytest
from hypothesis import assume, example, given, strategies as st

from eqpush.algebra import (Frozen, LaurentPolynomial, Monomial, NotDivisible,
                            MixedVariableTables, Packing, VariableTable, add_terms,
                            exact_divide, exact_divide_many, parameter_table, rational,
                            zt_table)
from eqpush.residue import ResidueForm, iterated_residue, make_form
from eqpush.spaces import SpaceDescriptor
from eqpush import g2core

from conftest import assert_immutable_value, random_laurent
from oracles import compose_maps, factored_rational_sum, rotation_map, rotation_orbit


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


def test_variable_table_is_an_immutable_value():
    assert_immutable_value(VariableTable, ("z1", "t1"))
    assert VariableTable(("z1", "t1")) != VariableTable(("t1", "z1"))
    assert zt_table(1, 1) == parameter_table("z1", "t1")
    with pytest.raises(ValueError, match="unique"):
        VariableTable(("z1", "z1"))
    assert repr(VariableTable(("z1",))) == "VariableTable(names=('z1',))"


def test_monomial_is_an_immutable_value(table22):
    assert_immutable_value(Monomial, table22, (1, -2, 0, 3))
    assert Monomial(table=table22, exps=(1, -2, 0, 3)) == Monomial(table22, (1, -2, 0, 3))


class Pair(Frozen):
    # no __init__ of its own: Frozen.__init__ takes the values
    __slots__ = _fields = ("a", "b")


VALUE_CLASS_CASES = [  # (class, a valid list of values, the number required)
    (Pair, (1, (2,)), 2),
    (VariableTable, (("z1",),), 1),
    (Monomial, (zt_table(2, 2), (1, -2, 0, 3)), 2),
    (SpaceDescriptor, ("gr", 2, 4), 1),  # m and n default to 0
    (ResidueForm, (1, LaurentPolynomial.one(zt_table(2, 2)), (), ()), 4),
]


@pytest.mark.parametrize("cls, values, required", VALUE_CLASS_CASES,
                         ids=[case[0].__name__ for case in VALUE_CLASS_CASES])
def test_value_classes_take_exactly_their_fields(cls, values, required):
    assert cls(*values) == cls(*values)
    for wrong in (values[:required - 1], values + (None,)):
        with pytest.raises(TypeError):
            cls(*wrong)


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


def test_monomial_leaves_other_operands_to_them(table22):
    # a Monomial multiplies only a Monomial; mono * poly is poly * mono
    m = Monomial.of(table22, z1=1, t2=-1)
    p = LaurentPolynomial.one(table22) + V(table22, "t1")
    assert m * p == p.mul_monomial(m)
    with pytest.raises(TypeError):
        m * 3
    with pytest.raises(TypeError):
        m / p


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
    q = p.substitute(rotation_map())
    assert q == V(table22, "t1")


def test_rotation_order_six(table22):
    maps = rotation_orbit()
    assert len(maps) == 6
    final = compose_maps(rotation_map(), maps[-1])
    for name in ("t1", "t2"):
        assert final[name] == Monomial.of(table22, **{name: 1})
    # the cube is the global inversion
    cube = maps[3]
    assert cube["t1"] == Monomial.of(table22, t1=-1)
    assert cube["t2"] == Monomial.of(table22, t2=-1)


def test_nonequivariant_specialization(table22):
    one = LaurentPolynomial.one(table22)
    p = one - V(table22, "t2") * V(table22, "t1", -1)
    q = p.substitute({"t1": Monomial.one(table22), "t2": Monomial.one(table22)})
    assert q.is_zero


def test_compose_reporting_variables(table22):
    ab = parameter_table("A", "B")
    q = LaurentPolynomial.variable(ab, "A") + LaurentPolynomial.variable(ab, "B")
    image = q.substitute({"A": g2core.half_sum_a(), "B": g2core.half_sum_b()}, table22)
    assert image == g2core.half_sum_a() + g2core.half_sum_b()
    assert image.render() == "6 - t1 - t1^-1 - t2 - t2^-1 - t1*t2^-1 - t1^-1*t2"


def test_compose_weight_sums(table22):
    image = g2core.weight_sum_z().substitute(
        {"z1": Monomial.of(table22, t1=1), "z2": Monomial.of(table22, t2=-1)})
    assert image == g2core.weight_sum_t()


def test_compose_zero(table22):
    ab = parameter_table("A", "B")
    q = LaurentPolynomial.zero(ab)
    assert q.substitute({"A": g2core.half_sum_a()}, table22).is_zero


def test_exact_divide_basic(table22):
    one = LaurentPolynomial.one(table22)
    t1, t2 = V(table22, "t1"), V(table22, "t2")
    assert exact_divide(one - t1 * t1, one - t1) == one + t1
    with pytest.raises(NotDivisible):
        exact_divide(one - t1 * t2, one - t1)
    # the heap stops at the quotient's lower exponent bound; without it, it
    # would divide on through t1^-j*t2^k forever
    with pytest.raises(NotDivisible):
        exact_divide(one + t1 ** 40, one + t1 + t2)


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
    sub = rotation_map()
    for _ in range(20):
        p = random_laurent(rng, table22)
        q = random_laurent(rng, table22)
        left = (p * q).substitute(sub)
        right = p.substitute(sub) * q.substitute(sub)
        assert left == right


def test_factored_rational_sum(table22):
    one = LaurentPolynomial.one(table22)
    r = V(table22, "t1") * V(table22, "t2", -1)
    total = factored_rational_sum([(one, [one - r]), (one, [one - r ** -1])])
    assert total == one


def test_integrality_and_constants(table22):
    # a sum of halves comes back to ints, not to Fractions of denominator 1
    p = LaurentPolynomial.constant(table22, rational(1, 2)) + V(table22, "t1")
    assert sorted(type(c).__name__ for c in p.terms.values()) == ["Fraction", "int"]
    assert [type(c) for c in (p + p).terms.values()] == [int, int]
    assert LaurentPolynomial.zero(table22).terms == {}


@pytest.mark.parametrize("value", [3, Fraction(1, 2), Fraction(4, 2), rational(-5, 3)],
                         ids=["int", "Fraction", "integral-Fraction", "rational"])
def test_constant_equals_its_exact_value(table22, value):
    # rational() gives an int when the value is integral, a Fraction otherwise
    constant = LaurentPolynomial.constant(table22, value)
    assert constant == value and value == constant
    assert constant != value + 1
    assert constant + V(table22, "t1") != value


def test_other_types_are_not_compared(table22):
    one = LaurentPolynomial.one(table22)
    assert one.__eq__(1.0) is NotImplemented
    assert one.__eq__("1") is NotImplemented
    assert one != "1"


def _json(*terms):
    return [{"coeff_num": num, "coeff_den": den, "exponents": exps} for num, den, exps in terms]


@pytest.mark.parametrize("table, terms, text, latex, json_terms", [
    (zt_table(2, 2), [], "0", "0", []),
    (zt_table(2, 2), [(1, {})], "1", "1", _json(("1", "1", {}))),
    (zt_table(2, 2), [(-1, {})], "-1", "-1", _json(("-1", "1", {}))),
    (zt_table(2, 2), [(Fraction(-3, 4), {})], "-3/4", "-\\tfrac{3}{4}",
     _json(("-3", "4", {}))),
    (zt_table(2, 2), [(-2, {"t1": 1}), (1, {"z1": 1, "t2": 1})], "-2*t1 + z1*t2",
     "-2 t_{1} + z_{1} t_{2}",
     _json(("-2", "1", {"t1": 1}), ("1", "1", {"z1": 1, "t2": 1}))),
    (zt_table(2, 2), [(1, {}), (-1, {"t1": -1})], "1 - t1^-1", "1 - t_{1}^{-1}",
     _json(("1", "1", {}), ("-1", "1", {"t1": -1}))),
    (zt_table(2, 2), [(1, {}), (Fraction(-5, 3), {"z1": 2, "t2": -1})], "1 - 5/3*z1^2*t2^-1",
     "1 - \\tfrac{5}{3} z_{1}^{2} t_{2}^{-1}",
     _json(("1", "1", {}), ("-5", "3", {"z1": 2, "t2": -1}))),
    (zt_table(1, 10), [(1, {"t10": 1}), (-1, {"t1": 1})], "-t1 + t10", "-t_{1} + t_{10}",
     _json(("-1", "1", {"t1": 1}), ("1", "1", {"t10": 1}))),
], ids=["zero", "one", "minus-one", "negative-fraction", "leading-negative",
        "negative-exponent", "fraction-two-variables", "two-digit-index"])
def test_render_and_json(table, terms, text, latex, json_terms):
    p = LaurentPolynomial(table, {Monomial.from_map(table, powers).exps: c for c, powers in terms})
    assert p.render() == text
    assert p.render_latex() == latex
    assert p.json_terms() == json_terms


# -- the coefficient normal form, against a Fraction-only reference --------------
#
# A reference polynomial is a dict {exponents: Fraction} over zt_table(2, 2)
# without zero values; every result must equal its reference, hold an int
# for each integral value and a rational of denominator != 1 otherwise, and
# know correctly whether it is all ints.

T22 = zt_table(2, 2)
RATIO = type(rational(1, 2))
ZERO_EXPS = (0, 0, 0, 0)

coefficients = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)).filter(bool)
exponents = st.tuples(*[st.integers(-2, 2)] * 4)


def references(max_size=4, min_size=0, keys=exponents):
    return st.dictionaries(keys, coefficients, min_size=min_size, max_size=max_size)


def poly(ref) -> LaurentPolynomial:
    return LaurentPolynomial(T22, ref)


def r_add(a, b):
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, 0) + c
    return {k: c for k, c in out.items() if c}


def r_mul(a, b):
    out = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            k = tuple(x + y for x, y in zip(k1, k2))
            out[k] = out.get(k, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


def r_substitute(a, images, source=T22, target=T22):
    """images: {variable index in source: reference polynomial over target};
    every other variable goes to its namesake in target.  Negative exponents
    only on single-term images."""
    out = {}
    for key, c in a.items():
        term = {target.zero_exps: c}
        for i, e in enumerate(key):
            if not e:
                continue
            img = images.get(i)
            if img is None:
                img = {Monomial.of(target, **{source.names[i]: 1}).exps: Fraction(1)}
            if e < 0:
                (ie, ic), = img.items()
                img, e = {tuple(-x for x in ie): 1 / ic}, -e
            for _ in range(e):
                term = r_mul(term, img)
        out = r_add(out, term)
    return out


def assert_normal(p: LaurentPolynomial, ref: dict):
    for c in p.terms.values():
        assert not isinstance(c, float)
        assert type(c) is int or (type(c) is RATIO and c.denominator != 1)
    assert p.terms == ref
    assert all(type(c) is int for c in p.terms.values()) == \
        all(c.denominator == 1 for c in ref.values())


# Key families for products on packed keys: small exponents, which merge;
# exponents up to +-2^70, so a packed digit passes 64 bits; and keys varying
# in z1 only, the other variables fixed off zero, so they get no digit and
# come back from the offsets alone.
HUGE = st.integers(-2 ** 70, 2 ** 70)
WIDE_KEYS = [exponents, st.tuples(*[HUGE] * 4),
             st.tuples(HUGE, st.just(-1), st.just(2 ** 70), st.just(3))]
operand_pairs = st.sampled_from(WIDE_KEYS).flatmap(
    lambda keys: st.tuples(references(keys=keys), references(keys=keys)))


@given(operand_pairs, coefficients, exponents)
def test_ring_operations_keep_the_normal_form(ab, q, shift):
    a, b = ab
    pa, pb = poly(a), poly(b)
    assert_normal(pa, a)
    assert_normal(pa + pb, r_add(a, b))
    assert_normal(pa - pb, r_add(a, {k: -c for k, c in b.items()}))
    assert_normal(pa * pb, r_mul(a, b))
    assert_normal(pa.scale(q), r_mul(a, {ZERO_EXPS: q}))
    assert_normal(pa.mul_monomial(Monomial(T22, shift), q), r_mul(a, {shift: q}))
    assert_normal(pa.mul_monomial(Monomial(T22, shift)), r_mul(a, {shift: 1}))
    assert_normal(pa * Monomial(T22, shift), r_mul(a, {shift: 1}))
    assert Monomial(T22, shift) * pa == pa * Monomial(T22, shift)
    # integral results of rational operands, then int-only work on them
    twice = pa.scale(Fraction(1, 2)) + pa.scale(Fraction(3, 2))
    assert_normal(twice * pb + pb, r_add(r_mul(r_mul(a, {ZERO_EXPS: 2}), b), b))


def test_difference_builds_no_negated_copy(monkeypatch):
    negated = []
    real = LaurentPolynomial.__neg__
    monkeypatch.setattr(LaurentPolynomial, "__neg__", lambda p: negated.append(p) or real(p))
    a, b = {(1, 0, 0, 0): 2, ZERO_EXPS: 1}, {(1, 0, 0, 0): 2, (0, 1, 0, 0): Fraction(1, 3)}
    assert poly(a) - poly(b) == poly(r_add(a, {k: -c for k, c in b.items()}))
    assert 1 - poly(b) == poly(r_add({ZERO_EXPS: 1}, {k: -c for k, c in b.items()}))
    assert poly(a) - 1 == poly({(1, 0, 0, 0): 2})
    assert negated == []


mixed_coefficients = st.integers(-6, 6).filter(bool) | coefficients


@st.composite
def accumulations(draw):
    """(acc, terms, coeff): acc a term dict, coeff 1, -1 or another nonzero
    int, and terms fresh (key, c) pairs, pairs that cancel a value of acc
    exactly, and each fresh pair again negated or not."""
    coeff = draw(st.sampled_from([1, -1]) | st.integers(-5, 5).filter(bool))
    acc = draw(st.dictionaries(exponents, mixed_coefficients, max_size=4))
    fresh = draw(st.lists(st.tuples(exponents, mixed_coefficients), max_size=4))
    cancel = [(k, Fraction(-c, coeff)) for k, c in acc.items() if draw(st.booleans())]
    again = [(k, c if draw(st.booleans()) else -c) for k, c in fresh if draw(st.booleans())]
    return acc, draw(st.permutations(fresh + cancel + again)), coeff


def r_add_terms(acc, terms, coeff):
    out = dict(acc)
    for k, c in terms:
        out[k] = out.get(k, 0) + coeff * c
    return {k: c for k, c in out.items() if c}


@given(accumulations())
@example(({ZERO_EXPS: 2, (1, 0, 0, 0): Fraction(1, 2)},
          [(ZERO_EXPS, 2), ((2, 0, 0, 0), 3), ((2, 0, 0, 0), -3), ((1, 0, 0, 0), Fraction(1, 2))],
          -1))
@example(({ZERO_EXPS: 6}, [(ZERO_EXPS, -2), ((0, 1, 0, 0), Fraction(1, 3))], 3))
def test_add_terms_matches_a_reference_sum(case):
    acc, terms, coeff = case
    expected = r_add_terms(acc, terms, coeff)
    out = add_terms(acc, terms, coeff)
    assert out is acc
    assert out == expected and all(out.values())


@st.composite
def packing_cases(draw):
    """(lows, highs, points, moves): per-variable ranges with lows down to
    -2^70 and spans up to 2^70 or 0; points in range, the corners first;
    for each point a move anywhere, so that point - move and move sum into
    range wherever they lie."""
    lows = draw(st.lists(HUGE, min_size=1, max_size=5))
    highs = [low + draw(st.just(0) | st.integers(0, 2 ** 70)) for low in lows]
    point = st.tuples(*map(st.integers, lows, highs))
    points = [tuple(lows), tuple(highs)] + draw(st.lists(point, max_size=4))
    moves = [draw(st.tuples(*[HUGE] * len(lows))) for _ in points]
    return lows, highs, points, moves


@given(packing_cases())
@example(([-3, 7, -2 ** 70], [2 ** 70, 7, 1], [(-3, 7, -2 ** 70), (2 ** 70, 7, 1), (0, 7, 0)],
          [(1, -7, 2 ** 70), (-2 ** 70, 0, 5), (0, 0, 0)]))
def test_packing_round_trip_and_linearity(case):
    lows, highs, points, moves = case
    packing = Packing(lows, highs)
    offset = packing.offset
    # each digit is the narrowest that holds its span: none for a constant
    for mask, low, high in zip(packing.masks, lows, highs):
        assert high - low <= mask < 2 * (high - low) + 1
    assert list(packing.unpack([key - offset for key in packing.pack(points)])) == points
    parts = [tuple(x - m for x, m in zip(e, move)) for e, move in zip(points, moves)]
    sums = [p + m for p, m in zip(packing.pack(parts), packing.pack(moves))]
    assert list(packing.unpack([key - offset for key in sums])) == points


@given(exponents, coefficients.filter(lambda c: abs(c) != 1), st.integers(-3, 3))
def test_monomial_power_keeps_the_normal_form(key, c, k):
    # an int to a negative power would be a float
    assert_normal(poly({key: c}) ** k, {tuple(e * k for e in key): c ** k})


@given(references(max_size=3), references(max_size=3, min_size=2))
def test_division_by_a_non_monic_divisor(q, d):
    lead = max(d, key=lambda k: (sum(k), k))
    assume(d[lead] != 1)
    assert_normal(exact_divide(poly(r_mul(q, d)), poly(d)), q)


@pytest.mark.parametrize("lc", [1, -1, 2, Fraction(3, 2)])
@given(references(), exponents)
def test_division_by_a_unit(lc, p, shift):
    # c * t^a: one term, negative exponents in the divisor and the dividend
    d = poly({shift: lc})
    q = exact_divide(poly(p), d)
    assert q * d == poly(p)
    assert_normal(q, r_mul(p, {tuple(-e for e in shift): 1 / Fraction(lc)}))


@given(references(), st.dictionaries(st.integers(0, 3), exponents, max_size=4),
       st.dictionaries(st.integers(0, 3), st.tuples(exponents, coefficients), max_size=4))
def test_substitutions_keep_the_normal_form(a, monomials, singles):
    table_names = T22.names
    images = {table_names[i]: Monomial(T22, e) for i, e in monomials.items()}
    unit = {i: {e: Fraction(1)} for i, e in monomials.items()}
    assert_normal(poly(a).substitute(images), r_substitute(a, unit))
    terms = {i: {e: c} for i, (e, c) in singles.items()}
    mapping = {table_names[i]: poly(ref) for i, ref in terms.items()}
    assert_normal(poly(a).substitute(mapping), r_substitute(a, terms))


@given(references(keys=st.tuples(*[st.integers(0, 2)] * 4)),
       st.dictionaries(st.integers(0, 3), references(max_size=3), max_size=4))
def test_polynomial_substitution_keeps_the_normal_form(a, images):
    mapping = {T22.names[i]: poly(ref) for i, ref in images.items()}
    assert_normal(poly(a).substitute(mapping, T22), r_substitute(a, images))
    assert_normal(poly(a).substitute(mapping), r_substitute(a, images))


# one change of variables with every kind of image: a monomial (a), one-term
# images with the coefficients -1, 2 and 3/2 (b, c, d), all four under
# negative exponents, a longer image (f, exponents from 0), and the unmapped
# e and g, which go to their namesakes in a target table of another order
SOURCE = parameter_table("a", "b", "c", "d", "e", "f", "g")
TARGET = parameter_table("g", "x", "e", "y")
MIXED = {0: {(0, 1, 0, -1): Fraction(1)}, 1: {(0, 0, 0, -1): Fraction(-1)},
         2: {(0, -1, 0, 1): Fraction(2)}, 3: {(1, 2, 0, 0): Fraction(3, 2)},
         5: {(0, 0, 0, 0): Fraction(1), (0, 1, 0, 0): Fraction(1), (0, 0, 0, 1): Fraction(-1, 2)}}


@given(references(keys=st.tuples(*[st.integers(-2, 2)] * 5, st.integers(0, 2),
                                 st.integers(-2, 2))))
def test_substitute_applies_every_kind_of_image(a):
    mapping = {SOURCE.names[i]: LaurentPolynomial(TARGET, ref) for i, ref in MIXED.items()}
    mapping["a"] = Monomial.of(TARGET, x=1, y=-1)
    value = LaurentPolynomial(SOURCE, a).substitute(mapping, TARGET)
    assert value.table == TARGET
    assert_normal(value, r_substitute(a, MIXED, SOURCE, TARGET))


def test_substitute_needs_a_namesake_for_an_unmapped_variable(table22):
    p = V(table22, "t1") + V(table22, "z1", -2)
    target = parameter_table("t1", "t2")
    with pytest.raises(KeyError, match="z1"):
        p.substitute({}, target)
    with pytest.raises(KeyError, match="z1"):
        p.substitute({"t1": Monomial.of(target, t2=1)}, target)
    # an unmapped variable that does not occur needs none
    assert p.substitute({"z1": Monomial.of(target, t2=1)}, target) == \
        V(target, "t1") + V(target, "t2", -2)


@given(references(), coefficients)
def test_iterated_residue_keeps_the_normal_form(a, scalar):
    # one factor (1 - z_i/t_i) per variable: by the residue theorem the
    # 0-plus-infinity residue of N dlog z1 dlog z2 is N at z1 = t1, z2 = t2
    den = (Monomial.of(T22, z1=1, t1=-1), Monomial.of(T22, z2=1, t2=-1))
    form = make_form(poly(a), den, ("z1", "z2"), scalar=scalar)
    at_point = {0: {(0, 0, 1, 0): Fraction(1)}, 1: {(0, 0, 0, 1): Fraction(1)}}
    assert_normal(iterated_residue(form), r_mul(r_substitute(a, at_point), {ZERO_EXPS: scalar}))


# distinct but equal tables, and one of the same size with other names
TABLES = (T22, parameter_table("z1", "z2", "t1", "t2"), parameter_table("a", "b", "c", "d"))
small_exponents = st.tuples(*[st.integers(-1, 1)] * 4)


@given(st.sampled_from(TABLES), small_exponents, st.sampled_from(TABLES), small_exponents)
def test_monomial_equality_and_hash_follow_the_fields(t1, e1, t2, e2):
    a, b = Monomial(t1, e1), Monomial(t2, e2)
    same = (t1, e1) == (t2, e2)
    assert (a == b) is same and (a != b) is not same
    if same:
        assert hash(a) == hash(b)
    assert ({a: 1}.get(b) == 1) is same


# -- exact division, against the product it undoes ---------------------------------
#
# A two-term divisor c0*t^k0 + c1*t^k1 takes the running sums along the chains
# e + j*(k1 - k0); wide exponents give steps with several nonzero entries and
# entries of size > 1.  Any other divisor takes the heap, with a monic or a
# non-monic graded-lex lead.

divisor_coefficients = st.sampled_from([1, -1, 2, -3, Fraction(1, 2), Fraction(-3, 2)])
wide_exponents = st.tuples(*[st.integers(-4, 4)] * 4)


@st.composite
def divisors(draw, sizes):
    size = draw(st.sampled_from(sizes))
    keys = draw(st.lists(wide_exponents, min_size=size, max_size=size, unique=True))
    return {k: draw(divisor_coefficients) for k in keys}


T1_MINUS_2T2 = {(0, 0, 1, 0): 1, (0, 0, 0, 1): -2}
TWO_MINUS_3T1SQ_OVER_T2 = {ZERO_EXPS: 2, (0, 0, 2, -1): -3}


@example(p={(1, -1, 0, 2): Fraction(1, 2), (0, 0, -1, 0): 3}, d=T1_MINUS_2T2)
@example(p={(2, 0, 1, -2): -1, (0, 1, 0, 0): Fraction(5, 3)}, d=TWO_MINUS_3T1SQ_OVER_T2)
@given(references(max_size=5), divisors((2,)))
def test_division_by_a_binomial_undoes_the_product(p, d):
    assert_normal(exact_divide(poly(r_mul(p, d)), poly(d)), p)


@example(p={}, d=T1_MINUS_2T2, m=(ZERO_EXPS, Fraction(1)))
@example(p={(0, 0, 1, 0): 1}, d=TWO_MINUS_3T1SQ_OVER_T2, m=((0, 0, 2, -1), Fraction(3)))
@given(references(max_size=5), divisors((2,)), st.tuples(wide_exponents, coefficients))
def test_a_binomial_never_divides_a_monomial(p, d, m):
    # p*d + m is divisible by d iff m is, and a binomial divides no monomial
    with pytest.raises(NotDivisible):
        exact_divide(poly(r_add(r_mul(p, d), dict([m]))), poly(d))


MONIC_TRINOMIAL = {(0, 0, 1, 1): 1, (1, 0, -2, 0): Fraction(-3, 2), (0, -1, 0, -1): 2}
NON_MONIC_QUADRINOMIAL = {(2, 0, 0, -1): -3, (0, 1, 0, 0): 1, (-1, 0, 0, 0): Fraction(1, 2),
                          (0, 0, -2, -1): -1}
# Lead t1.  In (1 + t1)(t1 + t2 + 1), the quotient term t1 moves t2 onto the
# dividend's t1*t2 and cancels it while it is on the heap.  In
# (t1 - t1*t2)(t1 + t2 + 1), the quotient terms -t1*t2 and t1 move 1 and t2
# onto one key, t1*t2, which is not in the dividend.
T1_PLUS_T2_PLUS_1 = {(0, 0, 1, 0): 1, (0, 0, 0, 1): 1, ZERO_EXPS: 1}


@example(p={(1, -1, 0, 2): Fraction(1, 2), (0, 0, -1, 0): 3}, d=MONIC_TRINOMIAL,
         m=(ZERO_EXPS, Fraction(1)))
@example(p={(2, 0, 1, -2): -1, (0, 1, 0, 0): Fraction(5, 3)}, d=NON_MONIC_QUADRINOMIAL,
         m=((0, 1, 0, 0), Fraction(-1)))
@example(p={ZERO_EXPS: 1, (0, 0, 1, 0): 1}, d=T1_PLUS_T2_PLUS_1, m=(ZERO_EXPS, Fraction(1)))
@example(p={(0, 0, 1, 0): 1, (0, 0, 1, 1): -1}, d=T1_PLUS_T2_PLUS_1,
         m=((0, 0, 1, 1), Fraction(2)))
@given(references(max_size=5), divisors((1, 3, 4)), st.tuples(wide_exponents, coefficients))
def test_division_by_a_heap_divisor(p, d, m):
    # p*d + m is divisible by d iff m is, and a product with a factor of two
    # or more terms has two or more terms
    product = r_mul(p, d)
    assert_normal(exact_divide(poly(product), poly(d)), p)
    if len(d) > 1:
        with pytest.raises(NotDivisible):
            exact_divide(poly(r_add(product, dict([m]))), poly(d))


def test_division_by_a_binomial_jumps_a_gap_with_no_carry(table22):
    # a kernel that walked the 10^9 positions between the two halves would
    # not return
    one, t1 = LaurentPolynomial.one(table22), V(table22, "t1")
    far = one + t1 ** 10 ** 9
    assert exact_divide((one - t1) * far, one - t1) == far
    assert exact_divide((one - t1) * far * t1 ** -7, t1 ** -3 - t1 ** -2) == far * t1 ** -4
