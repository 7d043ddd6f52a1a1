from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

from eqpush.algebra import (LaurentPolynomial, Monomial, NotDivisible,
                            MixedVariableTables, VariableTable, exact_divide,
                            exact_divide_many, parameter_table, rational,
                            zt_table)
from eqpush.residue import iterated_residue, make_form
from eqpush import g2core

from conftest import assert_immutable_value, random_laurent
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


def test_variable_table_is_an_immutable_value():
    assert_immutable_value(VariableTable, ("z1", "t1"))
    assert VariableTable(("z1", "t1")) != VariableTable(("t1", "z1"))
    assert zt_table(1, 1) == parameter_table("z1", "t1")
    with pytest.raises(ValueError, match="unique"):
        VariableTable(("z1", "z1"))
    assert repr(VariableTable(("z1",))) == "VariableTable(names=('z1',))"


def test_monomial_is_an_immutable_value(table22):
    assert_immutable_value(Monomial, table22, (1, -2, 0, 3))


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


def r_pow(a, k):
    out = {ZERO_EXPS: Fraction(1)}
    for _ in range(k):
        out = r_mul(out, a)
    return out


def r_substitute(a, images):
    """images: {variable index: reference polynomial}; negative exponents
    only on single-term images."""
    out = {}
    for key, c in a.items():
        term = {ZERO_EXPS: c}
        for i, e in enumerate(key):
            if i in images and e:
                img = images[i]
                if e < 0:
                    (ie, ic), = img.items()
                    img, e = {tuple(-x for x in ie): 1 / ic}, -e
                term = r_mul(term, r_pow(img, e))
            elif e:
                term = r_mul(term, {tuple(e if j == i else 0 for j in range(4)): Fraction(1)})
        out = r_add(out, term)
    return out


def assert_normal(p: LaurentPolynomial, ref: dict):
    for c in p.terms.values():
        assert not isinstance(c, float)
        assert type(c) is int or (type(c) is RATIO and c.denominator != 1)
    assert p.terms == ref
    assert p.is_integral() == all(c.denominator == 1 for c in ref.values())


@given(references(), references(), coefficients, exponents)
def test_ring_operations_keep_the_normal_form(a, b, q, shift):
    pa, pb = poly(a), poly(b)
    assert_normal(pa, a)
    assert_normal(pa + pb, r_add(a, b))
    assert_normal(pa - pb, r_add(a, {k: -c for k, c in b.items()}))
    assert_normal(pa * pb, r_mul(a, b))
    assert_normal(pa.scale(q), r_mul(a, {ZERO_EXPS: q}))
    assert_normal(pa.mul_monomial(Monomial(T22, shift), q), r_mul(a, {shift: q}))
    assert_normal(pa.mul_monomial(Monomial(T22, shift)), r_mul(a, {shift: 1}))
    # integral results of rational operands, then int-only work on them
    twice = pa.scale(Fraction(1, 2)) + pa.scale(Fraction(3, 2))
    assert_normal(twice * pb + pb, r_add(r_mul(r_mul(a, {ZERO_EXPS: 2}), b), b))


@given(exponents, coefficients.filter(lambda c: abs(c) != 1), st.integers(-3, 3))
def test_monomial_power_keeps_the_normal_form(key, c, k):
    # an int to a negative power would be a float
    assert_normal(poly({key: c}) ** k, {tuple(e * k for e in key): c ** k})


@given(references(max_size=3), references(max_size=3, min_size=2))
def test_division_by_a_non_monic_divisor(q, d):
    lead = max(d, key=lambda k: (sum(k), k))
    assume(d[lead] != 1)
    assert_normal(exact_divide(poly(r_mul(q, d)), poly(d)), q)


@given(references(), st.dictionaries(st.integers(0, 3), exponents, max_size=4),
       st.dictionaries(st.integers(0, 3), st.tuples(exponents, coefficients), min_size=4,
                       max_size=4))
def test_substitutions_keep_the_normal_form(a, monomials, singles):
    table_names = T22.names
    images = {table_names[i]: Monomial(T22, e) for i, e in monomials.items()}
    unit = {i: {e: Fraction(1)} for i, e in monomials.items()}
    assert_normal(poly(a).substitute_monomials(images, partial=True), r_substitute(a, unit))
    terms = {i: {e: c} for i, (e, c) in singles.items()}
    mapping = {table_names[i]: poly(ref) for i, ref in terms.items()}
    assert_normal(poly(a).substitute_polynomials(mapping), r_substitute(a, terms))


@given(references(keys=st.tuples(*[st.integers(0, 2)] * 4)),
       st.dictionaries(st.integers(0, 3), references(max_size=3), min_size=4, max_size=4))
def test_polynomial_substitution_keeps_the_normal_form(a, images):
    mapping = {T22.names[i]: poly(ref) for i, ref in images.items()}
    assert_normal(poly(a).substitute_polynomials(mapping, target=T22), r_substitute(a, images))


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
