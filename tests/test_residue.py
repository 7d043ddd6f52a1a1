import random
from fractions import Fraction

import pytest

from eqpush.algebra import (InvariantError, LaurentPolynomial, Monomial,
                            rational, zt_table)
from eqpush.residue import (PreparedForm, ResidueForm, iterated_residue, make_form,
                            residue_at_infinity, residue_at_zero)

from conftest import assert_immutable_value, random_laurent
from oracles import factored_rational_sum


def projective_form(f, n):
    """f * dz/(z * prod (1 - z/t_i)) on a one-variable table with n parameters."""
    table = zt_table(1, n)
    den = tuple(Monomial.of(table, z1=1, **{f"t{i+1}": -1}) for i in range(n))
    return make_form(f, den, ("z1",))


def test_residue_form_is_an_immutable_value():
    table = zt_table(2, 1)
    num = LaurentPolynomial.variable(table, "t1")
    den = (Monomial.of(table, z1=1, t1=-1), Monomial.of(table, z2=2))
    # the numerator is a LaurentPolynomial, which is not hashable
    assert_immutable_value(ResidueForm, 1, num, den, ("z1", "z2"), hashable=False)
    form = ResidueForm(1, num, den, ("z1", "z2"))
    assert form != ResidueForm(2, num, den, ("z1", "z2"))
    assert form != ResidueForm(1, num, den, ("z2", "z1"))


@pytest.mark.parametrize("den, vars_, message", [
    ((("z1", 1), ("z2", 1)), ("z1", "z2"), "exactly one residue variable"),
    ((("t1", 1),), ("z1",), "exactly one residue variable"),
    ((("z1", -1),), ("z1",), "positive residue exponent"),
    ((("z1", 1),), ("z3",), "not in table"),
], ids=["two-variables", "no-variable", "negative-exponent", "unknown-variable"])
def test_residue_form_rejects_a_bad_denominator(den, vars_, message):
    table = zt_table(2, 1)
    factor = Monomial.of(table, **dict(den))
    with pytest.raises(InvariantError, match=message):
        ResidueForm(1, LaurentPolynomial.one(table), (factor,), vars_)


def test_simple_pole_at_zero():
    table = zt_table(1, 1)
    one = LaurentPolynomial.one(table)
    form = projective_form(one, 1)
    assert iterated_residue(form) == one


def test_no_poles_middle_power():
    table = zt_table(1, 2)
    z = LaurentPolynomial.variable(table, "z1")
    form = projective_form(z, 2)
    assert residue_at_zero(form, "z1").numerator.is_zero
    assert residue_at_infinity(form, "z1").numerator.is_zero


def test_double_pole_gives_inverse():
    table = zt_table(1, 1)
    z = LaurentPolynomial.variable(table, "z1")
    form = projective_form(z ** -1, 1)
    assert iterated_residue(form) == LaurentPolynomial.variable(table, "t1", -1)
    assert residue_at_infinity(form, "z1").numerator.is_zero


def test_residue_at_infinity_value():
    table = zt_table(1, 2)
    z = LaurentPolynomial.variable(table, "z1")
    t1 = LaurentPolynomial.variable(table, "t1")
    t2 = LaurentPolynomial.variable(table, "t2")
    form = projective_form(z ** 2, 2)
    assert residue_at_zero(form, "z1").numerator.is_zero
    assert iterated_residue(form) == -t1 * t2


def test_invariant_rejects_bad_factor():
    table = zt_table(2, 1)
    one = LaurentPolynomial.one(table)
    with pytest.raises(InvariantError):
        make_form(one, (Monomial.of(table, z1=1, z2=1),), ("z1", "z2"))
    with pytest.raises(InvariantError):
        make_form(one, (Monomial.of(table, t1=1),), ("z1",))
    with pytest.raises(InvariantError):
        make_form(one, (Monomial.of(table, z1=-1, t1=1),), ("z1",))


def random_form(rng, table, vars_=("z1", "z2")):
    den = []
    for v in vars_:
        for _ in range(rng.randint(1, 2)):
            powers = {v: rng.randint(1, 2),
                      "t1": rng.randint(-2, 2), "t2": rng.randint(-2, 2)}
            den.append(Monomial.from_map(table, powers))
    num = random_laurent(rng, table, nterms=4, max_exp=3)
    return make_form(num, tuple(den), vars_, scalar=rational(rng.randint(1, 3), 2))


def test_order_independence():
    rng = random.Random(7)
    table = zt_table(2, 2)
    for _ in range(50):
        form = random_form(rng, table)
        swapped = ResidueForm(form.scalar, form.numerator, form.denominator,
                              ("z2", "z1"))
        assert iterated_residue(form) == iterated_residue(swapped)


def test_linearity():
    rng = random.Random(8)
    table = zt_table(2, 2)
    for _ in range(20):
        base = random_form(rng, table)
        n1 = random_laurent(rng, table, nterms=3)
        n2 = random_laurent(rng, table, nterms=3)
        f1 = ResidueForm(base.scalar, n1, base.denominator, base.residue_vars)
        f2 = ResidueForm(base.scalar, n2, base.denominator, base.residue_vars)
        f12 = ResidueForm(base.scalar, n1 + n2 * 3, base.denominator, base.residue_vars)
        assert iterated_residue(f12) == \
            iterated_residue(f1) + iterated_residue(f2).scale(3)


def test_nonnegative_degree_vanishes():
    rng = random.Random(9)
    table = zt_table(2, 2)
    for _ in range(20):
        form = random_form(rng, table)
        num = form.numerator
        shift = num.min_degree("z1")
        if shift is None:
            continue
        lifted = ResidueForm(form.scalar,
                             num.mul_monomial(Monomial.of(table, z1=max(0, -shift))),
                             form.denominator, form.residue_vars)
        assert residue_at_zero(lifted, "z1").numerator.is_zero


def test_residue_theorem_cross_check():
    # The residue at z = t_k of f * dz/(z prod(1 - z/t_j)), computed by the
    # simple-pole evaluation formula, is -f(t_k)/prod_{j!=k}(1 - t_k/t_j); the
    # total residue of a rational form vanishes, so the 0-plus-infinity part
    # must equal the negated finite-pole sum.
    rng = random.Random(10)
    for n in (2, 3):
        table = zt_table(1, n)
        one = LaurentPolynomial.one(table)
        for _ in range(8):
            f = random_laurent(rng, table, nterms=3, max_exp=2)
            both = iterated_residue(projective_form(f, n))
            minus_finite = []
            for k in range(n):
                tk = Monomial.of(table, **{f"t{k+1}": 1})
                value = f.substitute({"z1": tk})
                factors = [one - Monomial.of(table, **{f"t{k+1}": 1, f"t{j+1}": -1}).as_polynomial()
                           for j in range(n) if j != k]
                minus_finite.append((value, factors))
            assert factored_rational_sum(minus_finite) == both


def test_scalar_folded():
    table = zt_table(1, 1)
    one = LaurentPolynomial.one(table)
    form = make_form(one, (Monomial.of(table, z1=1, t1=-1),), ("z1",),
                     scalar=rational(3, 2))
    assert iterated_residue(form) == LaurentPolynomial.constant(table, rational(3, 2))


def test_repr_lists_the_fields():
    table = zt_table(1, 1)
    form = projective_form(LaurentPolynomial.one(table), 1)
    assert repr(form).startswith("ResidueForm(scalar=")


# -- the packed integer kernel ---------------------------------------------------


def to_sympy(p: LaurentPolynomial, symbols: dict):
    import sympy
    return sum((sympy.Rational(int(c.numerator), int(c.denominator))
                * sympy.Mul(*(symbols[n] ** e for n, e in zip(p.table.names, k) if e))
                for k, c in p.terms.items()), sympy.Integer(0))


def test_sympy_oracle_one_variable():
    """0-plus-infinity residue of seeded one-variable forms against sympy's
    residues of the rational function (sympy is used here only as an oracle)."""
    sympy = pytest.importorskip("sympy")
    rng = random.Random(31)
    table = zt_table(1, 2)
    symbols = {n: sympy.Symbol(n) for n in table.names}
    z, u = symbols["z1"], sympy.Symbol("u")
    for _ in range(6):
        den = tuple(Monomial.of(table, z1=rng.randint(1, 2), t1=rng.randint(-2, 2),
                                t2=rng.randint(-2, 2)) for _ in range(rng.randint(1, 3)))
        num = random_laurent(rng, table, nterms=3, max_exp=3, rational_coeffs=True)
        form = make_form(num, den, ("z1",), scalar=rational(rng.randint(1, 5), 3))
        integrand = sympy.Rational(int(form.scalar.numerator), int(form.scalar.denominator)) \
            * to_sympy(form.numerator, symbols) \
            / sympy.Mul(*(1 - to_sympy(m.as_polynomial(), symbols) for m in den))
        at_zero = sympy.residue(integrand, z, 0)
        at_infinity = sympy.residue(-integrand.subs(z, 1 / u) / u ** 2, u, 0)
        expected = at_zero + at_infinity
        assert sympy.cancel(to_sympy(iterated_residue(form), symbols) - expected) == 0
        one_sided = residue_at_zero(form, "z1").numerator.scale(form.scalar)
        assert sympy.cancel(to_sympy(one_sided, symbols) - at_zero) == 0


def test_content_factor_matches_integer_numerator():
    table = zt_table(2, 2)
    den = (Monomial.of(table, z1=1, t1=-1), Monomial.of(table, z1=1, t2=1),
           Monomial.of(table, z2=2, t1=1))
    z1, z2 = (LaurentPolynomial.variable(table, v) for v in ("z1", "z2"))
    t1 = LaurentPolynomial.variable(table, "t1")
    num = z1 ** -2 * z2 ** -1 * rational(1, 3) + (z1 * t1) ** -1 * rational(5, 2) - z2 ** 2
    scaled = num.scale(6)
    assert all(type(c) is int for c in scaled.terms.values())
    assert sum(type(c) is Fraction for c in num.terms.values()) == 2
    value = iterated_residue(make_form(num, den, ("z1", "z2")))
    assert not value.is_zero
    assert value.scale(6) == iterated_residue(make_form(scaled, den, ("z1", "z2")))
    for one_side in (residue_at_zero, residue_at_infinity):
        got = one_side(make_form(num, den, ("z1", "z2")), "z1").numerator
        assert got.scale(6) == one_side(make_form(scaled, den, ("z1", "z2")), "z1").numerator


def test_members_shift_one_prepared_form():
    # sum(z^member) * form on one PreparedForm, members narrow and wide, one
    # or several, against the form with the sum multiplied into its numerator
    rng = random.Random(14)
    table = zt_table(2, 2)
    for _ in range(5):
        form = random_form(rng, table)
        prepared = PreparedForm(form)
        for members in ([(1, 0, 0, 0)], [(0, 40, -3, 0), (-2, 1, 0, 0)], [(2, -1, 1, 0)],
                        [(0, 0, 0, 0), (1, 1, 0, 0), (-1, 2, 0, 5)]):
            shifted = LaurentPolynomial(table, dict.fromkeys(members, 1)) * form.numerator
            expected = iterated_residue(ResidueForm(form.scalar, shifted, form.denominator,
                                                    form.residue_vars))
            assert iterated_residue(prepared, members, 3) == expected.scale(3), members
    with pytest.raises(InvariantError, match="not an exponent vector"):
        iterated_residue(prepared, [(1, 0)])


def test_members_whose_terms_cancel_leave_no_zero():
    # with no residue variable the orbit sum is the value: (1 + z1^-1 t1) *
    # (z1 - t1) = z1 - z1^-1 t1^2, its t1 terms cancelled and not kept as 0
    table = zt_table(1, 1)
    z1, t1 = (LaurentPolynomial.variable(table, name) for name in ("z1", "t1"))
    value = iterated_residue(make_form(z1 - t1, (), ()), [(0, 0), (-1, 1)])
    assert value.terms == {(1, 0): 1, (-1, 2): -1}


def test_no_members_is_the_empty_sum():
    # [] is an empty orbit sum, which is 0; only members=None means the form itself
    table = zt_table(1, 1)
    form = make_form(LaurentPolynomial.one(table), (Monomial.of(table, z1=1, t1=-1),), ("z1",))
    assert iterated_residue(form) == LaurentPolynomial.one(table)
    assert iterated_residue(form, []) == LaurentPolynomial.zero(table)
    assert iterated_residue(PreparedForm(form), [], 5) == LaurentPolynomial.zero(table)


def test_wide_exponents_need_no_carry():
    rng = random.Random(12)
    table = zt_table(2, 2)
    wide = Monomial.of(table, t1=70000)
    for _ in range(10):
        form = random_form(rng, table)
        lifted = ResidueForm(form.scalar, form.numerator.mul_monomial(wide),
                             form.denominator, form.residue_vars)
        assert iterated_residue(lifted) == iterated_residue(form).mul_monomial(wide)
        for one_side in (residue_at_zero, residue_at_infinity):
            assert one_side(lifted, "z2").numerator == \
                one_side(form, "z2").numerator.mul_monomial(wide)


def test_coefficients_are_rationals():
    # the coefficient normal form: an int when integral, else a rational
    # whose denominator is not 1
    rng = random.Random(13)
    table = zt_table(2, 2)
    q = type(rational(1, 2))
    for _ in range(10):
        form = random_form(rng, table)
        values = [iterated_residue(form), residue_at_zero(form, "z1").numerator,
                  residue_at_infinity(form, "z2").numerator]
        for value in values:
            assert all(type(c) is int or (type(c) is q and c.denominator != 1)
                       for c in value.terms.values())


def test_unknown_residue_variable_rejected():
    table = zt_table(2, 1)
    form = projective_form(LaurentPolynomial.one(zt_table(1, 1)), 1)
    for one_side in (residue_at_zero, residue_at_infinity):
        with pytest.raises(InvariantError):
            one_side(form, "t1")
    with pytest.raises(InvariantError):
        ResidueForm(1, LaurentPolynomial.one(table), (), ("z3",))
