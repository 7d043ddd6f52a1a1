import itertools
import random
import tracemalloc

import pytest
from hypothesis import assume, given, strategies as st

from eqpush import spaces
from eqpush.algebra import LaurentPolynomial, Monomial, zt_table
from eqpush.characters import bracket
from eqpush.exprparse import parse_to_polynomial
from eqpush.residue import iterated_residue, make_form
from eqpush.spaces import (LocalizationEngine, SpaceDescriptor, SymmetryViolation,
                           _base_tangent, _calc, build_integrand, check_symmetry,
                           localization_pushforward, parse_space,
                           residue_pushforward, symmetry_generators)
from eqpush.verification import random_admissible_class

from conftest import assert_immutable_value
from oracles import factored_rational_sum, fixed_points, symmetry_orbit
from test_acceptance import CLASSICAL_CASES

ALL_SPACES = ["gr:1,2", "gr:1,3", "gr:2,4", "gr2:2,4", "lg:1", "lg:2", "ogE:2",
              "ogO:1", "ogO:2", "fl:1", "fl:2", "fl:3", "q:2", "g2p2", "g2b"]
CHAIN_SPACES = ALL_SPACES + ["lg:3", "ogE:3", "ogO:3", "q:3", "fl:4"]
BASE_POINT_SPACES = CHAIN_SPACES + ["gr:3,6", "gr:2,7", "lg:4", "ogE:4", "q:4"]


def test_parse_space_roundtrip():
    for key in ALL_SPACES + ["gr:2,7", "lg:3", "ogE:4", "ogO:3", "fl:4", "q:3"]:
        assert parse_space(key).key() == key
    with pytest.raises(ValueError):
        parse_space("gr:4,2")
    with pytest.raises(ValueError):
        parse_space("nope:3")
    with pytest.raises(ValueError):
        parse_space("gr:2")
    with pytest.raises(ValueError):
        parse_space("g2p2:1")
    for key in ("gr:2,,4", "gr:2,4,", "gr:,2,4", "lg:3,", "lg:"):
        with pytest.raises(ValueError, match="empty parameter"):
            parse_space(key)


def test_space_descriptor_is_an_immutable_value():
    assert_immutable_value(SpaceDescriptor, "gr", 2, 4)
    assert parse_space("lg:3") == SpaceDescriptor("lg", n=3) != SpaceDescriptor("ogE", n=3)
    assert repr(SpaceDescriptor("gr", 2, 4)) == "SpaceDescriptor(kind='gr', m=2, n=4)"
    assert repr(SpaceDescriptor("g2p2")) == "SpaceDescriptor(kind='g2p2', m=0, n=0)"


@pytest.mark.parametrize("args, message", [
    (("nope", 1, 3), "unknown space kind"),
    (("gr", 2, 2), "1 <= m < n"),
    (("gr2", 0, 3), "1 <= m < n"),
    (("fl", 0, 0), "n >= 1"),
    (("q", 0, 1), "n >= 2"),
])
def test_space_descriptor_rejects_bad_parameters(args, message):
    with pytest.raises(ValueError, match=message):
        SpaceDescriptor(*args)


def test_dimensions():
    expected = {"gr:2,4": 4, "gr2:2,4": 4, "lg:2": 3, "ogE:3": 3, "ogO:2": 3,
                "fl:3": 3, "q:3": 4, "g2p2": 5, "g2b": 6}
    for key, dim in expected.items():
        space = parse_space(key)
        assert space.dimension() == dim
        assert len(_base_tangent(space)) == dim
        assert len(LocalizationEngine(space).steps) == dim


@pytest.mark.parametrize("key", BASE_POINT_SPACES)
def test_base_tangent_matches_enumerated_point(key):
    # the engine's base point is z_i -> t_i; the enumerated fixed point with
    # that substitution has the engine's base tangent, as a multiset
    space = parse_space(key)
    table = space.table()
    engine = LocalizationEngine(space)
    base = {f"z{i + 1}": Monomial.of(table, **{f"t{i + 1}": 1})
            for i in range(space.residue_count())}
    assert engine.base == base
    point = next(p for p in fixed_points(space) if p.subst_map() == base)
    assert sorted(c.exps for c in point.tangent) == \
        sorted(c.exps for c in _base_tangent(space))
    assert len(engine.steps) == space.dimension()


def test_projective_line_points():
    pts = fixed_points(parse_space("gr:1,2"))
    assert len(pts) == 2
    table = zt_table(1, 2)
    by_sub = {p.subst[0][1].render(): p for p in pts}
    # at z1 -> t1 the localization denominator is 1 - t1/t2
    tangent = by_sub["t1"].tangent
    one = LaurentPolynomial.one(table)
    t1_over_t2 = Monomial.of(table, t1=1, t2=-1).as_polynomial()
    assert bracket(tangent) == one - t1_over_t2


def test_lagrangian_point_tangents():
    pts = fixed_points(parse_space("lg:1"))
    tangents = sorted(p.tangent[0].render() for p in pts)
    assert tangents == ["t1^-2", "t1^2"]


def test_quotient_space_identity_bracket():
    pts = fixed_points(parse_space("g2p2"))
    assert len(pts) == 6
    table = zt_table(2, 2)
    one = LaurentPolynomial.one(table)
    t1 = LaurentPolynomial.variable(table, "t1")
    t2 = LaurentPolynomial.variable(table, "t2")
    identity = pts[0]
    assert [m.render() for v, m in identity.subst] == ["t1", "t2"]
    expected = (one - t2) * (one - t2 ** 2 * t1 ** -1) * (one - t1) \
        * (one - t1 ** 2 * t2 ** -1) * (one - t1 * t2)
    assert bracket(identity.tangent) == expected


def test_borel_space_has_twelve_points():
    pts = fixed_points(parse_space("g2b"))
    assert len(pts) == 12
    assert len({tuple(m.exps for _, m in p.subst) for p in pts}) == 12


def test_prop_values_on_projective_line():
    space = parse_space("gr:1,2")
    table = space.table()
    f = LaurentPolynomial.variable(table, "z1", -1)
    expected = LaurentPolynomial.variable(table, "t1", -1) \
        + LaurentPolynomial.variable(table, "t2", -1)
    assert localization_pushforward(space, f) == expected
    assert residue_pushforward(space, f, "full") == expected
    assert residue_pushforward(space, f, "compact") == expected
    z = LaurentPolynomial.variable(table, "z1")
    assert localization_pushforward(space, z).is_zero
    assert residue_pushforward(space, z).is_zero


def test_euler_characteristic():
    # the structure sheaf pushes to 1, except on the two-component even
    # orthogonal Grassmannian where it pushes to 2
    for key in ALL_SPACES:
        space = parse_space(key)
        one = LaurentPolynomial.one(space.table())
        expected = 2 if space.kind == "ogE" else 1
        loc = localization_pushforward(space, one)
        assert loc == LaurentPolynomial.constant(space.table(), expected), key
        for variant in space.variants():
            assert residue_pushforward(space, one, variant) == loc, (key, variant)


def test_symmetry_enforced():
    space = parse_space("gr:2,4")
    f = LaurentPolynomial.variable(space.table(), "z1")
    with pytest.raises(SymmetryViolation):
        localization_pushforward(space, f)
    with pytest.raises(SymmetryViolation):
        residue_pushforward(space, f)
    check_symmetry(space, f + LaurentPolynomial.variable(space.table(), "z2"))


def test_quadric_symmetry_rules():
    space = parse_space("q:3")
    table = space.table()
    z2 = LaurentPolynomial.variable(table, "z2")
    z3 = LaurentPolynomial.variable(table, "z3")
    # symmetric and inversion-invariant in z2, z3; z1 free
    good = (z2 + z2 ** -1) * (z3 + z3 ** -1) + LaurentPolynomial.variable(table, "z1")
    check_symmetry(space, good)
    with pytest.raises(SymmetryViolation):
        check_symmetry(space, z2)


@pytest.mark.parametrize("key", BASE_POINT_SPACES)
def test_orbit_classes_match_generator_walk(key):
    # every z-exponent vector in the box: its sorted class is the largest
    # member of the orbit the generators walk, and the orbit sum of that
    # class has exactly the orbit as support
    space = parse_space(key)
    calc = _calc(space)
    m = space.residue_count()
    pad = (0,) * (len(calc.table) - m)
    covered = set()
    for zexps in itertools.product(range(-2, 3), repeat=m):
        if zexps in covered:
            continue
        orbit = symmetry_orbit(space, zexps)
        top = max(orbit)
        assert {calc.canonical(e) for e in orbit} == {top}
        assert set(calc.orbit_sum(top).terms) == {e + pad for e in orbit}
        assert calc.orbit_size(top) == len(orbit)
        covered |= orbit


def test_symmetry_generators_keep_their_order():
    def swap(table, i, j):
        return {f"z{i}": Monomial.of(table, **{f"z{j}": 1}),
                f"z{j}": Monomial.of(table, **{f"z{i}": 1})}

    gr2 = parse_space("gr2:2,5").table()
    assert symmetry_generators(parse_space("gr2:2,5")) == \
        [swap(gr2, 1, 2), swap(gr2, 3, 4), swap(gr2, 4, 5)]
    q = parse_space("q:4").table()
    assert symmetry_generators(parse_space("q:4")) == \
        [swap(q, 2, 3), swap(q, 3, 4), {"z2": Monomial.of(q, z2=-1)}]
    g2p2 = parse_space("g2p2").table()
    assert symmetry_generators(parse_space("g2p2")) == [swap(g2p2, 1, 2)]


SYMMETRIC_SPACES = ["gr:2,4", "gr:3,6", "gr2:2,4", "lg:3", "ogE:3", "ogO:2", "q:2", "q:3",
                    "g2p2"]


@st.composite
def admissible_classes(draw, keys):
    """(space, f): f a sum of orbit classes times small t-polynomials."""
    space = parse_space(draw(st.sampled_from(keys)))
    calc = _calc(space)
    m = space.residue_count()
    tpart = st.tuples(*[st.integers(-1, 1)] * space.parameter_count())
    f = LaurentPolynomial.zero(calc.table)
    for _ in range(draw(st.integers(1, 3))):
        canon = calc.canonical(draw(st.tuples(*[st.integers(-2, 2)] * m)))
        coeff = draw(st.dictionaries(tpart, st.integers(-3, 3).filter(bool),
                                     min_size=1, max_size=2))
        f = f + calc.orbit_sum(canon) * LaurentPolynomial(
            calc.table, {(0,) * m + t: c for t, c in coeff.items()})
    return space, f


@given(admissible_classes(SYMMETRIC_SPACES + ["fl:3", "g2b"]))
def test_decompose_round_trips(case):
    space, f = case
    calc = _calc(space)
    total = LaurentPolynomial.zero(f.table)
    for canon, coeff in calc.decompose(f).items():
        total = total + coeff * calc.orbit_sum(canon)
    assert total == f


@given(admissible_classes(SYMMETRIC_SPACES), st.data())
def test_check_symmetry_rejects_one_broken_orbit(case, data):
    space, f = case
    calc = _calc(space)
    m = space.residue_count()

    def in_larger_orbit(key):
        return calc.orbit_size(calc.canonical(key[:m])) > 1

    members = sorted(key for key in f.terms if in_larger_orbit(key))
    assume(members)
    key = data.draw(st.sampled_from(members))
    member = LaurentPolynomial(f.table, {key: f.terms[key]})
    outside = data.draw(st.tuples(*[st.integers(-2, 2)] * len(f.table))
                        .filter(lambda k: k not in f.terms and in_larger_orbit(k)))
    check_symmetry(space, f)
    # drop one member, change one member's coefficient, add one monomial
    for broken in (f - member, f + member, f + LaurentPolynomial(f.table, {outside: 1})):
        with pytest.raises(SymmetryViolation):
            check_symmetry(space, broken)


def test_decompose_needs_leading_class_variables():
    # orbit classes are read off the leading variables of the class's table
    space = parse_space("g2p2")
    f = LaurentPolynomial.variable(space.table(), "t1")
    assert set(_calc(space).decompose(f, ("z1", "z2"))) == {(0, 0)}
    with pytest.raises(ValueError):
        _calc(space).decompose(f, ("t1", "t2"))


def test_variant_validation():
    with pytest.raises(ValueError):
        residue_pushforward(parse_space("lg:2"),
                            LaurentPolynomial.one(zt_table(2, 2)), "compact")


def test_compact_integrand_shape():
    space = parse_space("gr:2,7")
    table = space.table()
    one = LaurentPolynomial.one(space.table())
    form = build_integrand(space, one, "compact")
    assert form.scalar == 1
    assert len(form.denominator) == 14
    # numerator is (1 - z2/z1) times the absorbed measure 1/(z1 z2)
    expected = (one - Monomial.of(table, z2=1, z1=-1).as_polynomial())
    expected = expected.mul_monomial(Monomial.of(table, z1=-1, z2=-1))
    assert form.numerator == expected


def test_odd_orthogonal_integrand_denominators():
    space = parse_space("ogO:1")
    one = LaurentPolynomial.one(space.table())
    form = build_integrand(space, one, "full")
    rendered = sorted(m.render() for m in form.denominator)
    assert rendered == ["z1", "z1*t1", "z1*t1^-1"]


def test_quotient_integrand_denominators():
    space = parse_space("g2p2")
    one = LaurentPolynomial.one(space.table())
    form = build_integrand(space, one)
    assert len(form.denominator) == 14
    assert form.scalar == 1


# the criterion-5 spaces and the two largest isotropic Grassmannians
RESIDUE_SPACES = [key for key, _ in CLASSICAL_CASES] + ["lg:4", "ogE:4"]
RESIDUE_PAIRS = [(key, variant) for key in RESIDUE_SPACES + ["g2p2"]
                 for variant in parse_space(key).variants()]


@pytest.mark.parametrize("key, variant", RESIDUE_PAIRS)
def test_residue_pushforward_matches_integrand(key, variant):
    # build_integrand multiplies the whole orbit sum into the base numerator;
    # residue_pushforward may take one orbit member per class instead
    space = parse_space(key)
    rng = random.Random(f"integrand:{key}:{variant}")
    trials, max_exp = (2, 1) if key in ("lg:4", "ogE:4") else (3, 2)
    for _ in range(trials):
        f = random_admissible_class(space, rng, max_exp=max_exp)
        assert residue_pushforward(space, f, variant) == \
            iterated_residue(build_integrand(space, f, variant))


def test_which_integrands_take_one_orbit_member():
    # The base numerator of a compact Grassmannian (pos_roots), of q and of
    # g2p2 is not symmetric, and q's inversion also moves the factors and
    # the measure.  fl has no symmetry and gr:1,n permutes one z, so their
    # orbits have one member and both ways build the same numerator.
    orbit_sum = {("gr:2,4", "compact"), ("gr:2,5", "compact"), ("gr:3,6", "compact"),
                 ("gr2:2,4", "compact"), ("q:2", "full"), ("q:3", "full"),
                 ("g2p2", "full")}
    for key, variant in RESIDUE_PAIRS:
        assert spaces._integrand_symmetric(parse_space(key), variant) == \
            ((key, variant) not in orbit_sum), (key, variant)


@pytest.mark.parametrize("part", ["base", "denominator"])
def test_asymmetric_integrand_falls_back_to_the_orbit_sum(monkeypatch, part):
    # one base term, or the factor 1 - z1/t1, removed from the lg:2 integrand
    space = parse_space("lg:2")
    scalar, base, denominator, zvars = spaces._integrand_parts(space, "full")
    if part == "base":
        dropped = max(k for k in base.terms if k[0] != k[1])
        base = LaurentPolynomial(base.table, {k: c for k, c in base.terms.items()
                                              if k != dropped})
    else:
        denominator = denominator[1:]
    monkeypatch.setattr(spaces, "_integrand_parts",
                        lambda s, v: (scalar, base, denominator, zvars))
    spaces._integrand_symmetric.cache_clear()
    try:
        assert not spaces._integrand_symmetric(space, "full")
        calc = spaces._SpaceCalc(space)
        differs = False
        for canon in [(1, 0), (2, -1), (1, 1), (0, -2)]:
            value = calc.res_class_value(canon, "full")
            assert value == iterated_residue(build_integrand(space, calc.orbit_sum(canon)))
            one_member = base.mul_monomial(Monomial(calc.table, canon[::-1] + (0, 0)))
            differs |= value != iterated_residue(make_form(
                one_member, denominator, zvars, scalar=scalar * calc.orbit_size(canon)))
        assert differs  # one orbit member would have given a wrong value
    finally:
        spaces._integrand_symmetric.cache_clear()


def _traced_peak(compute):
    """(compute(), the peak bytes allocated while it ran)."""
    tracemalloc.start()
    try:
        value = compute()
        return value, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_residue_path_is_linear_in_a_monomial_power():
    # z1^N on P^1: the residue at infinity expands two geometric series from
    # degree -N.  Filling every degree with the last one builds ~N^2/2 layer
    # entries (150 MB at N = 2000, 190 times the chain's peak); taking only
    # its v^-1 coefficient builds ~N, like the chain.
    space = parse_space("gr:1,2")
    table = space.table()
    calc = spaces._SpaceCalc(space)  # no cached class values
    f = LaurentPolynomial.variable(table, "z1", 2000)
    loc, loc_peak = _traced_peak(lambda: calc.pushforward(f, calc.loc_class_value))
    res, res_peak = _traced_peak(
        lambda: calc.pushforward(f, lambda canon: calc.res_class_value(canon, "full")))
    assert res == loc and len(loc) == 1999
    assert res_peak < 4 * loc_peak, (res_peak, loc_peak)
    for text in ("z1^20000", "(1+z1)^64 + z1^100000"):
        f = parse_to_polynomial(text, table)
        assert residue_pushforward(space, f) == localization_pushforward(space, f), text


def test_two_set_pushforward_quotient_bundle():
    # the sum of the second-block variables pushes to the full character sum
    space = parse_space("gr2:1,2")
    table = space.table()
    f = LaurentPolynomial.variable(table, "z2")
    expected = LaurentPolynomial.variable(table, "t1") \
        + LaurentPolynomial.variable(table, "t2")
    assert localization_pushforward(space, f) == expected
    assert residue_pushforward(space, f, "full") == expected
    assert residue_pushforward(space, f, "compact") == expected


def test_two_set_matches_plain_grassmannian_on_first_block():
    # classes depending only on the first block push forward identically
    # through the plain and two-set machineries
    plain = parse_space("gr:2,4")
    two = parse_space("gr2:2,4")
    tp, tt = plain.table(), two.table()
    f_plain = (LaurentPolynomial.variable(tp, "z1", -1)
               + LaurentPolynomial.variable(tp, "z2", -1)) ** 2
    f_two = (LaurentPolynomial.variable(tt, "z1", -1)
             + LaurentPolynomial.variable(tt, "z2", -1)) ** 2
    assert localization_pushforward(two, f_two) == \
        localization_pushforward(plain, f_plain).transport(tt)
    assert residue_pushforward(two, f_two, "full") == \
        residue_pushforward(plain, f_plain, "full").transport(tt)


def flat_fixed_point_sum(space, f):
    """The literal sum of f(point)/bracket(tangent) over every fixed point."""
    one = LaurentPolynomial.one(space.table())
    return factored_rational_sum(
        (f.substitute_monomials(p.subst_map(), partial=True),
         [one - c.inverse().as_polynomial() for c in p.tangent])
        for p in fixed_points(space))


@pytest.mark.parametrize("key", CHAIN_SPACES)
def test_demazure_chain_matches_flat_fixed_point_sum(key):
    space = parse_space(key)
    rng = random.Random(f"flat:{key}")
    for _ in range(3):
        f = random_admissible_class(space, rng, max_exp=2)
        assert localization_pushforward(space, f) == flat_fixed_point_sum(space, f)
