import itertools
import random
import tracemalloc
from functools import lru_cache, partial

import pytest
from hypothesis import assume, given, strategies as st

from eqpush import algebra, cohomology, g2, spaces
from eqpush.algebra import (LaurentPolynomial, MixedVariableTables, Monomial,
                            parameter_table, zt_table)
from eqpush.characters import bracket
from eqpush.exprparse import parse_to_polynomial
from eqpush.residue import PreparedForm, iterated_residue
from eqpush.spaces import (LocalizationEngine, SpaceDescriptor, SymmetryViolation,
                           _calc, _weyl_data, check_symmetry,
                           localization_pushforward, parse_space,
                           residue_pushforward, symmetry_generators)
from eqpush.verification import random_admissible_class

from conftest import assert_immutable_value
from oracles import (build_integrand, cut_ambient_value, expanded_integrand_symmetric,
                     factored_rational_sum, fixed_points, printed_class_value,
                     orthogonal_character, schur_character, symmetry_orbit,
                     symplectic_character)
from test_acceptance import CLASSICAL_CASES, partitions_with_parts_at_most

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


@pytest.mark.parametrize("key, param", [("lg:1_0", "1_0"), ("gr:\u0662,4", "\u0662"),
                                        ("gr:+1,3", "+1"), ("lg:x", "x"), ("q:-2", "-2")],
                         ids=["underscore", "arabic-indic-two", "plus-sign", "letter",
                              "minus-sign"])
def test_parse_space_takes_only_ascii_digits(key, param):
    # int() reads the first three as lg:10, gr:2,4 and gr:1,3
    with pytest.raises(ValueError) as err:
        parse_space(key)
    assert str(err.value) == f"parameter {param!r} of {key!r} is not a run of ASCII digits"


@pytest.mark.parametrize("key, message", [("lg:2,3", "lg takes one parameter"),
                                          ("fl:3,4", "fl takes one parameter")])
def test_parse_space_rejects_a_wrong_parameter_count(key, message):
    with pytest.raises(ValueError, match=message):
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
    # a parameter the kind does not read would make a second calculator for lg:3, g2p2
    (("lg", 2, 3), r"^lg takes one parameter, got m=2, n=3$"),
    (("g2p2", 1, 5), r"^g2p2 takes no parameters, got m=1, n=5$"),
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
        assert len(_weyl_data(space)[0]) == dim
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
        sorted(c.exps for c in _weyl_data(space)[0])
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
    assert bracket(tangent, table) == one - t1_over_t2


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
    assert bracket(identity.tangent, table) == expected


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
    # member of the orbit the generators walk, the orbit list of that class
    # holds each member once (its length is decompose's orbit size), and the
    # orbit sum has exactly the orbit as support
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
        assert sorted(calc.orbit(top)) == sorted(e + pad for e in orbit)
        assert set(calc.orbit_sum(top).terms) == {e + pad for e in orbit}
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
        return len(calc.orbit(calc.canonical(key[:m]))) > 1

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


def test_a_class_over_the_wrong_table_is_refused():
    # the class variables are the leading variables of the class's table, so
    # a class over another table meets class values it cannot be added to
    space = parse_space("g2p2")
    assert set(_calc(space).decompose(LaurentPolynomial.variable(space.table(), "t1"))) == {(0, 0)}
    x1, x2 = (LaurentPolynomial.variable(cohomology.coh_table(), x) for x in ("x1", "x2"))
    z1, z2 = (LaurentPolynomial.variable(space.table(), z) for z in ("z1", "z2"))
    for push, f in [(g2.ambient_pushforward, x1 * x2), (cohomology.g2_integral, z1 * z2),
                    (cohomology.gr27_integral, z1 * z2)]:
        with pytest.raises(MixedVariableTables):
            push(f)


def test_variant_validation():
    # the zero class has no orbit class, so the check must come before the work
    for f in (LaurentPolynomial.one(zt_table(2, 2)), LaurentPolynomial.zero(zt_table(2, 2))):
        with pytest.raises(ValueError):
            residue_pushforward(parse_space("lg:2"), f, "compact")


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
    for _ in range(3):
        f = random_admissible_class(space, rng, max_exp=2)
        assert residue_pushforward(space, f, variant) == \
            iterated_residue(build_integrand(space, f, variant))


# every criterion-5 (lg, ogE or ogO, variant) pair with its box, and rank 4
PRINTED_PAIRS = [(key, variant, max_exp) for key, max_exp in CLASSICAL_CASES
                 + [("lg:4", 1), ("ogE:4", 1), ("ogO:4", 1)]
                 if key.split(":")[0] in ("lg", "ogE", "ogO")
                 for variant in parse_space(key).variants()]


@pytest.mark.parametrize("key, variant, max_exp", PRINTED_PAIRS)
def test_positive_roots_give_the_residue_of_the_printed_integrand(key, variant, max_exp):
    # the paper prints bracket(roots(z)) / n!; the integrand takes
    # bracket(pos_roots(z)) with scalar 1, which only symmetrizing equates
    space = parse_space(key)
    rng = random.Random(f"printed:{key}:{variant}")
    values = []
    for _ in range(3):
        f = random_admissible_class(space, rng, max_exp=max_exp)
        values.append(residue_pushforward(space, f, variant))
        assert values[-1] == _calc(space).pushforward(
            f, lambda canon: printed_class_value(space, canon, variant))
    assert not all(value.is_zero for value in values)


@pytest.mark.parametrize("key, variant", [("lg:5", "full"), ("ogE:5", "full"),
                                          ("ogO:5", "full"), ("ogO:5", "compact")])
def test_rank_5_residue_matches_localization(key, variant):
    space = parse_space(key)
    f = random_admissible_class(space, random.Random(7), max_exp=1)
    value = localization_pushforward(space, f)
    assert not value.is_zero
    assert residue_pushforward(space, f, variant) == value


def known_pushforwards(space) -> list:
    """(class, push-forward to a point) pairs that representation theory
    gives: the unit goes to 1, or 2 on ogE (one per component); sum 1/z_i goes
    to the standard representation; and sum z_i goes to its dual on fl, to -1
    on ogO and to 0 on gr, lg and ogE.  Only the unit on q."""
    table, kind = space.table(), space.kind
    zero, one = LaurentPolynomial.zero(table), LaurentPolynomial.one(table)

    def total(name, count, *powers):
        return sum((LaurentPolynomial.variable(table, f"{name}{i}", k)
                    for i in range(1, count + 1) for k in powers), zero)

    pairs = [(one, one.scale(2 if kind == "ogE" else 1))]
    if kind == "q":
        return pairs
    m, n = space.residue_count(), space.parameter_count()
    standard = {"gr": total("t", n, -1), "fl": total("t", n, -1), "lg": total("t", n, 1, -1),
                "ogE": total("t", n, 1, -1).scale(2), "ogO": one + total("t", n, 1, -1)}
    dual = {"gr": zero, "fl": total("t", n, 1), "lg": zero, "ogE": zero, "ogO": -one}
    return pairs + [(total("z", m, -1), standard[kind]), (total("z", m, 1), dual[kind])]


def test_unit_and_standard_classes_push_to_known_characters():
    # by localization on every space of rank 2 to 6 (rank 1 is left out:
    # ogE:1 is two points, on which the standard values do not hold), and by
    # every residue variant on one space of each kind up to rank 5
    keys = ([f"gr:{m},{n}" for n in range(2, 7) for m in range(1, n)]
            + [f"{kind}:{n}" for kind in ("fl", "lg", "ogE", "ogO", "q") for n in range(2, 7)])
    for key in keys:
        space = parse_space(key)
        for f, value in known_pushforwards(space):
            assert localization_pushforward(space, f) == value, key
    for key in ("lg:5", "ogE:5", "ogO:5", "gr:3,6", "fl:3", "q:3"):
        space = parse_space(key)
        for variant in space.variants():
            for f, value in known_pushforwards(space):
                assert residue_pushforward(space, f, variant) == value, (key, variant)


@lru_cache(maxsize=None)
def inverse_schur(lam: tuple, letter: str, k: int) -> LaurentPolynomial:
    """s_lam(1/x_1..1/x_k) for x = letter, over a table of x1..xk alone."""
    table = parameter_table(*(f"{letter}{i + 1}" for i in range(k)))
    return schur_character(lam, [Monomial.of(table, **{name: -1}) for name in table.names])


def test_schur_classes_push_to_schur_characters():
    # Borel-Weil: pi_*(s_lam(1/z_1..1/z_m)) = s_lam(1/t_1..1/t_n) on gr:m,n
    # for lam in the m x 3 box, by localization up to n = 6 and by every
    # residue variant on gr:2,4 and gr:3,6.  On n = 6 the box keeps at most
    # 3 rows: each six-variable bialternant takes about 25 ms, and the 3 x 3
    # box has 20 of the 56 partitions of the 5 x 3 box.
    for n in range(2, 7):
        for m in range(1, n):
            space = parse_space(f"gr:{m},{n}")
            table = space.table()
            paths = [localization_pushforward]
            if (m, n) in ((2, 4), (3, 6)):
                paths += [partial(residue_pushforward, variant=variant)
                          for variant in space.variants()]
            for lam in partitions_with_parts_at_most(3, m if n < 6 else min(m, 3)):
                f = inverse_schur(lam, "z", m).substitute({}, table)
                expected = inverse_schur(lam, "t", n).substitute({}, table)
                for path in paths:
                    assert path(space, f) == expected, (space.key(), lam, path)


def test_bott_vanishing_on_projective_spaces():
    # pi_*(z1^k) = 0 on gr:1,n for 1 <= k <= n - 1: O(-k) on P^(n-1) has
    # no cohomology
    for n in range(2, 7):
        space = parse_space(f"gr:1,{n}")
        for k in range(1, n):
            f = LaurentPolynomial.variable(space.table(), "z1", k)
            assert localization_pushforward(space, f).is_zero, (n, k)
            for variant in space.variants():
                assert residue_pushforward(space, f, variant).is_zero, (n, k, variant)


def check_schur_classes_against(kind, character):
    """pi_*(s_lam(1/z_1..1/z_n)) == character(n, lam) on kind:n for lam in
    the n x 2 box, by localization on ranks 2 to 4 and by every residue
    variant on ranks 2 and 3."""
    for n in range(2, 5):
        space = parse_space(f"{kind}:{n}")
        table = space.table()
        paths = [localization_pushforward]
        if n < 4:
            paths += [partial(residue_pushforward, variant=variant)
                      for variant in space.variants()]
        for lam in partitions_with_parts_at_most(2, n):
            f = inverse_schur(lam, "z", n).substitute({}, table)
            expected = character(n, lam).substitute({}, table)
            for path in paths:
                assert path(space, f) == expected, (space.key(), lam, path)


def test_schur_classes_push_to_symplectic_characters():
    # Borel-Weil in type C: on lg:n the push-forward is the character of
    # Sp(2n) of highest weight lam
    check_schur_classes_against("lg", symplectic_character)


def test_schur_classes_push_to_orthogonal_characters():
    # Borel-Weil in types B and D: on ogO:n the SO(2n+1) character, on ogE:n
    # the SO(2n) one plus its image under t_n -> 1/t_n.  A wrong ogO flip
    # root or ogE type-D reflection fails it.
    for kind in ("ogO", "ogE"):
        check_schur_classes_against(kind, partial(orthogonal_character, kind))


WEYL_SPACES = ([f"{k}:{m},{n}" for k in ("gr", "gr2") for n in range(2, 7) for m in range(1, n)]
               + [f"{k}:{n}" for k in ("lg", "ogE", "ogO", "fl") for n in range(1, 7)]
               + [f"q:{n}" for n in range(2, 7)] + ["g2p2", "g2b"])


def test_weyl_data_reflections_invert_their_roots():
    # the contract of _weyl_data: each substitution s maps its simple root a
    # to 1/a and is an involution on the t's, on every kind up to rank 6
    for key in WEYL_SPACES:
        space = parse_space(key)
        table = space.table()
        ts = [Monomial.of(table, **{name: 1}) for name in table.names if name[0] == "t"]
        reflections = _weyl_data(space)[1]
        assert reflections or space.dimension() == 0, key
        for s, a in reflections:
            assert a.substitute(s) == a.inverse(), (key, a.render())
            assert all(t.substitute(s).substitute(s) == t for t in ts), (key, a.render())


@pytest.mark.parametrize("key, variant, canons", [
    ("gr:1,2", "full", [(2,), (60,), (3,), (-5,)]),
    ("lg:3", "full", [(1, 0, 0), (9, 0, -9), (1, 1, -1)]),
    ("q:3", "full", [(1, 1, 0), (0, 6, 5), (2, 1, 0)]),
    ("gr:2,4", "compact", [(1, 0), (7, -7), (1, -1)]),
])
def test_prepared_integrand_keeps_the_widest_packing(monkeypatch, key, variant, canons):
    # The second class needs a wider digit than the first and repacks the
    # base; the narrower ones after it reuse that packing.  lg:3, q:3 and
    # the compact gr:2,4 sum every orbit member on packed keys.  The
    # integrand is prepared once for all the classes.
    built = []

    def counting(*args):
        built.append(args)
        return PreparedForm(*args)

    monkeypatch.setattr(spaces, "PreparedForm", counting)
    space = parse_space(key)
    calc = spaces._SpaceCalc(space)
    packings = []
    for canon in canons:
        assert calc.res_class_value(canon, variant) == \
            iterated_residue(build_integrand(space, calc.orbit_sum(canon), variant)), canon
        packings.append(calc.integrand(variant).packing)
    assert packings[1].masks[0] > packings[0].masks[0]
    assert all(p is packings[1] for p in packings[2:])
    assert len(built) == 1


def test_which_integrands_take_one_orbit_member():
    # The base numerator of a compact Grassmannian, of lg, ogE and ogO
    # (pos_roots), of q and of g2p2 is not symmetric, and q's inversion also
    # moves the factors and the measure.  fl has no symmetry and gr:1,n and
    # ogO:1 permute one z, so their orbits have one member and both ways
    # build the same numerator.
    orbit_sum = {("gr:2,4", "compact"), ("gr:2,5", "compact"), ("gr:3,6", "compact"),
                 ("gr2:2,4", "compact"), ("q:2", "full"), ("q:3", "full"),
                 ("g2p2", "full")}
    orbit_sum |= {(key, variant) for key, variant in RESIDUE_PAIRS
                  if key.split(":")[0] in ("lg", "ogE", "ogO") and key != "ogO:1"}
    for key, variant in RESIDUE_PAIRS:
        assert spaces._integrand_symmetric(parse_space(key), variant) == \
            ((key, variant) not in orbit_sum), (key, variant)


@pytest.mark.parametrize("key, variant", RESIDUE_PAIRS + [
    ("ogO:4", "full"), ("ogO:4", "compact"), ("q:4", "full"), ("gr2:2,5", "full"),
    ("gr2:2,5", "compact"), ("gr:2,7", "full"), ("gr:2,7", "compact"), ("g2b", "full")])
def test_symmetry_decision_matches_the_expanded_integrand(key, variant):
    space = parse_space(key)
    assert spaces._integrand_symmetric(space, variant) == \
        expanded_integrand_symmetric(space, variant)


def test_no_symmetry_decision_expands_a_base(monkeypatch):
    def refuse(*args):
        raise AssertionError("the symmetry decision expanded or checked a polynomial")

    monkeypatch.setattr(spaces, "bracket", refuse)
    monkeypatch.setattr(spaces, "check_symmetry", refuse)
    monkeypatch.setattr(spaces._SpaceCalc, "decompose", refuse)
    spaces._integrand_parts.cache_clear()
    spaces._integrand_symmetric.cache_clear()
    try:
        for key, variant, symmetric in [
                ("lg:5", "full", False), ("ogE:5", "full", False), ("ogO:5", "full", False),
                ("ogO:5", "compact", False), ("gr2:3,6", "full", True), ("q:4", "full", False),
                ("g2p2", "full", False)]:
            assert spaces._integrand_symmetric(parse_space(key), variant) == symmetric, key
    finally:
        spaces._integrand_parts.cache_clear()
        spaces._integrand_symmetric.cache_clear()


@pytest.mark.parametrize("key, change", [("gr:2,4", "weight"), ("gr:2,4", "extra"),
                                         ("q:2", "inversion")])
def test_asymmetric_integrand_falls_back_to_the_orbit_sum(monkeypatch, key, change):
    # the weight z1/z2 dropped from the symmetric full gr:2,4 integrand, or a
    # lone extra factor 1 + z1; or q:2 with no weights and no extras, whose
    # multisets z2 -> 1/z2 keeps, but which the inversion moves all the same
    # (denominator, measure)
    space = parse_space(key)
    table = space.table()
    scalar, weights, extras, ambient = spaces._integrand_parts(space, "full")
    if change == "weight":
        weights = tuple(a for a in weights if a != Monomial.of(table, z1=1, z2=-1))
    elif change == "extra":
        extras = (LaurentPolynomial.one(table) + LaurentPolynomial.variable(table, "z1"),)
    else:
        weights, extras = (), ()
    parts = (scalar, weights, extras, ambient)
    monkeypatch.setattr(spaces, "_integrand_parts", lambda s, v: parts)
    spaces._integrand_symmetric.cache_clear()
    try:
        assert not spaces._integrand_symmetric(space, "full")
        calc = spaces._SpaceCalc(space)
        form = spaces._integrand_form(parts, 2)
        differs = False
        for canon in [(1, 0), (2, -1), (1, 1), (0, -2)]:
            canon = calc.canonical(canon)
            value = calc.res_class_value(canon, "full")
            assert value == iterated_residue(build_integrand(space, calc.orbit_sum(canon)))
            members = calc.orbit(canon)
            differs |= value != iterated_residue(form, [min(members)], len(members))
        assert differs  # one orbit member would have given a wrong value
    finally:
        spaces._integrand_symmetric.cache_clear()


@lru_cache(maxsize=None)
def _seeded_orbits(key: str, variant: str) -> tuple:
    """(the prepared-once integrand form, the orbits of a seeded class)."""
    space = parse_space(key)
    calc = _calc(space)
    f = random_admissible_class(space, random.Random(f"order:{key}"), max_exp=2)
    form = spaces._integrand_form(spaces._integrand_parts(space, variant), calc.m)
    return form, [calc.orbit(canon) for canon in sorted(calc.decompose(f))]


@pytest.mark.parametrize("key, variant", [("q:3", "full"), ("gr2:2,4", "compact"),
                                          ("lg:3", "full")])
@given(st.data())
def test_the_residue_order_does_not_change_the_value(key, variant, data):
    form, orbits = _seeded_orbits(key, variant)
    members = data.draw(st.sampled_from(orbits))
    order = tuple(data.draw(st.permutations(form.residue_vars)))
    assert iterated_residue(PreparedForm(form, order), members) == \
        iterated_residue(PreparedForm(form), members)


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
        localization_pushforward(plain, f_plain).substitute({}, tt)
    assert residue_pushforward(two, f_two, "full") == \
        residue_pushforward(plain, f_plain, "full").substitute({}, tt)


def flat_fixed_point_sum(space, f):
    """The literal sum of f(point)/bracket(tangent) over every fixed point."""
    one = LaurentPolynomial.one(space.table())
    return factored_rational_sum(
        (f.substitute(p.subst_map()),
         [one - c.inverse().as_polynomial() for c in p.tangent])
        for p in fixed_points(space))


@pytest.mark.parametrize("key", CHAIN_SPACES)
def test_demazure_chain_matches_flat_fixed_point_sum(key):
    space = parse_space(key)
    rng = random.Random(f"flat:{key}")
    for _ in range(3):
        f = random_admissible_class(space, rng, max_exp=2)
        assert localization_pushforward(space, f) == flat_fixed_point_sum(space, f)


def euler_cut(space):
    """The ambient Grassmannian of an lg, ogE, ogO or q space, the Euler class
    cutting the space out of it and the torus restriction t_(n+i) -> 1/t_i
    (and t_(2n+1) -> 1): prod_(i<j) (1 - z_i z_j) in gr:n,2n for lg, the
    same over i <= j for ogE (both components) and in gr:n,2n+1 for ogO,
    and 1 - z1^2 in gr:1,2n for q."""
    k, n, table = space.kind, space.n, space.table()
    ambient = SpaceDescriptor("gr", 1 if k == "q" else n, 2 * n + (k == "ogO"))
    one = LaurentPolynomial.one(ambient.table())
    z = [LaurentPolynomial.variable(ambient.table(), f"z{i + 1}") for i in range(ambient.m)]
    pairs = itertools.combinations if k == "lg" else itertools.combinations_with_replacement
    cut = one
    for a, b in pairs(z, 2):
        cut = cut * (one - a * b)
    images = {f"t{n + i + 1}": Monomial.of(table, **{f"t{i + 1}": -1}) for i in range(n)}
    if k == "ogO":
        images[f"t{2 * n + 1}"] = Monomial.one(table)
    return ambient, cut, images


def cut_classes(space):
    """Classes in z1 on q, z1^a (1 + t2); three seeded orbit-sum classes
    times 1 + t1 elsewhere."""
    table = space.table()
    if space.kind == "q":
        return [LaurentPolynomial(table, {(a,) + (0,) * (len(table) - 1): 1})
                * (1 + LaurentPolynomial.variable(table, "t2")) for a in (-3, -1, 0, 2, 4, 7)]
    rng = random.Random(f"cut:{space.key()}")
    return [random_admissible_class(space, rng, max_exp=2)
            * (1 + LaurentPolynomial.variable(table, "t1")) for _ in range(3)]


@pytest.mark.parametrize("key", ["lg:2", "lg:3", "lg:4", "ogE:2", "ogE:3", "ogO:2", "ogO:3",
                                 "q:2", "q:3", "q:4"])
def test_chain_matches_the_cut_ambient_grassmannian(key):
    # the paper's derivation: each space is the zero locus of an Euler class
    # on a type-A Grassmannian, whose own chain then gives a third path
    space = parse_space(key)
    ambient, cut, images = euler_cut(space)
    values = []
    for f in cut_classes(space):
        values.append(localization_pushforward(space, f))
        assert values[-1] == cut_ambient_value(ambient, f, cut, images), f
    assert any(not value.is_zero for value in values)


@pytest.mark.parametrize("key", CHAIN_SPACES + ["gr:2,7"])
def test_every_chain_step_divides_by_a_binomial(key, monkeypatch):
    # The chains divide by running sums; the heap division of longer divisors
    # must not be reached.  An additive divisor is log a_i, a linear form of
    # two terms, except where a_i is a power of one t: the sign reflection
    # t_n -> 1/t_n of lg and ogO.
    space = parse_space(key)
    engine = LocalizationEngine(space)
    assert [len(d.terms) for _, _, d in engine.steps] == [2] * len(engine.steps)
    powers = [sum(1 for e in a_inv.exps if e) == 1 for _, a_inv, _ in engine.steps]
    _, additive_steps, _ = engine.additive
    assert [len(d.terms) for _, _, d in additive_steps] == [1 if p else 2 for p in powers]
    assert not any(powers) or space.kind in ("lg", "ogO")

    def heap(*args):
        raise AssertionError("a chain step reached the heap division")

    monkeypatch.setattr(algebra, "_divide_heap", heap)
    engine.sum_values(random_admissible_class(space, random.Random(f"binomial:{key}"), 2))
    if not any(powers):  # a class in the Chern roots, invariant under every signed permutation
        engine.additive_sum(sum((LaurentPolynomial.variable(engine.table, f"z{i + 1}", 4)
                                 for i in range(space.residue_count())),
                                LaurentPolynomial.zero(engine.table)))
