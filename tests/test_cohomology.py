import random
from functools import lru_cache

import pytest

from eqpush import cohomology
from eqpush.algebra import LaurentPolynomial, Monomial
from eqpush.cohomology import (coh_table, cohomology_class_check,
                               equivariant_class_expression, g2_integral,
                               gr27_integral, torus_invariant)
from eqpush.g2 import AMBIENT_SPACE, BOX
from eqpush.polyfam import schur_pair
from eqpush.spaces import (SymmetryViolation, _calc, localization_pushforward, log,
                           parse_space)
from eqpush import g2core

from oracles import (additive_ambient_chain_class, factored_rational_sum, fixed_points,
                     log_moment)
from test_spaces import CHAIN_SPACES
from conftest import sum_of_products, with_frames_left


def T(name, k=1):
    return LaurentPolynomial.variable(coh_table(), name, k)


def test_printed_integrals():
    inv = torus_invariant()
    cases = [
        ((5, 0), LaurentPolynomial.zero(coh_table())),
        ((4, 1), LaurentPolynomial.constant(coh_table(), 2)),
        ((3, 2), LaurentPolynomial.constant(coh_table(), 2)),
        ((5, 2), 4 * inv),
        ((4, 3), 2 * inv),
        ((5, 4), 2 * inv * inv),
    ]
    for (a, b), expected in cases:
        assert g2_integral(schur_pair(a, b, coh_table())) == expected


def test_low_degree_vanishing():
    for a, b in BOX:
        if a + b < 5:
            assert g2_integral(schur_pair(a, b, coh_table())).is_zero


def test_gr27_top_pairings():
    x1, x2 = T("x1"), T("x2")
    assert gr27_integral((x1 * x2) ** 5) == LaurentPolynomial.one(coh_table())
    assert gr27_integral(schur_pair(1, 0, coh_table())
                         * schur_pair(5, 4, coh_table())) == LaurentPolynomial.one(coh_table())
    assert gr27_integral(schur_pair(3, 2, coh_table())).is_zero


def test_class_expression_schur_coefficients():
    expanded = 2 * schur_pair(4, 1, coh_table()) + 2 * schur_pair(3, 2, coh_table()) \
        - 2 * torus_invariant() * schur_pair(2, 1, coh_table())
    assert equivariant_class_expression() == expanded


def test_class_check():
    assert cohomology_class_check()


def test_class_check_fails_on_a_wrong_presentation_or_integral(monkeypatch):
    # the Schur presentation is checked first, then each pairing
    real_class, real_integral = equivariant_class_expression, g2_integral
    monkeypatch.setattr(cohomology, "equivariant_class_expression",
                        lambda: real_class() + T("x1", 2))
    assert not cohomology_class_check()
    monkeypatch.undo()
    assert cohomology_class_check()
    s31 = schur_pair(3, 1, coh_table())
    monkeypatch.setattr(cohomology, "g2_integral",
                        lambda f: real_integral(f) + (1 if f == s31 else 0))
    assert not cohomology_class_check()
    monkeypatch.undo()
    assert cohomology_class_check()


def test_rejects_negative_exponents():
    with pytest.raises(ValueError):
        g2_integral(T("x1", -1))


@pytest.mark.parametrize("integral", [g2_integral, gr27_integral])
def test_rejects_asymmetric_class(integral):
    x1, x2 = T("x1"), T("x2")
    with pytest.raises(SymmetryViolation):
        integral(x1 ** 6 * x2 ** 4 + x1 ** 3)


def test_gr27_rejects_negative_exponents():
    with pytest.raises(ValueError):
        gr27_integral(T("x1", -1) * T("x2", -1))


@lru_cache(maxsize=None)
def additive_points(key, table):
    """({root: -log z}, linear tangent weights) at every fixed point of a
    catalogue space, over `table`: its leading variables name the Chern
    roots, its t's are matched by name, and on gr:2,7 t1..t7 go to the logs
    of the seven weights."""
    space = parse_space(key)
    zs = space.table().names[:space.residue_count()]
    weights = {}
    if key == "gr:2,7":
        weights = {f"t{i + 1}": log(w, table) for i, w in enumerate(g2core.seven_weights())}

    def additive(char):
        return log(char, space.table()).substitute(weights, table)
    return tuple(({x: -additive(p.subst_map()[z]) for x, z in zip(table.names, zs)},
                  [additive(c) for c in p.tangent])
                 for p in fixed_points(space))


def flat_integral(key, f):
    """The literal sum of f(point)/prod(tangent weights) over the fixed points."""
    return factored_rational_sum((f.substitute(roots), weights)
                                 for roots, weights in additive_points(key, f.table))


def random_symmetric_class(rng, max_exp):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        p, q = rng.randint(0, max_exp), rng.randint(0, max_exp)
        t = (rng.randint(0, 2), rng.randint(0, 2))
        c = rng.choice([-3, -2, -1, 1, 2, 5])
        for key in ((p, q) + t, (q, p) + t):
            terms[key] = c
    return LaurentPolynomial(coh_table(), terms)


def test_chain_matches_flat_fixed_point_sum():
    cls = equivariant_class_expression()
    schurs = [schur_pair(a, b, coh_table()) for a, b in BOX]
    rng = random.Random("cohomology-flat")
    for s in schurs:
        assert g2_integral(s) == flat_integral("g2p2", s)
        assert gr27_integral(s * cls) == flat_integral("gr:2,7", s * cls)
    for _ in range(4):
        f = random_symmetric_class(rng, 6)
        assert g2_integral(f) == flat_integral("g2p2", f)
        f = random_symmetric_class(rng, 12)
        assert gr27_integral(f) == flat_integral("gr:2,7", f)


# every chain space of test_spaces but q, whose signed run acts on the Chern
# roots as x -> -x, which no orbit class of `decompose` expresses
ADDITIVE_SPACES = [key for key in CHAIN_SPACES if not key.startswith("q:")] + ["ogE:4"]


def additive_pushforward(space, f):
    """`additive_sum` through `decompose`: t-coefficients pulled out."""
    calc = _calc(space)
    return calc.pushforward(f, lambda canon: calc.engine.additive_sum(calc.orbit_sum(canon)))


def random_root_class(space, rng):
    """A class of nonnegative exponents whose orbit classes have degree dim to
    dim + 2 in the z's, so that its integral can be nonzero: up to three,
    each times a t-monomial of degree at most one in each t."""
    calc = _calc(space)
    m, total = calc.m, LaurentPolynomial.zero(calc.table)
    for _ in range(rng.randint(1, 3)):
        degree = space.dimension() + rng.randint(0, 2)
        cuts = sorted(rng.randint(0, degree) for _ in range(m - 1))
        zexps = tuple(b - a for a, b in zip((0, *cuts), (*cuts, degree)))
        t = Monomial(calc.table, (0,) * m + tuple(rng.randint(0, 1) for _ in calc.table.names[m:]))
        total = total + calc.orbit_sum(calc.canonical(zexps)).mul_monomial(
            t, rng.choice([-2, -1, 1, 3]))
    return total


@pytest.mark.parametrize("key", ADDITIVE_SPACES)
def test_additive_chain_matches_flat_fixed_point_sum(key):
    # on ogE the sum runs over both components of the fixed points
    space = parse_space(key)
    rng = random.Random(f"additive-flat:{key}")
    nonzero = 0
    for _ in range(3):
        f = random_root_class(space, rng)
        value = additive_pushforward(space, f)
        assert value == flat_integral(key, f)
        nonzero += not value.is_zero
    assert nonzero


@pytest.mark.parametrize("canon", [(1, 1), (2, 2)])
def test_additive_sum_refuses_a_class_with_a_negative_exponent(canon):
    # on q:2 the orbit class of (p, q), q != 0, holds z1^p z2^-q, no
    # polynomial in the Chern roots; its chain value has negative powers of t
    # (2*t1^-1*t2^-1 and 2*t1^-2 + 2*t2^-2), which no integral has
    calc = _calc(parse_space("q:2"))
    with pytest.raises(ValueError, match="nonnegative exponents"):
        calc.engine.additive_sum(calc.orbit_sum(canon))


def test_cohomology_is_the_leading_term_of_k_theory():
    """The paper's substitution, on one space per catalogue kind but q.  At
    z = e^(-hx), t = e^(hy) a product f of d binomials 1 - z_i^a t^b and
    1 - t^c is h^d * phi + O(h^(d+1)), phi the product of the linear forms
    a*x_i - <b, y> and -<c, y>.  Since ch(pi_* f) = pi_*(ch f * td) and td
    starts with 1, the K-theoretic push-forward P of f has log_moment(P, j)
    = 0 for j < d - dim and log_moment(P, d - dim) = the integral of phi,
    which `additive_sum` computes with z standing for x and t for y.  Here
    d is dim or dim + 1.  q is out of scope: its signed run acts on the
    Chern roots as x -> -x, which no orbit class of `decompose` expresses."""
    for key in ("gr:2,4", "gr2:2,4", "lg:2", "ogE:2", "ogO:2", "fl:3", "g2p2", "g2b"):
        space = parse_space(key)
        table, m, dim = space.table(), space.residue_count(), space.dimension()
        one, zs, ts = LaurentPolynomial.one(table), table.names[:m], table.names[m:]
        runs = [zs[start:stop] for start, stop, _ in space.symmetry_runs()]
        blocks = runs + [(z,) for z in zs if not any(z in run for run in runs)]
        rng = random.Random(f"leading-term:{key}")
        nonzero = 0
        for d in (dim, dim + 1, dim, dim + 1):
            f, phi, degree = one, one, 0
            while degree < d:
                # 1 - z^a t^b for every z of a symmetry block keeps f admissible;
                # where no block fits, one factor 1 - t^b
                fits = [block for block in blocks if degree + len(block) <= d]
                block, a = (rng.choice(fits), rng.choice([-1, 1, 2])) if fits else (zs[:1], 0)
                b = {t: rng.randint(-1, 1) for t in ts}
                if not (a or any(b.values())):
                    continue
                for z in block:
                    f = f * (one - Monomial.of(table, **{z: a}, **b).as_polynomial())
                    phi = phi * (LaurentPolynomial.variable(table, z).scale(a)
                                 - log(Monomial.of(table, **b), table))
                degree += len(block)
            value = localization_pushforward(space, f)
            integral = additive_pushforward(space, phi)
            assert all(log_moment(value, j).is_zero for j in range(d - dim)), (key, d)
            assert log_moment(value, d - dim) == integral, (key, d)
            nonzero += not integral.is_zero
        assert nonzero, key


def test_ambient_additive_chain_multiplies_no_polynomials(monkeypatch):
    # the base point z -> -log t and each gr:2,7 step permute or negate
    # variables: one-term images, applied by exponent arithmetic alone
    calc = _calc(parse_space("gr:2,7"))
    products = []
    original = LaurentPolynomial.__mul__

    def counted(self, other):
        products.append(other)
        return original(self, other)

    monkeypatch.setattr(LaurentPolynomial, "__mul__", counted)
    assert calc.engine.additive_sum(calc.orbit_sum((3, 1))).is_zero  # degree 4 < dim 10
    assert not calc.engine.additive_sum(calc.orbit_sum((7, 5))).is_zero
    assert products == []


def class_check_schurs():
    """S_J for the 21 box pairs J of the class check."""
    return [schur_pair(a, b, coh_table()) for a, b in BOX]


def test_residue_matches_additive_chain_on_the_class_check_orbits():
    cls = equivariant_class_expression()
    calc = _calc(AMBIENT_SPACE)
    canons = set()
    for s in class_check_schurs():
        canons |= set(calc.decompose(s * cls))
    assert len(canons) == 40
    for canon in sorted(canons):
        f = LaurentPolynomial(coh_table(), dict.fromkeys({canon + (0, 0), canon[::-1] + (0, 0)}, 1))
        assert gr27_integral(f) == additive_ambient_chain_class(canon), canon


def test_residue_matches_additive_chain_on_seeded_classes():
    # one orbit class (p, q), p >= q, per total degree, with a t-dependent
    # coefficient: below degree 10 every value is 0, odd degrees give 0, and
    # so does q < 4, which is drawn only below degree 8.  The classes read h_m
    # up to m = 7, beyond the class check's 5.  The chain takes 0.7-3 s per
    # class beyond degree 20; test_chain_matches_flat_fixed_point_sum reaches
    # degree 24 and the degree-40 test below m = 32 against the flat sum.
    rng = random.Random("cohomology-residue")
    calc = _calc(AMBIENT_SPACE)
    nonzero = 0
    for degree in range(21):
        p = degree - rng.randint(min(4, degree // 2), degree // 2)
        coeff = LaurentPolynomial(coh_table(), {
            (0, 0, 0, 0): rng.choice([-2, -1, 1, 3]),
            (0, 0, rng.randint(0, 2), rng.randint(0, 2)): rng.choice([-1, 2])})
        orbit = LaurentPolynomial(coh_table(), dict.fromkeys({(p, degree - p, 0, 0),
                                                              (degree - p, p, 0, 0)}, 1))
        f = coeff * orbit
        value = gr27_integral(f)
        assert value == calc.pushforward(f, additive_ambient_chain_class), (p, degree - p)
        nonzero += not value.is_zero
    assert nonzero >= 5


def test_a_wrong_class_fails_some_pairing():
    # the pairing compares two independent paths: a nonzero symmetric
    # degree-5 change to the class shows up in at least one of them
    x1, x2 = T("x1"), T("x2")
    wrong = equivariant_class_expression() + x1 ** 3 * x2 ** 2 + x1 ** 2 * x2 ** 3
    assert any(gr27_integral(s * wrong) != g2_integral(s) for s in class_check_schurs())


def degree_forty_class():
    x1, x2 = T("x1"), T("x2")
    return (x1 * x2) ** 20 + (T("t1") - 2 * T("t2")) * (x1 ** 36 * x2 ** 4
                                                        + x1 ** 4 * x2 ** 36)


def test_gr27_integral_of_degree_forty_matches_flat_sum():
    # h_m has no fixed cap: degree 40 reads h_m up to m = 32
    f = degree_forty_class()
    value = gr27_integral(f)
    assert not value.is_zero
    assert value == flat_integral("gr:2,7", f)


def test_gr27_integral_of_degree_forty_builds_each_h_row_once(monkeypatch):
    # from cold caches: 7 products for each row h_1..h_32, 2 for each of the
    # 3 orbit members and 2 in the push-forward; rebuilding rows 0..m for
    # each m read makes 974
    f = degree_forty_class()
    g2core.gr27_orbit_class.cache_clear()
    cohomology._residue.cache_clear()
    g2core.h_row.cache_clear()
    products, mul = 0, LaurentPolynomial.__mul__

    def counting_mul(a, b):
        nonlocal products
        products += 1
        return mul(a, b)

    monkeypatch.setattr(LaurentPolynomial, "__mul__", counting_mul)
    gr27_integral(f)
    assert products <= 232


def test_h_is_the_sum_of_weight_log_monomials_at_any_depth():
    # the row of h_m reads the rows below it in a loop, so m = 200 needs no
    # more frames than m = 1: a recursion in m would exceed the 40 frames
    # left above this one
    h = with_frames_left(40, g2core.h_row, cohomology._weight_logs, 200)[7]
    assert h.terms and all(sum(key) == 200 for key in h.terms)
    for m in range(-1, 7):
        assert g2core.h_row(cohomology._weight_logs, m)[7] == \
            sum_of_products(cohomology._weight_logs(), m), m
