"""Acceptance suite: one test per criterion, exact equality throughout.

Each test prints a PASS line on success (visible with pytest -s or -v);
any failure is a hard assertion error carrying the offending values.
"""

import itertools
import os
import random

import pytest

from eqpush.algebra import (LaurentPolynomial, Monomial, rational, zt_table)
from eqpush.elimination import determinant
from eqpush.polyfam import grothendieck_pair, schur_pair
from eqpush.residue import ResidueForm, iterated_residue, residue_at_zero
from eqpush.spaces import (localization_pushforward, parse_space,
                           residue_pushforward)
from eqpush.verification import random_admissible_class, run_campaign
from eqpush.cohomology import (coh_table, cohomology_class_check, g2_integral,
                               torus_invariant)
from eqpush import g2, g2core

from oracles import grothendieck_general

GT = g2core.g2_table()
ONE = LaurentPolynomial.one(GT)
BOX = g2.BOX


def report(n, text):
    print(f"ACCEPTANCE {n} PASS: {text}")


def gclass(lam):
    return grothendieck_pair(*lam, GT)


@pytest.fixture(scope="module")
def intersection_matrix():
    return g2.intersection_matrix()


# -- 1 ---------------------------------------------------------------------


def test_criterion_01_pushforward_table():
    table = g2.grothendieck_table()
    a, b = g2core.half_sum_a(), g2core.half_sum_b()
    ones = ["[0]", "[1]", "[2]", "[11]", "[3]", "[21]", "[31]", "[22]"]
    twos = ["[4]", "[41]", "[32]"]
    ab_entries = {
        "[5]": {(1, 0): 1, (0, 1): 1},
        "[51]": {(1, 0): 1, (0, 1): 1},
        "[42]": {(1, 0): 1, (0, 1): 1},
        "[52]": {(2, 0): 1, (0, 2): 1, (1, 1): 1, (1, 0): -2, (0, 1): -2},
        "[43]": {(1, 1): 1, (1, 0): -1, (0, 1): -1},
        "[53]": {(2, 1): 1, (1, 2): 1, (1, 1): -5},
        "[44]": {(1, 1): -1},
        "[54]": {(2, 2): 1, (3, 0): 1, (0, 3): 1, (2, 1): -3, (1, 2): -3,
                 (2, 0): -3, (0, 2): -3, (1, 1): 8},
        "[55]": {(2, 2): -1, (3, 0): -1, (0, 3): -1, (2, 1): 2, (1, 2): 2,
                 (2, 0): 2, (0, 2): 2, (1, 1): -4},
    }
    for lam in BOX:
        value = table[lam]
        name = g2.box_label(lam)
        if name in ones:
            assert value == ONE, name
        elif name in twos:
            assert value == LaurentPolynomial.constant(GT, 2), name
        elif name == "[33]":
            assert value.is_zero
        else:
            expected = LaurentPolynomial.zero(GT)
            for (i, j), c in ab_entries[name].items():
                expected = expected + (a ** i * b ** j).scale(c)
            assert value == expected, name
    report(1, "all 21 push-forward table entries match, A/B forms verified")


# -- 2 ---------------------------------------------------------------------


def test_criterion_02_intersection_matrix(intersection_matrix):
    det = determinant(intersection_matrix)
    assert det == LaurentPolynomial.constant(GT, -1)
    ones_map = {"t1": Monomial.one(GT), "t2": Monomial.one(GT)}
    for i, lam in enumerate(BOX):
        for j, mu in enumerate(BOX):
            value = intersection_matrix[i][j].substitute(ones_map)
            # lam lies in the 2x5 box complement (5 - mu_2, 5 - mu_1) of mu
            inside = lam[0] + mu[1] <= 5 and lam[1] + mu[0] <= 5
            expected = 1 if inside else 0
            assert value == LaurentPolynomial.constant(GT, expected), (lam, mu)
    report(2, "determinant is -1 and the 441 nonequivariant pairings are 0/1 triangular")


# -- 3 ---------------------------------------------------------------------


def test_criterion_03_fundamental_class():
    solution = g2.fundamental_class_solve()
    e = g2core.half_sum_a() + g2core.half_sum_b()
    expected = {
        (4, 1): LaurentPolynomial.constant(GT, 2),
        (3, 2): LaurentPolynomial.constant(GT, 2) + e,
        (3, 3): LaurentPolynomial.constant(GT, -1),
        (4, 2): LaurentPolynomial.constant(GT, -3),
        (4, 3): ONE,
        (2, 1): e,
        (2, 2): -e,
        (3, 1): -e,
    }
    for lam in BOX:
        assert solution[lam] == expected.get(lam, LaurentPolynomial.zero(GT)), lam
    # the lift and the closed form pair equally with every box class
    lift = g2core.fundamental_class_lift()
    in_basis = LaurentPolynomial.zero(GT)
    for lam, c in expected.items():
        in_basis = in_basis + c * gclass(lam)
    for lam in BOX:
        cls = gclass(lam)
        assert g2.ambient_pushforward(cls * lift) == g2.ambient_pushforward(cls * in_basis), lam
    report(3, "fundamental-class solve matches the closed form; lift pairing agrees")


# -- 4 ---------------------------------------------------------------------


def test_criterion_04_quotient_differential():
    space = parse_space("g2p2")
    rng = random.Random(40404)
    for trial in range(20):
        f = random_admissible_class(space, rng, max_exp=3)
        assert residue_pushforward(space, f) == localization_pushforward(space, f), trial
    for lam in BOX:
        f = gclass(lam)
        assert residue_pushforward(space, f) == localization_pushforward(space, f), lam
    report(4, "residue equals the six-term cyclic sum on 20 random classes and all 21 basis classes")


# -- 5 ---------------------------------------------------------------------


CLASSICAL_CASES = [
    ("gr:1,2", 3), ("gr:1,3", 3), ("gr:2,4", 3), ("gr:2,5", 2), ("gr:3,6", 2),
    ("gr2:2,4", 2), ("lg:2", 3), ("lg:3", 2), ("ogE:2", 3), ("ogE:3", 2),
    ("ogO:1", 3), ("ogO:2", 3), ("ogO:3", 2), ("fl:2", 3), ("fl:3", 3),
    ("fl:4", 2), ("q:2", 3), ("q:3", 2),
]


def test_criterion_05_classical_differential():
    for key, max_exp in CLASSICAL_CASES:
        lines = list(run_campaign(parse_space(key), trials=20, seed=505, max_exp=max_exp))
        assert lines[-1] == "verified 20/20 trials: all agree", "\n".join(lines)
    report(5, f"residue equals localization on 20 seeded trials for {len(CLASSICAL_CASES)} spaces "
              "(odd orthogonal in both variants)")


# -- 6 ---------------------------------------------------------------------


def test_criterion_06_variant_equivalence():
    rng = random.Random(606)
    for key in ["gr:1,2", "gr:1,3", "gr:2,4", "gr:2,5", "gr:3,6", "gr2:2,4"]:
        space = parse_space(key)
        for _ in range(10):
            f = random_admissible_class(space, rng, max_exp=2)
            assert residue_pushforward(space, f, "full") == \
                residue_pushforward(space, f, "compact"), key
    report(6, "full and compact residue formulas agree on all Grassmannian and two-set cases")


# -- 7 ---------------------------------------------------------------------


def complete_homogeneous_inverse(table, n, ell):
    """Independent oracle: sum of t^(-lam) over multisets lam of size ell."""
    total = LaurentPolynomial.zero(table)
    for combo in itertools.combinations_with_replacement(range(n), ell):
        exps = {}
        for i in combo:
            exps[f"t{i+1}"] = exps.get(f"t{i+1}", 0) - 1
        total = total + Monomial.from_map(table, exps).as_polynomial()
    return total


def test_criterion_07_projective_space_values():
    for n in (2, 3, 4):
        space = parse_space(f"gr:1,{n}")
        table = space.table()
        for ell in range(0, 5):
            f = LaurentPolynomial.variable(table, "z1", -ell)
            expected = complete_homogeneous_inverse(table, n, ell)
            assert localization_pushforward(space, f) == expected, (n, ell)
            assert residue_pushforward(space, f) == expected, (n, ell)
        for k in range(1, n):
            f = LaurentPolynomial.variable(table, "z1", k)
            assert localization_pushforward(space, f).is_zero, (n, k)
            assert residue_pushforward(space, f).is_zero, (n, k)
    report(7, "projective push-forwards give complete homogeneous functions in the "
              "inverses and vanish for middle powers")


# -- 8 ---------------------------------------------------------------------


def partitions_with_parts_at_most(limit, length):
    """The partitions with at most `length` parts, each at most `limit`, as
    tuples of their positive parts (the empty partition is ())."""
    out = []
    def grow(prefix, maximum):
        out.append(prefix)
        if len(prefix) == length:
            return
        for p in range(1, maximum + 1):
            grow(prefix + (p,), p)
    grow((), limit)
    return out


def test_criterion_08_flag_grothendieck_identity():
    # The staircase exponents attach to the variables in reversed order
    # (z_i carries part(n-i) + i - 1): our fixed-point enumeration differs
    # from the classically written sum by the longest Weyl element, and the
    # non-symmetric staircase class must follow that relabeling.
    for n in (1, 2, 3):
        space = parse_space(f"fl:{n}")
        table = space.table()
        one = LaurentPolynomial.one(table)
        for lam in partitions_with_parts_at_most(2, n):
            parts = lam + (0,) * (n - len(lam))
            f = one
            for i in range(n):
                zi = LaurentPolynomial.variable(table, f"z{i+1}", -1)
                f = f * (one - zi) ** (parts[n - 1 - i] + i)
            expected = grothendieck_general(lam, n, table)
            assert localization_pushforward(space, f) == expected, (n, lam)
            assert residue_pushforward(space, f) == expected, (n, lam)
    report(8, "flag push-forwards reproduce the divided-difference Grothendieck polynomials")


# -- 9 ---------------------------------------------------------------------


def test_criterion_09_cohomology():
    inv = torus_invariant()
    ct = coh_table()
    cases = [
        ((5, 0), LaurentPolynomial.zero(ct)),
        ((4, 1), LaurentPolynomial.constant(ct, 2)),
        ((3, 2), LaurentPolynomial.constant(ct, 2)),
        ((5, 2), 4 * inv),
        ((4, 3), 2 * inv),
        ((5, 4), 2 * inv * inv),
    ]
    for (a, b), expected in cases:
        assert g2_integral(schur_pair(a, b, ct)) == expected, (a, b)
    assert cohomology_class_check()
    report(9, "all six printed integrals match and the equivariant class check passes")


# -- 10 ---------------------------------------------------------------------


def test_criterion_10_borel_quotient():
    space = parse_space("g2b")
    rng = random.Random(1010)
    for trial in range(10):
        f = random_admissible_class(space, rng, max_exp=3)
        weyl = localization_pushforward(space, f)
        res = residue_pushforward(space, f)
        assert weyl == res, trial
    quotient = parse_space("g2p2")
    sym_rng = random.Random(2020)
    symmetric_samples = [gclass((4, 1)), gclass((5, 3))]
    for _ in range(3):
        symmetric_samples.append(random_admissible_class(quotient, sym_rng, max_exp=3))
    for f in symmetric_samples:
        value = localization_pushforward(g2.QUOTIENT_SPACE, f)
        assert localization_pushforward(space, f) == value
        assert residue_pushforward(space, f) == value
    report(10, "residue and Weyl-sum push-forwards agree; symmetric classes match the quotient")


# -- 11 ---------------------------------------------------------------------


def _random_form(rng, table):
    from conftest import random_laurent
    den = []
    for v in ("z1", "z2"):
        for _ in range(rng.randint(1, 2)):
            powers = {v: rng.randint(1, 2),
                      "t1": rng.randint(-2, 2), "t2": rng.randint(-2, 2)}
            den.append(Monomial.from_map(table, powers))
    num = random_laurent(rng, table, nterms=4, max_exp=3)
    from eqpush.residue import make_form
    return make_form(num, tuple(den), ("z1", "z2"), scalar=rational(rng.randint(1, 3), 2))


def test_criterion_11_residue_engine_properties():
    rng = random.Random(1111)
    table = zt_table(2, 2)
    for _ in range(50):
        form = _random_form(rng, table)
        swapped = ResidueForm(form.scalar, form.numerator, form.denominator,
                              ("z2", "z1"))
        assert iterated_residue(form) == iterated_residue(swapped)
    for _ in range(20):
        base = _random_form(rng, table)
        from conftest import random_laurent
        n1 = random_laurent(rng, table, nterms=3)
        n2 = random_laurent(rng, table, nterms=3)
        v1 = iterated_residue(ResidueForm(base.scalar, n1, base.denominator,
                                          base.residue_vars))
        v2 = iterated_residue(ResidueForm(base.scalar, n2, base.denominator,
                                          base.residue_vars))
        v12 = iterated_residue(ResidueForm(base.scalar, n1 + n2.scale(2),
                                           base.denominator, base.residue_vars))
        assert v12 == v1 + v2.scale(2)
    for _ in range(20):
        form = _random_form(rng, table)
        shift = form.numerator.min_degree("z1")
        if shift is None:
            continue
        lifted = ResidueForm(form.scalar,
                             form.numerator.mul_monomial(
                                 Monomial.of(table, z1=max(0, -shift))),
                             form.denominator, form.residue_vars)
        assert residue_at_zero(lifted, "z1").numerator.is_zero
    report(11, "order independence (50 forms), linearity and the degree-vanishing rule hold")


# -- 12 ---------------------------------------------------------------------


def test_criterion_12_quadric():
    # Failure here would falsify the adopted pairwise-product reading of the
    # quadric numerator and the index-removal reading of its fixed points.
    for key in ("q:2", "q:3"):
        lines = list(run_campaign(parse_space(key), trials=20, seed=1212,
                                  max_exp=2 if key == "q:3" else 3))
        assert lines[-1] == "verified 20/20 trials: all agree", "\n".join(lines)
    report(12, "quadric residue formula matches localization for n = 2, 3")


# -- 13 ---------------------------------------------------------------------


def test_criterion_13_cli(capsys):
    from eqpush.cli import main
    from eqpush.exprparse import parse_to_polynomial
    from conftest import random_laurent
    table = zt_table(2, 2)
    rng = random.Random(1313)
    for _ in range(100):
        p = random_laurent(rng, table, nterms=5, max_exp=4, rational_coeffs=True)
        assert parse_to_polynomial(p.render(), table) == p
    fixtures = os.path.join(os.path.dirname(__file__), "fixtures")
    for args, fixture in [
        (["g2", "table"], "g2_table.txt"),
        (["g2", "class"], "g2_class.txt"),
        (["cohomology", "g2-integrals"], "cohomology_g2_integrals.txt"),
    ]:
        assert main(args) == 0
        out = capsys.readouterr().out
        with open(os.path.join(fixtures, fixture), "rb") as fh:
            assert out.encode() == fh.read(), fixture
    assert main(["verify", "--space", "gr:2,4", "--trials", "5", "--seed", "99"]) == 0
    first = capsys.readouterr().out
    assert main(["verify", "--space", "gr:2,4", "--trials", "5", "--seed", "99"]) == 0
    second = capsys.readouterr().out
    assert first == second
    report(13, "parser round-trip (100 classes), golden fixtures byte-exact, verify reproducible")
