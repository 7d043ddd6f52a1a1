import itertools

import pytest

from eqpush import spaces
from eqpush.algebra import LaurentPolynomial
from eqpush.cli import main
from eqpush.spaces import parse_space
from eqpush.verification import first_mismatch, run_campaign

from conftest import release_space_calculators
from test_acceptance import CLASSICAL_CASES


@pytest.fixture
def fresh_calculators():
    """Calculators built after set-up and dropped at teardown, so that a
    poisoned one never reaches another test."""
    release_space_calculators()
    yield
    release_space_calculators()


@pytest.fixture
def planted_sign(monkeypatch, fresh_calculators):
    """gr:2,4 with a wrong sign planted in the residue value of the orbit
    classes of z1*z2^-1 and z1^2*z2 (the members (-1, 1) and (1, 2) that the
    symmetric full integrand takes, also in the compact orbit sums), on
    calculators with no class values cached."""
    planted = {(-1, 1), (1, 2)}
    real = spaces.iterated_residue

    def wrong_sign(form, members=None, scalar=1):
        value = real(form, members, scalar)
        return -value if any(m[:2] in planted for m in members) else value

    monkeypatch.setattr(spaces, "iterated_residue", wrong_sign)
    return parse_space("gr:2,4")


def test_mismatch_names_the_first_differing_orbit_class(planted_sign):
    space = planted_sign
    calc = spaces._calc(space)
    # sorted, the classes are (0, 0) (right), (1, -1) and (2, 1) (both wrong)
    f = calc.orbit_sum((2, 1)).scale(3) + calc.orbit_sum((1, -1)).scale(-2) \
        + calc.orbit_sum((0, 0))
    difference = calc.loc_class_value((1, -1)).scale(-2)
    assert not difference.is_zero
    assert first_mismatch(space, f) == (
        "  first differing class: orbit of z1*z2^-1 variant full: "
        f"residue - localization = {difference.render()}")
    assert first_mismatch(space, calc.orbit_sum((0, 0))) == "  no orbit class differs on its own"


def test_campaign_reports_each_disagreeing_trial(planted_sign, capsys):
    lines = list(run_campaign(planted_sign, trials=4, seed=3, max_exp=1))
    assert lines[-1] == "verified 2/4 trials: 2 mismatches"
    assert sum(line.endswith("agree NO") for line in lines) == 2
    for line, after in zip(lines, lines[1:]):
        assert after.startswith("  first differing class: ") == line.endswith("agree NO")
        if line.endswith("agree NO"):
            assert after.startswith("  first differing class: orbit of z1*z2^-1 variant full: ")
    assert main(["verify", "--space", "gr:2,4", "--trials", "4", "--seed", "3",
                 "--max-exp", "1"]) == 1
    assert capsys.readouterr().out.splitlines() == lines


def test_agreeing_campaign_has_no_class_lines():
    lines = list(run_campaign(parse_space("gr:2,4"), trials=4, seed=3, max_exp=1))
    assert lines[-1] == "verified 4/4 trials: all agree" and len(lines) == 6
    assert not any(line.startswith(" ") for line in lines)


def test_sign_planted_in_the_chain_names_an_orbit_class(fresh_calculators, capsys):
    # the last Demazure step of a fresh gr:2,4 calculator divides by -(1 - 1/a)
    space = parse_space("gr:2,4")
    calc = spaces._calc(space)
    s, a_inv, divisor = calc.engine.steps[-1]
    calc.engine.steps[-1] = (s, a_inv, -divisor)
    f = calc.orbit_sum((2, 1)).scale(3) + calc.orbit_sum((1, -1)).scale(-2) \
        + calc.orbit_sum((0, 0))
    assert first_mismatch(space, f) == (
        "  first differing class: orbit of 1 variant full: residue - localization = 2")
    assert main(["verify", "--space", "gr:2,4", "--trials", "4", "--seed", "3",
                 "--max-exp", "1"]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "verified 1/4 trials: 3 mismatches"


def _box_classes_agree(cases) -> int:
    """Compare every variant with localization on each canonical orbit class
    of each (space, max-exp) box; returns the number of classes."""
    total = 0
    for key, max_exp in cases:
        space = parse_space(key)
        calc = spaces._calc(space)
        box = itertools.product(range(-max_exp, max_exp + 1), repeat=calc.m)
        canons = {calc.canonical(exps) for exps in box}
        members = dict.fromkeys((e for canon in canons for e in calc.orbit(canon)), 1)
        f = LaurentPolynomial(calc.table, members)
        assert first_mismatch(space, f) == "  no orbit class differs on its own", key
        total += len(canons)
    return total


def test_every_orbit_class_in_the_criterion_5_boxes_agrees(fresh_calculators):
    # both paths are linear and compute one value per canonical orbit class,
    # so agreeing on every class in a box is agreeing on every admissible
    # class built from it; criterion 5's seeded trials draw 400 of these
    # 1588 classes.  A disagreement names its class.
    total = _box_classes_agree(CLASSICAL_CASES)
    assert total == 1588


def test_every_orbit_class_in_the_rank_4_boxes_agrees(fresh_calculators):
    total = _box_classes_agree([("lg:4", 1), ("ogE:4", 1), ("ogO:4", 1), ("q:4", 1)])
    assert total == 57
