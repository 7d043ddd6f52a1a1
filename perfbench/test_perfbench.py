"""Tests of the benchmark's own machinery: spans, inputs and output checks."""

import os

import pytest

import hostspeed
import tracing
import workloads as wl
from eqpush import spaces
from eqpush.algebra import LaurentPolynomial

SMALL_CASES = [("gr:1,2", 3), ("gr:1,3", 3)]


def test_self_time_of_a_hand_built_span_tree():
    spans = [
        ["root", 0.0, 10.0, -1, "a"],
        ["child", 1.0, 4.0, 0, "a"],
        ["grandchild", 2.0, 3.0, 1, "a"],
        ["child", 5.0, 9.0, 0, "a"],
        ["other", 20.0, 21.5, -1, "b"],
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0, 1.5])


def test_layer_metrics_from_spans_and_counters():
    spans = [
        ["spaces.localization", 0.0, 5.0, -1, "x"],
        ["spaces.loc_class", 0.0, 4.0, 0, "x"],
        ["spaces.sum_values", 1.0, 3.0, 1, "x"],
        ["spaces.loc_class", 4.0, 4.5, 0, "x"],
    ]
    got = tracing.layer_metrics(spans, {"residue.bound_max": 7})
    assert got["spaces.sum_values.calls"] == 1
    assert got["spaces.sum_values.self_s"] == pytest.approx(2.0)
    assert got["spaces.localization.total_s"] == pytest.approx(5.0)
    assert got["spaces.loc_cache_hit_ratio"] == pytest.approx(0.5)
    assert got["residue.bound_max"] == 7
    assert got["spaces.res_cache_hit_ratio"] == 0.0


def test_speed_probe_scales_intervals_to_full_speed():
    ref = hostspeed.REFERENCE_S
    probe = hostspeed.SpeedProbe()
    probe.samples = [(0.0, 2 * ref), (1.0, 2 * ref), (1.5, 4 * ref), (3.0, 4 * ref)]
    assert probe.slowdown() == pytest.approx(3.0)
    # No probe inside: the probes just before and after set the speed.
    assert probe.corrected(0.2, 0.8) == pytest.approx(0.6 / 2)
    # Probes inside set the speed, and their own time is left out.
    assert probe.corrected(1.2, 3.5) == pytest.approx((2.3 - 8 * ref) / 4)


def test_tracer_rebinds_every_binding_and_restores_it():
    original = spaces.exact_divide_many
    tracer = tracing.Tracer().install()
    try:
        assert spaces.exact_divide_many is not original
        space = spaces.parse_space("gr:1,3")
        f = LaurentPolynomial.variable(space.table(), "z1", 2)
        tracer.item = "probe"
        spaces.localization_pushforward(space, f)
    finally:
        tracer.uninstall()
    assert spaces.exact_divide_many is original
    names = {span[0] for span in tracer.spans}
    assert {"spaces.localization", "spaces.sum_values", "algebra.mul", "algebra.divide"} <= names
    by_index = dict(enumerate(tracer.spans))
    divide = next(s for s in tracer.spans if s[0] == "algebra.divide")
    assert by_index[divide[3]][0] == "spaces.sum_values"
    assert all(span[4] == "probe" for span in tracer.spans)


def test_inputs_repeat_for_a_seed_and_change_with_it():
    def classes(seed):
        items = wl.campaign_inputs(wl.CRITERION5_CASES, seed, wl.VERIFY_TRIALS)
        return [(i, f.render()) for i, (_, f) in items]

    assert classes(3) == classes(3)
    assert classes(3) != classes(4)
    assert wl.cli_requests(3) == wl.cli_requests(3)
    assert wl.cli_requests(3) != wl.cli_requests(4)


def test_generated_classes_are_admissible():
    for _, (space, f) in wl.campaign_inputs(wl.CRITERION5_CASES, 5, wl.RESIDUE_TRIALS):
        spaces.check_symmetry(space, f)
        assert not f.is_zero


def test_planted_wrong_localization_value_is_a_failed_item(monkeypatch):
    items = wl.campaign_inputs(SMALL_CASES, 1, wl.VERIFY_TRIALS)
    real = spaces.localization_pushforward
    planted = items[5][1][1]

    def plant(space, f):
        value = real(space, f)
        return value + LaurentPolynomial.one(f.table) if f is planted else value

    monkeypatch.setattr(spaces, "localization_pushforward", plant)
    tally = wl.Tally()
    wl.run_items(items, wl.verify_trial, tally)
    assert (tally.attempted, tally.failed, tally.wrong) == (len(items), 1, 1)
    assert tally.problems[0].startswith(items[5][0])


def test_crash_in_localization_is_a_wrong_output(monkeypatch):
    items = wl.campaign_inputs(SMALL_CASES, 1, wl.VERIFY_TRIALS)
    real = spaces.localization_pushforward
    planted = items[3][1][1]

    def plant(space, f):
        if f is planted:
            raise spaces.NotPolynomial("planted: sum does not simplify")
        return real(space, f)

    monkeypatch.setattr(spaces, "localization_pushforward", plant)
    tally = wl.Tally()
    wl.run_items(items, wl.verify_trial, tally)
    # run.py reports correct: false whenever a pass has a wrong output.
    assert (tally.attempted, tally.failed, tally.wrong) == (len(items), 1, 1)
    assert "NotPolynomial" in tally.problems[0]


def test_known_defect_is_failed_but_not_wrong():
    def step(n):
        if n == 2:
            raise wl.KnownDefect("planted")

    tally = wl.Tally()
    wl.run_items([(f"i{n}", (n,)) for n in range(4)], step, tally)
    assert (tally.attempted, tally.failed, tally.wrong) == (4, 1, 0)


@pytest.mark.parametrize("step", ["g2 table", "g2 class", "cohomology g2-integrals"])
def test_one_byte_fixture_mismatch_fails_the_g2_check(step):
    fixture = next(name for s, _, name in wl.G2_STEPS if s == step)
    with open(os.path.join(wl.FIXTURES, fixture), "rb") as fh:
        golden = fh.read()
    wl.check_g2_output(step, 0, golden)
    flipped = golden[:10] + bytes([golden[10] ^ 1]) + golden[11:]
    with pytest.raises(wl.WrongResult):
        wl.check_g2_output(step, 0, flipped)


def test_determinant_check():
    wl.check_g2_output("g2 matrix --det", 0, b"-1\n")
    with pytest.raises(wl.WrongResult):
        wl.check_g2_output("g2 matrix --det", 0, b"1\n")


def test_cli_contract_check():
    def req(expr, expect, kind):
        return wl.Request(("--space", "gr:2,4", "--f", expr), expect, kind)

    ok = req("1", "ok", "class")
    bad = req("1 + * 2", "reject", "malformed")
    macro = req("1 + S[2,1]", "ok", "S-macro")
    inexact = req("z1/(1 - t1)", "reject", "inexact")
    agree = "localization: 1\nresidue: 1\nagree: true\n"
    traceback = "Traceback (most recent call last):\nNotDivisible\n"
    wl.check_cli(ok, 0, agree, "")
    wl.check_cli(bad, 2, "", "error: syntax error\n")
    wl.check_cli(macro, 0, agree, "")
    wl.check_cli(inexact, 2, "", "error: not divisible\n")
    with pytest.raises(wl.WrongResult):
        wl.check_cli(ok, 1, "localization: 1\nresidue: 2\nagree: false\n", "")
    with pytest.raises(wl.WrongResult):
        wl.check_cli(ok, 2, "", "error: macro S[2,1] needs variables\n")
    with pytest.raises(wl.WrongResult):
        wl.check_cli(bad, 0, agree, "")
    with pytest.raises(wl.WrongResult):
        wl.check_cli(bad, 1, "", traceback)
    with pytest.raises(wl.WrongResult):
        wl.check_cli(inexact, 0, agree, "")
    with pytest.raises(wl.KnownDefect):
        wl.check_cli(macro, 2, "", "error: macro S[2,1] needs variables\n")
    with pytest.raises(wl.KnownDefect):
        wl.check_cli(inexact, 1, "", traceback)
