import contextlib
import io
import json
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from eqpush import cohomology, elimination, polyfam, spaces
from eqpush.algebra import InvariantError, LaurentPolynomial, NotDivisible
from eqpush.cli import emit, main
from eqpush.exprparse import MAX_DEPTH, ExpressionSyntaxError, parse_to_polynomial

from conftest import random_laurent

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_precedence_and_associativity(table22):
    z1, z2, t1 = (LaurentPolynomial.variable(table22, name) for name in ("z1", "z2", "t1"))
    # unary minus binds looser than ^ and *, - and / group to the left, ^ chains
    assert parse_to_polynomial("-z1^2", table22) == -(z1 * z1)
    assert parse_to_polynomial("2*-z1*z2", table22) == (z1 * z2).scale(-2)
    assert parse_to_polynomial("z1-z2-t1", table22) == z1 - z2 - t1
    assert parse_to_polynomial("(z1^2-z2^2)/(z1-z2)*z1", table22) == (z1 + z2) * z1
    assert parse_to_polynomial("z1^-1^2", table22) == LaurentPolynomial.variable(table22, "z1", -2)


def test_parse_macro_sum(table22):
    p = parse_to_polynomial("z1^-3 + G[4,1]", table22)
    z = LaurentPolynomial.variable(table22, "z1", -3)
    from eqpush.polyfam import grothendieck_pair
    assert p == z + grothendieck_pair(4, 1, table22)


def test_syntax_error_offset(table22):
    with pytest.raises(ExpressionSyntaxError) as err:
        parse_to_polynomial("1 + * 2", table22)
    assert err.value.offset == 4
    assert "INT" in err.value.expected and "(" in err.value.expected


def test_unknown_variable(table22):
    with pytest.raises(ValueError):
        parse_to_polynomial("q7 + 1", table22)


def test_exact_division_in_expressions(table22):
    assert parse_to_polynomial("(1-t1^2)/(1-t1)", table22).render() == "1 + t1"
    # a trinomial with negative exponents takes the heap division
    assert parse_to_polynomial("(t1^-2 - t1)/(t1^-2 + t1^-1 + 1)", table22).render() == "1 - t1"


def test_parser_roundtrip_property(table22):
    rng = random.Random(424242)
    for _ in range(120):
        p = random_laurent(rng, table22, nterms=5, max_exp=4, rational_coeffs=True)
        assert parse_to_polynomial(p.render(), table22) == p


def test_emit_json_canonical(table22):
    one = LaurentPolynomial.one(table22)
    p = one - LaurentPolynomial.variable(table22, "t1", -1)
    blob = emit(p, "json")
    assert blob == ('{"terms":[{"coeff_num":"1","coeff_den":"1","exponents":{}},'
                    '{"coeff_num":"-1","coeff_den":"1","exponents":{"t1":-1}}]}')
    assert emit(LaurentPolynomial.zero(table22), "json") == '{"terms":[]}'
    # equal polynomials produce byte-identical emissions
    q = (one - LaurentPolynomial.variable(table22, "t1", -1)) * one
    assert emit(q, "json") == blob


def test_emit_ab_text(table22):
    p = parse_to_polynomial("A+B", table22)
    assert emit(p, "text") == "6 - t1 - t1^-1 - t2 - t2^-1 - t1*t2^-1 - t1^-1*t2"


def test_cli_pushforward_quotient(capsys):
    code, out, _ = run_cli(capsys, "pushforward", "--space", "g2p2", "--f", "G[4,1]")
    assert code == 0
    assert out.splitlines() == ["localization: 2", "residue: 2", "agree: true"]


def test_cli_pushforward_json(capsys):
    code, out, _ = run_cli(capsys, "pushforward", "--space", "gr:1,2",
                           "--f", "z1^-1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["agree"] is True
    assert payload["localization"] == payload["residue"]
    assert payload["localization"]["terms"][0]["exponents"] == {"t1": -1}


@pytest.mark.parametrize("expr,text,den,exps", [
    ("1/2", "1/2", "2", {}),
    ("(1+z1)/2", "1/2", "2", {}),
    ("(2*t1)^-2", "1/4*t1^-2", "4", {"t1": -2}),
    ("(1+z1)*(1+z1)/(2+2*z1)", "1/2", "2", {}),
])
def test_cli_rational_values(capsys, expr, text, den, exps):
    # an int quotient that is not exact and an int to a negative power stay
    # exact rationals (neither floor division nor a float)
    code, out, _ = run_cli(capsys, "pushforward", "--space", "gr:1,2", "--f", expr)
    assert code == 0
    assert out.splitlines() == [f"localization: {text}", f"residue: {text}", "agree: true"]
    code, out, _ = run_cli(capsys, "pushforward", "--space", "gr:1,2", "--f", expr,
                           "--format", "json")
    assert code == 0
    terms = [{"coeff_num": "1", "coeff_den": den, "exponents": exps}]
    payload = json.loads(out)
    assert payload["localization"]["terms"] == payload["residue"]["terms"] == terms
    assert payload["agree"] is True


def test_cli_exit_codes(capsys):
    code, _, err = run_cli(capsys, "pushforward", "--space", "gr:1,2", "--f", "1 + * 2")
    assert code == 2 and "offset" in err
    code, _, err = run_cli(capsys, "pushforward", "--space", "bad:1", "--f", "1")
    assert code == 2
    code, _, err = run_cli(capsys, "pushforward", "--space", "gr:2,4", "--f", "z1")
    assert code == 2 and "invariant" in err
    code, _, _ = run_cli(capsys, "nonsense")
    assert code == 2


@pytest.mark.parametrize("space", ["nope:3,4", "nope:x", "nope"])
def test_unknown_space_kind_is_reported_before_its_parameters(capsys, space):
    code, out, err = run_cli(capsys, "pushforward", "--space", space, "--f", "1")
    assert (code, out, err) == (2, "", "error: unknown space kind 'nope'\n")


@pytest.mark.parametrize("f", ["G[1,2]", "S[1,2]"])
def test_increasing_class_indices_are_one_error_line(capsys, f):
    # the a >= b >= 0 check of polyfam.grothendieck_pair
    code, out, err = run_cli(capsys, "pushforward", "--space", "gr:2,4", "--f", f)
    assert (code, out, err) == (2, "", "error: need a >= b >= 0\n")


@pytest.mark.parametrize("space", ["gr:2,4", "q:3", "g2p2"])
def test_asymmetric_class_is_one_error_line(capsys, space):
    # z1 on gr:2,4 and g2p2, z2 on q:3: each the largest member of its orbit
    monomial = "z2" if space == "q:3" else "z1"
    code, out, err = run_cli(capsys, "pushforward", "--space", space, "--f", monomial)
    assert code == 2 and out == ""
    [line] = err.splitlines()
    assert line.startswith("error:") and "invariant" in line
    assert f"{space} symmetry" in line and f"orbit of {monomial} " in line
    assert "Traceback" not in err


def test_cli_mismatch_exits_one(capsys, monkeypatch):
    # a planted wrong localization value must be reported as a disagreement
    real = spaces.localization_pushforward
    monkeypatch.setattr(spaces, "localization_pushforward",
                        lambda space, f: real(space, f) + 1)
    code, out, err = run_cli(capsys, "pushforward", "--space", "gr:1,2", "--f", "z1^-1")
    assert code == 1 and err == ""
    assert out.splitlines()[-1] == "agree: false"


def test_cli_internal_error_exits_four(capsys, monkeypatch):
    def broken(space, f):
        raise InvariantError("planted fault")

    monkeypatch.setattr(spaces, "localization_pushforward", broken)
    code, out, err = run_cli(capsys, "pushforward", "--space", "gr:1,2", "--f", "z1^-1")
    assert code == 4 and out == ""
    assert err.splitlines() == ["internal error: planted fault"]


def test_cli_out_of_memory_exits_four(capsys, monkeypatch):
    def exhausted(space, f):
        raise MemoryError

    monkeypatch.setattr(spaces, "localization_pushforward", exhausted)
    code, out, err = run_cli(capsys, "pushforward", "--space", "gr:1,2", "--f", "z1^-1")
    assert code == 4 and out == ""
    [line] = err.splitlines()
    assert line == "internal error: MemoryError"


# modules a pushforward request does not use
UNUSED_BY_PUSHFORWARD = ("dataclasses", "inspect", "typing", "json", "eqpush.g2",
                         "eqpush.cohomology", "eqpush.elimination", "eqpush.verification",
                         "eqpush.polyfam")


def _modules_loaded_by(*argv):
    """Which UNUSED_BY_PUSHFORWARD modules a cold `python -S` process has
    loaded after main(argv); -S keeps site-packages .pth files from loading
    any of them first."""
    script = ("import sys\n"
              "from eqpush.cli import main\n"
              f"code = main({list(argv)!r})\n"
              f"print([m for m in {UNUSED_BY_PUSHFORWARD!r} if m in sys.modules])\n"
              "sys.exit(code)\n")
    env = {k: v for k, v in os.environ.items() if k != "EQPUSH_FORMAT"}
    env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    proc = subprocess.run([sys.executable, "-S", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    return proc.stdout.splitlines()[-1]


def test_pushforward_imports_only_what_it_runs():
    argv = ("pushforward", "--space", "gr:2,4", "--f", "z1*z2")
    assert _modules_loaded_by(*argv) == "[]"
    assert _modules_loaded_by(*argv, "--format", "json") == "['json']"


def _not_divisible(*args):
    raise NotDivisible("planted fault")


def test_cli_inexact_additive_chain_exits_four(capsys, monkeypatch):
    # a divided difference of the additive chain that does not divide is an
    # internal fault, not bad input; the orbit-class cache is bypassed so the
    # chain runs
    monkeypatch.setattr(spaces, "exact_divide_many", _not_divisible)
    monkeypatch.setattr(cohomology, "_g2_class", cohomology._g2_class.__wrapped__)
    code, out, err = run_cli(capsys, "cohomology", "g2-integrals")
    assert code == 4 and out == ""
    assert err.splitlines() == ["internal error: a divided difference is not a Laurent polynomial"]


@pytest.mark.parametrize("argv", [("matrix", "--det"), ("class",)], ids=["det", "class"])
def test_cli_inexact_elimination_exits_four(capsys, monkeypatch, argv):
    # a column without a unit pivot is an internal fault: the intersection
    # matrix is unimodular by construction; here every pivot is rejected
    monkeypatch.setattr(elimination, "_unit_inverse", lambda p: None)
    code, out, err = run_cli(capsys, "g2", *argv)
    assert code == 4 and out == ""
    assert err.splitlines() == ["internal error: no unit pivot in column 1 of 21"]


@pytest.mark.parametrize("expr", ["z1/(1-z1)", "z1/0", "(1-z1)^-1", "(1+t1^3)/(1+t1+t2)"])
def test_cli_inexact_division_is_bad_input(capsys, expr):
    code, out, err = run_cli(capsys, "pushforward", "--space", "gr:1,2", "--f", expr)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_cli_division_error_quotes_divisor(capsys):
    code, _, err = run_cli(capsys, "pushforward", "--space", "gr:1,2", "--f", "z1/(1-z1)")
    assert code == 2 and err.rstrip().endswith("found (1-z1)")


@pytest.mark.parametrize("expr", ["+".join(["z1"] * 3000), "z1" + "^1" * 3000],
                         ids=["sum", "power-chain"])
def test_cli_long_flat_expression(capsys, expr):
    # a flat sum or a chain of powers is read in a loop, not by recursion
    code, out, err = run_cli(capsys, "pushforward", "--space", "gr:1,2", f"--f={expr}")
    assert code == 0 and err == ""
    assert out.splitlines()[-1] == "agree: true"


def test_flat_sum_copies_no_partial_sums(table22, monkeypatch):
    # the operands of a flat sum go into one term dict: the terms held by the
    # sums built while parsing (every polynomial of more than one term) grow
    # linearly in the length of the sum, not with one copy per operator
    n = 300
    src = "+".join(f"z1^{i}" for i in range(n)) + "-" + "-".join(f"t1^{i}" for i in range(n))
    expected = sum((LaurentPolynomial.variable(table22, "z1", i)
                    - LaurentPolynomial.variable(table22, "t1", i) for i in range(n)),
                   LaurentPolynomial.zero(table22))
    built = []
    init = LaurentPolynomial.__init__

    def counting(self, table, terms, _canonical=False):
        built.append(len(terms))
        init(self, table, terms, _canonical)

    monkeypatch.setattr(LaurentPolynomial, "__init__", counting)
    assert parse_to_polynomial(src, table22) == expected
    assert sum(size for size in built if size > 1) <= 4 * n


@pytest.mark.parametrize("expr", ["(" * 1000 + "z1" + ")" * 1000, "-" * 1000 + "z1"],
                         ids=["parentheses", "unary-minus"])
def test_cli_deep_nesting_is_bad_input(capsys, expr):
    code, out, err = run_cli(capsys, "pushforward", "--space", "gr:1,2", f"--f={expr}")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert f"at most {MAX_DEPTH} nested" in err


def test_nesting_up_to_the_bound(table22):
    n = MAX_DEPTH - 1  # with the whole expression, MAX_DEPTH nested subexpressions
    z1 = LaurentPolynomial.variable(table22, "z1")
    assert parse_to_polynomial("(" * n + "z1" + ")" * n, table22) == z1
    assert parse_to_polynomial("-" * n + "z1", table22) == z1.scale((-1) ** n)
    with pytest.raises(ExpressionSyntaxError) as err:
        parse_to_polynomial("-" * (n + 1) + "z1", table22)
    assert err.value.offset == n + 1  # the operand of the last minus


def test_cli_large_power_of_sum_is_bad_input(capsys, monkeypatch):
    # the bound is checked before anything is expanded: no power is ever taken
    def no_power(self, k):
        raise AssertionError(f"a power {k} was expanded")

    monkeypatch.setattr(LaurentPolynomial, "__pow__", no_power)
    code, out, err = run_cli(capsys, "pushforward", "--space", "gr:1,2",
                             "--f", "(1+z1)^100000")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "at most 64" in err


@pytest.mark.parametrize("a", [64, 800])
def test_cli_large_grothendieck_macro_is_bad_input(capsys, monkeypatch, a):
    # G[a,b] expands (1 - z1)^(a+1): bounded like a power of a sum, before expansion
    def no_expansion(*args):
        raise AssertionError("the macro was expanded")

    monkeypatch.setattr(polyfam, "grothendieck_pair", no_expansion)
    code, out, err = run_cli(capsys, "pushforward", "--space", "gr:2,4", "--f", f"G[{a},0]")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "at most 63" in err


def test_cli_large_schur_macro_is_bad_input(capsys, monkeypatch):
    # S[a,b] takes G's first-index limit, checked before the macro is built
    def no_expansion(*args, **kwargs):
        raise AssertionError("the macro was expanded")

    monkeypatch.setattr(polyfam, "schur_pair", no_expansion)
    code, out, err = run_cli(capsys, "pushforward", "--space", "gr:2,4", "--f", "S[64,0]")
    assert code == 2 and out == ""
    assert err == "error: syntax error at offset 2: expected a first index of at most 63; " \
                  "found 64\n"


def test_largest_grothendieck_macro_is_accepted(table22):
    assert parse_to_polynomial("G[63,0]", table22) == polyfam.grothendieck_pair(63, 0, table22)


def test_largest_schur_macro_is_accepted(table22):
    assert parse_to_polynomial("S[63,0]", table22) == \
        polyfam.schur_pair(63, 0, table22, names=("z1", "z2"))


@pytest.mark.parametrize("macro", ["U", "G[2,1]", "S[2,1]"])
def test_cli_macro_missing_variables_is_bad_input(capsys, macro):
    # gr:1,3 has no z2: changing the macro's variables to this space's fails
    code, out, err = run_cli(capsys, "pushforward", "--space", "gr:1,3", "--f", macro)
    assert code == 2 and out == ""
    assert err.splitlines() == [f"error: macro {macro} needs variables missing from this space"]


@pytest.mark.parametrize("space", ["gr:2,4", "lg:2"])
def test_cli_schur_macro_on_zt_spaces(capsys, space):
    code, out, err = run_cli(capsys, "pushforward", "--space", space,
                             "--f", "S[4,1] + 2*S[2,2]*(1-t1)")
    assert code == 0 and err == ""
    assert out.splitlines()[-1] == "agree: true"


def test_cli_schur_macro_inadmissible_is_bad_input(capsys):
    code, out, err = run_cli(capsys, "pushforward", "--space", "q:2", "--f", "S[4,1]")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "Traceback" not in err


VERIFY_KEYS = ["gr:1,2", "gr:2,4", "gr2:1,3", "lg:2", "ogE:2", "ogO:2", "fl:3", "q:2", "q:3",
               "g2p2", "g2b"]
MALFORMED_KEYS = ["gr:0,2", "gr:2,2", "lg:0", "q:1", "gr:1", "lg:1_0", "ogO:2,3", "bogus", ""]


@st.composite
def verify_arguments(draw):
    """`verify` arguments on small spaces and counts, some of them malformed:
    larger spaces or counts can run for minutes."""
    argv = ["verify", "--space", draw(st.sampled_from(VERIFY_KEYS + MALFORMED_KEYS))]
    for flag in ("--trials", "--max-exp"):
        if draw(st.booleans()):
            argv += [flag, str(draw(st.integers(-2, 3)))]
    argv += ["--seed", str(draw(st.one_of(st.integers(), st.sampled_from([10**20, -10**20]))))]
    if draw(st.booleans()):
        argv += ["--format", draw(st.sampled_from(["text", "json", "latex", "bogus"]))]
    if draw(st.integers(0, 3)) == 0:
        argv += ["--variant", "full"]
    return argv


@settings(max_examples=300)
@given(verify_arguments())
def test_cli_fuzzed_verify_arguments_exit_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2), (argv, err.getvalue())
    assert "Traceback" not in out.getvalue() + err.getvalue(), argv
    if code == 2:
        assert len(err.getvalue().splitlines()) == 1, (argv, err.getvalue())
        assert err.getvalue().startswith("error:"), (argv, err.getvalue())
    else:
        assert out.getvalue().splitlines()[-1].endswith("all agree"), argv


@pytest.mark.parametrize("flag, value", [("--trials", "0"), ("--trials", "-1"),
                                         ("--max-exp", "-1")])
def test_cli_verify_rejects_bad_counts(capsys, flag, value):
    code, out, err = run_cli(capsys, "verify", "--space", "gr:1,2", flag, value)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and flag in err


def test_cli_verify_reproducible(capsys):
    code1, out1, _ = run_cli(capsys, "verify", "--space", "gr:2,4",
                             "--trials", "5", "--seed", "7")
    code2, out2, _ = run_cli(capsys, "verify", "--space", "gr:2,4",
                             "--trials", "5", "--seed", "7")
    assert code1 == code2 == 0
    assert out1 == out2
    assert "verified 5/5 trials: all agree" in out1


@pytest.mark.parametrize("fmt", ["json", "latex"])
def test_cli_verify_rejects_a_format_flag(capsys, fmt):
    code, out, err = run_cli(capsys, "verify", "--space", "gr:1,2", "--format", fmt)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1 and fmt in err
    assert run_cli(capsys, "verify", "--space", "gr:1,2", "--trials", "1",
                   "--format", "text")[0] == 0


def test_cli_verify_rejects_a_format_in_the_config(tmp_path, capsys, monkeypatch):
    conf = tmp_path / "verify.conf"
    conf.write_text("space=gr:1,2\nformat=json\n")
    code, out, err = run_cli(capsys, "verify", "--config", str(conf))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    # the environment default does not apply to the report
    monkeypatch.setenv("EQPUSH_FORMAT", "json")
    code, out, _ = run_cli(capsys, "verify", "--space", "gr:1,2", "--trials", "1")
    assert code == 0 and out.splitlines()[-1] == "verified 1/1 trials: all agree"


def test_cli_verify_streams_the_trials_it_finished(capsys, monkeypatch):
    # a campaign cut short by running out of memory in trial 2 has already
    # written the header and the trial-1 line
    from eqpush import verification
    expected = list(verification.run_campaign(spaces.parse_space("gr:2,4"), 3, 7))
    real = verification.localization_pushforward
    calls = []

    def exhausted_on_trial_two(space, f):
        calls.append(f)
        if len(calls) == 2:
            raise MemoryError
        return real(space, f)

    monkeypatch.setattr(verification, "localization_pushforward", exhausted_on_trial_two)
    code, out, err = run_cli(capsys, "verify", "--space", "gr:2,4", "--trials", "3",
                             "--seed", "7")
    assert code == 4
    assert out.splitlines() == expected[:2] and expected[1].startswith("trial 1: ")
    assert err.splitlines() == ["internal error: MemoryError"]


def test_cli_verify_writes_the_whole_report_to_a_file(tmp_path, capsys):
    from eqpush import verification
    path = tmp_path / "report.txt"
    code, out, _ = run_cli(capsys, "verify", "--space", "gr:2,4", "--trials", "3", "--seed", "7",
                           "--output", str(path))
    assert code == 0 and out == ""
    expected = verification.run_campaign(spaces.parse_space("gr:2,4"), 3, 7)
    assert path.read_text() == "".join(line + "\n" for line in expected)


def test_cli_config_file(tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text("space=gr:1,2\nf=z1^-1\n")
    code, out, _ = run_cli(capsys, "pushforward", "--config", str(conf))
    assert code == 0
    assert "agree: true" in out


def test_cli_config_errors(tmp_path, capsys):
    bad = tmp_path / "bad.conf"
    bad.write_text("space=gr:1,2\nwhat=ever\n")
    code, _, err = run_cli(capsys, "pushforward", "--config", str(bad))
    assert code == 2 and "unknown config key" in err
    code, _, _ = run_cli(capsys, "pushforward", "--config", str(tmp_path / "nope.conf"))
    assert code == 2


def test_cli_config_skips_blank_and_comment_lines(tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text("# a comment\n\n   \nspace = gr:1,2\n  # indented\nexpression=z1^-1\n")
    code, out, err = run_cli(capsys, "pushforward", "--config", str(conf))
    assert code == 0 and err == ""
    assert out.splitlines() == ["localization: t1^-1 + t2^-1", "residue: t1^-1 + t2^-1",
                                "agree: true"]


def test_cli_config_line_without_equals_is_one_error_line(tmp_path, capsys):
    conf = tmp_path / "bad.conf"
    conf.write_text("space=gr:1,2\nf z1\n")
    code, out, err = run_cli(capsys, "pushforward", "--config", str(conf))
    assert code == 2 and out == ""
    assert err.splitlines() == ["error: config line without '=': 'f z1'"]


def test_cli_config_lines_are_flags_the_command_line_overrides(tmp_path, capsys):
    # max_exp is the alias of --max-exp; --trials on the command line wins
    conf = tmp_path / "verify.conf"
    conf.write_text("space=gr:2,4\ntrials=5\nseed=7\nmax_exp=2\n")
    code, out, _ = run_cli(capsys, "verify", "--config", str(conf), "--trials", "2")
    assert code == 0
    assert out == run_cli(capsys, "verify", "--space", "gr:2,4", "--trials", "2",
                          "--seed", "7", "--max-exp", "2")[1]
    assert out.splitlines()[0] == "space gr:2,4 trials 2 seed 7 max-exp 2"


@pytest.fixture
def no_work(monkeypatch):
    """Every push-forward, campaign and G2 or cohomology artifact fails the
    test if it starts."""
    from eqpush import g2, verification

    def started(*args, **kwargs):
        raise AssertionError("work ran before the input was checked")

    for module, name in [(spaces, "localization_pushforward"), (spaces, "residue_pushforward"),
                         (verification, "run_campaign"), (g2, "grothendieck_table"),
                         (g2, "intersection_matrix"), (g2, "fundamental_class_solve"),
                         (cohomology, "g2_integral")]:
        monkeypatch.setattr(module, name, started)


def _one_error_line(code, out, err):
    assert code == 2 and out == ""
    [line] = err.splitlines()
    assert line.startswith("error: ")
    return line


@pytest.mark.parametrize("argv, lines, key", [
    (("verify",), "space=gr:1,2\nvariant=compact\n", "variant"),
    (("verify",), "space=gr:1,2\nf=z1\n", "f"),
    (("g2", "matrix", "--det"), "seed=3\n", "seed"),
    (("pushforward",), "space=gr:2,4\nf=z1*z2\ntrials=3\n", "trials"),
    (("cohomology", "g2-integrals"), "space=gr:1,2\n", "space"),
], ids=["verify-variant", "verify-f", "g2-matrix-det-seed", "pushforward-trials",
        "cohomology-space"])
def test_cli_config_key_the_command_does_not_take(tmp_path, capsys, no_work, argv, lines, key):
    conf = tmp_path / "run.conf"
    conf.write_text(lines)
    line = _one_error_line(*run_cli(capsys, *argv, "--config", str(conf)))
    assert f"--{key}=" in line


@pytest.mark.parametrize("line", ["format=xml", "variant=mixed"])
def test_cli_config_value_outside_its_choices(tmp_path, capsys, no_work, line):
    conf = tmp_path / "run.conf"
    conf.write_text(f"space=gr:1,2\nf=z1\n{line}\n")
    key, _, value = line.partition("=")
    error = _one_error_line(*run_cli(capsys, "pushforward", "--config", str(conf)))
    assert f"--{key}" in error and repr(value) in error


@pytest.mark.parametrize("text", ["z1^\u00b2", "z1^\u0663*z2^\u0663"],
                         ids=["superscript-two", "arabic-indic-three"])
def test_only_ascii_digits_are_integers(capsys, text):
    # str.isdigit() takes both; int() fails on the first and reads the second as 3
    line = _one_error_line(*run_cli(capsys, "pushforward", "--space", "gr:2,4", "--f", text))
    assert line == f"error: syntax error at offset 3: expected a token; found {text[3]!r}"


@pytest.mark.parametrize("text, message", [
    ("(z1+z2", "offset 6: expected ); found EOF"),
    ("G[1,2", "offset 5: expected ]; found EOF"),
    ("G[1 2]", "offset 4: expected ]; found INT"),
    ("z1^z2", "offset 3: expected INT; found IDENT"),
    ("z1^-z2", "offset 4: expected INT; found IDENT"),
])
def test_missing_token_is_one_error_line(capsys, text, message):
    # a closing bracket the parser expects, or an exponent that is no integer
    line = _one_error_line(*run_cli(capsys, "pushforward", "--space", "gr:2,4", "--f", text))
    assert line == f"error: syntax error at {message}"


def test_cli_space_parameter_outside_ascii_digits_is_rejected_first(capsys, no_work):
    # int() would read lg:1_0 as lg:10, a long push-forward
    line = _one_error_line(*run_cli(capsys, "pushforward", "--space", "lg:1_0", "--f", "1"))
    assert line == "error: parameter '1_0' of 'lg:1_0' is not a run of ASCII digits"


@pytest.mark.parametrize("space, f", [
    ("lg:4", "z1^3*z2^3*z3^3*z4^3"), ("ogE:3", "1"), ("q:3", "1"), ("fl:3", "1"),
    ("g2p2", "G[4,1]"), ("g2b", "1"),
], ids=["lg:4", "ogE:3", "q:3", "fl:3", "g2p2", "g2b"])
def test_cli_variant_the_space_lacks_is_rejected_first(capsys, no_work, space, f):
    line = _one_error_line(*run_cli(capsys, "pushforward", "--space", space, "--f", f,
                                    "--variant", "compact"))
    assert line == f"error: invalid variant 'compact' for {space}"


@pytest.mark.parametrize("argv", [("pushforward", "--space", "gr:1,2", "--f", "z1"),
                                  ("g2", "table")], ids=["pushforward", "g2-table"])
def test_cli_bad_format_environment_is_checked_first(capsys, monkeypatch, no_work, argv):
    monkeypatch.setenv("EQPUSH_FORMAT", "bogus")
    line = _one_error_line(*run_cli(capsys, *argv))
    assert "EQPUSH_FORMAT" in line and "'bogus'" in line


@pytest.mark.parametrize("argv", [
    ("g2", "table", "--f", "json"),
    ("verify", "--space", "gr:1,2", "--f", "text"),
    ("pushforward", "--sp", "gr:1,2", "--f", "z1"),
    ("pushforward", "--space", "gr:1,2", "--f", "z1", "--out", "report.txt"),
], ids=["g2-f", "verify-f", "pushforward-sp", "pushforward-out"])
def test_cli_options_must_be_spelled_in_full(capsys, no_work, argv):
    _one_error_line(*run_cli(capsys, *argv))


@pytest.mark.parametrize("argv, fixture", [
    (("pushforward", "--space", "g2p2", "--f", "G[4,1]", "--format", "json"), None),
    (("g2", "table"), "g2_table.txt"),
    (("cohomology", "g2-integrals"), "cohomology_g2_integrals.txt"),
], ids=["pushforward", "g2-table", "cohomology"])
def test_cli_output_file_holds_what_stdout_shows(tmp_path, capsys, argv, fixture):
    code, shown, _ = run_cli(capsys, *argv)
    assert code == 0
    if fixture is not None:
        assert shown.encode() == golden(fixture)
    path = tmp_path / "out.txt"
    code, out, err = run_cli(capsys, *argv, "--output", str(path))
    assert code == 0 and out == "" and err == ""
    assert path.read_bytes() == shown.encode()


def test_emit_latex_rational(table22):
    from eqpush.algebra import rational
    p = LaurentPolynomial.constant(table22, rational(3, 2)) \
        - LaurentPolynomial.variable(table22, "t1", -2)
    assert emit(p, "latex") == "\\tfrac{3}{2} - t_{1}^{-2}"


def test_cli_format_env_default(capsys, monkeypatch):
    monkeypatch.setenv("EQPUSH_FORMAT", "latex")
    code, out, _ = run_cli(capsys, "pushforward", "--space", "gr:1,2", "--f", "1")
    assert code == 0
    assert out.splitlines()[0] == "localization: 1"


def golden(name):
    with open(os.path.join(FIXTURES, name), "rb") as fh:
        return fh.read()


def test_golden_g2_table(capsys):
    code, out, _ = run_cli(capsys, "g2", "table")
    assert code == 0
    assert out.encode() == golden("g2_table.txt")


def test_golden_g2_class(capsys):
    code, out, _ = run_cli(capsys, "g2", "class")
    assert code == 0
    assert out.encode() == golden("g2_class.txt")


def test_golden_cohomology_integrals(capsys):
    code, out, _ = run_cli(capsys, "cohomology", "g2-integrals")
    assert code == 0
    assert out.encode() == golden("cohomology_g2_integrals.txt")


def test_g2_matrix_det(capsys):
    code, out, _ = run_cli(capsys, "g2", "matrix", "--det")
    assert code == 0
    assert out.strip() == "-1"


@pytest.mark.parametrize("item", ["table", "class"])
def test_g2_det_is_rejected_outside_matrix(capsys, item):
    code, out, err = run_cli(capsys, "g2", item, "--det")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_g2_matrix_full_dump(capsys):
    code, out, _ = run_cli(capsys, "g2", "matrix")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 441
    assert lines[0] == "[0]\t[0]\t1"
    assert lines[-1].startswith("[55]\t[55]\t")


@pytest.mark.parametrize("argv", [["pushforward", "--space", "gr:2,4", "--f", "-z1"],
                                  ["pushforward", "--variant", "mixed"], [],
                                  ["pushforward", "--space", "gr:2,4", "--f", "G[1,2,3]"],
                                  ["pushforward", "--space", "gr:2,4", "--f", "Q[1,2]"],
                                  ["pushforward", "--space", "gr:2,4", "--f", "z1^\u00b2"],
                                  ["pushforward", "--space", "gr:2,4",
                                   "--f", "z1^\u0663*z2^\u0663"]])
def test_cli_bad_argument_is_one_error_line(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


# -- fuzzing -------------------------------------------------------------------

STRAY = "@#$%&!?,.;:[]{}~'\"\\ "


@st.composite
def expressions(draw, names, depth=3):
    """Expression text from a small grammar: integers, the space's variables,
    the macros G, S and U, + - * / ^ with exponents in [-3, 3] and parentheses."""
    if depth == 0 or draw(st.booleans()):
        return draw(st.one_of(
            st.integers(0, 9).map(str), st.sampled_from(names), st.just("U"),
            st.builds("{}[{},{}]".format, st.sampled_from("GS"),
                      st.integers(0, 2), st.integers(0, 2))))
    inner = expressions(names, depth - 1)
    return draw(st.one_of(
        st.builds("({})".format, inner),
        st.builds("{}{}{}".format, inner, st.sampled_from("+-*/"), inner),
        st.builds("({})^{}".format, inner, st.integers(-3, 3)),
        st.builds("-{}".format, inner)))


@st.composite
def fuzzed(draw, names):
    """A grammar expression with up to two stray characters inserted."""
    text = draw(expressions(names))
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(text)))
        text = text[:i] + draw(st.sampled_from(STRAY)) + text[i:]
    return text


@pytest.mark.parametrize("key", ["gr:2,4", "q:2", "g2p2"])
def test_cli_fuzzed_expressions_exit_cleanly(key):
    # an expression that starts with - reaches argparse as an option; that
    # too is one error line
    names = spaces.parse_space(key).table().names

    @settings(max_examples=50)
    @given(fuzzed(names))
    def run(text):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["pushforward", "--space", key, "--f", text])
        assert code in (0, 2), (text, err.getvalue())
        if code == 2:
            assert out.getvalue() == "", text
            assert len(err.getvalue().splitlines()) == 1, (text, err.getvalue())
            assert err.getvalue().startswith("error: "), (text, err.getvalue())

    run()
