import json
import os
import random
import subprocess
import sys

import pytest

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
                         "eqpush.cohomology", "eqpush.elimination", "eqpush.verification")


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
    assert err.splitlines() == ["internal error: planted fault"]


@pytest.mark.parametrize("argv", [("matrix", "--det"), ("class",)], ids=["det", "class"])
def test_cli_inexact_elimination_exits_four(capsys, monkeypatch, argv):
    monkeypatch.setattr(elimination, "exact_divide", _not_divisible)
    code, out, err = run_cli(capsys, "g2", *argv)
    assert code == 4 and out == ""
    assert err.splitlines() == ["internal error: planted fault"]


@pytest.mark.parametrize("expr", ["z1/(1-z1)", "z1/0", "(1-z1)^-1"])
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


def test_largest_grothendieck_macro_is_accepted(table22):
    assert parse_to_polynomial("G[63,0]", table22) == polyfam.grothendieck_pair(63, 0, table22)


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


def test_g2_matrix_full_dump(capsys):
    code, out, _ = run_cli(capsys, "g2", "matrix")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 441
    assert lines[0] == "[0]\t[0]\t1"
    assert lines[-1].startswith("[55]\t[55]\t")
