"""Command-line entry point.

Subcommands: pushforward (evaluate both push-forward paths and compare),
verify (seeded randomized differential campaign), g2 table|matrix|class, and
cohomology g2-integrals.  Output formats: text (canonical rendering), json
(canonical term schema) and latex.  argparse checks every input: the
flags, each `key=value` line of a `--config` file (read as `--key=value`) and
$EQPUSH_FORMAT, all before any work; every command writes through `_write`.

Exit codes: 0 success, 1 verification mismatch, 2 parse/config error,
4 internal invariant violation or out of memory.  Code 3 (a sum failed to
simplify) is no longer produced, and the number is not reused.

Each handler imports the modules only its subcommand uses (json, g2,
cohomology, verification), so a cold `pushforward` process loads none of them.
"""

from __future__ import annotations

import argparse
import os
import sys

from .algebra import InvariantError, LaurentPolynomial, NotDivisible
from .exprparse import ExpressionSyntaxError, parse_to_polynomial
from .spaces import SymmetryViolation, parse_space

FORMAT_ENV = "EQPUSH_FORMAT"
FORMATS = ("text", "json", "latex")
# config keys that are not flag names: expression=... is --f, max_exp=... is --max-exp
CONFIG_ALIASES = {"expression": "f", "max_exp": "max-exp"}


def emit(value: LaurentPolynomial, fmt: str) -> str:
    if fmt == "text":
        return value.render()
    if fmt == "json":
        import json
        return json.dumps({"terms": value.json_terms()}, separators=(",", ":"))
    if fmt == "latex":
        return value.render_latex()
    raise ValueError(f"unknown format {fmt!r}")


def _write(args, lines) -> str:
    """Writes and flushes each line as it comes, to --output or stdout;
    returns the last line."""
    line = ""
    out = open(args.output, "w") if args.output else sys.stdout
    try:
        for line in lines:
            out.write(line + "\n")
            out.flush()
    finally:
        if out is not sys.stdout:
            out.close()
    return line


def _config_flags(path: str, known) -> list:
    """The `key=value` lines of a config file as `--key=value` flags, which the
    subcommand's parser then checks like its own; a key that is none of the
    `known` flags is an error here."""
    flags = []
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"config line without '=': {line!r}")
            key, _, val = line.partition("=")
            key = key.strip()
            flag = "--" + CONFIG_ALIASES.get(key, key)
            if flag not in known:
                raise ValueError(f"unknown config key {key!r}")
            flags.append(f"{flag}={val.strip()}")
    return flags


def cmd_pushforward(args) -> int:
    space = parse_space(args.space)
    if args.variant not in space.variants():
        raise ValueError(f"invalid variant {args.variant!r} for {space.key()}")
    f = parse_to_polynomial(args.f, space.table())
    from .spaces import localization_pushforward, residue_pushforward
    loc = localization_pushforward(space, f)
    res = residue_pushforward(space, f, args.variant)
    agree = loc == res
    if args.format == "json":
        import json
        payload = {
            "space": space.key(), "f": args.f, "variant": args.variant,
            "localization": {"terms": loc.json_terms()},
            "residue": {"terms": res.json_terms()},
            "agree": agree,
        }
        _write(args, [json.dumps(payload, separators=(",", ":"))])
    else:
        _write(args, [f"localization: {emit(loc, args.format)}",
                      f"residue: {emit(res, args.format)}",
                      f"agree: {'true' if agree else 'false'}"])
    return 0 if agree else 1


def cmd_verify(args) -> int:
    space = parse_space(args.space)
    if args.trials < 1:
        raise ValueError(f"--trials must be at least 1, got {args.trials}")
    if args.max_exp < 0:
        raise ValueError(f"--max-exp must be at least 0, got {args.max_exp}")
    from .verification import run_campaign
    summary = _write(args, run_campaign(space, args.trials, args.seed, args.max_exp))
    return 0 if summary.endswith("all agree") else 1


def cmd_g2(args) -> int:
    from . import g2
    if args.det and args.item != "matrix":
        raise ValueError(f"--det applies only to g2 matrix, not g2 {args.item}")
    fmt = args.format
    if args.item == "matrix":
        matrix = g2.intersection_matrix()
        if args.det:
            from .elimination import determinant
            lines = [emit(determinant(matrix), fmt)]
        else:
            lines = [f"{g2.box_label(lam)}\t{g2.box_label(mu)}\t{emit(matrix[i][j], fmt)}"
                     for i, lam in enumerate(g2.BOX) for j, mu in enumerate(g2.BOX)]
    else:
        values = g2.grothendieck_table() if args.item == "table" else g2.fundamental_class_solve()
        lines = [f"{g2.box_label(lam)}\t{emit(values[lam], fmt)}" for lam in g2.BOX]
    _write(args, lines)
    return 0


def cmd_cohomology(args) -> int:
    from .cohomology import coh_table, g2_integral
    from .polyfam import schur_pair
    lines = [f"S[{a},{b}]\t{emit(g2_integral(schur_pair(a, b, coh_table())), args.format)}"
             for a, b in [(5, 0), (4, 1), (3, 2), (5, 2), (4, 3), (5, 4)]]
    _write(args, lines)
    return 0


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a bad argument on one `error:` line, like every other exit 2
    (an expression that starts with - is passed as --f=-z1), and takes an
    option only when it is spelled in full."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="eqpush",
        description="Exact equivariant push-forwards: localization sums vs. iterated residues.")
    sub = parser.add_subparsers(dest="command", required=True)
    env_format = os.environ.get(FORMAT_ENV, "text")

    def common(p, formats=FORMATS, default=env_format):
        p.add_argument("--format", choices=formats, default=default,
                       help="output format (default: %(default)s)")
        p.add_argument("--output", help="write output to a file")
        p.add_argument("--config", help="key=value file of flags; the command line's win")

    p = sub.add_parser("pushforward", help="evaluate both push-forward paths")
    p.add_argument("--space", required=True, help="space key, e.g. gr:2,4 or g2p2")
    p.add_argument("--f", required=True, help="class expression, e.g. 'G[4,1]'")
    p.add_argument("--variant", choices=["full", "compact"], default="full")
    common(p)
    p.set_defaults(func=cmd_pushforward)

    p = sub.add_parser("verify", help="seeded randomized differential campaign")
    p.add_argument("--space", required=True)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-exp", type=int, default=3)
    common(p, formats=["text"], default="text")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("g2", help="exceptional-quotient artifacts")
    p.add_argument("item", choices=["table", "matrix", "class"])
    p.add_argument("--det", action="store_true", help="print only the determinant (matrix only)")
    common(p)
    p.set_defaults(func=cmd_g2)

    p = sub.add_parser("cohomology", help="cohomological integrals")
    p.add_argument("item", choices=["g2-integrals"])
    common(p)
    p.set_defaults(func=cmd_cohomology)

    # a config key must name a flag that some subcommand takes
    flags = {flag for command in sub.choices.values() for flag in command._option_string_actions}
    parser.config_keys = flags - {"-h", "--help", "--config"}
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        pre = _ArgumentParser(add_help=False)
        pre.add_argument("--config")
        config = pre.parse_known_args(argv[1:])[0].config
        if config:
            # right after the subcommand name, so that the command line's flags win
            argv[1:1] = _config_flags(config, parser.config_keys)
        args = parser.parse_args(argv)
        if args.format not in FORMATS:  # only the environment gets past `choices`
            parser.error(f"${FORMAT_ENV}: invalid choice: {args.format!r} "
                         f"(choose from {', '.join(FORMATS)})")
        return args.func(args)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    except (ExpressionSyntaxError, SymmetryViolation, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InvariantError, NotDivisible, MemoryError) as exc:
        # the parser reports every inexact division in the input as exit 2, so
        # one that gets here is an internal fault; running out of memory has
        # no input error to report either
        print(f"internal error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
