"""Command-line entry point.

Subcommands: pushforward (evaluate both push-forward paths and compare),
verify (seeded randomized differential campaign), g2 table|matrix|class, and
cohomology g2-integrals.  Output formats: text (canonical rendering), json
(canonical term schema) and latex.

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


def emit(value: LaurentPolynomial, fmt: str) -> str:
    if fmt == "text":
        return value.render()
    if fmt == "json":
        import json
        return json.dumps({"terms": value.json_terms()}, separators=(",", ":"))
    if fmt == "latex":
        return value.render_latex()
    raise ValueError(f"unknown format {fmt!r}")


def _write(args, text: str) -> None:
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _load_config(path: str) -> dict:
    out = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"config line without '=': {line!r}")
            key, _, val = line.partition("=")
            out[key.strip()] = val.strip()
    return out


def _merge_config(args) -> None:
    if not getattr(args, "config", None):
        return
    conf = _load_config(args.config)
    mapping = {
        "space": ("space", str), "expression": ("f", str), "f": ("f", str),
        "variant": ("variant", str), "trials": ("trials", int),
        "seed": ("seed", int), "max_exp": ("max_exp", int),
        "format": ("format", str), "output": ("output", str),
    }
    for key, val in conf.items():
        if key not in mapping:
            raise ValueError(f"unknown config key {key!r}")
        attr, conv = mapping[key]
        if getattr(args, attr, None) is None:
            setattr(args, attr, conv(val))


def _default_format(args) -> str:
    if getattr(args, "format", None):
        return args.format
    return os.environ.get(FORMAT_ENV, "text")


def cmd_pushforward(args) -> int:
    space = parse_space(args.space)
    if args.f is None:
        raise ValueError("pushforward needs --f")
    variant = args.variant or "full"
    f = parse_to_polynomial(args.f, space.table())
    from .spaces import localization_pushforward, residue_pushforward
    loc = localization_pushforward(space, f)
    res = residue_pushforward(space, f, variant)
    agree = loc == res
    fmt = _default_format(args)
    if fmt == "json":
        import json
        payload = {
            "space": space.key(), "f": args.f, "variant": variant,
            "localization": {"terms": loc.json_terms()},
            "residue": {"terms": res.json_terms()},
            "agree": agree,
        }
        _write(args, json.dumps(payload, separators=(",", ":")))
    else:
        _write(args, "\n".join([
            f"localization: {emit(loc, fmt)}",
            f"residue: {emit(res, fmt)}",
            f"agree: {'true' if agree else 'false'}",
        ]))
    return 0 if agree else 1


def cmd_verify(args) -> int:
    space = parse_space(args.space)
    trials = args.trials if args.trials is not None else 20
    seed = args.seed if args.seed is not None else 0
    max_exp = args.max_exp if args.max_exp is not None else 3
    if trials < 1:
        raise ValueError(f"--trials must be at least 1, got {trials}")
    if max_exp < 0:
        raise ValueError(f"--max-exp must be at least 0, got {max_exp}")
    if args.format not in (None, "text"):
        raise ValueError(f"verify writes a text report; format {args.format} does not apply")
    from .verification import run_campaign
    out = open(args.output, "w") if args.output else sys.stdout
    try:
        for line in run_campaign(space, trials, seed, max_exp):
            out.write(line + "\n")
            out.flush()
    finally:
        if out is not sys.stdout:
            out.close()
    return 0 if line.endswith("all agree") else 1


def cmd_g2(args) -> int:
    from . import g2
    if args.det and args.item != "matrix":
        raise ValueError(f"--det applies only to g2 matrix, not g2 {args.item}")
    fmt = _default_format(args)
    if args.item == "table":
        table = g2.grothendieck_table()
        lines = [f"{lam.render()}\t{emit(table[lam], fmt)}" for lam in g2.box_partitions()]
        _write(args, "\n".join(lines))
        return 0
    if args.item == "matrix":
        matrix = g2.intersection_matrix()
        if args.det:
            _write(args, emit(g2.intersection_determinant(matrix), fmt))
            return 0
        parts = g2.box_partitions()
        lines = []
        for i, lam in enumerate(parts):
            for j, mu in enumerate(parts):
                lines.append(f"{lam.render()}\t{mu.render()}\t{emit(matrix[i][j], fmt)}")
        _write(args, "\n".join(lines))
        return 0
    if args.item == "class":
        solution = g2.fundamental_class_solve()
        lines = [f"{lam.render()}\t{emit(solution[lam], fmt)}" for lam in g2.box_partitions()]
        _write(args, "\n".join(lines))
        return 0
    raise ValueError(f"unknown g2 item {args.item!r}")


def cmd_cohomology(args) -> int:
    if args.item != "g2-integrals":
        raise ValueError(f"unknown cohomology item {args.item!r}")
    from .cohomology import coh_table, g2_integral
    from .polyfam import schur_pair
    fmt = _default_format(args)
    lines = []
    for a, b in [(5, 0), (4, 1), (3, 2), (5, 2), (4, 3), (5, 4)]:
        value = g2_integral(schur_pair(a, b, coh_table()))
        lines.append(f"S[{a},{b}]\t{emit(value, fmt)}")
    _write(args, "\n".join(lines))
    return 0


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a bad argument on one `error:` line, like every other exit 2
    (an expression that starts with - is passed as --f=-z1)."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="eqpush",
        description="Exact equivariant push-forwards: localization sums vs. iterated residues.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=["text", "json", "latex"], default=None,
                       help=f"output format (default from ${FORMAT_ENV} or text)")
        p.add_argument("--output", default=None, help="write output to a file")
        p.add_argument("--config", default=None, help="key=value config file")

    p = sub.add_parser("pushforward", help="evaluate both push-forward paths")
    p.add_argument("--space", default=None, help="space key, e.g. gr:2,4 or g2p2")
    p.add_argument("--f", default=None, help="class expression, e.g. 'G[4,1]'")
    p.add_argument("--variant", choices=["full", "compact"], default=None)
    common(p)
    p.set_defaults(func=cmd_pushforward)

    p = sub.add_parser("verify", help="seeded randomized differential campaign")
    p.add_argument("--space", default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--max-exp", dest="max_exp", type=int, default=None)
    common(p)
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

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        _merge_config(args)
        if getattr(args, "space", "") is None and args.command in ("pushforward", "verify"):
            raise ValueError(f"{args.command} needs --space")
        return args.func(args)
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
