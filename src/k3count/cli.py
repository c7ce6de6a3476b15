"""Command line front end.

Exit codes: 0 for success (including a matching ``check``), 1 for domain
errors such as non-coprime inputs, 2 for usage and parse errors (a curve
file that cannot be opened or is not UTF-8 included), 3 for a ``check``
that ran but did not match.
"""

from __future__ import annotations

import argparse
import json
import sys

from .invariants import (
    CurveSpecError,
    check_genus_sum,
    format_singularity,
    parse_curve,
    parse_curve_file,
    parse_singularity,
)
from .numsg import semigroup_from_generators
from .qseries import yau_zaslow_coefficients
from .semimodule import enumerate_delta_sets, minimal_generators


def _nonneg(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="k3count",
        description=(
            "Rational-curve counts on K3 surfaces: coefficients e(g), the "
            "epsilon invariant of curve singularities, and curve multiplicities."
        ),
    )
    parser.add_argument("--json", action="store_true", help="emit JSON")
    parser.add_argument(
        "--max-window",
        type=_nonneg,
        default=None,
        metavar="N",
        help="skip --verify enumerations whose search window exceeds N",
    )
    # the same flags are accepted after the subcommand; SUPPRESS keeps the
    # pre-subcommand value when the post-subcommand flag is absent
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", default=argparse.SUPPRESS)
    common.add_argument(
        "--max-window", type=_nonneg, default=argparse.SUPPRESS, metavar="N"
    )

    sub = parser.add_subparsers(dest="command", required=True)

    p_eg = sub.add_parser("eg", parents=[common], help="table of (g, e(g))")
    p_eg.add_argument("gmax", type=_nonneg, help="largest genus to report")
    p_eg.set_defaults(func=_cmd_eg)

    p_eps = sub.add_parser("epsilon", parents=[common], help="epsilon of one point")
    p_eps.add_argument("token", help="singularity token, e.g. pq(3,5) or E8")
    p_eps.add_argument(
        "--verify",
        action="store_true",
        help="cross-check through an independent route when one exists",
    )
    p_eps.set_defaults(func=_cmd_epsilon)

    p_mod = sub.add_parser("modules", parents=[common], help="list all Delta-sets")
    p_mod.add_argument("generators", help="comma-separated semigroup generators")
    p_mod.set_defaults(func=_cmd_modules)

    p_mult = sub.add_parser(
        "multiplicity", parents=[common], help="multiplicity of one curve"
    )
    p_mult.add_argument("curve", help="comma-separated singularity tokens")
    p_mult.set_defaults(func=_cmd_multiplicity)

    p_check = sub.add_parser(
        "check", parents=[common], help="compare a curve list with e(g)"
    )
    p_check.add_argument("file", help="curve list, one curve per line")
    p_check.add_argument("--g", type=_nonneg, required=True, help="genus to check")
    p_check.set_defaults(func=_cmd_check)

    return parser


def _print_json(payload) -> None:
    print(json.dumps(payload, indent=2))


def _cmd_eg(args) -> int:
    coeffs = yau_zaslow_coefficients(args.gmax)
    if args.json:
        _print_json([{"g": g, "e": e} for g, e in enumerate(coeffs)])
    else:
        for g, e in enumerate(coeffs):
            print(f"{g}\t{e}")
    return 0


def _cmd_epsilon(args) -> int:
    sing = parse_singularity(args.token)
    eps = sing.epsilon
    verify = sing.verify(args.max_window) if args.verify else None
    agrees = None
    if verify is not None and not verify.get("skipped"):
        agrees = verify["value"] == eps
        verify["agrees"] = agrees
    if args.json:
        payload = {"token": format_singularity(sing), "epsilon": eps, "method": sing.method}
        if verify is not None:
            payload["verify"] = verify
        _print_json(payload)
    else:
        print(f"epsilon = {eps}")
        print(f"method = {sing.method}")
        if verify is not None:
            if verify.get("skipped"):
                print(f"verified = skipped ({verify['reason']})")
            else:
                print(f"verify-method = {verify['method']}")
                print(f"verify-value = {verify['value']}")
                print(f"verified = {'true' if agrees else 'false'}")
    return 1 if agrees is False else 0


def _cmd_modules(args) -> int:
    try:
        gens = [int(piece) for piece in args.generators.split(",")]
    except ValueError:
        raise CurveSpecError(
            f"expected comma-separated integers, got {args.generators!r}"
        )
    s = semigroup_from_generators(gens)
    modules = enumerate_delta_sets(s)
    rows = [(m.gap_set, minimal_generators(m)) for m in modules]
    if args.json:
        _print_json([{"gaps": list(g), "generators": list(mg)} for g, mg in rows])
    else:
        for gaps, mingens in rows:
            gap_text = ",".join(str(x) for x in gaps)
            gen_text = ",".join(str(x) for x in mingens)
            print(f"gaps={{{gap_text}}} gens={{{gen_text}}}")
        print(f"count={len(rows)}")
    return 0


def _cmd_multiplicity(args) -> int:
    curve = parse_curve(args.curve)
    if args.json:
        _print_json(
            {
                "singularities": [
                    {"token": format_singularity(s), "epsilon": s.epsilon}
                    for s in curve.singularities
                ],
                "multiplicity": curve.multiplicity,
            }
        )
    else:
        for s in curve.singularities:
            print(f"{format_singularity(s)}: epsilon = {s.epsilon}")
        print(f"multiplicity = {curve.multiplicity}")
    return 0


def _cmd_check(args) -> int:
    with open(args.file, encoding="utf-8") as handle:
        curves = parse_curve_file(handle.read())
    report = check_genus_sum(curves, args.g)
    if args.json:
        _print_json(
            {
                "curves": len(curves),
                "sum": report.sum,
                "expected": report.expected,
                "equal": report.equal,
            }
        )
    else:
        print(f"curves = {len(curves)}")
        print(f"sum = {report.sum}")
        print(f"expected = {report.expected}")
        print(f"equal = {'true' if report.equal else 'false'}")
    return 0 if report.equal else 3


def main(argv=None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)  # exact values may run past 4300 digits
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CurveSpecError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
