"""Command line front end.

Exit codes: 0 for success (including a matching ``check``), 1 for domain
errors such as non-coprime inputs and for running out of memory, 2 for
usage and parse errors (a curve file that cannot be opened or is not
UTF-8 included), 3 for a ``check`` that ran but did not match.  Each
subcommand returns its exit code, a record of values (a token as its descriptor)
and its text lines (formatted only when iterated); ``main`` renders one of them.

Each process runs one subcommand, so each ``_cmd_*`` imports the modules it
calls and ``json`` is imported only to render JSON: ``eg`` loads
``qseries`` alone.  The top imports come from the package root, which imports
no submodule: what ``main`` needs before it dispatches and ``modules``' integer list.
"""

from __future__ import annotations

import argparse
import sys

from . import _INTEGER, CurveSpecError, _int_values


def _nonneg(text: str) -> int:
    # the integer syntax of sg(…)
    if _INTEGER.fullmatch(text) is None:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if text.startswith("-"):
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text}")
    return int(text)


def _parse_args(argv) -> argparse.Namespace:
    # global flags, before and after the subcommand: with SUPPRESS an absent flag
    # keeps its default from the starting namespace below, and the last one wins
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--json", action="store_true", default=argparse.SUPPRESS, help="emit JSON"
    )
    common.add_argument(
        "--max-window",
        type=_nonneg,
        default=argparse.SUPPRESS,
        metavar="N",
        help="skip --verify enumerations whose search window exceeds N",
    )
    parser = argparse.ArgumentParser(
        prog="k3count",
        description=(
            "Rational-curve counts on K3 surfaces: coefficients e(g), the "
            "epsilon invariant of curve singularities, and curve multiplicities."
        ),
        parents=[common],
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

    return parser.parse_args(argv, argparse.Namespace(json=False, max_window=None))


def _cmd_eg(args) -> tuple:
    from .qseries import yau_zaslow_coefficients

    coeffs = yau_zaslow_coefficients(args.gmax)
    record = [{"g": g, "e": e} for g, e in enumerate(coeffs)]
    return 0, record, (f"{g}\t{e}" for g, e in enumerate(coeffs))


def _cmd_epsilon(args) -> tuple:
    from .invariants import parse_singularity

    sing = parse_singularity(args.token)
    eps = sing.epsilon
    record = {"token": sing, "epsilon": eps, "method": sing.method}
    text = [("epsilon", eps), ("method", sing.method)]
    code = 0
    if args.verify:
        route = sing.verify(args.max_window)
        if route.reason is not None:
            record["verify"] = {"skipped": True, "reason": route.reason}
            text.append(("verified", f"skipped ({route.reason})"))
        else:
            agrees = route.value == eps
            code = 0 if agrees else 1
            record["verify"] = {"method": route.method, "value": route.value, "agrees": agrees}
            text += [("verify-method", route.method), ("verify-value", route.value)]
            text.append(("verified", str(agrees).lower()))  # JSON's true or false
    return code, record, (f"{key} = {value}" for key, value in text)


def _cmd_modules(args) -> tuple:
    from .numsg import semigroup_from_generators
    from .semimodule import enumerate_delta_sets, minimal_generators

    semigroup = semigroup_from_generators(_int_values(args.generators, args.generators))
    rows = [(m.gap_set, minimal_generators(m)) for m in enumerate_delta_sets(semigroup)]
    record = [{"gaps": gaps, "generators": mingens} for gaps, mingens in rows]

    def lines():
        for gaps, mingens in rows:
            yield f"gaps={{{','.join(map(str, gaps))}}} gens={{{','.join(map(str, mingens))}}}"
        yield f"count={len(rows)}"

    return 0, record, lines()


def _cmd_multiplicity(args) -> tuple:
    from .invariants import parse_curve

    curve = parse_curve(args.curve)
    points = [{"token": s, "epsilon": s.epsilon} for s in curve.singularities]
    record = {"singularities": points, "multiplicity": curve.multiplicity}

    def lines():
        yield from (f"{p['token']}: epsilon = {p['epsilon']}" for p in points)
        yield f"multiplicity = {curve.multiplicity}"

    return 0, record, lines()


def _cmd_check(args) -> tuple:
    from .invariants import check_genus_sum, parse_curve_file

    with open(args.file, encoding="utf-8") as handle:
        curves = parse_curve_file(handle.read())
    report = check_genus_sum(curves, args.g)
    record = {
        "curves": len(curves),
        "sum": report.sum,
        "expected": report.expected,
        "equal": report.equal,
    }
    # each text line is a key and its JSON value: digits, true or false
    lines = (f"{key} = {str(value).lower()}" for key, value in record.items())
    return (0 if report.equal else 3), record, lines


def main(argv=None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)  # exact values may run past 4300 digits
    args = _parse_args(argv)
    try:
        code, record, lines = args.func(args)
        # rendering stays inside the try: a failed write to stdout, such as
        # a closed pipe, is an OSError and exits 2 like any other
        if args.json:
            import json

            lines = [json.dumps(record, indent=2, default=str)]  # a descriptor as its token
        print("\n".join(lines))
        return code
    except (CurveSpecError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OverflowError) as exc:  # an input too large for a list or comb
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:  # an input too large for this machine's memory
        print("error: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
