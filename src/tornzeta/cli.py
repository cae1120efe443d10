"""Command-line interface.

Subcommands: eval, oracle, verify, suite, constants, bernoulli.  Series
are named with the compact spec syntax (``A3:s=2``, ``An:n=4,s=0``,
``halfint:c``, ``baseT:2``, ``ln``, ``on``, ``S111``,
``tornheim:a=2,b=1,c=1``).  ``suite --out FILE`` prints each entry's time and
status as it finishes.  TORNZETA_DIGITS overrides the default 50-digit
working precision.  Exit code 0 means every requested check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import time

from .closedform import closed_form_of
from .exact import bernoulli
from .harness import PRESETS, _fmt, emit, iter_suite, render_reports, status, verify
from .oracle import (
    NumericCfg,
    OracleError,
    const_ln2,
    const_pi,
    const_zeta,
    default_digits,
    oracle_for,
    zx_numeric,
)
from .series import parse_spec
from .zexpr import zx_normalize


def _add_numeric_opts(p: argparse.ArgumentParser) -> None:
    p.add_argument("--digits", type=int, default=None, help="working precision (default 50)")
    p.add_argument(
        "--nmax",
        type=int,
        default=None,
        help="most terms a series sums (default 10^6); the diagonal route stops at N* "
        "(oracle.asymptotic_cutoff), the raw route at N_raw (oracle.raw_cutoff); each expands "
        "the rest",
    )
    p.add_argument("--quad-levels", type=int, default=None, help="max quadrature levels")
    p.add_argument(
        "--method",
        choices=("raw", "diagonal", "quadrature"),
        default="diagonal",
        help="oracle route (default diagonal)",
    )


def _cfg_from(args) -> NumericCfg:
    kwargs = {"digits": args.digits, "method": args.method}
    if args.nmax is not None:
        kwargs["n_max"] = args.nmax
    if args.quad_levels is not None:
        kwargs["quad_levels"] = args.quad_levels
    return NumericCfg(**kwargs)


def _cmd_eval(args) -> int:
    spec = parse_spec(args.spec)
    closed = closed_form_of(spec)
    shown = zx_normalize(closed, "prefer-pi") if args.prefer_pi else closed
    value = zx_numeric(closed, args.digits)  # before any output, so a refusal prints nothing
    print(spec.label())
    print(f"  closed form: {shown.render()}")
    print(f"  numeric:     {_fmt(value, 30)}")
    return 0


def _cmd_oracle(args) -> int:
    spec = parse_spec(args.spec)
    cfg = _cfg_from(args)
    res = oracle_for(spec, cfg)
    print(spec.label())
    print(f"  method:   {res.method}")
    print(f"  value:    {_fmt(res.value, 30)}")
    if res.n_used is not None:
        print(f"  n_used:   {res.n_used}")
    if res.levels_used is not None:
        print(f"  levels:   {res.levels_used}")
    print(f"  tail_bound:     {_fmt(res.tail_bound, 6)}")
    print(f"  error_estimate: {_fmt(res.error_estimate, 6)}")
    print(f"  elapsed:  {res.elapsed:.3f}s")
    return 0


def _cmd_verify(args) -> int:
    spec = parse_spec(args.spec)
    cfg = _cfg_from(args)
    report = verify(spec, cfg, args.tol)
    print(render_reports([report], "text"), end="")
    return 0 if report.passed else 1


def _cmd_suite(args) -> int:
    manifest = PRESETS[args.preset](args.digits)
    to_file = args.out != "-"
    start, reports = time.perf_counter(), []
    try:
        # opened before the suite runs, so a bad --out costs none of its work
        sink = open(args.out, "w", newline="") if to_file else contextlib.nullcontext(sys.stdout)
        with sink as out:
            for r in iter_suite(manifest, parallel=args.parallel):
                reports.append(r)
                if to_file:
                    line = f"{r.spec.label():<18} {r.oracle.method:<10} {r.oracle.elapsed:>8.3f}s"
                    print(f"{line}  {status(r)}", flush=True)
            emit(reports, args.format, out)
            out.flush()  # a failed write is caught here too
    except (OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if to_file:
        npass, wall = sum(r.passed for r in reports), time.perf_counter() - start
        print(f"{npass}/{len(reports)} identities verified -> {args.out} in {wall:.2f}s")
    return 0 if all(r.passed for r in reports) else 1


def _cmd_constants(args) -> int:
    if args.zeta is None and not (args.ln2 or args.pi):
        raise ValueError("nothing requested; use --zeta K, --ln2 and/or --pi")
    digits = args.digits
    if args.zeta is not None:
        print(f"zeta({args.zeta}) = {_fmt(const_zeta(args.zeta, digits), digits)}")
    if args.ln2:
        print(f"ln2 = {_fmt(const_ln2(digits), digits)}")
    if args.pi:
        print(f"pi = {_fmt(const_pi(digits), digits)}")
    return 0


def _cmd_bernoulli(args) -> int:
    print(bernoulli(args.n))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tornzeta",
        description="Closed forms and numeric verification for Tornheim-like series",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="print the exact closed form and its numeric value")
    p.add_argument("spec", help="series spec, e.g. A3:s=2 or halfint:c")
    p.add_argument("--digits", type=int, default=None)
    p.add_argument("--prefer-pi", action="store_true", help="show even zeta values as pi powers")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("oracle", help="numerically estimate a series by one oracle route")
    p.add_argument("spec")
    _add_numeric_opts(p)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("verify", help="compare closed form against an oracle")
    p.add_argument("spec")
    p.add_argument("--tol", type=float, default=1e-8)
    _add_numeric_opts(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("suite", help="run a preset identity suite and emit a report")
    p.add_argument("--preset", choices=sorted(PRESETS), default="smoke")
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.add_argument("--out", default="-", help="output file, - for stdout")
    p.add_argument("--parallel", action="store_true")
    p.add_argument("--digits", type=int, default=None)
    p.set_defaults(func=_cmd_suite)

    p = sub.add_parser("constants", help="print high-precision constants")
    p.add_argument("--zeta", type=int, default=None, metavar="K")
    p.add_argument("--ln2", action="store_true")
    p.add_argument("--pi", action="store_true")
    p.add_argument("--digits", type=int, default=None)
    p.set_defaults(func=_cmd_constants)

    p = sub.add_parser("bernoulli", help="print an exact Bernoulli number")
    p.add_argument("n", type=int)
    p.set_defaults(func=_cmd_bernoulli)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if "digits" in vars(args) and args.digits is None:
            # read as the command runs, so a bad TORNZETA_DIGITS exits with 2
            args.digits = default_digits()
        return args.func(args)
    except OracleError as exc:
        print(f"oracle failure: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
