"""Command-line interface.

Subcommands: eval, oracle, verify, suite, constants, bernoulli.  Series
are named with the compact spec syntax (``A3:s=2``, ``An:n=4,s=0``,
``halfint:c``, ``baseT:2``, ``ln``, ``on``, ``S111``,
``tornheim:a=2,b=1,c=1``).  ``suite --out FILE`` prints each entry's time and
status as it finishes.  ``--help`` prints the precision and oracle defaults,
which come from ``NumericCfg``.  Exit code 0 means every requested check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import time

from .closedform import closed_form_of
from .exact import bernoulli
from .harness import PRESETS, _fmt, iter_suite, render_reports, status, verify
from .oracle import (
    METHODS,
    NumericCfg,
    OracleError,
    const_ln2,
    const_pi,
    const_zeta,
    oracle_for,
    zx_numeric,
)
from .series import parse_spec
from .zexpr import zx_normalize


def _add_numeric_opts(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--nmax",
        type=int,
        default=NumericCfg.n_max,
        help="most terms a series sums (default %(default)s); the diagonal route stops at N* "
        "(oracle.asymptotic_cutoff) and expands the rest, the raw route sums the box of this "
        "side and bounds the rest",
    )
    p.add_argument(
        "--quad-levels",
        type=int,
        default=NumericCfg.quad_levels,
        help="max quadrature levels (default %(default)s)",
    )
    p.add_argument(
        "--method",
        choices=METHODS,
        default=NumericCfg.method,
        help="oracle route (default %(default)s)",
    )


def _cfg_from(args) -> NumericCfg:
    return NumericCfg(args.digits, args.nmax, args.quad_levels, args.method)


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
            out.write(render_reports(reports, args.format))
            out.flush()  # a failed write is caught here too
    except OSError as exc:
        print(
            f"error: could not write {args.format} report to {args.out}: {exc}", file=sys.stderr
        )
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
    digits = argparse.ArgumentParser(add_help=False)
    digits.add_argument(
        "--digits",
        type=int,
        default=NumericCfg.digits,
        help="working precision (default %(default)s)",
    )
    spec = argparse.ArgumentParser(add_help=False)
    spec.add_argument("spec", help="series spec, e.g. A3:s=2 or halfint:c")

    p = sub.add_parser(
        "eval", parents=[digits, spec], help="print the exact closed form and its numeric value"
    )
    p.add_argument("--prefer-pi", action="store_true", help="show even zeta values as pi powers")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser(
        "oracle", parents=[digits, spec], help="numerically estimate a series by one oracle route"
    )
    _add_numeric_opts(p)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("verify", parents=[digits, spec], help="compare closed form against an oracle")
    tol = "widen the pass to |closed − value| ≤ tol ≥ 0; default %(default)s, the enclosure alone"
    p.add_argument("--tol", type=float, default=0.0, help=tol)
    _add_numeric_opts(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser(
        "suite", parents=[digits], help="run a preset identity suite and write a report"
    )
    p.add_argument("--preset", choices=sorted(PRESETS), default="smoke", help="default %(default)s")
    p.add_argument("--format", choices=("text", "json", "csv"), default="text", help="default %(default)s")
    p.add_argument("--out", default="-", help="output file, - for stdout")
    p.add_argument("--parallel", action="store_true", help="spawned processes, the same bytes as serial")
    p.set_defaults(func=_cmd_suite)

    p = sub.add_parser("constants", parents=[digits], help="print high-precision constants")
    p.add_argument("--zeta", type=int, default=None, metavar="K", help="print zeta(K)")
    p.add_argument("--ln2", action="store_true", help="print ln 2")
    p.add_argument("--pi", action="store_true", help="print pi")
    p.set_defaults(func=_cmd_constants)

    p = sub.add_parser("bernoulli", help="print an exact Bernoulli number")
    p.add_argument("n", type=int, help="print B_n as an exact fraction")
    p.set_defaults(func=_cmd_bernoulli)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OracleError as exc:
        print(f"oracle failure: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
