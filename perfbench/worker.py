"""One pass of a benchmark workload, in a fresh interpreter.

The runner (run.py) starts it as

    python perfbench/worker.py --workload W --seed N --t0 NS [--setup-only] [--trace]

where NS is ``time.monotonic_ns()`` taken just before the interpreter was
started.  The worker sets up (imports tornzeta and builds the entries of
the pass), runs the pass once, checks every output and prints one JSON
object as its last line: setup_s, wall_s, rss_mb, the checks and, with
--trace, the per-layer figures.  Times are corrected for the host's speed
(speed.py); the raw ones are reported beside them.

tornzeta's functions are always looked up as module attributes here, so
the wrappers that tracing installs in those modules are the ones called.
Each workload's run() returns its outputs and the (start, end) interval of
every check on the monotonic clock; check() gets the corrected latencies.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time

from mpmath import mp

import inputs
import speed
from certify import agrees, certified_digits, reference_value, to_mpf
from tracing import Tracer, install_all, layer_metrics, scaled
from tornzeta import cli, closedform, harness, oracle, series

REPORT_FORMATS = ("json", "csv", "text")


def _check(label: str, ok: bool, digits=None, ms=None, reason: str = "") -> dict:
    return {"label": label, "ok": bool(ok), "digits": digits, "ms": ms, "reason": reason}


def _verify_check(report, label: str, digits: int, ms: float) -> dict:
    """The report passed, and its closed-form value matches mpmath's reference."""
    reasons = []
    if not report.passed:
        reasons.append(report.reason or "verify did not pass")
    if not agrees(report.closed_numeric, reference_value(report.closed_form, digits), digits):
        reasons.append("closed-form value disagrees with the mpmath reference")
    o = report.oracle
    certified = 0.0
    if not reasons:
        certified = certified_digits(
            report.closed_numeric, report.abs_err, o.tail_bound, o.error_estimate, digits
        )
    return _check(label, not reasons, certified, ms, "; ".join(reasons))


def _rendered_checks(reports, rendered: dict[str, str]) -> list[dict]:
    """Each rendered report has one row per entry, all passing."""
    n = len(reports)
    rows = json.loads(rendered["json"])
    return [
        _check("render json", len(rows) == n and all(r["pass"] for r in rows)),
        _check("render csv", rendered["csv"].count("\n") == n + 1),
        _check("render text", rendered["text"].endswith(f"\n{n}/{n} identities verified\n")),
    ]


class PaperFull:
    """The shipped paper-full preset through the command line, at 50 digits."""

    def __init__(self, seed: int) -> None:
        self.entries = harness.paper_full_manifest(inputs.DIGITS).entries

    def run(self):
        reports, spans = [], []
        timed_verify = harness.verify

        def probe(spec, cfg, tol):
            t = time.monotonic()
            report = timed_verify(spec, cfg, tol)
            spans.append((t, time.monotonic()))
            reports.append(report)
            return report

        harness.verify = probe
        out = io.StringIO()
        argv = ["suite", "--preset", "paper-full", "--format", "json", "--digits", str(inputs.DIGITS)]
        try:
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
        finally:
            harness.verify = timed_verify
        return (code, reports, out.getvalue()), spans

    def check(self, result, ms) -> tuple[list[dict], dict]:
        code, reports, text = result
        checks = [_check("suite exit code", code == 0, reason=f"exit code {code}")]
        checks.append(_check("one report per entry", len(reports) == len(self.entries)))
        for entry, report, t in zip(self.entries, reports, ms):
            size = "" if entry.cfg.method == "quadrature" else f" {entry.cfg.n_max}"
            label = f"{entry.spec.label()} {entry.cfg.method}{size}"
            checks.append(_verify_check(report, label, entry.cfg.digits, t))
        rows = json.loads(text)
        checks.append(
            _check("json report", len(rows) == len(self.entries) and all(r["pass"] for r in rows))
        )
        return checks, {"json_sha256": hashlib.sha256(text.encode()).hexdigest()}


class HiprecQuad:
    """A-family quadrature and closed-form constants at 100 to 300 digits."""

    def __init__(self, seed: int) -> None:
        self.quad, self.closed = inputs.hiprec_items(seed)

    def run(self):
        reports, spans = [], []
        for text, digits in self.quad:
            t = time.monotonic()
            cfg = oracle.NumericCfg(
                digits=digits, quad_levels=inputs.HIPREC_QUAD_LEVELS, method="quadrature"
            )
            # tol is a float, which is what caps the workload at 300 digits
            reports.append(harness.verify(series.parse_spec(text), cfg, float(f"1e-{digits - 10}")))
            spans.append((t, time.monotonic()))
        values = [
            oracle.zx_numeric(closedform.closed_form_of(series.parse_spec(text)), digits)
            for text, digits in self.closed
        ]
        return (reports, values), spans

    def check(self, result, ms) -> tuple[list[dict], dict]:
        reports, values = result
        checks = [
            _verify_check(r, f"{text} quadrature {d}d", d, t)
            for (text, d), r, t in zip(self.quad, reports, ms)
        ]
        for (text, digits), value in zip(self.closed, values):
            ref = reference_value(closedform.closed_form_of(series.parse_spec(text)), digits)
            checks.append(_check(f"{text} closed form {digits}d", agrees(value, ref, digits)))
        return checks, {}


class SweepSmall:
    """Thousands of small seeded verify calls, rendered in every format."""

    def __init__(self, seed: int) -> None:
        self.items = inputs.sweep_items(seed)

    def run(self):
        reports, spans = [], []
        for text, method, cutoff, tol in self.items:
            t = time.monotonic()
            cfg = oracle.NumericCfg(digits=inputs.DIGITS, n_max=cutoff, method=method)
            reports.append(harness.verify(series.parse_spec(text), cfg, tol))
            spans.append((t, time.monotonic()))
        rendered = {fmt: harness.render_reports(reports, fmt) for fmt in REPORT_FORMATS}
        return (reports, rendered), spans

    def check(self, result, ms) -> tuple[list[dict], dict]:
        reports, rendered = result
        checks = [
            _verify_check(r, f"{text} {method} {cutoff}", inputs.DIGITS, t)
            for (text, method, cutoff, _), r, t in zip(self.items, reports, ms)
        ]
        return checks + _rendered_checks(reports, rendered), {}


class ExactSound:
    """Exact Fraction partial sums: diagonal, triangle and box, for every family."""

    def __init__(self, seed: int) -> None:
        self.items = inputs.exact_items(seed)

    def run(self):
        sums, spans = [], []
        for text, cutoff in self.items:
            t = time.monotonic()
            spec = series.parse_spec(text)
            sums.append(
                (
                    oracle.diagonal_partial_exact(spec, cutoff),
                    oracle.triangle_partial_exact(spec, cutoff),
                    oracle.box_partial_exact(spec, cutoff),
                    oracle.diagonal_partial_exact(spec, inputs.index_dims(text) * cutoff),
                )
            )
            spans.append((t, time.monotonic()))
        return sums, spans

    def check(self, sums, ms) -> tuple[list[dict], dict]:
        """Regrouping is exact, the box lies between the diagonals that bracket
        it, and the closed form lies in [S_N, S_N + tail bound]."""
        checks = []
        for (text, cutoff), (diag, tri, box, outer), t in zip(self.items, sums, ms):
            spec = series.parse_spec(text)
            reasons = []
            if diag != tri:
                reasons.append("diagonal and triangle partial sums differ")
            if not diag <= box <= outer:
                reasons.append("box partial sum outside the bracketing diagonal sums")
            closed = reference_value(closedform.closed_form_of(spec), inputs.DIGITS)
            tail = oracle.tail_estimate(spec, cutoff)
            with mp.workdps(inputs.DIGITS + 20):
                s_n = to_mpf(diag, inputs.DIGITS)
                if not s_n <= closed <= s_n + tail:
                    reasons.append("closed form outside [S_N, S_N + tail bound]")
                certified = certified_digits(closed, abs(closed - s_n), tail, 0, inputs.DIGITS)
            ok = not reasons
            checks.append(
                _check(f"{text} exact {cutoff}", ok, certified if ok else 0.0, t, "; ".join(reasons))
            )
        return checks, {}


WORKLOADS = {
    "paper-full": PaperFull,
    "hiprec-quad": HiprecQuad,
    "sweep-small": SweepSmall,
    "exact-sound": ExactSound,
}


def run_pass(workload, trace: bool, sampler: speed.SpeedSampler) -> dict:
    """Time one pass, traced or not, then check its outputs untraced."""
    tracer = Tracer() if trace else None
    if tracer is not None:
        install_all(tracer)
    sampler.start()
    a = time.monotonic()
    try:
        result, spans = workload.run()
        b = time.monotonic()
    finally:
        sampler.stop()
        if tracer is not None:
            tracer.uninstall()
    wall_s = sampler.corrected(a, b)
    ms = [sampler.corrected(x, y) * 1e3 for x, y in spans]
    checks, extra = workload.check(result, ms)
    out = {
        "wall_s": wall_s,
        "wall_raw_s": b - a,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "checks": checks,
        **extra,
    }
    if tracer is not None:
        out["layers"] = scaled(layer_metrics(tracer, b - a), wall_s / (b - a))
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--t0", type=int, required=True, help="monotonic_ns before the interpreter started")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace", action="store_true")
    args = p.parse_args(argv)
    workload = WORKLOADS[args.workload](args.seed)
    ready = time.monotonic()
    sampler = speed.SpeedSampler()
    for _ in range(speed.NEAREST):
        sampler.sample()
    out = {"setup_s": sampler.corrected(args.t0 / 1e9, ready)}
    if not args.setup_only:
        out.update(run_pass(workload, args.trace, sampler))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
