"""Closed-form vs oracle comparisons, suite presets, and report emission.

The pass rule credits the oracle's own honesty budget: a report passes
when abs_err <= max(tolerance, tail_bound + quadrature error estimate).
A truncated sum that lands inside its certified tail bound is correct to
the extent it can be checked at that cutoff; only a discrepancy exceeding
both the tolerance and the bound is evidence against an identity.  Past
its asymptotic cutoff the diagonal oracle's tail_bound is about
10^-(digits+2), below every tolerance used, so there the tolerance alone
decides a pass, while abs_err and tail_bound still show how many digits
the comparison pins down.
"""

from __future__ import annotations

import csv
import io
import json
import os
from collections.abc import Iterator
from dataclasses import dataclass

from mpmath import mp

from .closedform import closed_form_of
from .oracle import (
    NumericCfg,
    OracleError,
    OracleResult,
    default_digits,
    oracle_for,
    zx_numeric,
)
from .series import SeriesSpec, parse_spec
from .zexpr import ZExpr


@dataclass(frozen=True)
class EvalReport:
    spec: SeriesSpec
    closed_form: ZExpr
    closed_text: str
    closed_numeric: object  # mpf
    oracle: OracleResult
    abs_err: object  # mpf
    rel_err: object  # mpf
    tolerance: float
    passed: bool
    reason: str = ""


def verify(spec: SeriesSpec, cfg: NumericCfg, tol: float) -> EvalReport:
    """Compare the closed form against the configured oracle.

    Never raises on a numeric mismatch or an oracle breakdown; those come
    back as passed=False with a reason.  Invalid usage (a spec with no
    closed form, a tol outside (0, inf)) still raises: no comparison is defined.
    """
    if not 0 < tol < float("inf"):
        raise ValueError(f"tolerance must be > 0 and finite, got {tol}")
    closed = closed_form_of(spec)
    closed_num = zx_numeric(closed, cfg.digits)
    # a note here means the oracle broke down; it fails the report
    note = ""
    try:
        result = oracle_for(spec, cfg)
    except OracleError as exc:
        note = str(exc)
        result = exc.partial
    with mp.workdps(cfg.digits + 10):
        abs_err = abs(closed_num - result.value)
        rel_err = abs_err / abs(closed_num) if closed_num != 0 else +abs_err
        threshold = max(mp.mpf(tol), result.tail_bound + result.error_estimate)
        passed = not note and bool(abs_err <= threshold)
        if not passed and not note:
            note = (
                f"abs_err {mp.nstr(abs_err, 6)} exceeds tolerance {tol:g} "
                f"and slack {mp.nstr(result.tail_bound + result.error_estimate, 6)}"
            )
    return EvalReport(
        spec=spec,
        closed_form=closed,
        closed_text=closed.render(),
        closed_numeric=closed_num,
        oracle=result,
        abs_err=abs_err,
        rel_err=rel_err,
        tolerance=tol,
        passed=passed,
        reason="" if passed else note or "",
    )


@dataclass(frozen=True)
class SuiteEntry:
    spec: SeriesSpec
    cfg: NumericCfg
    tol: float


@dataclass(frozen=True)
class SuiteManifest:
    name: str
    entries: tuple[SuiteEntry, ...]

    def __post_init__(self) -> None:
        if not self.entries:
            raise ValueError("a suite manifest needs at least one entry")
        for e in self.entries:
            if not 0 < e.tol < float("inf"):
                raise ValueError(f"entry {e.spec}: tolerance must be > 0 and finite, got {e.tol}")
            if e.spec.family.closed is None:
                raise ValueError(
                    f"entry {e.spec}: oracle-only family has no closed form to verify"
                )


def _entry(text: str, method: str, tol: float, digits: int, **cfg) -> SuiteEntry:
    return SuiteEntry(
        parse_spec(text),
        NumericCfg(digits=digits, method=method, **cfg),
        tol,
    )


def smoke_manifest(digits: int | None = None) -> SuiteManifest:
    """Six fast identities at cutoff 10^4; a seconds-scale sanity pass."""
    d = default_digits() if digits is None else digits
    n = 10**4
    entries = (
        _entry("A3:s=0", "diagonal", 1e-6, d, n_max=n),
        _entry("An:n=2,s=0", "diagonal", 1e-6, d, n_max=n),
        _entry("aXL:k=1", "diagonal", 1e-6, d, n_max=n),
        _entry("ln", "diagonal", 1e-6, d, n_max=n),
        _entry("on", "diagonal", 1e-6, d, n_max=n),
        _entry("halfint:c", "diagonal", 1e-6, d, n_max=n),
    )
    return SuiteManifest("smoke", entries)


def paper_full_manifest(digits: int | None = None) -> SuiteManifest:
    """Every closed-form identity in the catalog, each against at least one oracle."""
    d = default_digits() if digits is None else digits
    entries = (
        # quadrature on the integral representations
        _entry("A3:s=0", "quadrature", 1e-8, d),
        _entry("An:n=2,s=0", "quadrature", 1e-10, d),
        _entry("An:n=4,s=0", "quadrature", 1e-10, d),
        _entry("An:n=5,s=3", "quadrature", 1e-10, d),
        # regrouped single-index summation; each stops at N* (``oracle.asymptotic_cutoff``),
        # which stays below the default n_max up to 13107 digits
        _entry("A3:s=0", "diagonal", 1e-6, d),
        _entry("A3:s=1", "diagonal", 1e-6, d),
        _entry("A3:s=2", "diagonal", 1e-6, d),
        _entry("A3:s=20", "diagonal", 1e-6, d),
        _entry("An:n=2,s=2", "diagonal", 1e-6, d),
        _entry("An:n=6,s=1", "diagonal", 1e-6, d),
        _entry("aXL:k=0", "diagonal", 1e-6, d),
        _entry("aXL:k=1", "diagonal", 1e-6, d),
        _entry("aXL:k=3", "diagonal", 1e-6, d),
        _entry("aXL:k=10", "diagonal", 1e-6, d),
        _entry("S111", "diagonal", 1e-6, d),
        _entry("ln", "diagonal", 1e-8, d),
        _entry("on", "diagonal", 1e-8, d),
        _entry("evenodd", "diagonal", 1e-8, d),
        _entry("oddsq", "diagonal", 1e-8, d),
        _entry("binter", "diagonal", 1e-8, d),
        _entry("baseT:1", "diagonal", 1e-8, d),
        _entry("baseT:2", "diagonal", 1e-8, d),
        _entry("baseT:3", "diagonal", 1e-8, d),
        _entry("halfint:a", "diagonal", 1e-6, d),
        _entry("halfint:b", "diagonal", 1e-6, d),
        _entry("halfint:c", "diagonal", 1e-6, d),
        # defining double sums: up to 200 digits n_max reaches N_raw (``oracle.raw_cutoff``),
        # so each sums the simplex to N_raw plus the certified tail; past that n_max is the box
        _entry("S111", "raw", 1e-6, d, n_max=1500),
        _entry("halfint:c", "raw", 1e-6, d, n_max=1000),
    )
    return SuiteManifest("paper-full", entries)


PRESETS = {
    "smoke": smoke_manifest,
    "paper-full": paper_full_manifest,
}


def iter_suite(manifest: SuiteManifest, parallel: bool = False) -> Iterator[EvalReport]:
    """Yield each entry's report as it finishes, in manifest order.

    ``parallel`` runs the entries in spawned worker processes, one per
    core at most.  mpmath's working precision is process-global, so
    threads would change each other's precision mid-computation; separate
    processes give the same reports as the serial run.
    """
    columns = zip(*((e.spec, e.cfg, e.tol) for e in manifest.entries))
    if not parallel:
        yield from map(verify, *columns)
        return
    # imported here, so the serial path does not load multiprocessing
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    workers = min(os.cpu_count() or 1, len(manifest.entries))
    ctx = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
        yield from pool.map(verify, *columns)


def run_suite(manifest: SuiteManifest, parallel: bool = False) -> list[EvalReport]:
    """Every entry's report, in manifest order (``iter_suite`` as a list)."""
    return list(iter_suite(manifest, parallel))


# ---------------------------------------------------------------------------
# emission

# the CSV header: ``_row``'s columns, in order
_CSV_COLUMNS = (
    "spec",
    "params",
    "closed_form",
    "closed_numeric",
    "oracle_value",
    "method",
    "n_used",
    "abs_err",
    "tail_bound",
    "pass",
)


def _fmt(x, digits: int) -> str:
    with mp.workdps(digits + 10):
        return mp.nstr(mp.mpf(x), digits, strip_zeros=False)


def status(report: EvalReport) -> str:
    """The text report's status column."""
    return "ok" if report.passed else f"FAIL ({report.reason})"


def _n_used(o: OracleResult):
    # summation cutoff, or quadrature levels
    return o.n_used if o.n_used is not None else o.levels_used


def _row(report: EvalReport) -> dict:
    o = report.oracle
    return {
        "spec": report.spec.token(),
        "params": report.spec.params_text(),
        "closed_form_text": report.closed_text,
        "closed_numeric": _fmt(report.closed_numeric, 30),
        "oracle_value": _fmt(o.value, 30),
        "oracle_method": o.method,
        "n_used": _n_used(o),
        "abs_err": _fmt(report.abs_err, 30),
        "tail_bound": _fmt(o.tail_bound, 30),
        "pass": report.passed,
    }


def render_reports(reports: list[EvalReport], format: str) -> str:
    """Serialized report batch; deterministic bytes for fixed inputs."""
    if format == "json":
        return json.dumps([_row(r) for r in reports], indent=2) + "\n"
    if format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(_CSV_COLUMNS)
        for r in reports:
            writer.writerow(
                str(v).lower() if isinstance(v, bool) else v for v in _row(r).values()
            )
        return buf.getvalue()
    if format == "text":
        lines = [
            f"{'spec':<18} {'method':<10} {'n_used':>8} {'closed':>22} "
            f"{'abs_err':>12} {'tail_bound':>12}  status"
        ]
        for r in reports:
            o = r.oracle
            with mp.workdps(40):
                lines.append(
                    f"{r.spec.label():<18} {o.method:<10} {_n_used(o)!s:>8} "
                    f"{mp.nstr(mp.mpf(r.closed_numeric), 15):>22} "
                    f"{mp.nstr(mp.mpf(r.abs_err), 4):>12} "
                    f"{mp.nstr(mp.mpf(o.tail_bound), 4):>12}  {status(r)}"
                )
        lines.append(f"{sum(r.passed for r in reports)}/{len(reports)} identities verified")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown report format {format!r}")


def emit(reports: list[EvalReport], format: str, sink) -> None:
    """Write the rendered batch to a file-like sink; failures carry context."""
    payload = render_reports(reports, format)
    try:
        sink.write(payload)
    except OSError as exc:
        raise RuntimeError(f"could not write {format} report to {sink!r}: {exc}") from exc
