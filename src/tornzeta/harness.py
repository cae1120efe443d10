"""Closed-form vs oracle comparisons, suite presets, and report rendering.

The pass rule is the oracle's enclosure (``OracleResult``): a report
passes when |closed - mid| <= rad + est, decided in integers on the
finer of the two grids; only rendering rounds.  A truncated sum inside
its certified tail bound is correct as far as that cutoff can check;
only a discrepancy exceeding the bound is evidence against an identity.
A tol >= 0 widens the rule to max(tol, rad + est), taken as its exact
ratio, only when the caller asks; presets and the CLI ask for none.

Each process evaluates a closed form once per (spec, row, digits) in a
bounded memo, and formats a report's numbers once for every format.
"""

from __future__ import annotations

import csv
import io
import os
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property, lru_cache
from json.encoder import encode_basestring_ascii

from mpmath import mp
from mpmath.libmp import from_man_exp, to_str

from .closedform import closed_form_of
from .oracle import NumericCfg, OracleError, OracleResult, oracle_for, zx_numeric
from .series import SeriesSpec, parse_spec
from .zexpr import ZExpr


@dataclass(frozen=True)
class EvalReport:
    spec: SeriesSpec
    closed_form: ZExpr
    closed_numeric: object  # mpf
    oracle: OracleResult
    abs_err: object  # mpf
    tolerance: float
    passed: bool
    reason: str = ""

    @cached_property
    def _numbers(self) -> tuple[str, str, str]:
        """oracle_value, abs_err and tail_bound at 30 digits, formatted once for
        json and csv; ``dataclasses.replace`` gives a report without them."""
        o = self.oracle
        return _fmt(o.value, 30), _fmt(self.abs_err, 30), _fmt(o.tail_bound, 30)


@lru_cache(maxsize=1024)
def _closed(spec: SeriesSpec, closed, digits: int) -> tuple[ZExpr, object]:
    """The spec's closed form and its value at ``digits``.  The row's ``closed``
    callable is in the key, so a swapped row is never served an old form."""
    form = closed_form_of(spec)
    return form, zx_numeric(form, digits)


def verify(spec: SeriesSpec, cfg: NumericCfg, tol: float) -> EvalReport:
    """Compare the closed form against the configured oracle: pass when |closed - mid|
    <= max(tol, rad + est), where a tol >= 0 widens the enclosure only as the caller asks
    (presets and the CLI ask for none, tol 0).  Never raises on a numeric mismatch or an
    oracle breakdown; those come back as passed=False with a reason.  Invalid usage (a spec
    with no closed form, a tol outside [0, inf)) still raises: no comparison is defined.
    """
    if not 0 <= tol < float("inf"):
        raise ValueError(f"tolerance must be >= 0 and finite, got {tol}")
    closed, closed_num = _closed(spec, spec.family.closed, cfg.digits)
    # a note here means the oracle broke down; it fails the report
    note = ""
    try:
        result = oracle_for(spec, cfg)
    except OracleError as exc:
        note = str(exc)
        result = exc.partial
    # |closed - mid| <= max(tol, rad + est) in integers on 2^low, the finer grid (at most 1)
    sign, man, e, _ = closed_num._mpf_
    low = min(e, result.exp, 0)
    err = abs(((-man if sign else man) << (e - low)) - (result.mid << (result.exp - low)))
    slack, (num, den) = result.rad + result.est, tol.as_integer_ratio()
    passed = not note and (err <= slack << (result.exp - low) or err * den <= num << -low)
    abs_err = from_man_exp(err, low)
    if not passed and not note:
        note = (f"abs_err {to_str(abs_err, 6)} exceeds tolerance {tol:g} "
                f"and slack {to_str(from_man_exp(slack, result.exp), 6)}")
    return EvalReport(spec=spec, closed_form=closed, closed_numeric=closed_num, oracle=result,
                      abs_err=mp.make_mpf(abs_err), tolerance=tol, passed=passed, reason=note)


@dataclass(frozen=True)
class SuiteEntry:
    spec: SeriesSpec
    cfg: NumericCfg


@dataclass(frozen=True)
class SuiteManifest:
    entries: tuple[SuiteEntry, ...]

    def __post_init__(self) -> None:
        if not self.entries:
            raise ValueError("a suite manifest needs at least one entry")
        for e in self.entries:
            if e.spec.family.closed is None:
                raise ValueError(f"entry {e.spec}: oracle-only family has no closed form to verify")


def _entry(text: str, method: str, digits: int) -> SuiteEntry:
    return SuiteEntry(parse_spec(text), NumericCfg(digits=digits, method=method))


def smoke_manifest(digits: int = NumericCfg.digits) -> SuiteManifest:
    """Six fast diagonal identities; a seconds-scale sanity pass.  Each sums N*
    (2048 terms at 50 digits) and adds the asymptotic tail, so each certifies
    about digits + 2 digits at any precision."""
    entries = (
        _entry("A3:s=0", "diagonal", digits),
        _entry("An:n=2,s=0", "diagonal", digits),
        _entry("aXL:k=1", "diagonal", digits),
        _entry("ln", "diagonal", digits),
        _entry("on", "diagonal", digits),
        _entry("halfint:c", "diagonal", digits),
    )
    return SuiteManifest(entries)


def paper_full_manifest(digits: int = NumericCfg.digits) -> SuiteManifest:
    """Every closed-form identity in the catalog, each against at least one oracle."""
    entries = (
        # quadrature on the integral representations
        _entry("A3:s=0", "quadrature", digits),
        _entry("An:n=2,s=0", "quadrature", digits),
        _entry("An:n=4,s=0", "quadrature", digits),
        _entry("An:n=5,s=3", "quadrature", digits),
        # regrouped single-index summation; each stops at N* (``oracle.asymptotic_cutoff``),
        # which stays below the default n_max up to 13107 digits
        _entry("A3:s=0", "diagonal", digits),
        _entry("A3:s=1", "diagonal", digits),
        _entry("A3:s=2", "diagonal", digits),
        _entry("A3:s=20", "diagonal", digits),
        _entry("An:n=2,s=2", "diagonal", digits),
        _entry("An:n=6,s=1", "diagonal", digits),
        _entry("aXL:k=0", "diagonal", digits),
        _entry("aXL:k=1", "diagonal", digits),
        _entry("aXL:k=3", "diagonal", digits),
        _entry("aXL:k=10", "diagonal", digits),
        _entry("S111", "diagonal", digits),
        _entry("ln", "diagonal", digits),
        _entry("on", "diagonal", digits),
        _entry("evenodd", "diagonal", digits),
        _entry("oddsq", "diagonal", digits),
        _entry("binter", "diagonal", digits),
        _entry("baseT:1", "diagonal", digits),
        _entry("baseT:2", "diagonal", digits),
        _entry("baseT:3", "diagonal", digits),
        _entry("halfint:a", "diagonal", digits),
        _entry("halfint:b", "diagonal", digits),
        _entry("halfint:c", "diagonal", digits),
        # quadrature on integrals derived from the defining double sums, a route that
        # shares no code with the diagonal entries' atoms and asymptotic tails
        _entry("S111", "quadrature", digits),
        _entry("aXL:k=3", "quadrature", digits),
    )
    return SuiteManifest(entries)


PRESETS = {
    "smoke": smoke_manifest,
    "paper-full": paper_full_manifest,
}


def iter_suite(manifest: SuiteManifest, parallel: bool = False) -> Iterator[EvalReport]:
    """Yield each entry's report as it finishes, in manifest order, each
    verified with tol 0: a pass means the closed form lies in its enclosure.

    ``parallel`` runs the entries in spawned worker processes, one per
    core at most, which give the same reports as the serial run.  Processes
    give CPU parallelism; threads give the same reports too (no routine
    touches mpmath's global precision), but they share the GIL.
    """
    columns = zip(*((e.spec, e.cfg, 0.0) for e in manifest.entries))
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


# ---------------------------------------------------------------------------
# rendering

# ``_row``'s keys, in order; the CSV header names two of them shorter
_COLUMNS = ("spec", "params", "closed_form_text", "closed_numeric", "oracle_value",
            "oracle_method", "n_used", "abs_err", "tail_bound", "pass")
_CSV_COLUMNS = tuple({"closed_form_text": "closed_form", "oracle_method": "method"}.get(k, k)
                     for k in _COLUMNS)


def _fmt(x, digits: int, strip_zeros: bool = False) -> str:
    """mp.nstr(x, digits) of the mpf x."""
    return to_str(x._mpf_, digits, strip_zeros=strip_zeros)


def status(report: EvalReport) -> str:
    """The text report's status column."""
    return "ok" if report.passed else f"FAIL ({report.reason})"


def _n_used(o: OracleResult):
    # summation cutoff, or quadrature levels
    return o.n_used if o.n_used is not None else o.levels_used


@lru_cache(maxsize=1024)
def _closed_strings(closed: ZExpr, value: tuple) -> tuple[str, str, str]:
    """The closed form's text and its value (a raw mpf) at 30 digits and in
    the text report's 15-digit column: reports repeat a few closed forms."""
    x = mp.make_mpf(value)
    return closed.render(), _fmt(x, 30), _fmt(x, 15, strip_zeros=True)


def _row(report: EvalReport) -> dict:
    o = report.oracle
    text, closed, _ = _closed_strings(report.closed_form, report.closed_numeric._mpf_)
    value, abs_err, tail_bound = report._numbers
    return dict(zip(_COLUMNS, (
        report.spec.token(), report.spec.params_text(), text, closed, value,
        o.method, _n_used(o), abs_err, tail_bound, report.passed)))


# ``_row`` in json.dumps(row, indent=2), indented as a list element
_JSON_ROW = "  {\n" + ",\n".join(f'    "{k}": %s' for k in _COLUMNS) + "\n  }"


def _json_row(row: dict) -> str:
    """``_JSON_ROW`` of a ``_row``: json's tests in its order, strings by its C
    encoder, which JSONEncoder(indent=2) leaves for a pure-Python one."""
    return _JSON_ROW % tuple(
        encode_basestring_ascii(v) if isinstance(v, str) else "null" if v is None
        else "true" if v is True else "false" if v is False else int.__repr__(v)
        for v in row.values()
    )


def render_reports(reports: list[EvalReport], format: str) -> str:
    """Serialized report batch; deterministic bytes for fixed inputs."""
    if format == "json":  # json.dumps(rows, indent=2), each row from the template
        rows = ",\n".join(_json_row(_row(r)) for r in reports)
        return f"[\n{rows}\n]\n" if reports else "[]\n"
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
            closed = _closed_strings(r.closed_form, r.closed_numeric._mpf_)[2]
            lines.append(
                f"{r.spec.label():<18} {o.method:<10} {_n_used(o)!s:>8} "
                f"{closed:>22} {_fmt(r.abs_err, 4, strip_zeros=True):>12} "
                f"{_fmt(o.tail_bound, 4, strip_zeros=True):>12}  {status(r)}"
            )
        lines.append(f"{sum(r.passed for r in reports)}/{len(reports)} identities verified")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown report format {format!r}")
