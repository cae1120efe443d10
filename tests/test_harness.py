import csv
import hashlib
import io
import json
import math
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st
from mpmath import mp, workdps
from mpmath.libmp import from_man_exp

import tornzeta.harness as harness_mod
import tornzeta.oracle as oracle_mod
from tornzeta.harness import (
    _fmt,
    _json_row,
    _row,
    PRESETS,
    SuiteEntry,
    SuiteManifest,
    iter_suite,
    paper_full_manifest,
    render_reports,
    smoke_manifest,
    verify,
)
from tornzeta.closedform import closed_form_of
from tornzeta.oracle import NumericCfg, OracleResult, asymptotic_cutoff, zx_numeric
from tornzeta.series import FAMILIES, SeriesSpec, parse_spec
from tornzeta.zexpr import ZExpr


class TestVerify:
    def test_diagonal_pass(self):
        cfg = NumericCfg(digits=40, n_max=10**5, method="diagonal")
        report = verify(parse_spec("on"), cfg, 1e-8)
        assert report.passed
        assert report.reason == ""
        assert report.closed_form.render() == "1/4*z2"
        assert report.oracle.method == "diagonal"
        with workdps(50):
            assert report.abs_err < report.oracle.tail_bound

    def test_quadrature_pass(self):
        report = verify(parse_spec("A3:s=0"), NumericCfg(digits=50, method="quadrature"), 1e-8)
        assert report.passed
        with workdps(60):
            assert report.abs_err < mp.mpf("1e-8")

    def test_bad_usage_raises(self):
        # tol 0 is the enclosure alone; a negative tol has no meaning
        cfg = NumericCfg(n_max=100)
        assert verify(parse_spec("on"), cfg, 0.0).tolerance == 0.0
        with pytest.raises(ValueError):
            verify(parse_spec("on"), cfg, -1e-6)
        with pytest.raises(ValueError, match="no closed form"):
            verify(SeriesSpec("tornheim", (2, 1, 1)), cfg, 1e-6)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf")])
    def test_non_finite_tolerance_raises(self, tol):
        # nan compares false with everything and inf passes any error
        with pytest.raises(ValueError, match="finite"):
            verify(parse_spec("on"), NumericCfg(n_max=100), tol)

    def test_mismatch_reports_instead_of_raising(self, monkeypatch):
        # with the truncation slack forced to zero a short sum cannot reach
        # the tolerance; that must surface as a failed report, not an error
        monkeypatch.setattr(oracle_mod, "tail_estimate", lambda spec, n: mp.mpf(0))
        cfg = NumericCfg(digits=40, n_max=1000, method="diagonal")
        report = verify(parse_spec("ln"), cfg, 1e-12)
        assert not report.passed
        assert "exceeds tolerance" in report.reason

    def test_oracle_breakdown_reports_partial(self):
        cfg = NumericCfg(digits=50, quad_levels=3, method="quadrature")
        report = verify(parse_spec("A3:s=0"), cfg, 1e-30)
        assert not report.passed
        assert "stalled" in report.reason
        assert report.oracle.levels_used == 3
        with workdps(60):
            assert report.abs_err < mp.mpf("1e-4")


class TestManifests:
    def test_validation(self):
        with pytest.raises(ValueError):
            SuiteManifest(())
        good = smoke_manifest().entries[0]
        assert SuiteManifest((good,)).entries == (good,)
        with pytest.raises(ValueError, match="oracle-only"):
            SuiteManifest((SuiteEntry(SeriesSpec("tornheim", (2, 1, 1)), good.cfg),))

    def test_presets_registered(self):
        assert set(PRESETS) == {"smoke", "paper-full"}

    def test_smoke_is_small_and_fast_config(self):
        man = smoke_manifest()
        assert len(man.entries) == 6
        assert all(
            e.cfg.method == "diagonal" and e.cfg.n_max == NumericCfg.n_max for e in man.entries
        )

    def test_paper_full_covers_catalog(self):
        # every closed-form family appears; the raw-only family is excluded
        man = paper_full_manifest()
        kinds = {e.spec.kind for e in man.entries}
        assert kinds == set(FAMILIES) - {"tornheim"}
        values = {(e.spec.kind, e.spec.values) for e in man.entries}
        assert {v for k, v in values if k == "halfint"} == {("a",), ("b",), ("c",)}
        assert {v for k, v in values if k == "baseT"} == {(1,), (2,), (3,)}
        assert {e.cfg.method for e in man.entries} == {"quadrature", "diagonal"}

    @pytest.mark.parametrize("digits", [50, 1000, 2000, 3300])
    def test_paper_full_diagonal_ceiling_reaches_n_star(self, digits):
        # an n_max below N* silently drops the entry from the expansion to the majorant
        for e in paper_full_manifest(digits).entries + smoke_manifest(digits).entries:
            if e.cfg.method == "diagonal":
                assert e.cfg.n_max >= asymptotic_cutoff(e.spec, digits), str(e.spec)

    def test_digits_override(self):
        man = smoke_manifest(digits=42)
        assert all(e.cfg.digits == 42 for e in man.entries)


class TestRunSuite:
    def test_smoke_passes_serial_and_parallel(self):
        man = smoke_manifest()
        serial = list(iter_suite(man))
        parallel = list(iter_suite(man, parallel=True))
        assert all(r.passed for r in serial)
        assert [r.spec for r in serial] == [e.spec for e in man.entries]
        assert [r.spec for r in parallel] == [r.spec for r in serial]
        assert [str(r.oracle.value) for r in parallel] == [str(r.oracle.value) for r in serial]

    def test_parallel_mixed_precision_quadrature_is_deterministic(self):
        # concurrent entries at different precisions must not share mpmath's
        # working precision: with threads, some 200-digit entries stalled
        entries = tuple(
            SuiteEntry(parse_spec("A3:s=0"), NumericCfg(digits=d, method="quadrature"))
            for d in (30, 200) * 3
        )
        man = SuiteManifest(entries)
        serial = list(iter_suite(man))
        assert all(r.passed for r in serial)
        for _ in range(3):
            parallel = list(iter_suite(man, parallel=True))
            assert all(r.passed for r in parallel), [r.reason for r in parallel]
            assert [r.oracle.value for r in parallel] == [r.oracle.value for r in serial]


def _tiny_reports():
    man = SuiteManifest(
        (
            SuiteEntry(parse_spec("A3:s=0"), NumericCfg(n_max=10**4, method="diagonal")),
            SuiteEntry(parse_spec("An:n=2,s=2"), NumericCfg(n_max=10**4, method="diagonal")),
            SuiteEntry(parse_spec("baseT:1"), NumericCfg(n_max=10**4, method="diagonal")),
        ),
    )
    return list(iter_suite(man))


class TestEmission:
    def test_json_schema(self):
        reports = _tiny_reports()
        payload = render_reports(reports, "json")
        rows = json.loads(payload)
        assert len(rows) == 3
        assert list(rows[0]) == [
            "spec",
            "params",
            "closed_form_text",
            "closed_numeric",
            "oracle_value",
            "oracle_method",
            "n_used",
            "abs_err",
            "tail_bound",
            "pass",
        ]
        assert rows[0]["spec"] == "A3"
        assert rows[0]["params"] == "s=0"
        assert rows[0]["closed_form_text"] == "6*z4"
        assert rows[1]["params"] == "n=2,s=2"
        assert all(row["pass"] is True for row in rows)

    def test_numbers_carry_thirty_digits(self):
        reports = _tiny_reports()
        rows = json.loads(render_reports(reports, "json"))
        assert rows[2]["closed_numeric"] == "1.64493406684822643647241516665"
        assert len(rows[0]["closed_numeric"].replace(".", "").replace("-", "")) >= 30

    def test_csv_header_and_quoting(self):
        reports = _tiny_reports()
        payload = render_reports(reports, "csv")
        first = payload.splitlines()[0]
        assert first == "spec,params,closed_form,closed_numeric,oracle_value,method,n_used,abs_err,tail_bound,pass"
        parsed = list(csv.reader(io.StringIO(payload)))
        assert len(parsed) == 4
        assert parsed[2][1] == "n=2,s=2"  # comma inside the field survives
        assert parsed[1][9] == "true"

    def test_text_summary_line(self):
        reports = _tiny_reports()
        text = render_reports(reports, "text")
        assert text.endswith("3/3 identities verified\n")
        assert "A3:s=0" in text

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            render_reports(_tiny_reports(), "yaml")

    def test_byte_determinism(self):
        man = smoke_manifest()
        a = render_reports(list(iter_suite(man)), "json")
        b = render_reports(list(iter_suite(man, parallel=True)), "json")
        assert a == b
        c = render_reports(list(iter_suite(man)), "csv")
        d = render_reports(list(iter_suite(man)), "csv")
        assert c == d

    def test_paper_full_report_bytes_pinned(self):
        # the paper-full preset at 50 digits, rendered three ways; these
        # digests change only when a route or a rendering is meant to move
        reports = list(iter_suite(paper_full_manifest(50)))
        want = {
            "json": "56c29145364fa2b537cfacd143fdd0ccb453f01aa3b0d7f70d5218876dd1adab",
            "csv": "33a1da45f42f38e437e08db03838ea7d09ac5a44456c8de58ee1b53740cbbdfb",
            "text": "97910d41b0c61421ea0785aefa6c8ed9c26a5a7da35b15368f4bdd48deaf61b4",
        }
        got = {f: hashlib.sha256(render_reports(reports, f).encode()).hexdigest() for f in want}
        assert got == want



def _below_cutoff_reports(monkeypatch) -> list:
    """(cfg, tol, report) for entries below N*, where tail_estimate, the
    fixed-point value's division and both failure reasons run: the diagonal
    route of every closed-form family at three cutoffs, raw boxes,
    quadrature, a stall, and last a mismatch with the tail bound zeroed."""
    diag = ["A3:s=2", "An:n=4,s=1", "aXL:k=3", "S111", "ln", "on",
            "baseT:2", "halfint:c", "evenodd", "oddsq", "binter"]
    raw = ["S111", "A3:s=2", "halfint:c", "baseT:2", "binter"]
    cases = [(t, NumericCfg(n_max=n, method="diagonal"), 1e-6) for n in (100, 317, 1000) for t in diag]
    cases += [(t, NumericCfg(n_max=n, method="raw"), 1e-6) for n in (20, 80) for t in raw]
    cases.append(("A3:s=0", NumericCfg(digits=50, method="quadrature"), 1e-6))
    cases.append(("A3:s=0", NumericCfg(digits=50, quad_levels=3, method="quadrature"), 1e-30))
    out = [(cfg, tol, verify(parse_spec(t), cfg, tol)) for t, cfg, tol in cases]
    monkeypatch.setattr(oracle_mod, "tail_estimate", lambda spec, n: mp.mpf(0))
    short = NumericCfg(digits=40, n_max=1000, method="diagonal")
    return out + [(short, 1e-12, verify(parse_spec("ln"), short, 1e-12))]


def test_sweep_reports_pinned(monkeypatch):
    # the below-cutoff entries rendered three ways and hashed
    reports = [r for *_, r in _below_cutoff_reports(monkeypatch)]
    assert [r.passed for r in reports] == [True] * 44 + [False] * 2
    want = {
        "json": "8ad5b1be314a5abc3ec4a0c488b0e9ae99a54bbce9457058ee09a3f15d28ece1",
        "csv": "5320436610835007bb6a84116a83d2c1f9b78fae5e8273aef0b62beb1e34d66f",
        "text": "0d546f341bd3d0f45e2b0ca85b0a86a860150d16c1b2cbf2d8c706704765bbd1",
    }
    got = {f: hashlib.sha256(render_reports(reports, f).encode()).hexdigest() for f in want}
    assert got == want


def test_sweep_reports_pinned_in_any_format_order(monkeypatch):
    # the same reports rendered text first and json twice: each report's
    # numbers, formatted once, serve every later render unchanged
    reports = [r for *_, r in _below_cutoff_reports(monkeypatch)]
    want = {
        "json": "8ad5b1be314a5abc3ec4a0c488b0e9ae99a54bbce9457058ee09a3f15d28ece1",
        "csv": "5320436610835007bb6a84116a83d2c1f9b78fae5e8273aef0b62beb1e34d66f",
        "text": "0d546f341bd3d0f45e2b0ca85b0a86a860150d16c1b2cbf2d8c706704765bbd1",
    }
    for f in ("text", "csv", "json", "json"):
        assert hashlib.sha256(render_reports(reports, f).encode()).hexdigest() == want[f], f


def test_swapped_row_is_never_served_the_old_closed_form(monkeypatch):
    spec, cfg = parse_spec("ln"), NumericCfg(digits=50, n_max=100, method="diagonal")
    before = verify(spec, cfg, 1e-6)
    swapped = ZExpr.rational(1)
    monkeypatch.setitem(FAMILIES, "ln", replace(FAMILIES["ln"], closed=lambda: swapped))
    after = verify(spec, cfg, 1e-6)
    assert before.closed_form != swapped
    assert after.closed_form == swapped and after.closed_numeric == 1
    assert not after.passed


@pytest.mark.parametrize("text", ["halfint:c", "A3:s=0", "aXL:k=3"])
def test_memoized_closed_value_is_zx_numeric(text):
    # warm and cold, at each precision, bit for bit
    spec = parse_spec(text)
    for digits in (50, 40, 120, 50, 40):
        r = verify(spec, NumericCfg(digits=digits, n_max=100, method="diagonal"), 1e-6)
        assert r.closed_numeric._mpf_ == zx_numeric(closed_form_of(spec), digits)._mpf_


@pytest.mark.parametrize("count", [0, 1, 600])
def test_json_rendered_row_by_row_is_json_dumps(monkeypatch, count):
    # the below-cutoff reports, failures included, repeated to count entries
    reports = [r for *_, r in _below_cutoff_reports(monkeypatch)] if count else []
    reports = (reports * (count // max(len(reports), 1) + 1))[:count]
    want = json.dumps([_row(r) for r in reports], indent=2) + "\n"
    assert render_reports(reports, "json") == want


def test_json_row_writer_is_json_dumps():
    # hand-built rows: no cutoff, a failure, negative and exponent-form
    # numbers, and strings json must escape
    keys = ("spec", "params", "closed_form_text", "closed_numeric", "oracle_value",
            "oracle_method", "n_used", "abs_err", "tail_bound", "pass")
    rows = [
        ("A3", "s=0", "6*z4", "6.49393940226682914909602217926", "6.49e+0", "quadrature", None,
         "0.0", "0.0", True),
        ("ln", "", "4 - 2*ln2 - z2", "-1.0e-25", "-2.5e+300", "diagonal", -17,
         "1.2e-30", "7.0e-6", False),
        ('q"b\\s\u00e9\u2603', "n=2,s=2", "-1/2*z2", "-0.1", "1e5", "raw\ttab\nline", 10**40,
         "-3.0e-7", "9.99e+99", False),
    ]
    for values in rows:
        row = dict(zip(keys, values))
        assert _json_row(row) == "  " + json.dumps(row, indent=2).replace("\n", "\n  ")


def test_parallel_renders_are_the_serial_bytes():
    # every format, and closed forms pickled back from spawned workers hash
    # as the local ones do (a str hash is salted per process)
    man = smoke_manifest()
    serial, parallel = list(iter_suite(man)), list(iter_suite(man, parallel=True))
    for fmt in ("json", "csv", "text"):
        assert render_reports(parallel, fmt) == render_reports(serial, fmt), fmt
    for child, local in zip(parallel, serial):
        assert hash(child.closed_form) == hash(local.closed_form)
        assert len({child.closed_form, local.closed_form}) == 1


def m2f(x) -> Fraction:
    """The mpf x as the Fraction its raw tuple denotes, exactly."""
    sign, man, exp, _ = x._mpf_
    return (-1) ** sign * man * Fraction(2) ** exp


def _mpf(q: Fraction):
    """The dyadic Fraction q as an mpf, exactly."""
    k = q.denominator.bit_length() - 1
    assert q.denominator == 1 << k
    return mp.make_mpf(from_man_exp(q.numerator, -k))


def test_comparison_is_exact(monkeypatch):
    # verify's abs_err, pass and mismatch note against Fraction arithmetic on
    # the raw tuples: abs_err is |closed - value| and the rule
    # abs_err <= max(tol, tail_bound + error_estimate) holds or fails exactly
    for cfg, tol, r in _below_cutoff_reports(monkeypatch):
        o = r.oracle
        abs_err = abs(m2f(r.closed_numeric) - m2f(o.value))
        slack = m2f(o.tail_bound) + m2f(o.error_estimate)
        passed = abs_err <= max(Fraction(tol), slack)
        note = f"abs_err {mp.nstr(_mpf(abs_err), 6)} exceeds tolerance {tol:g} and slack {mp.nstr(_mpf(slack), 6)}"
        assert m2f(r.abs_err) == abs_err
        if "stalled" not in r.reason:
            assert (r.passed, r.reason) == (passed, "" if passed else note)


@pytest.mark.parametrize("short, passed", [(0, True), (1, False)])
def test_touching_enclosure_is_decided_exactly(monkeypatch, short, passed):
    # a rad equal to |closed - mid| passes, and one unit of the finer of their
    # two grids less fails; the gap spans over 220 bits of that unit, more than
    # the 203 bits of 60 digits, at which a rounded comparison could not tell them apart
    spec, cfg, tol = parse_spec("ln"), NumericCfg(digits=50, n_max=100, method="diagonal"), 1e-30
    result = oracle_mod.oracle_for(spec, cfg)
    closed = verify(spec, cfg, tol).closed_numeric
    gap = abs(m2f(closed) - m2f(result.value))
    low = min(closed._mpf_[2], result.exp)
    unit = Fraction(2) ** low
    assert Fraction(tol) < gap - unit and gap / unit > 2**220 and (gap / unit).denominator == 1
    # the same enclosure on the finer grid 2^low, its rad SHORT units below the gap
    touching = replace(result, mid=result.mid << (result.exp - low), rad=int(gap / unit) - short, exp=low)
    monkeypatch.setattr(harness_mod, "oracle_for", lambda spec, cfg: touching)
    report = verify(spec, cfg, tol)
    assert m2f(report.abs_err) == gap
    assert report.passed is passed


def _smallest_float_at_least(q: Fraction) -> float:
    t = float(q)
    return t if Fraction(t) >= q else math.nextafter(t, math.inf)


@given(
    man=st.integers(-(2**80), 2**80),
    e=st.integers(-300, -60),
    dx=st.integers(-40, 40),
    off=st.integers(-(2**30), 2**30),
    near=st.sampled_from([-1, 0]) | st.none(),
    wide=st.integers(0, 2**32),
    eighths=st.integers(0, 8),
    tol_at=st.sampled_from(["at", "below", "tiny", "one", "zero"]),
)
@example(man=-(3 << 70), e=-100, dx=-20, off=5, near=0, wide=0, eighths=3, tol_at="tiny")
@example(man=-(3 << 70), e=-100, dx=-20, off=5, near=-1, wide=0, eighths=3, tol_at="tiny")
@example(man=12345, e=-100, dx=10, off=-7, near=0, wide=0, eighths=8, tol_at="below")
@example(man=12345, e=-100, dx=10, off=-7, near=-1, wide=0, eighths=8, tol_at="below")
@example(man=12345, e=-100, dx=10, off=-7, near=0, wide=0, eighths=3, tol_at="zero")
@example(man=12345, e=-100, dx=10, off=-7, near=-1, wide=0, eighths=3, tol_at="zero")
def test_enclosure_decision_is_fraction_arithmetic(man, e, dx, off, near, wide, eighths, tol_at):
    # a closed form man 2^e and an enclosure on 2^x, x = e + dx, its grid finer
    # or coarser: verify's pass, abs_err and note against Fraction arithmetic on
    # the same integers.  NEAR puts rad + est at the least S with S 2^x >= abs_err
    # (touching, where abs_err lies on 2^x) or one unit below it; TOL_AT puts tol
    # at the least float >= abs_err, the float below it, far off either way, or at 0
    x = e + dx
    closed = Fraction(man) * Fraction(2) ** e
    mid = math.floor(closed / Fraction(2) ** x) + off
    abs_err = abs(closed - mid * Fraction(2) ** x)
    least = math.ceil(abs_err / Fraction(2) ** x)
    s = wide if near is None else max(least + near, 0)
    est = s * eighths // 8
    result = OracleResult(mid=mid, rad=s - est, est=est, exp=x, method="diagonal", n_used=100,
                          levels_used=None, elapsed=0.0)
    at = _smallest_float_at_least(abs_err) if abs_err else 1e-300
    tol = {"at": at, "below": math.nextafter(at, 0), "tiny": 1e-300, "one": 1.0, "zero": 0.0}[tol_at]
    spec, cfg = parse_spec("ln"), NumericCfg(n_max=100)
    with pytest.MonkeyPatch.context() as patch:
        form = closed_form_of(spec)
        patch.setattr(harness_mod, "_closed", lambda *key: (form, mp.make_mpf(from_man_exp(man, e))))
        patch.setattr(harness_mod, "oracle_for", lambda spec, cfg: result)
        report = verify(spec, cfg, tol)
    slack = s * Fraction(2) ** x
    passed = abs_err <= max(Fraction(tol), slack)
    note = f"abs_err {mp.nstr(_mpf(abs_err), 6)} exceeds tolerance {tol:g} and slack {mp.nstr(_mpf(slack), 6)}"
    assert m2f(report.abs_err) == abs_err
    assert (report.passed, report.reason) == (passed, "" if passed else note)


@pytest.mark.parametrize("text, digits, n_max, method", [
    ("ln", 50, 10**6, "diagonal"),
    ("A3:s=0", 50, 10**6, "quadrature"),
    ("ln", 1000, 100, "diagonal"),
])
def test_tol_alone_decides_outside_the_enclosure(monkeypatch, text, digits, n_max, method):
    # the route's enclosure moved by 2 (rad + est) + 1 units, so abs_err > rad + est:
    # tol 0 fails, the least float tol >= abs_err passes and the float below it fails;
    # at 1000 digits the grid is finer than 2^-3300, far past a float's exponent range
    spec, cfg = parse_spec(text), NumericCfg(digits=digits, n_max=n_max, method=method)
    result = oracle_mod.oracle_for(spec, cfg)
    moved = replace(result, mid=result.mid + 2 * (result.rad + result.est) + 1)
    monkeypatch.setattr(harness_mod, "oracle_for", lambda spec, cfg: moved)
    closed = m2f(verify(spec, cfg, 1.0).closed_numeric)
    abs_err = abs(closed - m2f(moved.value))
    assert abs_err > (moved.rad + moved.est) * Fraction(2) ** moved.exp
    assert -moved.exp > 3300 or digits < 1000
    assert not verify(spec, cfg, 0.0).passed
    tol = _smallest_float_at_least(abs_err)
    assert verify(spec, cfg, tol).passed
    short = verify(spec, cfg, math.nextafter(tol, 0))
    assert not short.passed and short.reason.startswith("abs_err")
    assert m2f(short.abs_err) == abs_err


def test_paper_full_rests_on_its_enclosures():
    # every paper-full entry at 50, 60, 120 and 200 digits, verified with tol 0,
    # passes with its closed form inside rad + est; 60 and 120 digits hold the
    # thinnest margins below 200
    entries = tuple(e for d in (50, 60, 120, 200) for e in paper_full_manifest(d).entries)
    for entry, report in zip(entries, iter_suite(SuiteManifest(entries))):
        o = report.oracle
        inside = m2f(report.abs_err) <= (o.rad + o.est) * Fraction(2) ** o.exp
        assert report.passed and inside and report.tolerance == 0, (
            entry.cfg.digits, report.spec.label(), o.method)


def test_fmt_is_nstr():
    # _fmt against mp.nstr of the 300-digit value as it is, unrounded
    with workdps(300):
        values = [+mp.pi, -mp.e, mp.zeta(3) * mp.mpf(10) ** -20, 1 - mp.mpf(10) ** -40,
                  mp.mpf("9.99999999999999999999999999999999949"), mp.mpf(2) ** -200,
                  mp.mpf(10) ** 25 + mp.pi, mp.mpf(0), mp.mpf("0.0112565"), mp.mpf("2.5e-7")]
    for digits in (4, 6, 15, 30):
        for strip in (False, True):
            for x in values:
                want = mp.nstr(x, digits, strip_zeros=strip)
                assert _fmt(x, digits, strip) == want, (digits, strip, x)
