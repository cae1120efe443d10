import csv
import io
import json

import pytest
from mpmath import mp, workdps

import tornzeta.oracle as oracle_mod
from tornzeta.harness import (
    PRESETS,
    SuiteEntry,
    SuiteManifest,
    emit,
    paper_full_manifest,
    render_reports,
    run_suite,
    smoke_manifest,
    verify,
)
from tornzeta.oracle import NumericCfg
from tornzeta.series import KINDS, SeriesSpec, parse_spec


class TestVerify:
    def test_diagonal_pass(self):
        cfg = NumericCfg(digits=40, n_max=10**5, method="diagonal")
        report = verify(parse_spec("on"), cfg, 1e-8)
        assert report.passed
        assert report.reason == ""
        assert report.closed_text == "1/4*z2"
        assert report.oracle.method == "diagonal"
        with workdps(50):
            assert report.abs_err < report.oracle.tail_bound

    def test_quadrature_pass(self):
        report = verify(parse_spec("A3:s=0"), NumericCfg(digits=50, method="quadrature"), 1e-8)
        assert report.passed
        with workdps(60):
            assert report.abs_err < mp.mpf("1e-8")

    def test_rel_err_consistent(self):
        cfg = NumericCfg(digits=40, n_max=10**4, method="diagonal")
        report = verify(parse_spec("S111"), cfg, 1e-3)
        with workdps(50):
            want = report.abs_err / abs(report.closed_numeric)
            assert abs(report.rel_err - want) < mp.mpf("1e-40")

    def test_bad_usage_raises(self):
        cfg = NumericCfg(n_max=100)
        with pytest.raises(ValueError):
            verify(parse_spec("on"), cfg, 0.0)
        with pytest.raises(ValueError):
            verify(parse_spec("on"), cfg, -1e-6)
        with pytest.raises(ValueError, match="no closed form"):
            verify(SeriesSpec("TornheimRaw", a=2, b=1, c=1), cfg, 1e-6)

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
            SuiteManifest("empty", ())
        good = smoke_manifest().entries[0]
        with pytest.raises(ValueError):
            SuiteManifest("bad", (SuiteEntry(good.spec, good.cfg, -1e-6),))
        with pytest.raises(ValueError, match="oracle-only"):
            SuiteManifest(
                "bad",
                (SuiteEntry(SeriesSpec("TornheimRaw", a=2, b=1, c=1), good.cfg, 1e-6),),
            )

    def test_presets_registered(self):
        assert set(PRESETS) == {"smoke", "paper-full"}
        assert PRESETS["smoke"]().name == "smoke"

    def test_smoke_is_small_and_fast_config(self):
        man = smoke_manifest()
        assert len(man.entries) == 6
        assert all(e.cfg.method == "diagonal" and e.cfg.n_max == 10**4 for e in man.entries)

    def test_paper_full_covers_catalog(self):
        # every closed-form family appears; the raw-only family is excluded
        man = paper_full_manifest()
        kinds = {e.spec.kind for e in man.entries}
        assert kinds == set(KINDS) - {"TornheimRaw"}
        assert {e.spec.variant for e in man.entries if e.spec.kind == "HalfInt"} == {"a", "b", "c"}
        assert {e.spec.j for e in man.entries if e.spec.kind == "BaseT"} == {1, 2, 3}
        assert {e.cfg.method for e in man.entries} == {"quadrature", "diagonal", "raw"}

    def test_digits_override(self):
        man = smoke_manifest(digits=42)
        assert all(e.cfg.digits == 42 for e in man.entries)


class TestRunSuite:
    def test_smoke_passes_serial_and_parallel(self):
        man = smoke_manifest()
        serial = run_suite(man)
        parallel = run_suite(man, parallel=True)
        assert all(r.passed for r in serial)
        assert [r.spec for r in serial] == [e.spec for e in man.entries]
        assert [r.spec for r in parallel] == [r.spec for r in serial]
        assert [str(r.oracle.value) for r in parallel] == [str(r.oracle.value) for r in serial]

    def test_parallel_mixed_precision_quadrature_is_deterministic(self):
        # concurrent entries at different precisions must not share mpmath's
        # working precision: with threads, some 200-digit entries stalled
        entries = tuple(
            SuiteEntry(parse_spec("A3:s=0"), NumericCfg(digits=d, method="quadrature"), 1e-25)
            for d in (30, 200) * 3
        )
        man = SuiteManifest("mixed-precision", entries)
        serial = run_suite(man)
        assert all(r.passed for r in serial)
        for _ in range(3):
            parallel = run_suite(man, parallel=True)
            assert all(r.passed for r in parallel), [r.reason for r in parallel]
            assert [r.oracle.value for r in parallel] == [r.oracle.value for r in serial]


def _tiny_reports():
    man = SuiteManifest(
        "tiny",
        (
            SuiteEntry(parse_spec("A3:s=0"), NumericCfg(n_max=10**4, method="diagonal"), 1e-3),
            SuiteEntry(parse_spec("An:n=2,s=2"), NumericCfg(n_max=10**4, method="diagonal"), 1e-6),
            SuiteEntry(parse_spec("baseT:1"), NumericCfg(n_max=10**4, method="diagonal"), 1e-6),
        ),
    )
    return run_suite(man)


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
        a = render_reports(run_suite(man), "json")
        b = render_reports(run_suite(man, parallel=True), "json")
        assert a == b
        c = render_reports(run_suite(man), "csv")
        d = render_reports(run_suite(man), "csv")
        assert c == d

    def test_emit_writes_sink(self):
        reports = _tiny_reports()
        sink = io.StringIO()
        emit(reports, "csv", sink)
        assert sink.getvalue().startswith("spec,params")

    def test_emit_failure_carries_context(self):
        class BrokenSink:
            def write(self, _):
                raise OSError("disk full")

        with pytest.raises(RuntimeError, match="could not write"):
            emit(_tiny_reports(), "json", BrokenSink())
