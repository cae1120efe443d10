import contextlib
import importlib.metadata
import io
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import tornzeta.harness
from tornzeta.cli import main

ROOT = Path(__file__).resolve().parents[1]


class TestEval:
    def test_closed_form_output(self, capsys):
        assert main(["eval", "A3:s=0"]) == 0
        out = capsys.readouterr().out
        assert "A3:s=0" in out
        assert "closed form: 6*z4" in out
        assert "6.49393940226682914909602217925" in out

    def test_prefer_pi(self, capsys):
        assert main(["eval", "A3:s=0", "--prefer-pi"]) == 0
        assert "1/15*pi^4" in capsys.readouterr().out

    def test_rational_value(self, capsys):
        assert main(["eval", "aXL:k=1"]) == 0
        assert "closed form: 2" in capsys.readouterr().out

    def test_unknown_spec_fails(self, capsys):
        assert main(["eval", "wat:s=1"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_oracle_only_family_fails(self, capsys):
        assert main(["eval", "tornheim:a=2,b=1,c=1"]) == 2
        assert "no closed form" in capsys.readouterr().err

    def test_refused_precision_prints_nothing(self, capsys):
        assert main(["eval", "A3:s=0", "--digits", "10"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: precision below 30 digits" in captured.err


class TestOracle:
    def test_diagonal(self, capsys):
        assert main(["oracle", "aXL:k=1", "--method", "diagonal", "--nmax", "1000"]) == 0
        out = capsys.readouterr().out
        assert "method:   diagonal" in out
        assert "n_used:   1000" in out
        assert "tail_bound" in out

    def test_diagonal_stops_at_asymptotic_cutoff(self, capsys):
        # --nmax caps the terms; past 2^11 at 50 digits the tail is expanded
        assert main(["oracle", "aXL:k=1", "--method", "diagonal", "--nmax", "10000"]) == 0
        out = capsys.readouterr().out
        assert "method:   diagonal" in out
        assert "n_used:   2048" in out
        assert "tail_bound" in out

    def test_tornheim_raw_is_reachable(self, capsys):
        assert main(["oracle", "tornheim:a=2,b=1,c=1", "--method", "raw", "--nmax", "400"]) == 0
        out = capsys.readouterr().out
        assert "method:   raw" in out
        assert "1.3487" in out

    def test_quadrature_reports_levels(self, capsys):
        assert main(["oracle", "A3:s=0", "--method", "quadrature"]) == 0
        assert "levels:" in capsys.readouterr().out

    def test_cap_violation_fails(self, capsys):
        # tornheim has no N_raw, so its raw route sums the whole box
        assert main(["oracle", "tornheim:a=2,b=1,c=1", "--method", "raw", "--nmax", "100000"]) == 2
        assert "out of reach" in capsys.readouterr().err


class TestVerify:
    def test_pass_exits_zero(self, capsys):
        rc = main(["verify", "on", "--nmax", "100000"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "1/1 identities verified" in out
        assert " ok" in out

    def test_failed_check_exits_one(self, capsys):
        rc = main(
            ["verify", "A3:s=0", "--method", "quadrature", "--quad-levels", "3", "--tol", "1e-30"]
        )
        out = capsys.readouterr().out
        assert rc == 1
        assert "FAIL" in out
        assert "0/1 identities verified" in out

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_tolerance_is_usage_error(self, tol, capsys):
        # nan would fail every check and inf pass every one
        assert main(["verify", "S111", "--nmax", "20", "--tol", tol]) == 2
        assert "finite" in capsys.readouterr().err

    def test_no_closed_form_is_usage_error(self, capsys):
        assert main(["verify", "tornheim:a=1,b=1,c=1"]) == 2
        assert "no closed form" in capsys.readouterr().err


class TestSuite:
    def test_smoke_json_stdout(self, capsys):
        assert main(["suite", "--preset", "smoke", "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 6
        assert all(row["pass"] is True for row in rows)

    def test_csv_to_file(self, tmp_path, capsys):
        target = tmp_path / "report.csv"
        assert main(["suite", "--preset", "smoke", "--format", "csv", "--out", str(target)]) == 0
        assert "6/6 identities verified" in capsys.readouterr().out
        assert target.read_text().startswith("spec,params,closed_form")

    def test_unwritable_out_is_an_error(self, tmp_path, capsys):
        # exit 1 means a failed identity; a report that was not written is exit 2
        target = tmp_path / "missing" / "r.json"
        assert main(["suite", "--preset", "smoke", "--format", "json", "--out", str(target)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not target.exists()

    def test_bad_out_fails_before_the_suite_runs(self, tmp_path, capsys, monkeypatch):
        calls = []
        real = tornzeta.harness.verify

        def counted(*args):
            calls.append(args[0])
            return real(*args)

        monkeypatch.setattr("tornzeta.harness.verify", counted)
        target = tmp_path / "missing" / "r.json"
        assert main(["suite", "--preset", "smoke", "--format", "json", "--out", str(target)]) == 2
        assert "error:" in capsys.readouterr().err
        assert calls == []
        # the counter does see a run that has somewhere to write
        assert main(["suite", "--preset", "smoke", "--out", str(tmp_path / "r.txt")]) == 0
        assert len(calls) == 6

    def test_failed_emit_is_an_error(self, tmp_path, capsys, monkeypatch):
        def broken(reports, format, sink):
            raise RuntimeError(f"could not write {format} report")

        monkeypatch.setattr("tornzeta.cli.emit", broken)
        out = str(tmp_path / "r.json")
        assert main(["suite", "--preset", "smoke", "--format", "json", "--out", out]) == 2
        assert "error: could not write json report" in capsys.readouterr().err

    def test_parallel_matches_serial(self, capsys):
        assert main(["suite", "--preset", "smoke", "--format", "csv"]) == 0
        serial = capsys.readouterr().out
        assert main(["suite", "--preset", "smoke", "--format", "csv", "--parallel"]) == 0
        assert capsys.readouterr().out == serial

    @pytest.mark.parametrize("parallel", [[], ["--parallel"]], ids=["serial", "parallel"])
    def test_out_prints_one_line_per_entry(self, tmp_path, capsys, parallel):
        argv, target = ["suite", "--preset", "smoke", "--format", "json"], tmp_path / "r.json"
        assert main(argv) == 0
        report = capsys.readouterr().out
        assert main([*argv, "--out", str(target), *parallel]) == 0
        *lines, summary = capsys.readouterr().out.splitlines()
        entries = tornzeta.harness.smoke_manifest().entries
        assert len(lines) == len(entries)
        for line, e in zip(lines, entries):
            assert re.fullmatch(rf"{re.escape(e.spec.label())} +{e.cfg.method} +\d+\.\d{{3}}s  ok", line)
        assert re.fullmatch(rf"6/6 identities verified -> {re.escape(str(target))} in [\d.]+s", summary)
        assert target.read_bytes() == report.encode()

    @pytest.mark.parametrize("out, flushed", [("-", [0] * 6), ("r.txt", [0, 1, 2, 3, 4, 5])])
    def test_lines_are_flushed_as_entries_finish(self, tmp_path, monkeypatch, out, flushed):
        # stdout mode runs harness.verify too: perfbench replaces it to count entries
        class Stdout(io.StringIO):
            lines = 0  # lines out at the last flush

            def flush(self):
                self.lines = self.getvalue().count("\n")

        stdout, seen, real = Stdout(), [], tornzeta.harness.verify

        def probe(*args):
            seen.append(stdout.lines)
            return real(*args)

        monkeypatch.setattr("tornzeta.harness.verify", probe)
        target = out if out == "-" else str(tmp_path / out)
        with contextlib.redirect_stdout(stdout):
            assert main(["suite", "--preset", "smoke", "--out", target]) == 0
        assert seen == flushed


class TestConstants:
    def test_zeta_thirty_digits(self, capsys):
        assert main(["constants", "--zeta", "2", "--digits", "30"]) == 0
        assert "zeta(2) = 1.64493406684822643647241516665" in capsys.readouterr().out

    def test_multiple_constants(self, capsys):
        assert main(["constants", "--ln2", "--pi", "--digits", "32"]) == 0
        out = capsys.readouterr().out
        assert "ln2 = 0.6931471805599453094172321214581" in out
        assert "pi = 3.1415926535897932384626433832795" in out

    def test_nothing_requested_fails(self, capsys):
        assert main(["constants"]) == 2
        assert "nothing requested" in capsys.readouterr().err

    def test_digits_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("TORNZETA_DIGITS", "36")
        assert main(["constants", "--zeta", "3"]) == 0
        number = capsys.readouterr().out.split("=")[1].strip()
        assert number.startswith("1.20205690315959428539973816151")
        assert len(number) == 37  # 36 digits plus the decimal point

    def test_bad_env_value_fails(self, capsys, monkeypatch):
        monkeypatch.setenv("TORNZETA_DIGITS", "plenty")
        assert main(["constants", "--zeta", "2"]) == 2
        assert "TORNZETA_DIGITS" in capsys.readouterr().err


class TestBernoulli:
    def test_values(self, capsys):
        assert main(["bernoulli", "12"]) == 0
        assert capsys.readouterr().out.strip() == "-691/2730"
        assert main(["bernoulli", "0"]) == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_negative_fails(self, capsys):
        assert main(["bernoulli", "-3"]) == 2


def test_module_entry_point_end_to_end():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "tornzeta", "eval", "S111"],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "2*z3" in proc.stdout


def _is_installed(dist):
    try:
        importlib.metadata.distribution(dist)
    except importlib.metadata.PackageNotFoundError:
        return False
    return True


def _write_launcher(directory, name):
    """Write the launcher an installer makes for ``name`` in ``[project.scripts]``."""
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as f:
        entry = tomllib.load(f)["project"]["scripts"][name]
    module, _, attr = entry.partition(":")
    launcher = directory / name
    launcher.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {attr}\n"
        f"sys.exit({attr}())\n"
    )
    launcher.chmod(0o755)


def test_console_script_end_to_end(tmp_path):
    """Run the ``tornzeta`` command: the installed one if the distribution
    is installed, else the launcher an installer would make from the
    checkout's ``[project.scripts]`` entry."""
    if _is_installed("tornzeta"):
        exe = shutil.which("tornzeta")
        assert exe, "console script should be on PATH after an editable install"
        proc = subprocess.run(
            [exe, "eval", "S111"], capture_output=True, text=True, timeout=60
        )
    else:
        _write_launcher(tmp_path, "tornzeta")
        exe = shutil.which("tornzeta", path=tmp_path)
        assert exe, "console script should be on PATH after an editable install"
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run(
            [exe, "eval", "S111"], capture_output=True, text=True, timeout=60, env=env
        )
    assert proc.returncode == 0, proc.stderr
    assert "2*z3" in proc.stdout
