import argparse
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
from tornzeta.cli import _cfg_from, build_parser, main
from tornzeta.harness import PRESETS
from tornzeta.oracle import NumericCfg

ROOT = Path(__file__).resolve().parents[1]
# src ahead of the caller's PYTHONPATH, which may be where mpmath is found
SRC_PATH = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))


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

    def test_raw_refusal_names_the_largest_nmax(self, capsys):
        # the raw route sums a box of side --nmax, so the default 10^6 is refused
        assert main(["oracle", "S111", "--method", "raw", "--digits", "300"]) == 2
        err = capsys.readouterr().err
        assert "out of reach" in err and "n_max <= 5000 for 2 indices" in err
        assert main(["oracle", "S111", "--method", "raw", "--digits", "300", "--nmax", "1500"]) == 0

    def test_cap_violation_fails(self, capsys):
        # the raw route sums the whole box, of 10^10 terms here
        assert main(["oracle", "tornheim:a=2,b=1,c=1", "--method", "raw", "--nmax", "100000"]) == 2
        assert "out of reach" in capsys.readouterr().err

    def test_quadrature_stall_is_an_oracle_failure(self, capsys):
        argv = ["oracle", "A3:s=0", "--method", "quadrature", "--quad-levels", "3"]
        assert main([*argv, "--digits", "100"]) == 2
        assert capsys.readouterr().err.startswith("oracle failure: quadrature stalled at level 3")


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
        # the suite ran, then the report's write fails (a full disk)
        class Full(io.StringIO):
            def write(self, _):
                raise OSError(28, "No space left on device")

        monkeypatch.setattr("tornzeta.cli.open", lambda *a, **k: Full(), raising=False)
        out = str(tmp_path / "r.json")
        assert main(["suite", "--preset", "smoke", "--format", "json", "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: could not write json report to {out}: ")
        assert "No space left on device" in err

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

    def test_digits_sets_the_printed_length(self, capsys):
        assert main(["constants", "--zeta", "3", "--digits", "36"]) == 0
        number = capsys.readouterr().out.split("=")[1].strip()
        assert number.startswith("1.20205690315959428539973816151")
        assert len(number) == 37  # 36 digits plus the decimal point


class TestPrintedBytes:
    # eval, oracle and constants print through harness._fmt; these lines are
    # pinned literally, so a change to the rendering shows as a diff
    def test_constants(self, capsys):
        assert main(["constants", "--zeta", "3", "--ln2", "--pi", "--digits", "60"]) == 0
        assert capsys.readouterr().out == (
            "zeta(3) = 1.20205690315959428539973816151144999076498629234049888179227\n"
            "ln2 = 0.693147180559945309417232121458176568075500134360255254120680\n"
            "pi = 3.14159265358979323846264338327950288419716939937510582097494\n"
        )

    def test_eval(self, capsys):
        assert main(["eval", "A3:s=0"]) == 0
        assert capsys.readouterr().out == (
            "A3:s=0\n  closed form: 6*z4\n  numeric:     6.49393940226682914909602217925\n"
        )

    def test_oracle_below_the_cutoff(self, capsys):
        assert main(["oracle", "on", "--nmax", "100"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "  value:    0.401835407278633437835049922969" in lines
        assert "  tail_bound:     0.0112565" in lines
        assert "  error_estimate: 0.0" in lines


class TestDefaults:
    def test_environment_does_not_set_precision(self, capsys, monkeypatch):
        monkeypatch.setenv("TORNZETA_DIGITS", "36")
        assert NumericCfg().digits == 50
        for preset in PRESETS.values():
            assert {e.cfg.digits for e in preset().entries} == {50}
        assert main(["constants", "--zeta", "3"]) == 0
        assert len(capsys.readouterr().out.split("=")[1].strip()) == 51

    @pytest.mark.parametrize("cmd", ["oracle", "verify"])
    def test_flags_default_to_numeric_cfg(self, cmd):
        assert _cfg_from(build_parser().parse_args([cmd, "S111"])) == NumericCfg()


def test_every_subcommand_and_argument_has_help():
    (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert all(c.help for c in commands._choices_actions)
    for name, sub in commands.choices.items():
        for action in sub._actions:
            assert action.help and action.help != argparse.SUPPRESS, (name, action.dest)
        sub.format_help()  # every %(default)s in the help renders


class TestBernoulli:
    def test_values(self, capsys):
        assert main(["bernoulli", "12"]) == 0
        assert capsys.readouterr().out.strip() == "-691/2730"
        assert main(["bernoulli", "0"]) == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_negative_fails(self, capsys):
        assert main(["bernoulli", "-3"]) == 2


def test_module_entry_point_end_to_end():
    env = dict(os.environ, PYTHONPATH=SRC_PATH)
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


def _script_entry(name):
    """``name``'s ``[project.scripts]`` entry, read with tomllib where Python
    has it (3.11 on), else from its ``name = "module:attr"`` line."""
    text = (ROOT / "pyproject.toml").read_text()
    try:
        import tomllib
    except ImportError:
        section = text.split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
        entries = dict(line.replace(" ", "").split("=", 1) for line in section.splitlines() if "=" in line)
        return entries[name].strip('"')
    return tomllib.loads(text)["project"]["scripts"][name]


def test_script_entry_is_read_without_tomllib(monkeypatch):
    # Python 3.10 has no tomllib; with it hidden the entry must read the same
    entry = _script_entry("tornzeta")
    monkeypatch.setitem(sys.modules, "tomllib", None)
    assert _script_entry("tornzeta") == entry == "tornzeta.cli:main"


def _write_launcher(directory, name):
    """Write the launcher an installer makes for ``name`` in ``[project.scripts]``."""
    module, _, attr = _script_entry(name).partition(":")
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
        env = dict(os.environ, PYTHONPATH=SRC_PATH)
        proc = subprocess.run(
            [exe, "eval", "S111"], capture_output=True, text=True, timeout=60, env=env
        )
    assert proc.returncode == 0, proc.stderr
    assert "2*z3" in proc.stdout
