#!/usr/bin/env python3
"""tornzeta benchmark runner.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Passes of the workload run one at a
time, each in a fresh interpreter (perfbench/worker.py), until --seconds
are used up, and at least three of them.  Before each pass, set-up is also
sampled in an interpreter that stops once the workload is ready.  Timings
are corrected for the host's speed as each pass runs (perfbench/speed.py),
and the median over passes or samples is reported.

The runner prints the environment, the per-entry certified-digits table
and every metric with its unit, then one JSON line with correct,
attempted, failed and the metrics that BENCHMARK.json lists for the mode:
end_to_end untraced, per_layer with --trace 1.

Exit code 1 means a check failed; 2 means the benchmark could not run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = ROOT / "perfbench" / "worker.py"
STATE_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("paper-full", "hiprec-quad", "sweep-small", "exact-sound")
MIN_PASSES = 3
DEADLINE_S = 170  # a run must end within 180 s
TABLE_ROWS = 12


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def child_env() -> dict[str, str]:
    """The caller's environment, pinned: tornzeta from src/, default precision."""
    env = {k: v for k, v in os.environ.items() if k not in ("TORNZETA_DIGITS", "PYTHONPATH")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(workload: str, seed: int, flags: list[str], deadline: float) -> dict:
    """Run one worker to completion and return its JSON result."""
    t0 = time.monotonic_ns()
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--t0", str(t0), *flags]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(flags)} passed the run deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr.strip()[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_passes(workload: str, seed: int, seconds: int, trace: bool,
               deadline: float) -> tuple[list[dict], list[float]]:
    """Passes, and set-up times sampled between them, until the next pass
    would end past ``seconds``.  Traced runs alternate plain and traced passes."""
    passes: list[dict] = []
    setups: list[float] = []
    start = time.monotonic()
    while True:
        setups.append(spawn(workload, seed, ["--setup-only"], deadline)["setup_s"])
        traced = trace and len(passes) % 2 == 1
        passes.append(spawn(workload, seed, ["--trace"] if traced else [], deadline))
        setups.append(passes[-1]["setup_s"])
        next_s = statistics.median(p["setup_s"] + p["wall_s"] for p in passes)
        now = time.monotonic()
        if now + next_s > deadline:
            return passes, setups
        if len(passes) >= MIN_PASSES and now - start + next_s > seconds:
            return passes, setups


def code_fingerprint() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def byte_identity_check(passes: list[dict]) -> dict:
    """paper-full JSON bytes agree across this run's passes and earlier runs of the same code."""
    shas = {p["json_sha256"] for p in passes}
    record = STATE_DIR / "paper-full-json.json"
    seen = json.loads(record.read_text()) if record.exists() else {}
    key = code_fingerprint()
    if key in seen:
        shas.add(seen[key])
    elif len(shas) == 1:
        STATE_DIR.mkdir(exist_ok=True)
        seen[key] = next(iter(shas))
        record.write_text(json.dumps(seen, indent=1) + "\n")
    return {"label": "paper-full json bytes identical across runs", "ok": len(shas) == 1,
            "reason": "" if len(shas) == 1 else f"{len(shas)} distinct report digests"}


def digits_of(p: dict) -> list[float]:
    return [c["digits"] for c in p["checks"] if c["digits"] is not None]


def run_checks(workload: str, passes: list[dict]) -> list[dict]:
    """Checks made across passes, on top of each pass's own."""
    same = all(digits_of(p) == digits_of(passes[0]) for p in passes)
    checks = [{"label": "certified digits identical across passes", "ok": same,
               "reason": "" if same else "digits differ between passes"}]
    if workload == "paper-full":
        checks.append(byte_identity_check(passes))
    return checks


def end_to_end(passes: list[dict], setups: list[float]) -> dict[str, float]:
    wall = statistics.median(p["wall_s"] for p in passes)
    digits = digits_of(passes[0])
    ms = [c["ms"] for p in passes for c in p["checks"] if c["ms"] is not None]
    return {
        "wall_s": wall,
        "setup_s": statistics.median(setups),
        "certified_digits_sum": sum(digits),
        "digits_per_s": sum(digits) / wall,
        "entries_per_s": len(digits) / wall,
        "check_ms_p50": statistics.median(ms),
        "check_ms_p90": statistics.quantiles(ms, n=10)[8],
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
    }


def per_layer(passes: list[dict]) -> dict[str, float]:
    """Layers of the median traced pass, whose self times add up to its wall time."""
    traced = sorted((p for p in passes if "layers" in p), key=lambda p: p["wall_s"])
    rep = traced[(len(traced) - 1) // 2]
    plain = statistics.median(p["wall_s"] for p in passes if "layers" not in p)
    out = dict(rep["layers"])
    out["trace_overhead_s"] = rep["wall_s"] - plain
    out["certified_digits_min"] = min(digits_of(rep))
    return out


def print_environment() -> None:
    import mpmath

    print(f"python {platform.python_version()} ({sys.executable})")
    print(f"nproc {len(os.sched_getaffinity(0))} (cpu_count {os.cpu_count()})")
    print(f"mpmath {mpmath.__version__} backend {mpmath.libmp.BACKEND}")
    print("TORNZETA_DIGITS cleared in workers; passes run serially, never with --parallel")


def print_digits_table(p: dict) -> None:
    rows = sorted((c["digits"], c["label"]) for c in p["checks"] if c["digits"] is not None)
    print(f"certified digits per entry ({len(rows)} entries, weakest first):")
    for digits, label in rows[:TABLE_ROWS]:
        print(f"  {digits:10.4f}  {label}")
    if len(rows) > TABLE_ROWS:
        print(f"  ... {len(rows) - TABLE_ROWS} more, up to {rows[-1][0]:.4f}")
    print(f"weakest entry: {rows[0][1]} at {rows[0][0]:.4f} digits")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="tornzeta benchmark runner")
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    try:
        if not (ROOT / "src" / "tornzeta").is_dir():
            raise BenchError(f"no tornzeta sources under {ROOT / 'src'}")
        contract = json.loads((ROOT / "BENCHMARK.json").read_text())
        print_environment()
        passes, setups = run_passes(args.workload, args.seed, args.seconds, bool(args.trace),
                                    deadline)
        if args.trace and not any("layers" in q for q in passes):
            raise BenchError("no traced pass finished before the run deadline")
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    checks = [c for q in passes for c in q["checks"]] + run_checks(args.workload, passes)
    failed = [c for c in checks if not c["ok"]]
    for c in failed[:20]:
        print(f"FAILED {c['label']}: {c['reason']}")
    print_digits_table(passes[0])
    if args.trace:
        values, listed = per_layer(passes), contract["per_layer"]
    else:
        values, listed = end_to_end(passes, setups), contract["end_to_end"]
    print(f"{args.workload}: {len(passes)} passes (t = traced); wall_s, raw/corrected:")
    print("  " + " ".join(f"{q['wall_raw_s']:.3f}/{q['wall_s']:.3f}{'t' * ('layers' in q)}"
                          for q in passes))
    print(f"{len(setups)} set-ups; setup_s corrected: " + " ".join(f"{s:.3f}" for s in setups))
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        print(f"benchmark error: BENCHMARK.json lists unknown metrics {missing}", file=sys.stderr)
        return 2
    metrics = {}
    for m in listed:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"  {m['name']} = {values[m['name']]:.6g} {m['unit']}")
    print(json.dumps({"correct": not failed, "attempted": len(checks), "failed": len(failed),
                      "metrics": metrics}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
