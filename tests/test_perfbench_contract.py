"""The benchmark's view of the package: one traced pass of each workload.

perfbench calls tornzeta through module attributes and wraps them for its
per-layer trace (``perfbench/tracing.py``), and its tracer reads specs
through ``token()`` and ``label()``.  A rename there fails a benchmark run;
this runs each workload once, in process and at seed 7, so the rename fails
here first.  The speed sampler is not used: every check gets latency 0.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from tracing import Tracer, install_all  # noqa: E402
from worker import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_pass_checks_out(name):
    workload = WORKLOADS[name](7)
    tracer = Tracer()
    install_all(tracer)
    patched = list(tracer._patched)
    try:
        result, spans = workload.run()
    finally:
        tracer.uninstall()
    assert patched
    assert all(getattr(mod, key) is original for mod, key, original in patched)
    checks, _ = workload.check(result, [0.0] * len(spans))
    assert checks
    failed = [c for c in checks if not c["ok"]]
    assert not failed, failed[:3]
