"""Reports from threads are the serial run's bytes.

No numeric routine reads or sets mpmath's process-global precision: each
takes its precision as an argument, so threads cannot change each other's
precision mid-computation, nor leave a wrong value in a shared cache.
"""

import ast
import sys
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from pathlib import Path

import pytest

import tornzeta
from tornzeta import asymptotic, harness, oracle
from tornzeta.harness import render_reports, verify
from tornzeta.oracle import NumericCfg
from tornzeta.series import parse_spec

# quadrature at three precisions, the diagonal route's tails and a raw box, each twice
_JOBS = [
    (parse_spec(text), NumericCfg(digits=digits, method=method, **box), tol)
    for text, method, digits, tol, box in (
        ("A3:s=0", "quadrature", 60, 1e-8, {}),
        ("An:n=4,s=0", "quadrature", 120, 1e-10, {}),
        ("An:n=2,s=0", "quadrature", 200, 1e-10, {}),
        ("ln", "diagonal", 80, 1e-8, {}),
        ("A3:s=2", "diagonal", 150, 1e-6, {}),
        ("S111", "raw", 100, 1e-6, {"n_max": 200}),
        ("on", "diagonal", 200, 1e-8, {}),
    )
] * 2
# below N*, heads read from the shared prefix table, cutoffs asked out of order, each twice
_JOBS += [
    (parse_spec(text), NumericCfg(digits=digits, n_max=n, method="diagonal"), 1e-6)
    for n in (700, 90, 1500, 300, 1100, 45)
    for text, digits in (("ln", 60), ("A3:s=2", 60), ("halfint:a", 90))
] * 2


def _clear_caches() -> None:
    # const_*, _node_table, the prefix table, every memoized piece of the
    # expansion and harness's closed forms and report strings
    for module in (oracle, asymptotic, harness):
        for f in vars(module).values():
            if hasattr(f, "cache_clear"):
                f.cache_clear()
    oracle._PREFIX.clear()


def _batch(run_map) -> str:
    return render_reports(list(run_map(lambda job: verify(*job), _JOBS)), "json")


def _threaded() -> str:
    # more threads than cores, switching often; each result is awaited with a timeout
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(4) as pool:
            return _batch(partial(pool.map, timeout=300))
    finally:
        sys.setswitchinterval(interval)


@pytest.fixture(scope="module")
def serial() -> str:
    _clear_caches()
    return _batch(map)


def test_threads_give_the_serial_bytes(serial):
    _clear_caches()
    assert _threaded() == serial


def test_threads_leave_no_stale_cache(serial):
    # a serial batch on the caches the threads filled reads what they left
    _clear_caches()
    _threaded()
    assert _batch(map) == serial


def test_threads_extend_one_row_at_once():
    # eight threads walk one row's cutoffs upwards together, so most calls
    # extend a blob another thread just stored; the bare clear before the
    # second round leaves each stored walk past the empty table's end
    spec, one = parse_spec("halfint:b"), 1 << oracle._prec_bits(60)
    cutoffs = range(15, 1600, 53)
    want = [oracle._regrouped_sum(spec, n, one) for n in cutoffs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(2):
            oracle._PREFIX.clear()
            with ThreadPoolExecutor(8) as pool:
                futures = [pool.submit(lambda: [oracle._prefix_sum(spec, n, one) for n in cutoffs])
                           for _ in range(8)]
                assert [f.result(timeout=300) for f in futures] == [want] * 8
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize(
    "module", sorted(p.name for p in Path(tornzeta.__file__).parent.glob("*.py"))
)
def test_no_module_touches_the_global_precision(module):
    # mp.make_mpf wraps a raw tuple; any other attribute of mp reads or sets its context
    tree = ast.parse((Path(tornzeta.__file__).parent / module).read_text())
    uses = {
        (node.lineno, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "mp"
        and node.attr != "make_mpf"
    }
    uses |= {
        (node.lineno, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name in ("workdps", "workprec", "extraprec")
    }
    assert not uses, f"{module} uses mpmath's context: {sorted(uses)}"
