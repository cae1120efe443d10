"""Per-layer spans for the traced benchmark pass, recorded from outside.

Each public function of tornzeta that starts a layer is replaced, in every
module that holds a reference to it, by a wrapper that opens a span.  The
package binds several of them at import (``harness`` holds its own
``oracle_for``, ``zx_numeric`` and ``closed_form_of``; ``cli`` holds
``run_suite`` as ``_run_suite``), so the wrapper goes wherever the caller
looks the name up, not only into the defining module.

A span's self time is its duration minus the time covered by the spans it
opened; spans nest strictly because a pass runs on one thread.  The self
times of all spans therefore sum to the time spent inside top-level spans,
and the rest of the pass is reported as unaccounted.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import defaultdict

from inputs import FAMILY_TOKENS, index_dims


class Tracer:
    """Span stack with per-name self time, call counts and layer counters.

    ``counts`` holds summed layer counters and ``distinct`` the sets whose
    sizes are counters, such as the constant/precision pairs requested.
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self._clock = clock
        self._stack: list[list] = []  # [name, start, time covered by children]
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.distinct: dict[str, set] = defaultdict(set)
        self._patched: list[tuple[object, str, object]] = []

    def open(self, name: str) -> None:
        self._stack.append([name, self._clock(), 0.0])

    def close(self) -> float:
        """End the innermost span; return its self time."""
        name, start, covered = self._stack.pop()
        duration = self._clock() - start
        own = duration - covered
        self.self_s[name] += own
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += duration
        return own

    def wrap(self, name: str, fn, count=None):
        """``fn`` inside a span; ``count(tracer, args, result, exc, own)`` runs after it."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.open(name)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                own = self.close()
                if count is not None:
                    count(self, args, result, exc, own)

        return traced

    def install(self, module, attr: str, name: str, modules, count=None) -> None:
        """Wrap ``module.attr`` and rebind every module-level reference to it."""
        original = getattr(module, attr, None)
        if original is None:
            return
        wrapper = self.wrap(name, original, count)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._patched.append((mod, key, original))

    def uninstall(self) -> None:
        while self._patched:
            mod, key, original = self._patched.pop()
            setattr(mod, key, original)

    def total_self_s(self) -> float:
        return sum(self.self_s.values())


# -- layer counters -------------------------------------------------------


# Terms are index tuples counted from the cutoff: N for a single sum or a
# regrouped one, N^d for a d-index box and about N^d/d! for a simplex.


def _count_diagonal(tracer, args, result, exc, own):
    spec, cfg = args[0], args[1]
    tracer.counts["oracle.diagonal.terms"] += cfg.n_max
    tracer.counts[f"diag.terms.{spec.token()}"] += cfg.n_max
    tracer.counts[f"diag.self_s.{spec.token()}"] += own


def _count_raw(tracer, args, result, exc, own):
    spec, cfg = args[0], args[1]
    tracer.counts["oracle.raw.terms"] += cfg.n_max ** index_dims(spec.label())


def _count_quadrature(tracer, args, result, exc, own):
    got = result if exc is None else getattr(exc, "partial", None)
    if got is not None and got.levels_used is not None:
        tracer.counts["oracle.quadrature.levels"] += got.levels_used
    if exc is not None:
        tracer.counts["oracle.quadrature.stalls"] += 1


def _count_render(tracer, args, result, exc, own):
    if result is not None:
        tracer.counts["harness.render_reports.bytes"] += len(result.encode())


def _counter_const(kind: str):
    def count(tracer, args, result, exc, own):
        tracer.distinct["oracle.const.fills"].add((kind, args))

    return count


def _counter_exact(how: str):
    def count(tracer, args, result, exc, own):
        spec, cutoff = args[0], args[1]
        dims = index_dims(spec.label())
        if how == "diagonal":
            terms = cutoff
        elif how == "triangle":
            terms = cutoff**dims // math.factorial(dims)
        else:
            terms = cutoff**dims
        tracer.counts["oracle.exact_partial.terms"] += terms

    return count


def install_all(tracer: Tracer) -> None:
    """Wrap every traced layer, rebinding the references in all of tornzeta's modules."""
    from tornzeta import cli, closedform, harness, oracle, series

    modules = [m for n, m in sys.modules.items() if n == "tornzeta" or n.startswith("tornzeta.")]
    layers = (
        (cli, "main", "cli.main", None),
        (harness, "verify", "harness.verify", None),
        (harness, "render_reports", "harness.render_reports", _count_render),
        (series, "parse_spec", "series.parse_spec", None),
        (closedform, "closed_form_of", "closedform.closed_form_of", None),
        (oracle, "zx_numeric", "oracle.zx_numeric", None),
        (oracle, "const_zeta", "oracle.const", _counter_const("zeta")),
        (oracle, "const_ln2", "oracle.const", _counter_const("ln2")),
        (oracle, "const_pi", "oracle.const", _counter_const("pi")),
        (oracle, "tail_estimate", "oracle.tail_estimate", None),
        (oracle, "oracle_diagonal", "oracle.diagonal", _count_diagonal),
        (oracle, "oracle_raw", "oracle.raw", _count_raw),
        (oracle, "oracle_quadrature", "oracle.quadrature", _count_quadrature),
        (oracle, "diagonal_partial_exact", "oracle.exact_partial", _counter_exact("diagonal")),
        (oracle, "triangle_partial_exact", "oracle.exact_partial", _counter_exact("triangle")),
        (oracle, "box_partial_exact", "oracle.exact_partial", _counter_exact("box")),
    )
    for module, attr, name, count in layers:
        tracer.install(module, attr, name, modules, count)


def _ns_per_term(self_s: float, terms: float) -> float:
    return self_s / terms * 1e9 if terms else 0.0


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Per-layer figures of one traced pass, keyed by metric name."""
    s, calls, counts = tracer.self_s, tracer.calls, tracer.counts
    out: dict[str, float] = {
        "traced_wall_s": wall_s,
        "unaccounted_s": wall_s - tracer.total_self_s(),
        "cli.main.self_s": s["cli.main"],
        "harness.verify.self_s": s["harness.verify"],
        "harness.render_reports.self_s": s["harness.render_reports"],
        "harness.render_reports.bytes": counts["harness.render_reports.bytes"],
        "series.parse_spec.self_s": s["series.parse_spec"],
        "closedform.closed_form_of.self_s": s["closedform.closed_form_of"],
        "oracle.zx_numeric.self_s": s["oracle.zx_numeric"],
        "oracle.const.self_s": s["oracle.const"],
        "oracle.const.fills": len(tracer.distinct["oracle.const.fills"]),
        "oracle.tail_estimate.calls": calls["oracle.tail_estimate"],
        "oracle.tail_estimate.self_s": s["oracle.tail_estimate"],
        "oracle.diagonal.calls": calls["oracle.diagonal"],
        "oracle.diagonal.self_s": s["oracle.diagonal"],
        "oracle.diagonal.terms": counts["oracle.diagonal.terms"],
        "oracle.diagonal.ns_per_term": _ns_per_term(
            s["oracle.diagonal"], counts["oracle.diagonal.terms"]
        ),
        "oracle.raw.calls": calls["oracle.raw"],
        "oracle.raw.self_s": s["oracle.raw"],
        "oracle.raw.terms": counts["oracle.raw.terms"],
        "oracle.raw.ns_per_term": _ns_per_term(s["oracle.raw"], counts["oracle.raw.terms"]),
        "oracle.quadrature.calls": calls["oracle.quadrature"],
        "oracle.quadrature.self_s": s["oracle.quadrature"],
        "oracle.quadrature.levels": counts["oracle.quadrature.levels"],
        "oracle.quadrature.stalls": counts["oracle.quadrature.stalls"],
        "oracle.exact_partial.calls": calls["oracle.exact_partial"],
        "oracle.exact_partial.self_s": s["oracle.exact_partial"],
        "oracle.exact_partial.terms": counts["oracle.exact_partial.terms"],
    }
    for tok in FAMILY_TOKENS:
        out[f"oracle.diagonal.ns_per_term.{tok}"] = _ns_per_term(
            counts[f"diag.self_s.{tok}"], counts[f"diag.terms.{tok}"]
        )
    return out


def scaled(metrics: dict[str, float], factor: float) -> dict[str, float]:
    """The time-valued figures multiplied by ``factor``; counts are left alone."""
    return {
        name: value * factor if name.endswith("_s") or ".ns_per_term" in name else value
        for name, value in metrics.items()
    }
