"""Tests of the benchmark's own helpers.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

import json
import types
from collections import Counter
from pathlib import Path

import pytest
from mpmath import mp

import inputs
import run
import speed
from certify import agrees, certified_digits, reference_value
from tornzeta import closed_form_of, parse_spec
from tracing import Tracer, layer_metrics

ROOT = Path(__file__).resolve().parents[2]


# -- certified digits -------------------------------------------------------


def test_weakest_paper_entry_certifies_under_one_digit():
    # An:n=6,s=1 at N=10^5: abs_err 19.5 against a tail bound of 109, closed form 720
    assert certified_digits(720, 19.5, 109, 0, 50) == pytest.approx(0.7484, abs=1e-4)


def test_all_three_error_terms_count():
    assert certified_digits(1, "1e-6", "1e-6", "1e-6", 50) == pytest.approx(-mp.log10(3e-6))


def test_digits_are_floored_at_zero_and_capped_at_working_precision():
    assert certified_digits(1, 5, 0, 0, 50) == 0.0
    assert certified_digits(1, "1e-80", 0, 0, 50) == 50.0
    assert certified_digits(2, 0, 0, 0, 50) == 50.0


def test_digits_survive_errors_below_the_smallest_float():
    with mp.workdps(430):
        err = mp.mpf(10) ** -400
    assert float(err) == 0.0
    assert certified_digits(1, err, 0, 0, 450) == pytest.approx(400)


def test_reference_value_uses_mpmath_constants():
    closed = closed_form_of(parse_spec("A3:s=0"))  # 6 zeta(4) = pi^4/15
    ref = reference_value(closed, 60)
    ln = reference_value(closed_form_of(parse_spec("ln")), 60)  # 4 - 2 ln2 - zeta(2)
    with mp.workdps(70):
        assert agrees(ref, mp.pi**4 / 15, 60)
        assert not agrees(ref, mp.pi**4 / 16, 60)
        assert agrees(ln, 4 - 2 * mp.log(2) - mp.pi**2 / 6, 60)


# -- self-time arithmetic ---------------------------------------------------


def _clock(*ticks):
    return iter(ticks).__next__


def test_self_time_is_span_minus_child_spans():
    t = Tracer(clock=_clock(0, 1, 3, 4, 9, 10))
    t.open("outer")
    t.open("inner")
    assert t.close() == 2
    t.open("inner")
    assert t.close() == 5
    assert t.close() == 3
    assert dict(t.self_s) == {"outer": 3, "inner": 7}
    assert dict(t.calls) == {"outer": 1, "inner": 2}
    assert t.total_self_s() == 10


def test_layers_plus_unaccounted_add_up_to_wall_time():
    t = Tracer(clock=_clock(1, 2, 4, 6))
    t.open("oracle.diagonal")
    t.open("oracle.tail_estimate")
    t.close()
    t.close()
    got = layer_metrics(t, wall_s=8.0)
    assert got["oracle.diagonal.self_s"] == 3
    assert got["oracle.tail_estimate.self_s"] == 2
    assert got["unaccounted_s"] == 3
    self_times = sum(v for k, v in got.items() if k.endswith(".self_s"))
    assert self_times + got["unaccounted_s"] == got["traced_wall_s"]


def test_install_rebinds_every_reference_and_uninstall_restores():
    def work(x):
        return x + 1

    home = types.ModuleType("home")
    home.work = work
    caller = types.ModuleType("caller")
    caller.renamed = work
    seen = []
    t = Tracer()
    t.install(home, "work", "layer", [home, caller], lambda tr, args, res, exc, own: seen.append(res))
    assert caller.renamed(1) == 2 and home.work(2) == 3
    assert t.calls["layer"] == 2 and seen == [2, 3]
    t.uninstall()
    assert home.work is work and caller.renamed is work


def test_a_failing_call_still_closes_its_span():
    def boom():
        raise ValueError("no")

    t = Tracer()
    wrapped = t.wrap("layer", boom, lambda tr, args, res, exc, own: tr.counts.update(err=1))
    with pytest.raises(ValueError):
        wrapped()
    assert t.calls["layer"] == 1 and t.counts["err"] == 1
    assert not t._stack


# -- host-speed correction --------------------------------------------------


def _sampler(samples):
    sampler = speed.SpeedSampler()
    for start, kernel_s in samples:
        sampler.starts.append(start)
        sampler.kernel_s.append(kernel_s)
    return sampler


def test_a_slow_host_is_scaled_back_to_reference_speed():
    ref = speed.REF_KERNEL_S
    sampler = _sampler([(0.25, 2 * ref), (0.5, 2 * ref), (0.75, 2 * ref)])
    # the kernel ran twice as slow, so the interval's busy time counts half
    assert sampler.corrected(0.0, 1.0) == pytest.approx((1.0 - 6 * ref) / 2)


def test_speed_is_averaged_over_the_samples_inside_the_interval():
    ref = speed.REF_KERNEL_S
    sampler = _sampler([(0.1, ref), (0.2, 2 * ref), (5.0, 4 * ref)])
    assert sampler.corrected(0.0, 1.0) == pytest.approx((1.0 - 3 * ref) * 0.75)


def test_an_interval_without_samples_uses_the_nearest_ones():
    ref = speed.REF_KERNEL_S
    sampler = _sampler([(10.0 + i, 2 * ref) for i in range(speed.NEAREST)] + [(99.0, ref / 9)])
    assert sampler.corrected(0.0, 1.0) == pytest.approx(0.5)


def test_the_sampler_times_its_kernel():
    sampler = speed.SpeedSampler(clock=_clock(1.0, 1.5))
    sampler.sample()
    assert sampler.starts == [1.0] and sampler.kernel_s == [0.5]


# -- seeded inputs ----------------------------------------------------------


@pytest.mark.parametrize("make", [inputs.sweep_items, inputs.hiprec_items, inputs.exact_items])
def test_same_seed_same_inputs(make):
    assert make(7) == make(7)
    assert make(7) != make(8)


def test_sweep_work_does_not_depend_on_the_seed():
    def shape(items):
        return (
            sorted(n for _, method, n, _ in items if method == "diagonal"),
            sorted(n for _, method, n, _ in items if method == "raw"),
            Counter(text.split(":")[0] for text, *_ in items),
        )

    a, b = inputs.sweep_items(1), inputs.sweep_items(2)
    assert shape(a) == shape(b)
    assert len(a) == inputs.SWEEP_PER_FAMILY * len(inputs.FAMILY_TOKENS)
    raws = [text for text, method, *_ in a if method == "raw"]
    assert len(raws) == len(a) // inputs.SWEEP_RAW_SHARE
    assert all(inputs.index_dims(text) <= 2 for text in raws)
    for text, *_ in a:
        parse_spec(text)


def test_exact_work_does_not_depend_on_the_seed():
    def shape(items):
        return Counter((text.split(":")[0], inputs.index_dims(text), n) for text, n in items)

    assert shape(inputs.exact_items(1)) == shape(inputs.exact_items(2))


def test_index_dims():
    assert [inputs.index_dims(t) for t in ("ln", "An:n=2,s=0", "A3:s=1", "An:n=5,s=0")] == [1, 1, 2, 4]


# -- the contract -----------------------------------------------------------


def test_benchmark_json_lists_what_the_runner_emits():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    check = {"label": "x", "ok": True, "digits": 1.0, "ms": 2.0, "reason": ""}
    plain = {"setup_s": 0.1, "wall_s": 1.0, "wall_raw_s": 1.2, "rss_mb": 30.0,
             "checks": [check, check]}
    traced = dict(plain, layers=layer_metrics(Tracer(), 1.0))
    assert [m["name"] for m in spec["end_to_end"]] == list(run.end_to_end([plain], [0.1]))
    assert sorted(m["name"] for m in spec["per_layer"]) == sorted(run.per_layer([plain, traced]))
    per_token = {f"oracle.diagonal.ns_per_term.{tok}" for tok in inputs.FAMILY_TOKENS}
    assert per_token <= set(run.per_layer([plain, traced]))
