"""Acceptance gate: one test per headline claim, runnable end to end.

Each test states its tolerance inline.  Diagonal-summation checks accept
an error within the certified tail bound when the bare tolerance is out
of reach for any feasible cutoff; the bound itself is validated by the
tail-honesty suite, so this never hides a wrong closed form.
"""

import time
from fractions import Fraction as F

from mpmath import mp, workdps

from tornzeta.closedform import closed_form_of, alt_binomial_sides, eval_An, eval_halfint
from tornzeta.harness import paper_full_manifest, render_reports, run_suite, smoke_manifest, verify
from tornzeta.oracle import (
    NumericCfg,
    box_partial_exact,
    const_zeta,
    diagonal_partial_exact,
    oracle_quadrature,
    oracle_raw,
    triangle_partial_exact,
    zx_numeric,
)
from tornzeta.series import parse_spec
from tornzeta.zexpr import ZExpr, zeta_even_to_pi


def _closed_value(text: str, digits: int = 50):
    return zx_numeric(closed_form_of(parse_spec(text)), digits)


def test_criterion_01_a3_shift_zero_is_6_zeta4_by_quadrature_and_diagonal():
    spec = parse_spec("A3:s=0")
    quad = verify(spec, NumericCfg(digits=50, method="quadrature"), 1e-8)
    assert quad.passed
    assert quad.oracle.elapsed <= 1.0
    with workdps(60):
        assert quad.abs_err <= mp.mpf("1e-8")
        # the printed closed form is pi^4/15, not the nearby pi^4/16
        assert abs(quad.oracle.value - mp.pi**4 / 15) <= mp.mpf("1e-8")
        assert abs(quad.oracle.value - mp.pi**4 / 16) > mp.mpf("0.1")
    diag = verify(spec, NumericCfg(digits=50, n_max=10**6, method="diagonal"), 1e-8)
    assert diag.passed
    assert diag.oracle.elapsed <= 10.0
    with workdps(60):
        assert diag.abs_err <= diag.oracle.tail_bound


def test_criterion_02_a3_rational_shifts_match_diagonal_oracle():
    assert eval_An(3, 1) == ZExpr.rational(F(6))
    assert eval_An(3, 2) == ZExpr.rational(F(45, 8))
    cfg = NumericCfg(digits=50, n_max=2 * 10**5, method="diagonal")
    for s in range(1, 21):
        report = verify(parse_spec(f"A3:s={s}"), cfg, 1e-6)
        assert report.passed, f"s={s}: {report.reason}"
        with workdps(60):
            assert report.abs_err <= report.oracle.tail_bound


def test_criterion_03_an_family_quadrature_to_1e10():
    cfg = NumericCfg(digits=50, method="quadrature")
    with workdps(60):
        for n in range(2, 6):
            for s in range(0, 6):
                spec = parse_spec(f"An:n={n},s={s}")
                res = oracle_quadrature(spec, cfg)
                want = zx_numeric(closed_form_of(spec), 50)
                assert abs(res.value - want) <= mp.mpf("1e-10"), (n, s)
        a2 = oracle_quadrature(parse_spec("An:n=2,s=0"), cfg).value
        a4 = oracle_quadrature(parse_spec("An:n=4,s=0"), cfg).value
        assert abs(a2 - 2 * mp.zeta(3)) <= mp.mpf("1e-10")
        assert abs(a2 - mp.mpf("2.4041138")) < 1e-6
        assert abs(a4 - 24 * mp.zeta(5)) <= mp.mpf("1e-10")
        assert abs(a4 - mp.mpf("24.8862661")) < 1e-6


def test_criterion_04_alternating_binomial_identity_exact_for_k_1_to_100():
    t0 = time.perf_counter()
    for k in range(1, 101):
        lhs, rhs = alt_binomial_sides(k)
        assert lhs == rhs, k
    assert time.perf_counter() - t0 < 1.0


def test_criterion_05_shifted_harmonic_sums_and_raw_tornheim_111():
    cfg = NumericCfg(digits=50, n_max=2 * 10**5, method="diagonal")
    for k in range(1, 11):
        report = verify(parse_spec(f"aXL:k={k}"), cfg, 1e-6)
        assert report.passed, f"k={k}: {report.reason}"
    # the k=0 limit and the raw double sum both land on 2 zeta(3)
    base = verify(parse_spec("aXL:k=0"), NumericCfg(digits=50, n_max=10**6), 1e-6)
    assert base.passed, base.reason
    raw = oracle_raw(parse_spec("tornheim:a=1,b=1,c=1"), NumericCfg(digits=50, n_max=1500, method="raw"))
    with workdps(60):
        err = abs(raw.value - 2 * mp.zeta(3))
        assert err <= max(mp.mpf("1e-6"), raw.tail_bound)
    s111 = verify(parse_spec("S111"), NumericCfg(digits=50, n_max=1500, method="raw"), 1e-6)
    assert s111.passed, s111.reason


def test_criterion_06_log_and_odd_harmonic_series_to_1e8():
    cfg = NumericCfg(digits=50, n_max=10**6, method="diagonal")
    ln_report = verify(parse_spec("ln"), cfg, 1e-8)
    assert ln_report.passed, ln_report.reason
    on_report = verify(parse_spec("on"), cfg, 1e-8)
    assert on_report.passed, on_report.reason
    with workdps(60):
        assert abs(ln_report.closed_numeric - mp.mpf("0.96877157")) < 1e-7
        assert abs(on_report.closed_numeric - mp.mpf("0.41123352")) < 1e-7


def test_criterion_07_half_odd_denominator_sums_and_difference_identity():
    cfg = NumericCfg(digits=50, n_max=10**5, method="diagonal")
    literals = {"a": "9.4901484", "b": "3.6693241", "c": "5.8208243"}
    for variant, literal in literals.items():
        report = verify(parse_spec(f"halfint:{variant}"), cfg, 1e-6)
        assert report.passed, f"{variant}: {report.reason}"
        with workdps(60):
            assert report.abs_err <= mp.mpf("1e-6")
            assert abs(report.closed_numeric - mp.mpf(literal)) < 1e-6
    assert eval_halfint("c") == eval_halfint("a") - eval_halfint("b")


def test_criterion_08_base_t_sums_and_intermediate_b():
    cfg = NumericCfg(digits=50, n_max=10**6, method="diagonal")
    for text in ("baseT:1", "baseT:2", "baseT:3", "binter"):
        report = verify(parse_spec(text), cfg, 1e-8)
        assert report.passed, f"{text}: {report.reason}"
    with workdps(60):
        assert abs(_closed_value("baseT:2") - mp.mpf("1.0517998")) < 1e-6
        assert abs(_closed_value("binter") - mp.mpf("0.1775330")) < 1e-6


def test_criterion_09_even_zeta_pi_bridge_to_1e25():
    with workdps(60):
        for n in range(1, 11):
            via_pi = zx_numeric(zeta_even_to_pi(n), 50)
            assert abs(via_pi - const_zeta(2 * n, 50)) <= mp.mpf("1e-25"), n


def test_criterion_10_property_suites_soundness_honesty_monotone_determinism():
    # regrouping soundness: exact rational agreement at small cutoffs
    for text, depth in [
        ("A3:s=0", 40),
        ("A3:s=2", 40),
        ("An:n=2,s=3", 40),
        ("An:n=4,s=0", 25),
        ("An:n=5,s=1", 16),
        ("An:n=6,s=0", 14),
        ("S111", 40),
        ("baseT:1", 40),
        ("baseT:2", 40),
        ("baseT:3", 40),
        ("halfint:a", 40),
        ("halfint:b", 40),
        ("halfint:c", 40),
        ("binter", 40),
    ]:
        spec = parse_spec(text)
        assert diagonal_partial_exact(spec, depth) == triangle_partial_exact(spec, depth), text
    # tail honesty: true remainders sit inside the certified bounds
    honesty = [
        "A3:s=0",
        "An:n=4,s=2",
        "aXL:k=1",
        "S111",
        "ln",
        "on",
        "evenodd",
        "oddsq",
        "binter",
        "baseT:2",
        "halfint:c",
    ]
    for text in honesty:
        spec = parse_spec(text)
        with workdps(60):
            closed = zx_numeric(closed_form_of(spec), 50)
            for n_cut in (10**3, 10**4, 10**5):
                res = verify(spec, NumericCfg(digits=50, n_max=n_cut, method="diagonal"), 1.0)
                err = closed - res.oracle.value
                assert 0 <= err <= res.oracle.tail_bound, (text, n_cut)
    # monotone bounded partial sums
    for text in ("A3:s=2", "S111", "on"):
        spec = parse_spec(text)
        p50 = diagonal_partial_exact(spec, 50)
        p100 = diagonal_partial_exact(spec, 100)
        assert p50 < p100
        with workdps(60):
            closed = zx_numeric(closed_form_of(spec), 50)
            assert mp.mpf(p100.numerator) / mp.mpf(p100.denominator) < closed
    # box partials from the defining form stay between matching triangles
    for text in ("S111", "halfint:c"):
        spec = parse_spec(text)
        assert triangle_partial_exact(spec, 20) < box_partial_exact(spec, 20)
        assert box_partial_exact(spec, 20) < triangle_partial_exact(spec, 40)
    # byte determinism of suite output
    man = smoke_manifest()
    assert render_reports(run_suite(man), "json") == render_reports(run_suite(man), "json")
    assert render_reports(run_suite(man), "csv") == render_reports(run_suite(man), "csv")


def test_criterion_11_paper_full_suite_under_two_minutes_exit_zero():
    t0 = time.perf_counter()
    reports = run_suite(paper_full_manifest())
    elapsed = time.perf_counter() - t0
    failures = [(r.spec.label(), r.reason) for r in reports if not r.passed]
    assert not failures, failures
    assert elapsed < 120.0, f"suite took {elapsed:.1f}s"
    # the CLI maps this exact condition to exit code 0
    assert all(r.passed for r in reports)
