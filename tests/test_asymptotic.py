"""The certified asymptotic tail of ``oracle_diagonal`` (``asymptotic.py``)."""

import hashlib
import math
import time
from dataclasses import replace
from fractions import Fraction as F
from functools import partial

import pytest
from mpmath import mp, workdps

from tornzeta import asymptotic, oracle, series
from tornzeta.closedform import closed_form_of
from tornzeta.harness import iter_suite, paper_full_manifest, verify
from tornzeta.oracle import (
    NumericCfg,
    diagonal_partial_exact,
    oracle_diagonal,
    oracle_for,
    oracle_raw,
    tail_estimate,
    triangle_partial_exact,
    zx_numeric,
)
from tornzeta.series import parse_spec
from tornzeta.zexpr import ZExpr

DIAG_FAMILIES = [
    "A3:s=0",
    "A3:s=5",
    "An:n=2,s=1",
    "An:n=4,s=2",
    "An:n=6,s=0",
    "aXL:k=0",
    "aXL:k=3",
    "S111",
    "ln",
    "on",
    "evenodd",
    "oddsq",
    "binter",
    "baseT:1",
    "baseT:2",
    "baseT:3",
    "halfint:a",
    "halfint:b",
    "halfint:c",
]
# oracle-only rows: no closed form, so not in the tail test
TORNHEIM_SPECS = ["tornheim:a=2,b=1,c=1", "tornheim:a=3,b=2,c=1", "tornheim:a=1,b=1,c=4"]


# _ELEMENTARY[j][g - 1] = e_j(1, 1/2, ..., 1/(g-1)), each column grown on
# demand, for any j
_ELEMENTARY: dict[int, list[F]] = {}


def _elementary(j: int, g: int) -> F:
    if j == 0:
        return F(1)
    col = _ELEMENTARY.setdefault(j, [F(0)])
    while len(col) < g:
        k = len(col)
        col.append(col[-1] + _elementary(j - 1, k) / k)
    return col[g - 1]


# _HARMONIC[i] = H_i and _ODD[i] = O_i = 1 + 1/3 + ... + 1/(2i-1), grown on
# demand like the e_j columns, so fresh ascending indices cost one addition
# each rather than a cold sum
_HARMONIC: list[F] = [F(0)]
_ODD: list[F] = [F(0)]


def _grown(col: list[F], i: int, step: int) -> F:
    while len(col) <= i:
        col.append(col[-1] + F(1, step * len(col) - step + 1))
    return col[i]


# _POWER[k][i] = H^(k)_i, grown on demand the same way
_POWER: dict[int, list[F]] = {}


def _power(k: int, i: int) -> F:
    col = _POWER.setdefault(k, [F(0)])
    while len(col) <= i:
        col.append(col[-1] + F(1, len(col) ** k))
    return col[i]


def _atom_exact(atom, g: int) -> F:
    match atom:
        case ("H", alpha, beta):
            return _grown(_HARMONIC, alpha * g + beta, 1)
        case ("O", beta):
            return _grown(_ODD, g + beta, 2)
        case ("E", j):
            return _elementary(j, g)
        case ("P", k):
            return _power(k, g - 1)
        case ("G", p):
            return F(1, g**p)


def _atoms_exact(spec, g: int) -> F:
    """The row's atom description evaluated exactly at index total g."""
    terms, linear = spec.family.atoms(*spec.args)
    num = sum(F(c) * math.prod(_atom_exact(a, g) for a in atoms) for c, atoms in terms)
    return num / math.prod(alpha * g + beta for alpha, beta in linear)


def _reference(closed):
    """A closed form's value from mpmath's zeta, log 2 and pi."""
    constants = {"unit": lambda k: 1, "ln2": lambda k: mp.log(2), "zeta": mp.zeta}
    constants["pipow"] = lambda k: mp.pi**k
    terms = closed.terms()
    return sum(mp.mpf(c.numerator) / c.denominator * constants[sym.kind](sym.k) for sym, c in terms)


@pytest.mark.parametrize("text", DIAG_FAMILIES + TORNHEIM_SPECS)
def test_atoms_transcribe_the_regrouped_term(text):
    # the atom description and the defining summand are written
    # independently, so the atom term at total g is the triangle partial's
    # step at g; ln, on, evenodd and oddsq have no summand, and for them
    # the triangle partial is the exact walk over the same atoms
    spec = parse_spec(text)
    top = 40 if spec.family.dims(*spec.args) <= 2 else 14
    acc = F(0)
    for g in range(spec.family.origin, top + 1):
        acc += _atoms_exact(spec, g)
        assert acc == triangle_partial_exact(spec, g), g


def _worst_ratio(t, exact, n: int, order: int, prec: int) -> float:
    """max over G = n..n+100 of |exact(G) - t(G)| / certified bound, for an
    expansion t past n, evaluated at twice its precision."""
    worst = 0.0
    with workdps(2 * int(prec / 3.32)):
        ulp = mp.ldexp(1, -prec)
        for g in range(n, n + 101):
            w, lg = mp.mpf(n) / g, mp.log(g)
            value = bound = mp.mpf(0)
            spread = sum(w**i for i in range(t.val, order + 1))
            for j in range(len(t.c[0])):
                col = mp.mpf(0)
                for i in range(order, -1, -1):
                    col = col * w + t.c[i][j]
                value += col * lg**j
                bound += t.err * spread * lg**j
            bound += w ** (order + 1) * sum(r * lg**j for j, r in enumerate(t.rem))
            want = exact(g)
            diff = abs(value * ulp - mp.mpf(want.numerator) / want.denominator)
            assert diff <= bound * ulp, (g, diff, bound * ulp)
            worst = max(worst, float(diff / (bound * ulp)))
    return worst


@pytest.mark.parametrize("text", DIAG_FAMILIES + TORNHEIM_SPECS)
def test_expansion_remainder_is_honest(text):
    # at order 8 the truncation dominates the difference; at the route's
    # own order for 50 digits the rounding does
    spec = parse_spec(text)
    prec = oracle._prec_bits(50) + oracle._TAIL_GUARD_BITS
    for n in (50, 200, 1000):
        for order in (8, asymptotic.order(spec, n, 50)):
            t = asymptotic.term_expansion(spec, n, order, prec)
            exact = partial(_atoms_exact, spec)
            assert _worst_ratio(t, exact, n, order, prec) <= 1


@pytest.mark.parametrize(
    "atom",
    [("H", 1, 0), ("H", 1, -1), ("H", 1, 7), ("H", 2, 1), ("O", 1), ("E", 2), ("E", 4), ("E", 6),
     ("P", 2), ("P", 5), ("G", 1), ("G", 3)],
)
def test_atom_remainder_is_honest(atom):
    # inside a term an atom's own remainder is two orders below what the
    # product drops, so each atom is checked on its own
    spec = parse_spec("A3:s=0")
    prec = oracle._prec_bits(50)
    for n in (50, 1000):
        for order in (8, 17):
            t = asymptotic._atom(atom, asymptotic._Grid(n, order, prec))
            assert _worst_ratio(t, partial(_atom_exact, atom), n, order, prec) <= 1


@pytest.mark.parametrize("text", DIAG_FAMILIES)
def test_tail_encloses_the_true_remainder(text):
    # closed form (from mpmath's constants) minus the exact partial sum
    spec = parse_spec(text)
    prec = oracle._prec_bits(50) + oracle._TAIL_GUARD_BITS
    for n in (200, 1000):
        value, bound = asymptotic.tail(spec, n, 50, prec)
        with workdps(90):
            s_n = diagonal_partial_exact(spec, n)
            true = _reference(closed_form_of(spec)) - mp.mpf(s_n.numerator) / s_n.denominator
            assert abs(mp.ldexp(value, -prec) - true) <= mp.ldexp(bound, -prec)
            assert mp.ldexp(bound, -prec) < mp.mpf("1e-52")


MARGIN_AUDIT_SPECS = [
    "A3:s=0",
    "A3:s=20",
    "An:n=4,s=0",
    "An:n=6,s=1",
    "aXL:k=1",
    "S111",
    "ln",
    "on",
    "baseT:1",
    "baseT:2",
    "baseT:3",
    "halfint:a",
    "halfint:c",
    "evenodd",
    "oddsq",
    "binter",
]


@pytest.mark.parametrize("digits", [60, 100, 200, 201])
def test_diagonal_route_encloses_the_closed_form(digits):
    # the whole route (head, tail and the truncation chosen in ``tail``)
    # against the closed form from mpmath's constants, at digits the pinned
    # hashes do not cover; S111 and A3:s=0 use over 98% of the bound at 200
    for text in MARGIN_AUDIT_SPECS:
        spec = parse_spec(text)
        res = oracle_diagonal(spec, NumericCfg(digits=digits))
        assert res.n_used == oracle.asymptotic_cutoff(spec, digits)
        with workdps(digits + 60):
            err = abs(res.value - _reference(closed_form_of(spec)))
            assert err <= res.tail_bound, (text, err, res.tail_bound)


def test_asymptotic_tails_pinned():
    # the (value, bound) integers of every paper-full diagonal entry's tail,
    # then S111's and halfint:c's at the index totals 256 (50 digits) and 512
    # (200 digits), at 50 and 200 digits, hashed; they change only when the
    # expansion is meant to move
    digest = hashlib.sha256()
    count = 0
    for digits in (50, 200):
        prec = oracle._prec_bits(digits) + oracle._TAIL_GUARD_BITS
        rows = [
            (entry.spec, "diagonal", oracle.asymptotic_cutoff(entry.spec, digits))
            for entry in paper_full_manifest(digits).entries
            if entry.cfg.method == "diagonal"
        ]
        rows += [(parse_spec(text), "raw", 256 if digits == 50 else 512) for text in ("S111", "halfint:c")]
        for spec, method, n in rows:
            value, bound = asymptotic.tail(spec, n, digits, prec)
            digest.update(f"{spec.label()}|{method}|{digits}|{n}|{value}|{bound}\n".encode())
            count += 1
    assert count == 48
    assert digest.hexdigest() == "7a2c5521e7339371be3a1a90a75033c742c24f743f0f908701441e8cdac88a06"


def test_fixed_constants_pinned():
    # the integers that mpmath's gamma, logarithms and zeta(k) put into the
    # expansion (each power sum's constant term and the log-power rows,
    # whose x0^-eps factor takes ln x0), at 30, 300 and 1000 digits, hashed
    digest = hashlib.sha256()
    for digits in (30, 300, 1000):
        prec = oracle._prec_bits(digits) + oracle._TAIL_GUARD_BITS
        grid = asymptotic._Grid(2048, 12, prec)
        for k in range(1, 9):
            for alpha in (1, 2):
                for last in (0, -1):
                    c = asymptotic._power_sum(k, alpha, last, grid).c[0][0]
                    digest.update(f"{digits}|{k}|{alpha}|{last}|{c}\n".encode())
        for i, deg, n in ((9, 3, 2048), (40, 8, 16384), (120, 2, 65536), (30, 6, 65536)):
            row = asymptotic._log_power_row(i, deg, n, prec)
            digest.update(f"{digits}|{i}|{deg}|{n}|{row}\n".encode())
    assert digest.hexdigest() == "17c40fee1067405ae5a821c3d5cf305efd9789c3f66160dc888bcd1288c6db21"


def test_cutoff_routes_by_n_max():
    spec = parse_spec("A3:s=2")
    n_star = oracle.asymptotic_cutoff(spec, 50)
    assert n_star == 2**11
    # below N* the majorant route runs as before
    below = oracle_diagonal(spec, NumericCfg(digits=50, n_max=n_star - 1))
    assert below.n_used == n_star - 1
    assert below.tail_bound == tail_estimate(spec, n_star - 1)
    # from N* on, n_max is only a ceiling
    for n_max in (n_star, 10**6):
        res = oracle_diagonal(spec, NumericCfg(digits=50, n_max=n_max))
        assert res.n_used == n_star
        assert res.tail_bound < mp.mpf("1e-52")
    # the cutoff grows with the digits and with the shift
    assert oracle.asymptotic_cutoff(spec, 300) == 2**14
    assert oracle.asymptotic_cutoff(parse_spec("aXL:k=100"), 50) == 2**13
    # far below it the log-power sums would need more orders than 2 pi N allows
    with pytest.raises(ValueError, match="too low"):
        asymptotic.tail(parse_spec("A3:s=5"), 50, 50, 300)


def test_order_raises_where_no_order_reaches_the_target():
    # at cutoff 50 the harmonic remainder bottoms out near exp(-2 pi 50),
    # far above 10^-506: the search over orders must stop, not spin
    with pytest.raises(ValueError, match="too low for 500 digits"):
        asymptotic.order(parse_spec("S111"), 50, 500)
    with pytest.raises(ValueError, match="too low"):
        asymptotic.tail(parse_spec("S111"), 50, 500, 1700)


def test_constants_come_from_mpmath(monkeypatch):
    def refuse(*args):
        raise AssertionError("the oracle called the evaluator's constants")

    for name in ("const_zeta", "const_ln2", "const_pi"):
        monkeypatch.setattr(oracle, name, refuse)
    for text in ("An:n=5,s=0", "ln", "evenodd", "halfint:b"):
        res = oracle_diagonal(parse_spec(text), NumericCfg(digits=40))
        assert res.n_used == 2**11


def _certified_digits(report, cap: int) -> float:
    # perfbench/certify.py's definition, capped at the working precision
    o = report.oracle
    with workdps(cap + 20):
        slack = report.abs_err + o.tail_bound + o.error_estimate
        return float(min(-mp.log10(slack / abs(report.closed_numeric)), cap))


def test_passes_rest_on_the_certificate_not_on_tol():
    # the closed form lies inside the oracle's own slack, so no entry needs a
    # tol: every paper-full entry at 50 digits, every diagonal entry at 200
    def outside(report):
        o = report.oracle
        return report.abs_err > o.tail_bound + o.error_estimate

    at_50 = list(iter_suite(paper_full_manifest(50)))
    assert [r.spec.label() for r in at_50 if outside(r)] == []
    diagonal = [e for e in paper_full_manifest(200).entries if e.cfg.method == "diagonal"]
    at_200 = [verify(e.spec, e.cfg, 0.0) for e in diagonal]
    assert len(at_200) == 22
    assert [r.spec.label() for r in at_200 if outside(r)] == []
    # verify A3:s=0 --digits 60, which once passed on tol alone
    report = verify(parse_spec("A3:s=0"), NumericCfg(digits=60), 1e-8)
    assert report.passed and report.abs_err <= report.oracle.tail_bound


def test_paper_full_diagonal_entries_certify_45_digits():
    reports = list(iter_suite(paper_full_manifest(50)))
    assert all(r.passed for r in reports), [r.reason for r in reports if not r.passed]
    digits = [_certified_digits(r, 50) for r in reports]
    diagonal = [d for r, d in zip(reports, digits) if r.oracle.method == "diagonal"]
    assert len(diagonal) == 22
    assert min(diagonal) >= 45
    quadrature = [d for r, d in zip(reports, digits) if r.oracle.method == "quadrature"]
    assert len(quadrature) == 6
    assert min(quadrature) >= 45
    assert sum(digits) >= 1390


def test_perturbed_closed_forms_fall_outside_every_enclosure():
    for entry in paper_full_manifest(50).entries:
        if entry.cfg.method == "quadrature":
            continue
        res = oracle_for(entry.spec, entry.cfg)
        with workdps(80):
            closed = zx_numeric(closed_form_of(entry.spec), 50)
            for sign in (1, -1):
                moved = closed * (1 + sign * mp.mpf("1e-40"))
                assert abs(moved - res.value) > res.tail_bound, (entry.spec.label(), sign)


@pytest.mark.parametrize("n, digits", [(8, 50), (20, 50), (13, 30)])
def test_an_past_six_folds_verifies_through_the_asymptotic_route(n, digits):
    # e_j comes from one recurrence for every j, so n is not capped: n! zeta(n+1).
    # e_{n-2} takes the power sums through order n - 2, so the expansion's
    # order starts at n - 1 even where the harmonic atoms would stop below it
    spec = parse_spec(f"An:n={n},s=0")
    assert closed_form_of(spec) == ZExpr.zeta(n + 1, math.factorial(n))
    report = verify(spec, NumericCfg(digits=digits), 1e-8)
    assert report.passed, report.reason
    assert report.oracle.n_used == 2**11
    assert _certified_digits(report, digits) >= digits - 5


def test_an_whose_tail_certifies_too_little_is_refused():
    # past n ~ 30 the expansion of e_{n-2} at cutoff 2^11 loses digits: for
    # n = 40 at 50 digits the tail bound is near 1e16 on a value near 8e47,
    # an enclosure the pass rule would accept for any abs_err below it
    report = verify(parse_spec("An:n=40,s=0"), NumericCfg(digits=50), 1e-8)
    assert not report.passed
    assert "the tail past 2048 certifies fewer than 45 digits" in report.reason
    assert report.oracle.tail_bound > 1e10


def test_huge_n_max_is_a_ceiling():
    t0 = time.perf_counter()
    report = verify(parse_spec("ln"), NumericCfg(digits=50, n_max=10**9), 1e-8)
    assert time.perf_counter() - t0 < 2.0
    assert report.passed, report.reason
    assert report.oracle.n_used == 2**11


def test_three_hundred_digits():
    t0 = time.perf_counter()
    report = verify(parse_spec("An:n=4,s=0"), NumericCfg(digits=300), 1e-8)
    assert time.perf_counter() - t0 < 10.0
    assert report.passed, report.reason
    with workdps(320):
        slack = report.abs_err + report.oracle.tail_bound
        assert -mp.log10(slack / abs(report.closed_numeric)) >= 290


def test_raw_cutoff_boundary():
    # the raw route sums the box of side n_max at any n_max and bounds the
    # rest by the majorant
    spec = parse_spec("S111")
    for n_max in (255, 1500):
        res = oracle_raw(spec, NumericCfg(digits=50, n_max=n_max, method="raw"))
        assert res.n_used == n_max
        assert res.tail_bound == tail_estimate(spec, n_max)
    tornheim = parse_spec("tornheim:a=1,b=1,c=1")
    res = oracle_raw(tornheim, NumericCfg(digits=50, n_max=1500, method="raw"))
    assert res.n_used == 1500
    assert res.tail_bound == tail_estimate(tornheim, 1500)


def test_raw_route_fails_on_a_wrong_summand(monkeypatch):
    # the raw box comes from ``summand`` and the diagonal route from ``atoms``,
    # so a wrong total factor fails the raw route while the diagonal one passes
    fam = series.FAMILIES["S111"]
    num, lead, last, _ = fam.summand(*parse_spec("S111").args)
    wrong = replace(fam, summand=lambda *args: (num, lead, last, lambda g: g + 1))
    monkeypatch.setitem(series.FAMILIES, "S111", wrong)
    spec = parse_spec("S111")
    raw = verify(spec, NumericCfg(digits=50, n_max=1500, method="raw"), 1e-6)
    assert raw.oracle.n_used == 1500
    assert not raw.passed
    diagonal = verify(spec, NumericCfg(digits=50), 1e-6)
    assert diagonal.passed, diagonal.reason


@pytest.mark.parametrize("digits", [50, 200])
def test_tornheim_meets_its_weight_four_values(digits):
    # T(r,s,t) = T(r-1,s,t+1) + T(r,s-1,t+1) and T(r,0,t) = zeta(t,r), with zeta(3,1) = zeta(4)/4
    # and zeta(2,2) = 3 zeta(4)/4, give T(1,1,2) = 2 zeta(3,1) = zeta(4)/2 and
    # T(2,1,1) = T(1,2,1) = T(1,1,2) + zeta(2,2) = 5 zeta(4)/4
    with workdps(digits + 30):
        z4 = mp.zeta(4)
        for abc, want in (((1, 1, 2), z4 / 2), ((2, 1, 1), 5 * z4 / 4), ((1, 2, 1), 5 * z4 / 4)):
            res = oracle_diagonal(series.SeriesSpec("tornheim", abc), NumericCfg(digits=digits))
            assert abs(res.value - want) <= res.tail_bound, abc
            assert res.tail_bound <= mp.mpf(10) ** -digits * abs(res.value), abc
    # S111 is the tornheim row at a = b = c = 1: the same integers on both series routes
    for cfg in (NumericCfg(digits=digits), NumericCfg(digits=digits, n_max=400, method="raw")):
        got, want = (oracle_for(parse_spec(t), cfg) for t in ("tornheim:a=1,b=1,c=1", "S111"))
        assert (got.mid, got.rad, got.exp) == (want.mid, want.rad, want.exp)
        if cfg.method == "diagonal":
            assert got.rad * 10**digits <= abs(got.mid)
