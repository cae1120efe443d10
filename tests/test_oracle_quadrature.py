import hashlib
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st
from mpmath import mp, workdps
from mpmath.libmp import dps_to_prec, libelefun

from tornzeta import oracle
from tornzeta.closedform import closed_form_of
from tornzeta.oracle import (
    _TABLE_LEVELS,
    _TABLE_PRECISIONS,
    NumericCfg,
    OracleError,
    _grid_bits,
    _level_nodes,
    _level_sum,
    _log1p,
    _log_factors,
    _node_rows,
    _node_table,
    _u_max,
    oracle_quadrature,
    tail_estimate,
    triangle_partial_exact,
    zx_numeric,
)
from tornzeta.series import SeriesSpec, parse_spec


class TestAccuracy:
    @pytest.mark.parametrize(
        "text",
        ["A3:s=0", "A3:s=1", "A3:s=20", "An:n=2,s=0", "An:n=5,s=4"]
        + [f"aXL:k={k}" for k in (0, 1, 7, 20)],
    )
    def test_matches_closed_form(self, text):
        spec = parse_spec(text)
        res = oracle_quadrature(spec, NumericCfg(digits=50))
        with workdps(70):
            want = zx_numeric(closed_form_of(spec), 50)
            assert abs(res.value - want) < mp.mpf("1e-52")

    def test_weight_zero_shift_constant(self):
        # the s=0 case distinguishes pi^4/15 from the nearby pi^4/16
        res = oracle_quadrature(parse_spec("A3:s=0"), NumericCfg(digits=50))
        with workdps(70):
            assert abs(res.value - mp.pi**4 / 15) < mp.mpf("1e-40")
            assert abs(res.value - mp.pi**4 / 16) > mp.mpf("0.4")

    def test_integer_value_at_shift_one(self):
        res = oracle_quadrature(parse_spec("A3:s=1"), NumericCfg(digits=50))
        with workdps(70):
            assert abs(res.value - 6) < mp.mpf("1e-52")

    def test_high_zeta_spot(self):
        res = oracle_quadrature(parse_spec("An:n=4,s=0"), NumericCfg(digits=50))
        with workdps(70):
            assert abs(res.value - 24 * mp.zeta(5)) < mp.mpf("1e-50")


# a row and a cutoff N where its defining sum's enclosure is narrow enough
# to exclude the integrals next to the row's own
INTEGRAL_ROWS = [
    ("S111", 100),
    ("A3:s=0", 1000),
    ("A3:s=2", 700),
    ("An:n=2,s=3", 200),
    ("aXL:k=1", 200),
    ("aXL:k=3", 200),
]


class TestIntegrals:
    @pytest.mark.parametrize("text,cutoff", INTEGRAL_ROWS)
    def test_integral_lies_in_the_defining_sums_enclosure(self, text, cutoff):
        # the positive terms' exact partial over index totals <= N, plus the
        # majorant of the rest, encloses the sum with no closed form involved;
        # the row's integral lands inside, A_n(s+1) and A_{n+1}(s) outside
        spec = parse_spec(text)
        n, s = spec.family.integral(*spec.args)
        head = triangle_partial_exact(spec, cutoff)
        cfg = NumericCfg(digits=40)
        with workdps(60):
            lo = mp.mpf(head.numerator) / head.denominator
            hi = lo + tail_estimate(spec, cutoff)
            assert lo <= oracle_quadrature(spec, cfg).value <= hi
            for wrong in ((n, s + 1), (n + 1, s)):
                assert not lo <= oracle_quadrature(SeriesSpec("An", wrong), cfg).value <= hi, wrong

    @pytest.mark.parametrize("digits", [50, 200])
    def test_s111_is_a2_of_zero_node_for_node(self, digits):
        # after t = 1 - x, S111's integral of ln(1-x)^2/x is A_2(0)'s
        cfg = NumericCfg(digits=digits)
        got = oracle_quadrature(parse_spec("S111"), cfg)
        assert _bits(got) == _bits(oracle_quadrature(parse_spec("An:n=2,s=0"), cfg))


class TestConvergenceReporting:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("s", [0, 1, 3])
    def test_level_estimates_decrease(self, n, s):
        res = oracle_quadrature(parse_spec(f"An:n={n},s={s}"), NumericCfg(digits=35))
        ests = res.level_estimates
        assert len(ests) >= 2
        assert all(ests[i + 1] < ests[i] for i in range(len(ests) - 1))

    def test_result_fields(self):
        res = oracle_quadrature(parse_spec("A3:s=0"), NumericCfg(digits=50))
        assert res.method == "quadrature"
        assert res.n_used is None
        assert res.levels_used == len(res.level_estimates)
        assert res.tail_bound == mp.ldexp(1, -dps_to_prec(50 + 15))  # the grid's bound, 2^-prec
        assert res.error_estimate == res.level_estimates[-1]
        with workdps(70):
            assert res.error_estimate <= mp.mpf(10) ** (-55) * max(1, abs(res.value))

    def test_stall_raises_with_partial(self):
        # three levels cannot reach 50 digits; the failure must still carry
        # the best value computed so far
        with pytest.raises(OracleError, match="stalled") as exc_info:
            oracle_quadrature(parse_spec("A3:s=0"), NumericCfg(digits=50, quad_levels=3))
        partial = exc_info.value.partial
        assert partial is not None
        assert partial.levels_used == 3
        with workdps(70):
            want = zx_numeric(closed_form_of(parse_spec("A3:s=0")), 50)
            assert abs(partial.value - want) < mp.mpf("1e-4")

    def test_runs_fast(self):
        res = oracle_quadrature(parse_spec("An:n=3,s=2"), NumericCfg(digits=50))
        assert res.elapsed < 1.0


HIPREC_SPECS = ["A3:s=0", "An:n=2,s=0", "An:n=3,s=5", "An:n=4,s=0", "An:n=5,s=3"]


class TestHighPrecision:
    @pytest.mark.parametrize("text", HIPREC_SPECS)
    @pytest.mark.parametrize("digits,levels", [(100, 6), (200, 7), (300, 8)])
    def test_levels_and_accuracy(self, text, digits, levels):
        spec = parse_spec(text)
        res = oracle_quadrature(spec, NumericCfg(digits=digits, quad_levels=16))
        assert res.levels_used == levels
        with workdps(digits + 20):
            want = zx_numeric(closed_form_of(spec), digits + 10)
            assert abs(res.value - want) <= mp.mpf(10) ** (-digits) * abs(want)


class TestNodeQuantities:
    # u = 2^-8 is the first node at level 8 and u = 2 sits mid-range, each taken
    # from the table that 50-digit quadrature runs on: an integer u is node u of
    # level 0, u = 2^-L node 0 of L; at u = 5, E = exp(-2w) < 2^-(g+2), so level
    # 0 stops before it, where t would floor to 1 and the integrand to 0
    @pytest.mark.parametrize("u,dropped", [(2.0**-8, False), (2.0, False), (5.0, True)])
    def test_against_direct_logs(self, u, dropped):
        level, index = (0, int(u)) if u >= 1 else (1 - math.frexp(u)[1], 0)
        g = _grid_bits(50, 6)
        rows = list(_node_rows(50, level, g))
        assert (index >= len(rows)) == dropped
        with workdps(400):
            w = mp.pi / 2 * mp.sinh(u)
            if dropped:
                assert index == len(rows) and mp.exp(-2 * w) < mp.mpf(2) ** -(g + 2)
                return
            wt, *got = (mp.mpf(v) / 2**g for v in rows[index])
            assert abs(wt - mp.pi * mp.cosh(u)) <= mp.mpf(10) ** -62 * wt
            t = (1 + mp.tanh(w)) / 2
            omt = 1 - t
            want = (t, omt, -mp.log(t), -mp.log(omt))
            for got_v, r in zip(got, want):
                assert abs(got_v - r) <= mp.mpf(10) ** -62 * abs(r)


def _bits(res):
    return res.value._mpf_, res.levels_used, [e._mpf_ for e in res.level_estimates]


class TestNodeTable:
    def test_warm_and_cold_tables_agree(self):
        # interleaved precisions reuse and evict table levels; every result
        # must be the bits of a run that builds its tables from scratch
        runs = [("A3:s=0", 200), ("A3:s=0", 60), ("A3:s=0", 200), ("A3:s=0", 300), ("An:n=5,s=3", 200)]
        _node_table.cache_clear()
        warm = [oracle_quadrature(parse_spec(text), NumericCfg(digits=d)) for text, d in runs]
        assert _node_table.cache_info().hits > 0
        for (text, d), res in zip(runs, warm):
            _node_table.cache_clear()
            cold = oracle_quadrature(parse_spec(text), NumericCfg(digits=d))
            assert _bits(res) == _bits(cold)

    def test_tabled_rows_are_the_streamed_rows(self):
        _node_table.cache_clear()
        g = _grid_bits(30, 6)
        for level in (0, 3, _TABLE_LEVELS):
            assert list(_node_rows(30, level, g)) == list(_level_nodes(30, level, g))

    def test_levels_past_the_cap_are_not_kept(self):
        _node_table.cache_clear()
        g = _grid_bits(30, 6)
        assert sum(1 for _ in _node_rows(30, _TABLE_LEVELS + 1, g)) > 4000
        assert _node_table.cache_info().currsize == 0
        next(_node_rows(30, _TABLE_LEVELS, g))
        assert _node_table.cache_info().currsize == 1

    def test_precisions_kept_are_capped(self):
        # each precision below fills levels 0..5; eight of them (48
        # entries) overflow the table, which keeps the most recent 44
        maxsize = _TABLE_PRECISIONS * (_TABLE_LEVELS + 1)
        assert _node_table.cache_info().maxsize == maxsize
        _node_table.cache_clear()
        for digits in range(30, 38):
            oracle_quadrature(parse_spec("A3:s=0"), NumericCfg(digits=digits))
        assert _node_table.cache_info().currsize == maxsize

    @pytest.mark.parametrize("digits,level", [(50, 0), (50, 6), (300, 8)])
    def test_table_bytes_per_node_are_bounded(self, digits, level):
        # the level's tuple, its rows and their ints, in real bytes: five ints a node,
        # each at most one 30-bit digit wider than the grid, plus the row and its slot
        g = _grid_bits(digits, 6)
        table = _node_table(digits, level, g)
        size = sys.getsizeof(table) + sum(sys.getsizeof(row) + sum(map(sys.getsizeof, row)) for row in table)
        assert size <= len(table) * (5 * (28 + 4 * math.ceil(g / 30)) + 96)


@st.composite
def _log1p_args(draw):
    # e 2^-g at any magnitude from 1/2 down past 2^-g, on the grid 30-1000
    # digit quadrature uses, with and without reduction factors
    g = _grid_bits(draw(st.integers(min_value=30, max_value=1000)), 6)
    return g, draw(st.integers(1, (1 << g) - 1)) >> draw(st.integers(0, g))


def _steps(g):
    # the last reduction factor (1 - 2^-steps) that ``_log1p`` tries
    return len(_log_factors(g)[1]) + 1


G30, G100, G1000 = (_grid_bits(d, 6) for d in (30, 100, 1000))


class TestLog1p:
    @given(_log1p_args())
    @example((G1000, 1 << G1000))  # E = 1, the node u = 0
    @example((G100, 7 << (G100 - 3)))  # 7/8: (1 - 1/4) twice, 15/8 9/16 >= 1
    @example((G100, 12345 << (G100 - 200)))  # ~2^-186: the series alone
    # just above 2^-steps, where (1 - 2^-steps) is taken once, and just below,
    # where no factor is
    @example((G30, (1 << (G30 - _steps(G30))) + (2 << (G30 - 2 * _steps(G30)))))
    @example((G30, (1 << (G30 - _steps(G30))) - 1))
    def test_within_two_ulps_of_mp_log1p(self, args):
        g, e = args
        with workdps(int(g / 3.3) + 40):
            want = mp.floor(mp.log1p(mp.ldexp(e, -g)) * 2**g)
        assert abs(_log1p(e, g) - int(want)) <= 2

    @pytest.mark.parametrize("digits", [30, 100, 300, 1000])
    def test_factors_lie_within_an_ulp(self, digits):
        g = _grid_bits(digits, 6)
        b, table = _log_factors(g)
        assert len(table) == math.isqrt(g) + 1
        with workdps(int(g / 3.3) + 40):
            for i, t in enumerate(table, 2):
                assert abs(t - mp.ldexp(-mp.log1p(-mp.ldexp(1, -i)), g + b)) <= 1, i

    @pytest.mark.parametrize("digits,levels", [(100, 6), (1000, 2)])
    def test_cold_table_calls_no_log(self, digits, levels, monkeypatch):
        def refuse(*args):
            raise AssertionError("mpf_log called")

        monkeypatch.setattr(oracle, "mpf_log", refuse)
        monkeypatch.setattr(libelefun, "mpf_log", refuse)
        _node_table.cache_clear()
        _log_factors.cache_clear()
        g = _grid_bits(digits, 6)
        for level in range(levels + 1):
            assert _node_table(digits, level, g)


class TestNodeValues:
    # through the level each precision converges at (levels 0-4 at 1000
    # digits, of the 9 it uses, to keep the test short)
    @pytest.mark.parametrize(
        "digits,levels", [(30, 5), (50, 6), (100, 7), (200, 7), (300, 8), (1000, 4)]
    )
    def test_rows_lie_within_their_error(self, digits, levels):
        # ``_level_nodes`` states each value within 5 ulps of its value at u,
        # and a level that stops where E = exp(-2w) < 2^-(g+2)
        g = _grid_bits(digits, 6)
        sides, edge = set(), mp.ldexp(1, -_steps(g))
        with workdps(digits + 100):
            for level in range(levels + 1):
                rows, h = list(_level_nodes(digits, level, g)), mp.ldexp(1, -level)
                js = range(0, len(rows)) if level == 0 else range(1, 2 * len(rows), 2)
                for j, row in zip(js, rows):
                    u = j * h
                    w = mp.pi / 2 * mp.sinh(u)
                    e = mp.exp(-2 * w)
                    lt = mp.log1p(e)
                    wt = mp.pi * mp.cosh(u) / (2 if j == 0 else 1)
                    want = (wt, 1 / (1 + e), e / (1 + e), lt, 2 * w + lt)
                    for got, r in zip(row, want):
                        assert abs(got - r * 2**g) <= 5, (digits, level, j)
                    sides.add((1 + e) * (1 - edge) >= 1)
                u = (js[-1] + js.step) * h if rows else h
                assert u > mp.ldexp(math.floor(math.ldexp(_u_max(digits), level)), -level) or (
                    mp.pi * mp.sinh(u) > (g + 2) * mp.log(2)
                )
        # some nodes take reduction factors in ``_log1p`` and some take none
        assert sides == {True, False}


def test_quadrature_bits_pinned():
    # value, levels and every level estimate of hiprec-quad's five specs at
    # 100/200/300 digits and four A-family rows plus aXL:k=7 at 50 digits,
    # hashed; any change to a node, the integrand or the level recursion
    # changes the digest
    cases = [(parse_spec(t), NumericCfg(digits=d, quad_levels=16)) for d in (100, 200, 300) for t in HIPREC_SPECS]
    cases += [(parse_spec(t), NumericCfg(digits=50)) for t in ("A3:s=0", "An:n=2,s=0", "An:n=4,s=0", "An:n=5,s=3")]
    cases.append((parse_spec("aXL:k=7"), NumericCfg(digits=50)))
    digest = hashlib.sha256()
    for spec, cfg in cases:
        digest.update(f"{spec}|{cfg.digits}|{_bits(oracle_quadrature(spec, cfg))}\n".encode())
    assert len(cases) == 20
    assert digest.hexdigest() == "f212fa791cd93091b1e7addebb97f6db8b5ad887ed43b90c2fa45c4aac33281e"


LEVEL_SUM_SPECS = HIPREC_SPECS + ["An:n=2,s=6", "An:n=6,s=1", "An:n=12,s=0", "An:n=40,s=0", "An:n=7,s=20"]


class TestLevelSumBound:
    # every level each precision converges through: the sum on the route's
    # grid g lies within its stated bound, 2^(G + level - 1) ulps with
    # G = g - prec, of the same sum on 200 more bits (itself within that
    # bound in its own ulps); n = 12 and 40 key grids of their own
    @pytest.mark.parametrize("digits,levels", [(30, 5), (50, 6), (300, 8)])
    def test_level_sums_lie_within_their_bound(self, digits, levels):
        prec = dps_to_prec(digits + 15)
        for text in LEVEL_SUM_SPECS:
            n, s = parse_spec(text).args
            g = _grid_bits(digits, n)
            for level in range(levels + 1):
                got = _level_sum(digits, level, n, s, g) << 200
                fine = _level_sum(digits, level, n, s, g + 200)
                bound = (1 << (g - prec + level - 1)) * ((1 << 200) + 1)
                assert abs(got - fine) <= bound, (text, digits, level)

    def test_grids_are_shared_through_n_6(self):
        # results never depend on call order: the grid is a function of (digits, n)
        for digits in (30, 100, 1000):
            assert len({_grid_bits(digits, n) for n in range(2, 7)}) == 1
            assert _grid_bits(digits, 7) > _grid_bits(digits, 6)


def _reference(text: str, digits: int):
    """A_n(s) from mpmath alone: n! zeta(n+1) for s = 0, else the rational
    n! sum_j (-1)^j C(s-1, j) / (j+1)^(n+1) from expanding (1-t)^(s-1)."""
    n, s = parse_spec(text).family.integral(*parse_spec(text).args)
    with workdps(digits + 20):
        if s == 0:
            return math.factorial(n) * mp.zeta(n + 1)
        q = sum(Fraction((-1) ** j * math.comb(s - 1, j), (j + 1) ** (n + 1)) for j in range(s))
        return mp.mpf(math.factorial(n) * q.numerator) / q.denominator


PAPER_FULL_QUADRATURE = ["A3:s=0", "An:n=2,s=0", "An:n=4,s=0", "An:n=5,s=3", "S111", "aXL:k=3"]


class TestReference:
    # the value lies within the level loop's target 10^-(digits+5) |v| of a
    # reference that shares no code with zx_numeric or the closed forms
    @pytest.mark.parametrize(
        "text,digits",
        [(t, d) for d in (50, 200) for t in PAPER_FULL_QUADRATURE]
        + [(t, d) for d in (100, 200, 300) for t in HIPREC_SPECS],
    )
    def test_within_target_of_mpmath(self, text, digits):
        res = oracle_quadrature(parse_spec(text), NumericCfg(digits=digits, quad_levels=16))
        want = _reference(text, digits)
        with workdps(digits + 20):
            assert abs(res.value - want) <= mp.mpf(10) ** -(digits + 5) * abs(want)
