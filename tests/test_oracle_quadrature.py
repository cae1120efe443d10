import hashlib
import math
import sys
from itertools import islice

import pytest
from hypothesis import example, given, strategies as st
from mpmath import mp, workdps
from mpmath.libmp import dps_to_prec, fzero, mpf_add, mpf_mul, mpf_pow_int, round_nearest

from tornzeta import oracle
from tornzeta.closedform import closed_form_of
from tornzeta.oracle import (
    _SERIES_MAG,
    _TABLE_LEVELS,
    _TABLE_PRECISIONS,
    NumericCfg,
    OracleError,
    _add,
    _level_nodes,
    _level_sum,
    _log1p,
    _node_rows,
    _node_table,
    _pow,
    _round,
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
        assert res.tail_bound == 0
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
    # u = 2^-8 is the first node at level 8, u = 2 sits mid-range, and at
    # u = 5 the node t = (1 + tanh w)/2 rounds to 1 at the working precision;
    # each is taken from the table that 50-digit quadrature runs on: an
    # integer u is node u - 1 of level 0, u = 2^-L node 0 of L
    @pytest.mark.parametrize("u,t_is_one", [(2.0**-8, False), (2.0, False), (5.0, True)])
    def test_against_direct_logs(self, u, t_is_one):
        level, index = (0, int(u) - 1) if u >= 1 else (1 - math.frexp(u)[1], 0)
        with workdps(65):
            wt, *got = map(mp.make_mpf, next(islice(_node_rows(50, level), index, None)))
            assert abs(wt - mp.pi * mp.cosh(u)) <= mp.mpf(10) ** -62 * wt
            assert (got[0] == 1) == t_is_one
        with workdps(400):
            t = (1 + mp.tanh(mp.pi / 2 * mp.sinh(u))) / 2
            omt = 1 - t
            want = (t, omt, -mp.log(t), -mp.log(omt))
            for g, r in zip(got, want):
                assert abs(g - r) <= mp.mpf(10) ** -62 * abs(r)


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
        with workdps(45):
            for level in (0, 3, _TABLE_LEVELS):
                assert list(_node_rows(30, level)) == list(_level_nodes(30, level))

    def test_levels_past_the_cap_are_not_kept(self):
        _node_table.cache_clear()
        with workdps(45):
            assert sum(1 for _ in _node_rows(30, _TABLE_LEVELS + 1)) > 5000
            assert _node_table.cache_info().currsize == 0
            next(_node_rows(30, _TABLE_LEVELS))
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
    def test_store_is_dense(self, digits, level):
        # a mantissa of width bytes and an 8-byte exponent per value, five
        # values a node; one mpf object per value would take several times that
        mans, exps = store = _node_table(digits, level)
        with workdps(digits + 15):
            width = (mp.prec + 7) // 8
            nodes = sum(1 for _ in _level_nodes(digits, level))
        assert len(exps) == 5 * nodes
        size = sys.getsizeof(store) + sys.getsizeof(mans) + sys.getsizeof(exps)
        assert size <= 5 * (width + 8) * nodes + 256


@st.composite
def _log1p_args(draw):
    # E = m 2^-j with m below 2^prec, so E is exact at prec; j runs far past
    # the 2^-(prec+10) where mp.log1p stops calling the log
    digits = draw(st.integers(min_value=30, max_value=1000))
    with workdps(digits):
        prec = mp.prec
    return digits, draw(st.integers(1, 3 * prec)), draw(st.integers(1, 2**prec - 1))


class TestLog1p:
    @given(_log1p_args())
    @example((1000, 1, 3))  # E = 3/2: mpf_log(1 + E)
    @example((100, 200, 12345))  # E ~ 2^-186: the fixed-point series
    @example((300, 2500, 7))  # E ~ 2^-2497: E itself
    def test_bits_of_mp_log1p(self, args):
        digits, j, m = args
        with workdps(digits):
            e = mp.ldexp(m, -j)
            assert _log1p(e._mpf_, mp.prec) == mp.log1p(e)._mpf_


def _mpf_level_nodes(digits: int, level: int):
    """The node formulas of ``_level_nodes`` on mpf values with mp.log1p,
    yielding E = exp(-2w) beside each row."""
    u_max = math.log(math.log(10) * (digits + 25) * 2 / math.pi) + 1.0
    half_pi, quarter_pi = mp.pi / 2, mp.pi / 4
    h = mp.ldexp(1, -level)
    stride = 2 if level else 1
    eu = mp.exp(h)
    step = mp.exp(stride * h)
    for _ in range(1, math.floor(math.ldexp(u_max, level)) + 1, stride):
        emu = 1 / eu
        w = quarter_pi * (eu - emu)
        e = mp.exp(-2 * w)
        lt = mp.log1p(e)
        t = 1 / (1 + e)
        yield e, tuple(v._mpf_ for v in (half_pi * (eu + emu), t, e * t, lt, 2 * w + lt))
        eu *= step


class TestNodeBits:
    # through the level each precision converges at (levels 0-4 at 1000
    # digits, of the 9 it uses, to keep the test short)
    @pytest.mark.parametrize(
        "digits,levels", [(30, 5), (50, 6), (100, 7), (200, 7), (300, 8), (1000, 4)]
    )
    def test_rows_are_the_mpf_formulas(self, digits, levels):
        branches = set()
        with workdps(digits + 15):
            wp = mp.prec + 10
            for level in range(levels + 1):
                rows = list(_level_nodes(digits, level))
                want = list(_mpf_level_nodes(digits, level))
                assert rows == [row for _, row in want], (digits, level)
                for e, _ in want:
                    mag = mp.mag(e)
                    branches.add(0 if mag < -wp else 1 if mag < -_SERIES_MAG else 2)
        # E itself, the fixed-point series and mpf_log(1 + E) are all taken
        assert branches == {0, 1, 2}


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
    assert digest.hexdigest() == "b6c2d2df177115bb21d3cba5be62f7a5637dff5c9e36b562c519463e58c0a24d"


def _mpf_level_sum(rows, digits: int, n: int, s: int):
    """The integrand loop that ``_level_sum`` replaces: mpf_pow_int, mpf_mul
    and mpf_add on the rows' raw tuples, rounding to nearest."""
    prec, rnd = dps_to_prec(digits + 15), round_nearest
    acc = fzero
    for wt, t, omt, lt, lo in rows:
        a = mpf_mul(t, mpf_pow_int(omt, s, prec, rnd), prec, rnd)
        a = mpf_mul(a, mpf_pow_int(lt, n, prec, rnd), prec, rnd)
        b = mpf_mul(omt, mpf_pow_int(t, s, prec, rnd), prec, rnd)
        b = mpf_mul(b, mpf_pow_int(lo, n, prec, rnd), prec, rnd)
        acc = mpf_add(acc, mpf_mul(wt, mpf_add(a, b, prec, rnd), prec, rnd), prec, rnd)
    return acc


LEVEL_SUM_SPECS = HIPREC_SPECS + ["An:n=2,s=6", "An:n=6,s=1", "An:n=12,s=0", "An:n=40,s=0", "An:n=7,s=20"]


class TestLevelSumBits:
    @staticmethod
    def _paths(monkeypatch, digits, level, n, s):
        """``_level_sum``'s value and its ``_pow`` calls at each node: 0 where the
        node is skipped, 2 where a is, 4 where neither is."""
        calls, per_node = [0], []
        pow_, rows = oracle._pow, oracle._node_rows

        def counted_pow(*args):
            calls[0] += 1
            return pow_(*args)

        def counted_rows(*args):
            for row in rows(*args):
                before = calls[0]
                yield row
                per_node.append(calls[0] - before)

        with monkeypatch.context() as m:
            m.setattr(oracle, "_pow", counted_pow)
            m.setattr(oracle, "_node_rows", counted_rows)
            return _level_sum(digits, level, n, s), per_node

    # every level each precision converges through (levels 0-4 of the 9 that
    # 1000 digits uses, to keep the test short)
    @pytest.mark.parametrize(
        "digits,levels", [(30, 5), (50, 6), (100, 7), (200, 7), (300, 8), (1000, 4)]
    )
    def test_level_sums_are_the_mpf_loop(self, monkeypatch, digits, levels):
        paths = set()
        for text in LEVEL_SUM_SPECS:
            n, s = parse_spec(text).args
            for level in range(levels + 1):
                got, per_node = self._paths(monkeypatch, digits, level, n, s)
                want = _mpf_level_sum(_node_rows(digits, level), digits, n, s)
                assert got == want, (text, digits, level)
                paths.update(per_node)
        # nodes skipped whole, nodes whose a is skipped, and nodes summed whole
        assert paths == {0, 2, 4}

    def test_streamed_level_is_the_mpf_loop(self, monkeypatch):
        # past _TABLE_LEVELS _node_rows streams _level_nodes' tuples, bit counts
        # and all; the level's rows are computed once here and streamed again
        level = _TABLE_LEVELS + 1
        rows = list(_level_nodes(30, level))
        monkeypatch.setattr(oracle, "_level_nodes", lambda digits, lv: iter(rows))
        for text in LEVEL_SUM_SPECS:
            n, s = parse_spec(text).args
            assert _level_sum(30, level, n, s) == _mpf_level_sum(rows, 30, n, s), text


@st.composite
def _operands(draw):
    # (prec, x, y, gap, k): prec is the quadrature's at 30-1000 digits, x and y
    # positive with odd mantissas of 1..prec bits (so bc k falls on both sides of
    # mpf_pow_int's 1000), y's exponent gap below x from 0 to 3 prec (past 100 and
    # past prec + 4, mpf_add's perturbation shortcut)
    prec = dps_to_prec(draw(st.integers(30, 1000)) + 15)

    def value():
        bits = draw(st.integers(1, prec))
        man = draw(st.integers(1 << (bits - 1), (1 << bits) - 1)) | 1
        return man, draw(st.integers(-5000, 5000))

    return prec, value(), value(), draw(st.integers(0, 3 * prec)), draw(st.integers(0, 60))


def _raw(man, exp):
    return (0, man, exp, man.bit_length())


class TestIntegerHelpers:
    # ties at 153 bits (30 digits): 2^152 + 3 times 3 and 2^152 + 1 times 3
    # leave one dropped bit, a half, with the kept bit even and odd; 2^153 + 1
    # and 2^153 + 3 as sums do the same
    @given(_operands())
    @example((153, ((1 << 152) + 3, 0), (3, 0), 0, 0))
    @example((153, ((1 << 152) + 1, 0), (3, 0), 0, 0))
    def test_round_is_mpf_mul(self, args):
        prec, (m1, e1), (m2, e2), _, _ = args
        want = mpf_mul(_raw(m1, e1), _raw(m2, e2), prec, round_nearest)
        assert _raw(*_round(m1 * m2, e1 + e2, prec)) == want

    @given(_operands())
    @example((153, (1, 153), (1, 0), 153, 0))
    @example((153, ((1 << 152) + 1, 1), (1, 0), 153, 0))
    def test_add_is_mpf_add(self, args):
        prec, (m1, e1), (m2, _), gap, _ = args
        e2 = e1 + m1.bit_length() - m2.bit_length() - gap
        want = mpf_add(_raw(m1, e1), _raw(m2, e2), prec, round_nearest)
        assert _raw(*_add(m1, e1, m2, e2, prec)) == want
        assert _raw(*_add(m2, e2, m1, e1, prec)) == want

    @given(_operands())
    @example((3375, ((1 << 3374) + 1, -3374), (1, 0), 0, 60))  # binary powering at 1000 digits
    @example((153, (5, 0), (1, 0), 0, 2))  # 25: the square path
    # binary powering, 153 bits to the 7th and the 60th: powers that round the
    # other way if the working precision is 4 bits short
    @example((153, (0x1C1AD8EF6F62C28E927DB486F62E63A1A5356B5, 0), (1, 0), 0, 7))
    @example((153, (0x14BA9A641F28DE327560B401CE5B0709B6E5DCD, 0), (1, 0), 0, 60))
    def test_pow_is_mpf_pow_int(self, args):
        prec, (m, e), _, _, k = args
        assert _raw(*_pow(m, e, k, prec)) == mpf_pow_int(_raw(m, e), k, prec, round_nearest)
