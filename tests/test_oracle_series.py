from fractions import Fraction as F

import pytest
from mpmath import mp, workdps

from tornzeta.closedform import closed_form_of
from tornzeta.oracle import (
    NumericCfg,
    box_partial_exact,
    diagonal_partial_exact,
    oracle_diagonal,
    oracle_for,
    oracle_quadrature,
    oracle_raw,
    tail_estimate,
    triangle_partial_exact,
    zx_numeric,
)
from tornzeta.series import SeriesSpec, parse_spec


def f2m(fr: F):
    return mp.mpf(fr.numerator) / mp.mpf(fr.denominator)


class TestExactPartialSpots:
    def test_box_single_terms(self):
        assert box_partial_exact(parse_spec("A3:s=0"), 1) == F(3, 4)
        assert box_partial_exact(parse_spec("S111"), 1) == F(1, 2)
        assert box_partial_exact(parse_spec("baseT:1"), 0) == F(1)

    def test_tornheim_small_box(self):
        got = box_partial_exact(parse_spec("tornheim:a=1,b=1,c=1"), 2)
        assert got == F(1, 2) + 2 * F(1, 6) + F(1, 16)

    def test_diagonal_first_group(self):
        assert diagonal_partial_exact(parse_spec("A3:s=0"), 2) == F(3, 4)
        assert diagonal_partial_exact(parse_spec("S111"), 2) == F(1, 2)
        assert diagonal_partial_exact(parse_spec("baseT:1"), 0) == F(1)


REGROUPINGS = [
    ("A3:s=0", 40),
    ("A3:s=3", 40),
    ("An:n=2,s=0", 40),
    ("An:n=2,s=5", 40),
    ("An:n=4,s=0", 25),
    ("An:n=5,s=2", 16),
    ("An:n=6,s=1", 14),
    ("S111", 40),
    ("baseT:1", 40),
    ("baseT:2", 40),
    ("baseT:3", 40),
    ("halfint:a", 40),
    ("halfint:b", 40),
    ("halfint:c", 40),
    ("binter", 40),
]


class TestReductionSoundness:
    @pytest.mark.parametrize("text,depth", REGROUPINGS)
    def test_diagonal_equals_defining_form(self, text, depth):
        # regrouping by index total is an identity, so partials over the
        # same index set must agree as exact rationals
        spec = parse_spec(text)
        assert diagonal_partial_exact(spec, depth) == triangle_partial_exact(spec, depth)

    @pytest.mark.parametrize("text", ["aXL:k=2", "ln", "on", "evenodd", "oddsq"])
    def test_single_sums_coincide(self, text):
        spec = parse_spec(text)
        assert triangle_partial_exact(spec, 30) == diagonal_partial_exact(spec, 30)

    @pytest.mark.parametrize(
        "text",
        [
            "A3:s=0",
            "An:n=3,s=2",
            "S111",
            "binter",
            "halfint:a",
            "halfint:b",
            "halfint:c",
            "baseT:1",
            "baseT:2",
            "baseT:3",
            "tornheim:a=2,b=1,c=1",
        ],
    )
    def test_triangle_box_sandwich(self, text):
        # triangle(N) sits inside box(N) sits inside triangle(2N): index-set
        # containment with positive terms, checked exactly
        spec = parse_spec(text)
        tri = triangle_partial_exact(spec, 20)
        box = box_partial_exact(spec, 20)
        tri2 = triangle_partial_exact(spec, 40)
        assert tri < box < tri2


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


class TestFixedPointEngines:
    @pytest.mark.parametrize("text", DIAG_FAMILIES)
    def test_diagonal_engine_matches_exact(self, text):
        spec = parse_spec(text)
        cfg = NumericCfg(digits=50, n_max=300, method="diagonal")
        got = oracle_for(spec, cfg)
        want = diagonal_partial_exact(spec, 300)
        with workdps(70):
            assert abs(got.value - f2m(want)) < mp.mpf("1e-55")
        assert got.method == "diagonal"
        assert got.n_used == 300

    @pytest.mark.parametrize(
        "text,box",
        [
            ("A3:s=1", 40),
            ("An:n=2,s=3", 40),
            ("An:n=3,s=2", 40),
            ("An:n=4,s=0", 12),
            ("An:n=5,s=1", 10),
            ("S111", 40),
            ("tornheim:a=2,b=1,c=1", 40),
            ("tornheim:a=1,b=1,c=1", 40),
            ("baseT:1", 40),
            ("baseT:2", 40),
            ("baseT:3", 40),
            ("halfint:a", 40),
            ("halfint:b", 40),
            ("halfint:c", 40),
            ("binter", 40),
            ("aXL:k=2", 40),
            ("ln", 40),
            ("on", 40),
            ("evenodd", 40),
            ("oddsq", 40),
        ],
    )
    def test_raw_engine_matches_exact(self, text, box):
        spec = parse_spec(text)
        cfg = NumericCfg(digits=50, n_max=box, method="raw")
        got = oracle_raw(spec, cfg)
        want = box_partial_exact(spec, box)
        with workdps(70):
            assert abs(got.value - f2m(want)) < mp.mpf("1e-55")
        assert got.method == "raw"

    def test_rounding_is_downward(self):
        # fixed-point truncation may only under-shoot the exact partial
        spec = parse_spec("ln")
        cfg = NumericCfg(digits=40, n_max=200, method="diagonal")
        got = oracle_for(spec, cfg)
        want = diagonal_partial_exact(spec, 200)
        with workdps(60):
            assert got.value <= f2m(want)

    def test_deterministic_repeats(self):
        spec = parse_spec("halfint:c")
        cfg = NumericCfg(digits=40, n_max=2000, method="diagonal")
        a = oracle_for(spec, cfg)
        b = oracle_for(spec, cfg)
        assert a.value == b.value
        with workdps(50):
            assert mp.nstr(a.value, 40) == mp.nstr(b.value, 40)


HONESTY_FAMILIES = DIAG_FAMILIES + ["An:n=5,s=0", "An:n=3,s=4"]


class TestTailHonesty:
    @pytest.mark.parametrize("text", HONESTY_FAMILIES)
    @pytest.mark.parametrize("n_cut", [1000, 10000])
    def test_true_remainder_within_bound(self, text, n_cut):
        spec = parse_spec(text)
        cfg = NumericCfg(digits=50, n_max=n_cut, method="diagonal")
        res = oracle_for(spec, cfg)
        with workdps(60):
            closed = zx_numeric(closed_form_of(spec), 50)
            err = closed - res.value
            assert err >= 0
            assert err <= res.tail_bound
            # the majorant should stay within an order of magnitude of truth
            assert res.tail_bound <= max(20 * err, mp.mpf("1e-25"))

    def test_tornheim_raw_remainder_within_bound(self):
        spec = parse_spec("tornheim:a=1,b=1,c=1")
        cfg = NumericCfg(digits=50, n_max=100, method="raw")
        res = oracle_raw(spec, cfg)
        with workdps(60):
            closed = 2 * mp.zeta(3)
            err = closed - res.value
            assert 0 <= err <= res.tail_bound

    @pytest.mark.parametrize("text", ["A3:s=0", "aXL:k=1", "ln", "baseT:2", "halfint:c"])
    def test_bound_shrinks_with_cutoff(self, text):
        spec = parse_spec(text)
        prev = tail_estimate(spec, 100)
        for n in (1000, 10000, 100000):
            cur = tail_estimate(spec, n)
            assert cur < prev
            prev = cur

    def test_bound_positive(self):
        assert tail_estimate(parse_spec("on"), 50) > 0


class TestMonotoneApproach:
    @pytest.mark.parametrize("text", ["A3:s=2", "S111", "on", "halfint:a"])
    def test_partials_increase_toward_closed_value(self, text):
        spec = parse_spec(text)
        p1 = diagonal_partial_exact(spec, 50)
        p2 = diagonal_partial_exact(spec, 100)
        assert p1 < p2
        with workdps(60):
            closed = zx_numeric(closed_form_of(spec), 50)
            assert f2m(p2) < closed


class TestConfigAndGuards:
    def test_cfg_validation(self):
        with pytest.raises(ValueError):
            NumericCfg(digits=20)
        with pytest.raises(ValueError):
            NumericCfg(n_max=5)
        with pytest.raises(ValueError):
            NumericCfg(quad_levels=2)
        with pytest.raises(ValueError):
            NumericCfg(quad_levels=17)
        with pytest.raises(ValueError):
            NumericCfg(method="montecarlo")

    def test_diagonal_guards(self):
        cfg = NumericCfg(n_max=100)
        with pytest.raises(ValueError):
            oracle_diagonal(SeriesSpec("TornheimRaw", a=2, b=1, c=1), cfg)
        with pytest.raises(ValueError):
            oracle_diagonal(SeriesSpec("An", n=7, s=0), cfg)

    def test_raw_caps(self):
        with pytest.raises(ValueError, match="out of reach"):
            oracle_raw(parse_spec("S111"), NumericCfg(n_max=5001, method="raw"))
        with pytest.raises(ValueError, match="out of reach"):
            oracle_raw(parse_spec("An:n=4,s=0"), NumericCfg(n_max=401, method="raw"))
        # the cap counts terms, so more indices lower the largest box
        with pytest.raises(ValueError, match="out of reach"):
            oracle_raw(parse_spec("An:n=6,s=0"), NumericCfg(n_max=400, method="raw"))
        with pytest.raises(ValueError, match="out of reach"):
            oracle_raw(parse_spec("An:n=12,s=0"), NumericCfg(n_max=10, method="raw"))
        # the 1-dim families have no box blowup and take large cutoffs
        res = oracle_raw(parse_spec("aXL:k=0"), NumericCfg(n_max=20000, method="raw"))
        assert res.n_used == 20000

    def test_quadrature_family_guard(self):
        with pytest.raises(ValueError, match="A-family"):
            oracle_quadrature(parse_spec("S111"), NumericCfg())

    def test_tail_estimate_guards(self):
        with pytest.raises(ValueError):
            tail_estimate(parse_spec("A3:s=0"), 9)
        with pytest.raises(ValueError):
            tail_estimate(parse_spec("aXL:k=50"), 40)

    def test_dispatch_by_method(self):
        spec = parse_spec("A3:s=0")
        assert oracle_for(spec, NumericCfg(n_max=50, method="raw")).method == "raw"
        assert oracle_for(spec, NumericCfg(n_max=50, method="diagonal")).method == "diagonal"
        assert oracle_for(spec, NumericCfg(method="quadrature")).method == "quadrature"
