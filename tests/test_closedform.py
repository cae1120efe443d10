from fractions import Fraction as F
from math import factorial

import pytest
from hypothesis import given, strategies as st
from mpmath import mp, workdps

from tornzeta.closedform import (
    closed_form_of,
    alt_binomial_sides,
    eval_An,
    eval_aXL,
    eval_aux,
    eval_base_T,
    eval_halfint,
    eval_ln_series,
    eval_on_series,
    ln_series_via_b_path,
    on_series_via_b_path,
)
from tornzeta.exact import harmonic, harmonic_gen
from tornzeta.oracle import zx_numeric
from tornzeta.series import SeriesSpec, parse_spec
from tornzeta.zexpr import LN2, UNIT, ZExpr, zeta_sym


class TestA3:
    def test_s_zero(self):
        assert eval_An(3, 0) == ZExpr.zeta(4, F(6))

    def test_small_s(self):
        assert eval_An(3, 1) == ZExpr.rational(F(6))
        assert eval_An(3, 2) == ZExpr.rational(F(45, 8))

    def test_matches_general_family(self):
        for s in range(0, 21):
            assert closed_form_of(SeriesSpec("A3", s=s)) == eval_An(3, s)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            eval_An(3, -1)


class TestAn:
    def test_s_zero_is_zeta(self):
        assert eval_An(2, 0) == ZExpr.zeta(3, F(2))
        assert eval_An(4, 0) == ZExpr.zeta(5, F(24))
        assert eval_An(6, 0) == ZExpr.zeta(7, F(720))

    def test_s_one_is_factorial(self):
        for n in range(2, 9):
            assert eval_An(n, 1) == ZExpr.rational(F(factorial(n)))

    def test_known_rational(self):
        assert eval_An(2, 2) == ZExpr.rational(F(7, 4))

    @pytest.mark.parametrize("n", range(2, 7))
    @pytest.mark.parametrize("s", [1, 2, 5, 11, 20])
    def test_positive_shift_is_rational(self, n, s):
        val = eval_An(n, s)
        assert {sym for sym, _ in val.terms()} <= {UNIT}
        assert val.coeff(UNIT) > 0

    def test_bad_args_rejected(self):
        with pytest.raises(ValueError):
            eval_An(1, 0)
        with pytest.raises(ValueError):
            eval_An(3, -2)

    @given(st.integers(min_value=0, max_value=60))
    def test_n2_equals_harmonic_form(self, k):
        # the alternating binomial sum at n=2 collapses to (H_k^2 + H_k^(2))/k
        assert eval_An(2, k) == eval_aXL(k)


class TestAltBinomialIdentity:
    @pytest.mark.parametrize("k", [1, 2, 3, 7, 50, 100])
    def test_sides_agree(self, k):
        lhs, rhs = alt_binomial_sides(k)
        assert lhs == rhs

    def test_explicit_small_case(self):
        lhs, rhs = alt_binomial_sides(2)
        assert lhs == F(1) - F(1, 8)
        assert rhs == (harmonic(2) ** 2 + harmonic_gen(2, 2)) / 4

    def test_k_zero_rejected(self):
        with pytest.raises(ValueError):
            alt_binomial_sides(0)


class TestAXL:
    def test_k_zero(self):
        assert eval_aXL(0) == ZExpr.zeta(3, F(2))

    def test_small_k(self):
        assert eval_aXL(1) == ZExpr.rational(F(2))
        assert eval_aXL(3) == ZExpr.rational(F(85, 54))

    @given(st.integers(min_value=1, max_value=120))
    def test_closed_rational_form(self, k):
        want = (harmonic(k) ** 2 + harmonic_gen(k, 2)) / k
        assert eval_aXL(k) == ZExpr.rational(want)


class TestLogAndOddSeries:
    def test_ln_series_form(self):
        want = ZExpr([(UNIT, F(4)), (LN2, F(-2)), (zeta_sym(2), F(-1))])
        assert eval_ln_series() == want

    def test_on_series_form(self):
        assert eval_on_series() == ZExpr.zeta(2, F(1, 4))

    def test_numeric_spots(self):
        with workdps(40):
            ln_v = zx_numeric(eval_ln_series(), 35)
            on_v = zx_numeric(eval_on_series(), 35)
            assert abs(ln_v - mp.mpf("0.96877157")) < 1e-8
            assert abs(on_v - mp.mpf("0.41123352")) < 1e-8

    def test_both_derivation_paths_agree(self):
        assert ln_series_via_b_path() == eval_ln_series()
        assert on_series_via_b_path() == eval_on_series()


_HALFINT_LITERAL = {
    "a": ZExpr.zeta(2, 16) - ZExpr.zeta(3, 14),
    "b": ZExpr.zeta(3, 14) - ZExpr.zeta(2, 8),
    "c": ZExpr.zeta(2, 24) - ZExpr.zeta(3, 28),
}


class TestBaseTAndHalfInt:
    def test_base_t(self):
        assert eval_base_T(1) == ZExpr.zeta(2)
        assert eval_base_T(2) == ZExpr.zeta(3, F(7, 8))
        assert eval_base_T(3) == ZExpr.zeta(2, F(1, 2))
        with pytest.raises(ValueError):
            eval_base_T(4)

    def test_halfint_values(self):
        assert eval_halfint("a") == ZExpr([(zeta_sym(2), F(16)), (zeta_sym(3), F(-14))])
        assert eval_halfint("b") == ZExpr([(zeta_sym(2), F(-8)), (zeta_sym(3), F(14))])
        assert eval_halfint("c") == ZExpr([(zeta_sym(2), F(24)), (zeta_sym(3), F(-28))])
        with pytest.raises(ValueError):
            eval_halfint("x")

    def test_difference_identity(self):
        assert eval_halfint("c") == eval_halfint("a") - eval_halfint("b")

    @pytest.mark.parametrize("v", ["a", "b", "c"])
    def test_derived_matches_known_literal(self, v):
        # the published combinations, kept apart from the T-sum derivation
        assert eval_halfint(v) == _HALFINT_LITERAL[v]

    def test_numeric_spots(self):
        with workdps(40):
            for v, want in (("a", "9.4901484"), ("b", "3.6693241"), ("c", "5.8208243")):
                got = zx_numeric(eval_halfint(v), 35)
                assert abs(got - mp.mpf(want)) < 1e-7


class TestAux:
    def test_values(self):
        assert eval_aux("EvenOddAux") == ZExpr([(UNIT, F(1)), (LN2, F(-1))])
        assert eval_aux("OddSquares") == ZExpr.zeta(2, F(3, 4))
        assert eval_aux("BInter") == ZExpr([(UNIT, F(1)), (zeta_sym(2), F(-1, 2))])
        with pytest.raises(ValueError):
            eval_aux("S111")


class TestDispatch:
    @pytest.mark.parametrize(
        "text,want",
        [
            ("A3:s=0", ZExpr.zeta(4, F(6))),
            ("A3:s=2", ZExpr.rational(F(45, 8))),
            ("An:n=4,s=0", ZExpr.zeta(5, F(24))),
            ("aXL:k=1", ZExpr.rational(F(2))),
            ("S111", ZExpr.zeta(3, F(2))),
            ("ln", eval_ln_series()),
            ("on", ZExpr.zeta(2, F(1, 4))),
            ("baseT:2", ZExpr.zeta(3, F(7, 8))),
            ("halfint:c", eval_halfint("c")),
            ("evenodd", eval_aux("EvenOddAux")),
            ("oddsq", ZExpr.zeta(2, F(3, 4))),
            ("binter", eval_aux("BInter")),
        ],
    )
    def test_catalog(self, text, want):
        assert closed_form_of(parse_spec(text)) == want

    def test_tornheim_has_no_closed_form(self):
        spec = SeriesSpec("TornheimRaw", a=2, b=1, c=1)
        with pytest.raises(ValueError, match="no closed form"):
            closed_form_of(spec)
