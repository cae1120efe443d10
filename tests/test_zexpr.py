from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, workdps

from tornzeta.oracle import zx_numeric
from tornzeta.zexpr import (
    LN2,
    UNIT,
    ZERO_EXPR,
    ConstSym,
    ZExpr,
    pi_pow,
    zeta_even_to_pi,
    zeta_sym,
    zx_normalize,
)


class TestConstSym:
    def test_construction_and_render(self):
        assert UNIT.render() == "1"
        assert LN2.render() == "ln2"
        assert zeta_sym(3).render() == "z3"
        assert pi_pow(1).render() == "pi"
        assert pi_pow(4).render() == "pi^4"

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            zeta_sym(1)
        with pytest.raises(ValueError):
            pi_pow(0)
        with pytest.raises(ValueError):
            ConstSym("unit", 3)
        with pytest.raises(ValueError):
            ConstSym("nope")

    def test_ordering(self):
        got = sorted([pi_pow(2), zeta_sym(5), LN2, zeta_sym(2), UNIT])
        assert got == [UNIT, LN2, zeta_sym(2), zeta_sym(5), pi_pow(2)]


class TestZExpr:
    def test_render_cases(self):
        a = ZExpr([(zeta_sym(2), F(16)), (zeta_sym(3), F(-14))])
        assert a.render() == "16*z2 - 14*z3"
        b = ZExpr([(UNIT, F(4)), (LN2, F(-2)), (zeta_sym(2), F(-1))])
        assert b.render() == "4 - 2*ln2 - z2"
        assert ZExpr.zeta(3, F(7, 8)).render() == "7/8*z3"
        assert ZExpr.rational(F(45, 8)).render() == "45/8"
        assert ZERO_EXPR.render() == "0"
        assert ZExpr.single(pi_pow(4), F(1, 15)).render() == "1/15*pi^4"

    def test_zero_coefficients_dropped(self):
        a = ZExpr([(zeta_sym(2), F(1)), (zeta_sym(3), F(0))])
        assert a.terms() == ((zeta_sym(2), F(1)),)
        assert (a - a).is_zero()

    def test_repeated_symbols_merge(self):
        a = ZExpr([(LN2, F(1, 2)), (LN2, F(1, 2))])
        assert a == ZExpr.single(LN2, F(1))

    def test_arithmetic(self):
        a = ZExpr.zeta(2, F(3))
        b = ZExpr([(zeta_sym(2), F(-3)), (UNIT, F(1))])
        assert a + b == ZExpr.rational(F(1))
        assert F(1, 3) * a == ZExpr.zeta(2)
        assert a + (-a) == ZERO_EXPR
        assert (a - b).coeff(zeta_sym(2)) == F(6)

    def test_coeff_of_absent_symbol(self):
        assert ZExpr.zeta(3).coeff(pi_pow(2)) == 0

    def test_scalar_accepts_ints(self):
        assert ZExpr.zeta(3) * 2 == ZExpr.zeta(3, F(2))

    def test_hashable(self):
        seen = {ZExpr.zeta(3, F(2)), ZExpr.zeta(3, F(2))}
        assert len(seen) == 1


_SYMS = st.sampled_from(
    [UNIT, LN2, zeta_sym(2), zeta_sym(3), zeta_sym(4), zeta_sym(5), pi_pow(1), pi_pow(2), pi_pow(4)]
)
_COEF = st.fractions(min_value=-8, max_value=8, max_denominator=12)
_EXPRS = st.lists(st.tuples(_SYMS, _COEF), max_size=5).map(ZExpr)


class TestVectorSpaceLaws:
    @given(_EXPRS, _EXPRS, _EXPRS)
    def test_add_associative_commutative(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a

    @given(_EXPRS)
    def test_identity_and_inverse(self, a):
        assert a + ZERO_EXPR == a
        assert a + (-a) == ZERO_EXPR
        assert a * 1 == a
        assert a * 0 == ZERO_EXPR

    @given(_EXPRS, _EXPRS, _COEF, _COEF)
    def test_distributive(self, a, b, p, q):
        assert (a + b) * p == a * p + b * p
        assert a * (p + q) == a * p + a * q
        assert (a * p) * q == a * (p * q)


class TestNormalize:
    def test_even_zeta_to_pi(self):
        assert zeta_even_to_pi(1) == ZExpr.single(pi_pow(2), F(1, 6))
        assert zeta_even_to_pi(2) == ZExpr.single(pi_pow(4), F(1, 90))
        assert zeta_even_to_pi(3) == ZExpr.single(pi_pow(6), F(1, 945))
        with pytest.raises(ValueError):
            zeta_even_to_pi(0)

    def test_prefer_pi_examples(self):
        a = ZExpr([(zeta_sym(2), F(16)), (zeta_sym(3), F(-14))])
        got = zx_normalize(a, "prefer-pi")
        assert got == ZExpr([(pi_pow(2), F(8, 3)), (zeta_sym(3), F(-14))])
        back = zx_normalize(got, "keep-zeta")
        assert back == a

    def test_odd_pi_power_passes_through(self):
        a = ZExpr.single(pi_pow(3), F(2))
        assert zx_normalize(a, "keep-zeta") == a
        assert zx_normalize(a, "prefer-pi") == a

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            zx_normalize(ZERO_EXPR, "canonical")

    @given(_EXPRS)
    def test_round_trip_from_zeta_side(self, a):
        # strip even pi powers first so keep-zeta is the canonical side
        z = zx_normalize(a, "keep-zeta")
        assert zx_normalize(zx_normalize(z, "prefer-pi"), "keep-zeta") == z

    @given(_EXPRS)
    def test_round_trip_from_pi_side(self, a):
        p = zx_normalize(a, "prefer-pi")
        assert zx_normalize(zx_normalize(p, "keep-zeta"), "prefer-pi") == p

    @given(_EXPRS)
    def test_idempotent(self, a):
        for mode in ("keep-zeta", "prefer-pi"):
            once = zx_normalize(a, mode)
            assert zx_normalize(once, mode) == once

    @given(_EXPRS)
    @settings(max_examples=50)
    def test_numeric_value_preserved(self, a):
        with workdps(40):
            va = zx_numeric(a, 35)
            vz = zx_numeric(zx_normalize(a, "keep-zeta"), 35)
            vp = zx_numeric(zx_normalize(a, "prefer-pi"), 35)
            assert abs(va - vz) < mp.mpf("1e-30")
            assert abs(va - vp) < mp.mpf("1e-30")
