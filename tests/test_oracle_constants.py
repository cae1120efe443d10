import hashlib

import pytest
from mpmath import mp, workdps

from tornzeta.oracle import const_ln2, const_pi, const_zeta, zx_numeric
from tornzeta.zexpr import ZExpr, zeta_even_to_pi


class TestZeta:
    @pytest.mark.parametrize("k", range(2, 13))
    @pytest.mark.parametrize("digits", [30, 50])
    def test_against_library_zeta(self, k, digits):
        with workdps(digits + 15):
            got = const_zeta(k, digits)
            want = mp.zeta(k)
            assert abs(got - want) < mp.mpf(10) ** (-digits - 2)

    def test_leading_digits(self):
        with workdps(45):
            text = mp.nstr(const_zeta(2, 30), 25)
        assert text.startswith("1.64493406684822643647")

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            const_zeta(1, 50)
        with pytest.raises(ValueError):
            const_zeta(2, 20)

    def test_cache_returns_same_object(self):
        assert const_zeta(3, 50) is const_zeta(3, 50)

    def test_bits_pinned(self):
        # zeta(2..8) at 30 through 1000 digits, hashed; any change to the
        # head sum, the Euler-Maclaurin corrections or their rounding changes
        # the digest
        digest = hashlib.sha256()
        for digits in (30, 50, 100, 200, 300, 1000):
            for k in range(2, 9):
                digest.update(f"{k}|{digits}|{const_zeta(k, digits)._mpf_}\n".encode())
        assert digest.hexdigest() == "1b0bcd7c95737552a4d429a764acdc981ae8520144f0e758dcdf59e07e3b9300"


class TestLn2AndPi:
    def test_ln2_value(self):
        with workdps(60):
            assert abs(const_ln2(50) - mp.log(2)) < mp.mpf("1e-52")
            assert abs(mp.exp(const_ln2(50)) - 2) < mp.mpf("1e-50")

    def test_pi_value(self):
        with workdps(60):
            assert abs(const_pi(50) - mp.pi) < mp.mpf("1e-52")

    def test_rejects_low_digits(self):
        with pytest.raises(ValueError):
            const_ln2(10)
        with pytest.raises(ValueError):
            const_pi(0)

    def test_bits_pinned(self):
        # ln 2 and pi at 30 through 1000 digits, hashed; any change to the
        # atanh series, its stopping test or the rounding changes the digest
        digest = hashlib.sha256()
        for digits in (30, 50, 100, 200, 300, 1000):
            digest.update(f"ln2|{digits}|{const_ln2(digits)._mpf_}\n".encode())
            digest.update(f"pi|{digits}|{const_pi(digits)._mpf_}\n".encode())
        assert digest.hexdigest() == "33843557b540a4489e478f4178a7505bcd358da7f1faef9e791fb29c0872f563"


class TestEvenZetaBridge:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_pi_form_matches_zeta_numerically(self, n):
        # rational * pi^{2n} against the independently summed zeta value
        with workdps(60):
            via_pi = zx_numeric(zeta_even_to_pi(n), 50)
            direct = const_zeta(2 * n, 50)
            assert abs(via_pi - direct) < mp.mpf("1e-25")


class TestZxNumeric:
    def test_term_mix(self):
        expr = ZExpr.zeta(2) - ZExpr.zeta(3)
        with workdps(60):
            want = mp.zeta(2) - mp.zeta(3)
            assert abs(zx_numeric(expr, 50) - want) < mp.mpf("1e-48")

    def test_zero_expr(self):
        assert zx_numeric(ZExpr.rational(0), 30) == 0
