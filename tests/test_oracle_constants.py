import ast
import hashlib
import inspect

import pytest
from mpmath import mp, workdps

from tornzeta import asymptotic, exact
from tornzeta.oracle import _closed_bits, const_ln2, const_pi, const_zeta, zx_numeric
from tornzeta.zexpr import ZExpr, zeta_even_to_pi

_DIGITS = [30, 50, 300, 1000]


def _ulps(got, want, digits: int):
    """|got - want| in ulps of the constants' grid 2^-f."""
    with workdps(digits + 40):
        return abs(got - want) * mp.mpf(2) ** _closed_bits(digits)


class TestZeta:
    @pytest.mark.parametrize("k", range(2, 13))
    @pytest.mark.parametrize("digits", _DIGITS)
    def test_against_library_zeta(self, k, digits):
        # the Euler-Maclaurin budget is under 3 digits ulps; about 1.1 digits is measured
        with workdps(digits + 40):
            assert _ulps(const_zeta(k, digits), mp.zeta(k), digits) <= 4 * digits

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
        assert digest.hexdigest() == "68a14476b6adeb093061826ab20d194ad87d5c75b42efe357254e3cc67769953"


class TestLn2AndPi:
    def test_ln2_value(self):
        for digits in _DIGITS:
            with workdps(digits + 40):
                assert _ulps(const_ln2(digits), mp.log(2), digits) <= 4 * digits, digits
                assert abs(mp.exp(const_ln2(digits)) - 2) < mp.mpf(10) ** -digits, digits

    def test_pi_value(self):
        for digits in _DIGITS:
            assert _ulps(const_pi(digits), mp.pi, digits) <= 4 * digits, digits

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
        assert digest.hexdigest() == "b6d1a86350730a4805fec1f645b91f8061b535042062c2eafc8120ff4807235a"


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


def _names(code) -> set:
    """Global and attribute names a function's code reads, nested code objects included."""
    nested = (_names(c) for c in code.co_consts if hasattr(c, "co_names"))
    return set(code.co_names).union(*nested)


@pytest.mark.parametrize("fn", [const_pi, const_ln2, const_zeta, zx_numeric])
def test_evaluator_shares_no_code_with_the_oracles(fn):
    # the closed forms are checked against the oracles, so the evaluator takes
    # nothing from quadrature's fixed-point kernels, the series walks or the tails
    names = _names(getattr(fn, "__wrapped__", fn).__code__)
    assert names, fn
    banned = {"_atanh", "_log1p", "_log_factors", "_fpow", "asymptotic"}
    prefixes = ("_level_", "_node_", "_regrouped_")
    assert not {n for n in names if n in banned or n.startswith(prefixes)}, fn


def test_tails_take_no_bernoulli_from_the_evaluator():
    # const_zeta takes B_2r from exact.bernoulli and the tails from mpmath's
    # bernfrac, so a wrong B_2r cannot move a closed form and its tail together
    nodes = list(ast.walk(ast.parse(inspect.getsource(asymptotic))))
    names = {n.id for n in nodes if isinstance(n, ast.Name)}
    names |= {n.attr for n in nodes if isinstance(n, ast.Attribute)}
    dotted = [n.name for n in nodes if isinstance(n, ast.alias)]
    dotted += [n.module or "" for n in nodes if isinstance(n, ast.ImportFrom)]
    names.update(part for name in dotted for part in name.split("."))
    assert not names & {"bernoulli", "exact"}
    assert exact.bernoulli not in vars(asymptotic).values()
