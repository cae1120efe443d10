import hashlib
from fractions import Fraction as F
from math import factorial

import pytest
from hypothesis import given, strategies as st
from mpmath import mp, workdps

from tornzeta.closedform import (
    closed_form_of,
    eval_An,
    eval_aXL,
    ln_series_via_b_path,
    on_series_via_b_path,
)
from tornzeta.exact import harmonic, harmonic_gen
from tornzeta.oracle import zx_numeric
from tornzeta.series import SeriesSpec, parse_spec
from tornzeta.zexpr import LN2, UNIT, ZExpr, zeta_sym, zx_normalize


def _closed(text: str) -> ZExpr:
    return closed_form_of(parse_spec(text))


class TestA3:
    def test_s_zero(self):
        assert eval_An(3, 0) == ZExpr.zeta(4, F(6))

    def test_small_s(self):
        assert eval_An(3, 1) == ZExpr.rational(F(6))
        assert eval_An(3, 2) == ZExpr.rational(F(45, 8))

    def test_matches_general_family(self):
        for s in range(0, 21):
            assert closed_form_of(SeriesSpec("A3", (s,))) == eval_An(3, s)

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
    def test_explicit_small_case(self):
        # k = 2: the binomial sum is 2 (1 - 1/8), aXL's form is (H_2^2 + H_2^(2))/2
        assert eval_An(2, 2) == ZExpr.rational(2 * (F(1) - F(1, 8)))
        assert eval_aXL(2) == ZExpr.rational((harmonic(2) ** 2 + harmonic_gen(2, 2)) / 2)
        assert eval_An(2, 2) == eval_aXL(2)


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
        assert _closed("ln") == want

    def test_on_series_form(self):
        assert _closed("on") == ZExpr.zeta(2, F(1, 4))

    def test_numeric_spots(self):
        with workdps(40):
            ln_v = zx_numeric(_closed("ln"), 35)
            on_v = zx_numeric(_closed("on"), 35)
            assert abs(ln_v - mp.mpf("0.96877157")) < 1e-8
            assert abs(on_v - mp.mpf("0.41123352")) < 1e-8

    def test_both_derivation_paths_agree(self):
        assert ln_series_via_b_path() == _closed("ln")
        assert on_series_via_b_path() == _closed("on")

    def test_binter_row_is_the_proofs_b(self):
        # B = A - (3/2) zeta(2) + 1 with A = zeta(2), as the proof writes it
        assert _closed("binter") == ZExpr.zeta(2) - ZExpr.zeta(2, F(3, 2)) + ZExpr.rational(1)
        # and the rows recombine along the proof's path into the ln-series
        assert 2 * (_closed("binter") + _closed("evenodd")) == ln_series_via_b_path()


_HALFINT_LITERAL = {
    "a": ZExpr.zeta(2, 16) - ZExpr.zeta(3, 14),
    "b": ZExpr.zeta(3, 14) - ZExpr.zeta(2, 8),
    "c": ZExpr.zeta(2, 24) - ZExpr.zeta(3, 28),
}


class TestBaseTAndHalfInt:
    def test_base_t(self):
        assert _closed("baseT:1") == ZExpr.zeta(2)
        assert _closed("baseT:2") == ZExpr.zeta(3, F(7, 8))
        assert _closed("baseT:3") == ZExpr.zeta(2, F(1, 2))

    def test_halfint_values(self):
        assert _closed("halfint:a") == ZExpr([(zeta_sym(2), F(16)), (zeta_sym(3), F(-14))])
        assert _closed("halfint:b") == ZExpr([(zeta_sym(2), F(-8)), (zeta_sym(3), F(14))])
        assert _closed("halfint:c") == ZExpr([(zeta_sym(2), F(24)), (zeta_sym(3), F(-28))])

    def test_difference_identity(self):
        assert _closed("halfint:c") == _closed("halfint:a") - _closed("halfint:b")

    @pytest.mark.parametrize("v", ["a", "b", "c"])
    def test_derived_matches_known_literal(self, v):
        # the published combinations, kept apart from the T-sum derivation
        assert _closed(f"halfint:{v}") == _HALFINT_LITERAL[v]

    def test_numeric_spots(self):
        with workdps(40):
            for v, want in (("a", "9.4901484"), ("b", "3.6693241"), ("c", "5.8208243")):
                got = zx_numeric(_closed(f"halfint:{v}"), 35)
                assert abs(got - mp.mpf(want)) < 1e-7


class TestAux:
    def test_values(self):
        assert _closed("evenodd") == ZExpr([(UNIT, F(1)), (LN2, F(-1))])
        assert _closed("oddsq") == ZExpr.zeta(2, F(3, 4))
        assert _closed("binter") == ZExpr([(UNIT, F(1)), (zeta_sym(2), F(-1, 2))])


class TestDispatch:
    @pytest.mark.parametrize(
        "text,want",
        [
            ("A3:s=0", ZExpr.zeta(4, F(6))),
            ("A3:s=2", ZExpr.rational(F(45, 8))),
            ("An:n=4,s=0", ZExpr.zeta(5, F(24))),
            ("aXL:k=1", ZExpr.rational(F(2))),
            ("S111", ZExpr.zeta(3, F(2))),
            ("ln", ZExpr([(UNIT, F(4)), (LN2, F(-2)), (zeta_sym(2), F(-1))])),
            ("on", ZExpr.zeta(2, F(1, 4))),
            ("baseT:2", ZExpr.zeta(3, F(7, 8))),
            ("halfint:c", _HALFINT_LITERAL["c"]),
            ("evenodd", ZExpr([(UNIT, F(1)), (LN2, F(-1))])),
            ("oddsq", ZExpr.zeta(2, F(3, 4))),
            ("binter", ZExpr([(UNIT, F(1)), (zeta_sym(2), F(-1, 2))])),
        ],
    )
    def test_catalog(self, text, want):
        assert closed_form_of(parse_spec(text)) == want

    def test_tornheim_has_no_closed_form(self):
        spec = SeriesSpec("tornheim", (2, 1, 1))
        with pytest.raises(ValueError, match="no closed form"):
            closed_form_of(spec)


# every closed form the catalog serves, in a fixed order
_PINNED_SPECS = (
    [f"A3:s={s}" for s in range(21)]
    + [f"An:n={n},s={s}" for n in range(2, 9) for s in range(7)]
    + [f"aXL:k={k}" for k in range(21)]
    + ["S111", "ln", "on", "evenodd", "oddsq", "binter"]
    + [f"baseT:{j}" for j in (1, 2, 3)]
    + [f"halfint:{v}" for v in "abc"]
)


def test_closed_forms_pinned():
    # exact form, rendering and 60-digit value of all 103 specs, hashed; a change
    # to any closed form, however it is reached, changes the digest
    digest = hashlib.sha256()
    for text in _PINNED_SPECS:
        c = _closed(text)
        digest.update(f"{text}|{c.render()}|{zx_numeric(c, 60)._mpf_}\n".encode())
    assert len(_PINNED_SPECS) == 103
    assert digest.hexdigest() == "8276e6e676104785089cac793fd3f4c0be974cd84d279372494e9e95afc9f1e5"


def _mpmath_value(a: ZExpr, digits: int):
    """The combination from mpmath's own zeta, log 2 and pi at digits + 30,
    sharing no code with the evaluator's constants."""
    with workdps(digits + 30):
        acc = mp.mpf(0)
        for sym, coeff in a.terms():
            if sym.kind == "unit":
                v = mp.mpf(1)
            elif sym.kind == "ln2":
                v = mp.log(2)
            elif sym.kind == "zeta":
                v = mp.zeta(sym.k)
            else:
                v = mp.pi**sym.k
            acc += mp.mpf(coeff.numerator) / coeff.denominator * v
        return acc


@pytest.mark.parametrize("digits", [30, 50, 77, 100, 200, 300, 1000])
def test_zx_numeric_lies_within_its_bound(digits):
    # every catalog closed form within 10^-(digits+19) relative of mpmath's value
    # (the constants' budgets give about 10^-(digits+20)), and so the pi powers,
    # which the catalog writes as even zetas
    forms = [(text, _closed(text)) for text in _PINNED_SPECS]
    forms += [(k, zx_normalize(ZExpr.zeta(k, F(3, 7)), "prefer-pi")) for k in (2, 4, 6, 20)]
    for label, c in forms:
        want = _mpmath_value(c, digits)
        with workdps(digits + 30):
            err = abs(zx_numeric(c, digits) - want)
            assert err <= mp.mpf(10) ** -(digits + 19) * max(1, abs(want)), label
