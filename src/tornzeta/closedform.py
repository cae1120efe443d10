"""Exact closed-form values for every series in the catalog.

Each evaluator returns a ``ZExpr`` over the basis {1, ln2, zeta(k), pi^k}.
The alternating binomial sums are evaluated in exact rational arithmetic
throughout: their terms grow like C(s-1, s/2) while the value stays O(1),
so a floating-point route would lose every significant digit long before
s = 20.  There is deliberately no float fallback here.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import TYPE_CHECKING

from .exact import Rat, binomial, harmonic, harmonic_gen
from .zexpr import LN2, UNIT, ZExpr

if TYPE_CHECKING:
    from .series import SeriesSpec


def eval_An(n: int, s: int) -> ZExpr:
    """Value of the n-fold sum over m_1..m_{n-1} of H_{M+s}/(m_1...m_{n-1} (M+s)).

    s = 0 gives n! zeta(n+1); s >= 1 collapses to the rational
    n! sum_{j=0}^{s-1} (-1)^j C(s-1,j)/(j+1)^{n+1}.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got n={n}")
    if s < 0:
        raise ValueError(f"need s >= 0, got s={s}")
    if s == 0:
        return ZExpr.zeta(n + 1, factorial(n))
    acc = Fraction(0)
    for j in range(s):
        acc += (-1) ** j * binomial(s - 1, j) / Fraction((j + 1) ** (n + 1))
    return ZExpr.rational(factorial(n) * acc)


def eval_aXL(k: int) -> ZExpr:
    """Sum over m of H_{m+k}/(m(m+k)): 2 zeta(3) at k = 0, else (H_k^2+H_k^(2))/k."""
    if k < 0:
        raise ValueError(f"need k >= 0, got k={k}")
    if k == 0:
        return ZExpr.zeta(3, 2)
    hk = harmonic(k)
    return ZExpr.rational((hk * hk + harmonic_gen(k, 2)) / k)


def alt_binomial_sides(k: int) -> tuple[Rat, Rat]:
    """Both sides of the cubic binomial-sum identity, for the caller to compare.

    LHS = sum_{j=0}^{k-1} (-1)^j C(k-1,j)/(j+1)^3, RHS = (H_k^2+H_k^(2))/(2k).
    They agree for every k >= 1; returning the pair keeps the check honest
    instead of baking the equality into one of the sides.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got k={k}")
    lhs = Fraction(0)
    for j in range(k):
        lhs += (-1) ** j * binomial(k - 1, j) / Fraction((j + 1) ** 3)
    hk = harmonic(k)
    rhs = (hk * hk + harmonic_gen(k, 2)) / (2 * k)
    return lhs, rhs


def eval_ln_series() -> ZExpr:
    """Sum of (2H_{2m+1} - H_m)/(2m(2m+1)) = 4 - 2 ln2 - zeta(2)."""
    return ZExpr([(UNIT, 4), (LN2, -2)]) - ZExpr.zeta(2)


def eval_on_series() -> ZExpr:
    """Sum of O_m/(2m(2m+1)) = zeta(2)/4."""
    return ZExpr.zeta(2, Fraction(1, 4))


def eval_base_T(j: int) -> ZExpr:
    """T_j = sum_{m,n>=0} 1/((2m+1)(2n+1)(2m+2n+j)) for j = 1, 2, 3.

    T_1 = zeta(2), T_2 = 7 zeta(3)/8, T_3 = zeta(2)/2.
    """
    if j == 1:
        return ZExpr.zeta(2)
    if j == 2:
        return ZExpr.zeta(3, Fraction(7, 8))
    if j == 3:
        return ZExpr.zeta(2, Fraction(1, 2))
    raise ValueError(f"base T index must be 1, 2 or 3, got {j}")


def eval_halfint(v: str) -> ZExpr:
    """Half-integer double sums over m, n >= 0.

    (a) 1/((m+1/2)(n+1/2)(m+n+1/2)(m+n+1))          = 16 zeta(2) - 14 zeta(3)
    (b) 1/((m+1/2)(n+1/2)(m+n+1)(m+n+3/2))          = 14 zeta(3) - 8 zeta(2)
    (c) 1/((m+1/2)(n+1/2)(m+n+1/2)(m+n+1)(m+n+3/2)) = 24 zeta(2) - 28 zeta(3)

    Derived from the T-sums: each factor (x+1/2) contributes a factor 2
    after clearing halves, so a = 16(T1-T2) and b = 16(T2-T3); the c sum
    telescopes across the unit gap between its outer factors, c = a - b.
    The tests check the derived combinations against the known ones above,
    so a transcription slip in either place cannot survive.
    """
    if v not in ("a", "b", "c"):
        raise ValueError(f"half-integer variant must be a, b or c, got {v!r}")
    t1, t2, t3 = eval_base_T(1), eval_base_T(2), eval_base_T(3)
    derived = {
        "a": 16 * (t1 - t2),
        "b": 16 * (t2 - t3),
    }
    derived["c"] = derived["a"] - derived["b"]
    return derived[v]


def eval_aux(which: str) -> ZExpr:
    """Auxiliary sums used inside the even/odd splitting proofs.

    EvenOddAux = sum 1/(2m(2m+1)) = 1 - ln2 (telescoped alternating ln2 tail);
    OddSquares = sum_{k>=0} 1/(2k+1)^2 = 3 zeta(2)/4;
    BInter     = the intermediate B with A = zeta(2):
                 B = A - (3/2) zeta(2) + 1 = 1 - zeta(2)/2.
    """
    if which == "EvenOddAux":
        return ZExpr([(UNIT, 1), (LN2, -1)])
    if which == "OddSquares":
        return ZExpr.zeta(2, Fraction(3, 4))
    if which == "BInter":
        a_value = ZExpr.zeta(2)
        return a_value - ZExpr.zeta(2, Fraction(3, 2)) + ZExpr.rational(1)
    raise ValueError(f"unknown auxiliary sum {which!r}")


def ln_series_via_b_path() -> ZExpr:
    """The ln-series recomputed through its proof decomposition: 2(B + EvenOddAux).

    Must coincide with eval_ln_series(); the suite checks both routes.
    """
    return 2 * (eval_aux("BInter") + eval_aux("EvenOddAux"))


def on_series_via_b_path() -> ZExpr:
    """The O_m-series through the same B: B - 1 + (3/4) zeta(2) = zeta(2)/4."""
    return eval_aux("BInter") - ZExpr.rational(1) + ZExpr.zeta(2, Fraction(3, 4))


def closed_form_of(spec: SeriesSpec) -> ZExpr:
    """Closed form for any catalog spec; TornheimRaw is oracle-only and rejected."""
    closed = spec.family.closed
    if closed is None:
        raise ValueError(f"{spec} has no closed form (oracle-only family)")
    return closed(*spec.args)
