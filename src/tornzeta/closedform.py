"""The A-family alternating sums, aXL's harmonic form and the proof-path derivations.

Each value is a ``ZExpr`` over the basis {1, ln2, zeta(k), pi^k}.  The
fixed closed forms live in their ``FAMILIES`` rows in ``series``; this
module keeps the ones that take an algorithm, the proof-path references
that the tests compare those rows against, and ``closed_form_of``, which
gives any spec's closed form.

The alternating binomial sums are evaluated in exact rational arithmetic
throughout: their terms grow like C(s-1, s/2) while the value stays O(1),
so a floating-point route would lose every significant digit long before
s = 20.  There is deliberately no float fallback here.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import comb, factorial
from typing import TYPE_CHECKING

from .exact import harmonic, harmonic_gen
from .zexpr import LN2, UNIT, ZExpr

if TYPE_CHECKING:
    from .series import SeriesSpec


@cache
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
        acc += Fraction((-1) ** j * comb(s - 1, j), (j + 1) ** (n + 1))
    return ZExpr.rational(factorial(n) * acc)


@cache
def eval_aXL(k: int) -> ZExpr:
    """Sum over m of H_{m+k}/(m(m+k)): 2 zeta(3) at k = 0, else (H_k^2+H_k^(2))/k."""
    if k < 0:
        raise ValueError(f"need k >= 0, got k={k}")
    if k == 0:
        return ZExpr.zeta(3, 2)
    hk = harmonic(k)
    return ZExpr.rational((hk * hk + harmonic_gen(k, 2)) / k)


# The proofs' intermediate sums, written apart from their catalog rows (which
# import this module): B = A - (3/2) zeta(2) + 1 with A = zeta(2), and the
# telescoped alternating ln2 tail sum 1/(2m(2m+1)) = 1 - ln2.
_B = ZExpr.zeta(2) - ZExpr.zeta(2, Fraction(3, 2)) + ZExpr.rational(1)
_EVEN_ODD = ZExpr([(UNIT, 1), (LN2, -1)])


def ln_series_via_b_path() -> ZExpr:
    """The ln-series recomputed through its proof decomposition: 2(B + evenodd).

    Must coincide with the ln row's closed form; the suite checks both routes.
    """
    return 2 * (_B + _EVEN_ODD)


def on_series_via_b_path() -> ZExpr:
    """The O_m-series through the same B: B - 1 + (3/4) zeta(2) = zeta(2)/4."""
    return _B - ZExpr.rational(1) + ZExpr.zeta(2, Fraction(3, 4))


def closed_form_of(spec: SeriesSpec) -> ZExpr:
    """Closed form for any catalog spec; tornheim is oracle-only and rejected."""
    closed = spec.family.closed
    if closed is None:
        raise ValueError(f"{spec} has no closed form (oracle-only family)")
    return closed(*spec.args)
