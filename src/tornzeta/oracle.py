"""Numeric oracles: constants, series summation, tail bounds, quadrature.

Three independent routes produce high-precision numeric values for each
catalog series:

* ``oracle_raw`` sums the defining multi-index form over a box cutoff;
* ``oracle_diagonal`` sums the single-index regrouped form (indices
  grouped by their total) with O(1) incremental harmonic updates;
* ``oracle_quadrature`` integrates the log-power integral representation
  of the A-family with tanh-sinh nodes.

Series accumulation uses scaled integer (fixed-point) arithmetic: every
term is floored onto a 2^prec grid and added exactly, so a run is
bit-reproducible and the only error is one downward ulp per term.  With
prec about 3.32*digits + 64 bits, a 10^6-term sum stays ~1e-60 below the
true partial sum at the default 50 digits, far beneath every tolerance
used here.
"""

from __future__ import annotations

import math
import os
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction

from mpmath import mp

from .exact import bernoulli, harmonic, harmonic_gen, odd_harmonic
from .series import SeriesSpec
from .zexpr import ZExpr

_GUARD_BITS = 64
# raw boxes are quadratic/cubic in the cutoff; refuse runaway requests
_RAW_CAP_2D = 5000
_RAW_CAP_3D = 400


def default_digits() -> int:
    """Working precision in decimal digits; TORNZETA_DIGITS overrides the 50 default."""
    raw = os.environ.get("TORNZETA_DIGITS")
    if raw is None:
        return 50
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"TORNZETA_DIGITS must be an integer, got {raw!r}") from None


@dataclass(frozen=True)
class NumericCfg:
    """Oracle configuration.

    digits: working precision (>= 30); n_max: series cutoff (>= 10);
    quad_levels: max tanh-sinh halvings (3..16); method: raw | diagonal |
    quadrature.
    """

    digits: int = field(default_factory=default_digits)
    n_max: int = 10**6
    quad_levels: int = 10
    method: str = "diagonal"

    def __post_init__(self) -> None:
        if self.digits < 30:
            raise ValueError(f"digits must be >= 30, got {self.digits}")
        if self.n_max < 10:
            raise ValueError(f"n_max must be >= 10, got {self.n_max}")
        if not 3 <= self.quad_levels <= 16:
            raise ValueError(f"quad_levels must be in 3..16, got {self.quad_levels}")
        if self.method not in ("raw", "diagonal", "quadrature"):
            raise ValueError(f"unknown method {self.method!r}")


@dataclass(frozen=True)
class OracleResult:
    value: object  # mpf
    method: str
    n_used: int | None
    levels_used: int | None
    tail_bound: object  # mpf, 0 for quadrature
    error_estimate: object  # mpf, 0 for summation methods
    elapsed: float
    level_estimates: tuple = ()


class NoTailBound(Exception):
    """Marker: no certified tail bound is available for this spec."""


class OracleError(Exception):
    """Oracle could not produce a trustworthy value (e.g. quadrature stall).

    ``partial`` carries the best available OracleResult, if any.
    """

    def __init__(self, message: str, partial: OracleResult | None = None) -> None:
        super().__init__(message)
        self.partial = partial


# ---------------------------------------------------------------------------
# constants

_const_cache: dict[tuple, object] = {}
_const_lock = threading.Lock()


def _cached_const(key, compute):
    val = _const_cache.get(key)
    if val is None:
        with _const_lock:
            val = _const_cache.get(key)
            if val is None:
                val = compute()
                _const_cache[key] = val
    return val


def _check_digits(digits: int) -> None:
    if digits < 30:
        raise ValueError(f"precision below 30 digits is not supported, got {digits}")


def const_pi(digits: int):
    """pi at the requested precision (delegated to the mpfloat backend)."""
    _check_digits(digits)

    def compute():
        with mp.workdps(digits + 10):
            return +mp.pi

    return _cached_const(("pi", digits), compute)


def const_ln2(digits: int):
    """ln 2 = 2 atanh(1/3), summed as 2 sum_{i>=0} (1/9)^i / (3 (2i+1))."""
    _check_digits(digits)

    def compute():
        with mp.workdps(digits + 10):
            target = mp.mpf(10) ** (-(digits + 8))
            x2 = mp.mpf(1) / 9
            power = mp.mpf(1) / 3
            acc = mp.mpf(0)
            i = 0
            while True:
                term = power / (2 * i + 1)
                acc += term
                if term < target:
                    break
                power *= x2
                i += 1
            return +(2 * acc)

    return _cached_const(("ln2", digits), compute)


def const_zeta(k: int, digits: int):
    """zeta(k) by Euler-Maclaurin with M = 2*digits.

    acc = sum_{i<M} i^-k + M^(1-k)/(k-1) + M^-k/2
        + sum_i B_{2i}/(2i)! * k(k+1)...(k+2i-2) * M^(1-k-2i),
    i.e. the tail from M onward replaced by its integral, half the boundary
    term, and derivative corrections added until below 10^-(digits+5).  The
    correction series is asymptotic; a growing term stops the loop before
    it can poison the sum (never reached with M = 2*digits at supported
    precisions).
    """
    if k < 2:
        raise ValueError(f"zeta needs k >= 2, got {k}")
    _check_digits(digits)

    def compute():
        with mp.workdps(digits + 10):
            big_m = 2 * digits
            acc = mp.mpf(0)
            for i in range(1, big_m):
                acc += mp.mpf(1) / mp.mpf(i) ** k
            m_ = mp.mpf(big_m)
            acc += m_ ** (1 - k) / (k - 1) + m_ ** (-k) / 2
            target = mp.mpf(10) ** (-(digits + 5))
            rising = mp.mpf(k)
            power = m_ ** (-k - 1)
            prev = None
            i = 1
            while True:
                b = bernoulli(2 * i)
                corr = (
                    mp.mpf(b.numerator)
                    / b.denominator
                    / math.factorial(2 * i)
                    * rising
                    * power
                )
                if prev is not None and abs(corr) >= prev:
                    break
                acc += corr
                mag = abs(corr)
                if mag < target:
                    break
                prev = mag
                rising *= (k + 2 * i - 1) * (k + 2 * i)
                power /= m_ * m_
                i += 1
            return +acc

    return _cached_const(("zeta", k, digits), compute)


def zx_numeric(a: ZExpr, digits: int):
    """Numeric value of a symbolic combination, summed in canonical term order."""
    _check_digits(digits)
    with mp.workdps(digits + 10):
        acc = mp.mpf(0)
        for sym, coeff in a.terms():
            if sym.kind == "unit":
                v = mp.mpf(1)
            elif sym.kind == "ln2":
                v = const_ln2(digits)
            elif sym.kind == "zeta":
                v = const_zeta(sym.k, digits)
            else:
                v = const_pi(digits) ** sym.k
            acc += mp.mpf(coeff.numerator) / coeff.denominator * v
        return +acc


# ---------------------------------------------------------------------------
# fixed-point series engines
#
# Every engine takes ONE = 1 << prec and returns the scaled integer partial
# sum.  Loops are deliberately hand-specialized: these run up to 10^6
# iterations and a branch or attribute lookup per term is visible.


def _prec_bits(digits: int) -> int:
    return int(digits * 3.3219281) + _GUARD_BITS


def _fx_value(s_int: int, prec: int, digits: int):
    with mp.workdps(digits + 10):
        return mp.mpf(s_int) / mp.mpf(1 << prec)


def _fx_harmonic_prefix(upto: int, one: int) -> list[int]:
    h = [0] * (upto + 1)
    acc = 0
    for i in range(1, upto + 1):
        acc += one // i
        h[i] = acc
    return h


def _diag_an(n: int, s: int, n_max: int, one: int, prec: int) -> int:
    """Regrouped A-family: sum_G c_{n-1}(G) H_{G+s}/(G+s), G = total index.

    c_j(G) counts compositions of G into j parts weighted by 1/(product):
    c_1(G) = 1/G, c_2(G) = 2 H_{G-1}/G, and generally c_j(G) = j m_{j-1}/G
    where m_i is the degree-i monomial symmetric in the power sums
    p_i = H_{G-1}^(i) (m_1 = p1, m_2 = p1^2 - p2, m_3 = p1^3 - 3 p1 p2 + 2 p3,
    m_4 = p1^4 - 6 p1^2 p2 + 3 p2^2 + 8 p1 p3 - 6 p4).  The power sums grow
    incrementally, so each term costs O(1) big-int operations.
    """
    j = n - 1
    acc = 0
    if j == 1:
        hs = sum(one // i for i in range(1, s + 1))
        for g in range(1, n_max + 1):
            hs += one // (g + s)
            acc += hs // (g * (g + s))
        return acc
    if j == 2:
        hs = sum(one // i for i in range(1, s + 2))
        hm = 0
        for g in range(2, n_max + 1):
            hs += one // (g + s)
            hm += one // (g - 1)
            acc += (2 * ((hs * hm) >> prec)) // (g * (g + s))
        return acc
    p1 = p2 = p3 = p4 = 0
    for kk in range(1, j - 1):
        p1 += one // kk
        p2 += one // (kk * kk)
        p3 += one // (kk**3)
        p4 += one // (kk**4)
    hs = sum(one // i for i in range(1, j + s))
    for g in range(j, n_max + 1):
        kk = g - 1
        p1 += one // kk
        p2 += one // (kk * kk)
        if j >= 4:
            p3 += one // (kk**3)
            if j >= 5:
                p4 += one // (kk**4)
        hs += one // (g + s)
        if j == 3:
            mono = ((p1 * p1) >> prec) - p2
        elif j == 4:
            p1sq = (p1 * p1) >> prec
            mono = ((p1sq * p1) >> prec) - 3 * ((p1 * p2) >> prec) + 2 * p3
        else:
            p1sq = (p1 * p1) >> prec
            mono = (
                ((p1sq * p1sq) >> prec)
                - 6 * ((p1sq * p2) >> prec)
                + 3 * ((p2 * p2) >> prec)
                + 8 * ((p1 * p3) >> prec)
                - 6 * p4
            )
        c = (j * mono) // g
        acc += ((c * hs) >> prec) // (g + s)
    return acc


def _diag_s111(n_max: int, one: int) -> int:
    acc = 0
    hm = 0
    for g in range(2, n_max + 1):
        hm += one // (g - 1)
        acc += (2 * hm) // (g * g)
    return acc


def _diag_base_t(j: int, n_max: int, one: int) -> int:
    acc = 0
    o = 0
    for g in range(0, n_max + 1):
        o += one // (2 * g + 1)
        acc += o // ((g + 1) * (2 * g + j))
    return acc


def _diag_halfint(variant: str, n_max: int, one: int) -> int:
    acc = 0
    o = 0
    if variant == "a":
        for g in range(0, n_max + 1):
            o += one // (2 * g + 1)
            acc += (16 * o) // ((g + 1) * (2 * g + 1) * (2 * g + 2))
    elif variant == "b":
        for g in range(0, n_max + 1):
            o += one // (2 * g + 1)
            acc += (16 * o) // ((g + 1) * (2 * g + 2) * (2 * g + 3))
    else:
        for g in range(0, n_max + 1):
            o += one // (2 * g + 1)
            acc += (32 * o) // ((g + 1) * (2 * g + 1) * (2 * g + 2) * (2 * g + 3))
    return acc


def _diag_binter(n_max: int, one: int) -> int:
    acc = 0
    o = one  # O_1
    for g in range(2, n_max + 1):
        o += one // (2 * g - 1)
        acc += (o - one) // ((g + 1) * (2 * g + 1))
    return acc


def _sum_ln_series(n_max: int, one: int) -> int:
    acc = 0
    h2 = one  # H_{2m+1}, starting from H_1
    hm = 0
    for m in range(1, n_max + 1):
        h2 += one // (2 * m) + one // (2 * m + 1)
        hm += one // m
        acc += (2 * h2 - hm) // (2 * m * (2 * m + 1))
    return acc


def _sum_on_series(n_max: int, one: int) -> int:
    acc = 0
    o = 0
    for m in range(1, n_max + 1):
        o += one // (2 * m - 1)
        acc += o // (2 * m * (2 * m + 1))
    return acc


def _sum_evenodd(n_max: int, one: int) -> int:
    acc = 0
    for m in range(1, n_max + 1):
        acc += one // (2 * m * (2 * m + 1))
    return acc


def _sum_oddsq(n_max: int, one: int) -> int:
    acc = 0
    for k in range(n_max):
        acc += one // ((2 * k + 1) ** 2)
    return acc


def _raw_a3(s: int, box: int, one: int) -> int:
    htab = _fx_harmonic_prefix(2 * box + s, one)
    acc = 0
    for m in range(1, box + 1):
        for n in range(1, box + 1):
            t = m + n + s
            acc += htab[t] // (m * n * t)
    return acc


def _raw_an(n: int, s: int, box: int, one: int) -> int:
    dims = n - 1
    htab = _fx_harmonic_prefix(dims * box + s, one)
    acc = 0
    for prod, tot in _box_tuples(dims, box):
        t = tot + s
        acc += htab[t] // (prod * t)
    return acc


def _box_tuples(dims: int, box: int):
    # (product, total) over [1..box]^dims, lexicographic
    if dims == 1:
        for m in range(1, box + 1):
            yield m, m
    else:
        for m in range(1, box + 1):
            for prod, tot in _box_tuples(dims - 1, box):
                yield m * prod, m + tot


def _raw_s111(box: int, one: int) -> int:
    acc = 0
    for m in range(1, box + 1):
        for n in range(1, box + 1):
            acc += one // (m * n * (m + n))
    return acc


def _raw_tornheim(a: int, b: int, c: int, box: int, one: int) -> int:
    acc = 0
    for m in range(1, box + 1):
        ma = m**a
        for n in range(1, box + 1):
            acc += one // (ma * n**b * (m + n) ** c)
    return acc


def _raw_base_t(j: int, box: int, one: int) -> int:
    acc = 0
    for m in range(0, box + 1):
        dm = 2 * m + 1
        for n in range(0, box + 1):
            acc += one // (dm * (2 * n + 1) * (2 * m + 2 * n + j))
    return acc


def _raw_halfint(variant: str, box: int, one: int) -> int:
    acc = 0
    for m in range(0, box + 1):
        dm = 2 * m + 1
        for n in range(0, box + 1):
            dn = 2 * n + 1
            g2 = 2 * (m + n)
            if variant == "a":
                acc += (16 * one) // (dm * dn * (g2 + 1) * (g2 + 2))
            elif variant == "b":
                acc += (16 * one) // (dm * dn * (g2 + 2) * (g2 + 3))
            else:
                acc += (32 * one) // (dm * dn * (g2 + 1) * (g2 + 2) * (g2 + 3))
    return acc


def _raw_binter(box: int, one: int) -> int:
    acc = 0
    for m in range(1, box + 1):
        dm = 2 * m + 1
        for n in range(1, box + 1):
            g = m + n
            acc += one // (dm * (g + 1) * (2 * g + 1))
    return acc


_SINGLE_SUM_KINDS = ("aXL", "LnSeries", "OnSeries", "EvenOddAux", "OddSquares")


def _single_sum_fixed(spec: SeriesSpec, n_max: int, one: int, prec: int) -> int:
    kind = spec.kind
    if kind == "aXL":
        return _diag_an(2, spec.k, n_max, one, prec)
    if kind == "LnSeries":
        return _sum_ln_series(n_max, one)
    if kind == "OnSeries":
        return _sum_on_series(n_max, one)
    if kind == "EvenOddAux":
        return _sum_evenodd(n_max, one)
    return _sum_oddsq(n_max, one)


# ---------------------------------------------------------------------------
# exact (rational) partial sums
#
# Used by the reduction-soundness checks: the diagonal regrouping must be
# an identity, so diagonal and defining-form partial sums over matching
# index sets agree exactly as Fractions, not merely numerically.


def _conv_weight_exact(j: int, g: int) -> Fraction:
    """c_j(g): composition-weighted 1/product, via power sums of 1/k."""
    if g < j:
        return Fraction(0)
    if j == 1:
        return Fraction(1, g)
    p1 = harmonic(g - 1)
    if j == 2:
        return 2 * p1 / g
    p2 = harmonic_gen(g - 1, 2)
    if j == 3:
        return 3 * (p1 * p1 - p2) / g
    p3 = harmonic_gen(g - 1, 3)
    if j == 4:
        return 4 * (p1**3 - 3 * p1 * p2 + 2 * p3) / g
    p4 = harmonic_gen(g - 1, 4)
    if j == 5:
        return (
            5 * (p1**4 - 6 * p1 * p1 * p2 + 3 * p2 * p2 + 8 * p1 * p3 - 6 * p4) / g
        )
    raise ValueError(f"convolution weights supported for j <= 5, got j={j}")


def diagonal_partial_exact(spec: SeriesSpec, cutoff: int) -> Fraction:
    """Exact partial sum of the single-index regrouped form, totals <= cutoff."""
    kind = spec.kind
    acc = Fraction(0)
    if kind in ("A3", "An"):
        n = 3 if kind == "A3" else spec.n
        s = spec.s
        j = n - 1
        for g in range(j, cutoff + 1):
            acc += _conv_weight_exact(j, g) * harmonic(g + s) / (g + s)
        return acc
    if kind == "S111":
        for g in range(2, cutoff + 1):
            acc += 2 * harmonic(g - 1) / Fraction(g * g)
        return acc
    if kind == "BaseT":
        for g in range(0, cutoff + 1):
            acc += odd_harmonic(g + 1) / ((g + 1) * (2 * g + spec.j))
        return acc
    if kind == "HalfInt":
        for g in range(0, cutoff + 1):
            o = odd_harmonic(g + 1)
            if spec.variant == "a":
                acc += 16 * o / ((g + 1) * (2 * g + 1) * (2 * g + 2))
            elif spec.variant == "b":
                acc += 16 * o / ((g + 1) * (2 * g + 2) * (2 * g + 3))
            else:
                acc += 32 * o / ((g + 1) * (2 * g + 1) * (2 * g + 2) * (2 * g + 3))
        return acc
    if kind == "BInter":
        for g in range(2, cutoff + 1):
            acc += (odd_harmonic(g) - 1) / Fraction((g + 1) * (2 * g + 1))
        return acc
    if kind == "aXL":
        k = spec.k
        for m in range(1, cutoff + 1):
            acc += harmonic(m + k) / (m * (m + k))
        return acc
    if kind == "LnSeries":
        for m in range(1, cutoff + 1):
            acc += (2 * harmonic(2 * m + 1) - harmonic(m)) / (2 * m * (2 * m + 1))
        return acc
    if kind == "OnSeries":
        for m in range(1, cutoff + 1):
            acc += odd_harmonic(m) / (2 * m * (2 * m + 1))
        return acc
    if kind == "EvenOddAux":
        for m in range(1, cutoff + 1):
            acc += Fraction(1, 2 * m * (2 * m + 1))
        return acc
    if kind == "OddSquares":
        for k in range(cutoff):
            acc += Fraction(1, (2 * k + 1) ** 2)
        return acc
    raise ValueError(f"no diagonal form for {spec}")


def triangle_partial_exact(spec: SeriesSpec, cutoff: int) -> Fraction:
    """Exact defining-form sum over the index set matching the diagonal cutoff.

    For double sums that is the triangle (or simplex) of index totals
    <= cutoff; for single sums it coincides with the diagonal partial.
    """
    kind = spec.kind
    acc = Fraction(0)
    if kind in ("A3", "An"):
        n = 3 if kind == "A3" else spec.n
        s = spec.s
        for prod, tot in _simplex_tuples(n - 1, cutoff):
            t = tot + s
            acc += harmonic(t) / (prod * t)
        return acc
    if kind == "S111":
        for prod, tot in _simplex_tuples(2, cutoff):
            acc += Fraction(1, prod * tot)
        return acc
    if kind == "BaseT":
        for m in range(0, cutoff + 1):
            for n in range(0, cutoff - m + 1):
                acc += Fraction(1, (2 * m + 1) * (2 * n + 1) * (2 * m + 2 * n + spec.j))
        return acc
    if kind == "HalfInt":
        for m in range(0, cutoff + 1):
            dm = 2 * m + 1
            for n in range(0, cutoff - m + 1):
                dn = 2 * n + 1
                g2 = 2 * (m + n)
                if spec.variant == "a":
                    acc += Fraction(16, dm * dn * (g2 + 1) * (g2 + 2))
                elif spec.variant == "b":
                    acc += Fraction(16, dm * dn * (g2 + 2) * (g2 + 3))
                else:
                    acc += Fraction(32, dm * dn * (g2 + 1) * (g2 + 2) * (g2 + 3))
        return acc
    if kind == "BInter":
        for m in range(1, cutoff):
            for n in range(1, cutoff - m + 1):
                g = m + n
                acc += Fraction(1, (2 * m + 1) * (g + 1) * (2 * g + 1))
        return acc
    if kind in _SINGLE_SUM_KINDS:
        return diagonal_partial_exact(spec, cutoff)
    raise ValueError(f"no reduced form to match for {spec}")


def _simplex_tuples(dims: int, budget: int):
    # (product, total) over tuples of positive ints with total <= budget
    if dims == 1:
        for m in range(1, budget + 1):
            yield m, m
    else:
        for m in range(1, budget - dims + 2):
            for prod, tot in _simplex_tuples(dims - 1, budget - m):
                yield m * prod, tot + m


def box_partial_exact(spec: SeriesSpec, box: int) -> Fraction:
    """Exact defining-form sum over the raw box cutoff (what oracle_raw sums)."""
    kind = spec.kind
    acc = Fraction(0)
    if kind in ("A3", "An"):
        n = 3 if kind == "A3" else spec.n
        s = spec.s
        for prod, tot in _box_tuples(n - 1, box):
            t = tot + s
            acc += harmonic(t) / (prod * t)
        return acc
    if kind == "S111":
        for m in range(1, box + 1):
            for n in range(1, box + 1):
                acc += Fraction(1, m * n * (m + n))
        return acc
    if kind == "TornheimRaw":
        a, b, c = spec.a, spec.b, spec.c
        for m in range(1, box + 1):
            for n in range(1, box + 1):
                acc += Fraction(1, m**a * n**b * (m + n) ** c)
        return acc
    if kind == "BaseT":
        for m in range(0, box + 1):
            for n in range(0, box + 1):
                acc += Fraction(1, (2 * m + 1) * (2 * n + 1) * (2 * m + 2 * n + spec.j))
        return acc
    if kind == "HalfInt":
        for m in range(0, box + 1):
            dm = 2 * m + 1
            for n in range(0, box + 1):
                dn = 2 * n + 1
                g2 = 2 * (m + n)
                if spec.variant == "a":
                    acc += Fraction(16, dm * dn * (g2 + 1) * (g2 + 2))
                elif spec.variant == "b":
                    acc += Fraction(16, dm * dn * (g2 + 2) * (g2 + 3))
                else:
                    acc += Fraction(32, dm * dn * (g2 + 1) * (g2 + 2) * (g2 + 3))
        return acc
    if kind == "BInter":
        for m in range(1, box + 1):
            for n in range(1, box + 1):
                g = m + n
                acc += Fraction(1, (2 * m + 1) * (g + 1) * (2 * g + 1))
        return acc
    if kind in _SINGLE_SUM_KINDS:
        return diagonal_partial_exact(spec, box)
    raise ValueError(f"no raw form for {spec}")


# ---------------------------------------------------------------------------
# tail bounds
#
# Each family has a certified majorant A (ln x + c)^k / x^p for its reduced
# terms past the cutoff; the discarded tail is then at most the closed-form
# integral from N to infinity, by monotone integral comparison.  Constants
# are over-estimates chosen for provability, not tightness; the tail-honesty
# tests pin them against true remainders.


def _tail_params(spec: SeriesSpec) -> tuple[Fraction, float, int, int]:
    kind = spec.kind
    if kind in ("A3", "An"):
        n = 3 if kind == "A3" else spec.n
        # c_j(G) <= 2^(j-1) H_G^(j-1)/G and H_{G+s} <= ln G + 2 for s <= G
        return Fraction(2 ** (n - 2)), 2.0, n - 1, 2
    if kind == "aXL":
        return Fraction(1), 2.0, 1, 2
    if kind == "S111":
        return Fraction(2), 2.0, 1, 2
    if kind == "TornheimRaw":
        # diagonal group sum <= 2 H_{G-1}/G^(1+c) for a, b >= 1
        return Fraction(2), 2.0, 1, 1 + spec.c
    if kind == "LnSeries":
        # 2 H_{2m+1} - H_m <= ln m + 3.2
        return Fraction(1, 4), 3.2, 1, 2
    if kind == "OnSeries":
        # O_m <= (ln m + 3.4)/2
        return Fraction(1, 8), 3.4, 1, 2
    if kind == "EvenOddAux":
        return Fraction(1, 4), 0.0, 0, 2
    if kind == "OddSquares":
        return Fraction(1, 4), 0.0, 0, 2
    if kind == "BInter":
        # O_G - 1 <= (ln G + 1.4)/2
        return Fraction(1, 4), 2.0, 1, 2
    if kind == "BaseT":
        return Fraction(1, 4), 3.5, 1, 2
    if kind == "HalfInt":
        if spec.variant in ("a", "b"):
            return Fraction(2), 3.5, 1, 3
        return Fraction(2), 3.5, 1, 4
    raise NoTailBound(f"no tail bound for {spec}")


def tail_estimate(spec: SeriesSpec, n_cut: int):
    """Upper bound on the tail discarded beyond cutoff n_cut.

    Integral comparison: sum_{G>N} A (ln G + c)^k / G^p <= A I_k(N) with
    I_0 = N^(1-p)/(p-1) and I_k = (ln N + c)^k N^(1-p)/(p-1) + k I_{k-1}/(p-1).
    Raw boxes contain the triangle of the same cutoff, so the bound covers
    both summation methods.  Raises NoTailBound for specs without a
    certified majorant.
    """
    if n_cut < 10:
        raise ValueError(f"tail bounds need cutoff >= 10, got {n_cut}")
    offset = getattr(spec, "s", None) or getattr(spec, "k", None) or 0
    if offset > n_cut:
        raise ValueError(f"tail bound needs cutoff >= shift {offset}, got {n_cut}")
    a_const, c_log, k_pow, p_pow = _tail_params(spec)
    with mp.workdps(30):
        base = mp.mpf(n_cut) ** (1 - p_pow) / (p_pow - 1)
        ln_c = mp.log(n_cut) + c_log
        integral = base
        for i in range(1, k_pow + 1):
            integral = ln_c**i * base + i * integral / (p_pow - 1)
        return +(mp.mpf(a_const.numerator) / a_const.denominator * integral)


# ---------------------------------------------------------------------------
# oracle entry points


def oracle_raw(spec: SeriesSpec, cfg: NumericCfg) -> OracleResult:
    """Truncated defining-form sum over the box [1..N]^d (or [0..N]^d for
    the half-odd-denominator families), N = cfg.n_max."""
    t0 = time.perf_counter()
    kind = spec.kind
    box = cfg.n_max
    dims = (spec.n - 1) if kind == "An" else (2 if kind in (
        "A3", "S111", "TornheimRaw", "BaseT", "HalfInt", "BInter") else 1)
    if dims >= 3 and box > _RAW_CAP_3D:
        raise ValueError(
            f"raw box {box}^{dims} is out of reach; cap {_RAW_CAP_3D} (use diagonal)"
        )
    if dims == 2 and box > _RAW_CAP_2D:
        raise ValueError(
            f"raw box {box}^2 is out of reach; cap {_RAW_CAP_2D} (use diagonal)"
        )
    prec = _prec_bits(cfg.digits)
    one = 1 << prec
    if kind == "A3":
        acc = _raw_a3(spec.s, box, one)
    elif kind == "An":
        acc = _raw_an(spec.n, spec.s, box, one)
    elif kind == "S111":
        acc = _raw_s111(box, one)
    elif kind == "TornheimRaw":
        acc = _raw_tornheim(spec.a, spec.b, spec.c, box, one)
    elif kind == "BaseT":
        acc = _raw_base_t(spec.j, box, one)
    elif kind == "HalfInt":
        acc = _raw_halfint(spec.variant, box, one)
    elif kind == "BInter":
        acc = _raw_binter(box, one)
    elif kind in _SINGLE_SUM_KINDS:
        acc = _single_sum_fixed(spec, box, one, prec)
    else:
        raise ValueError(f"no raw summation for {spec}")
    tail = tail_estimate(spec, box)
    value = _fx_value(acc, prec, cfg.digits)
    with mp.workdps(cfg.digits + 10):
        zero = mp.mpf(0)
    return OracleResult(
        value=value,
        method="raw",
        n_used=box,
        levels_used=None,
        tail_bound=tail,
        error_estimate=zero,
        elapsed=time.perf_counter() - t0,
    )


def oracle_diagonal(spec: SeriesSpec, cfg: NumericCfg) -> OracleResult:
    """Single-index regrouped sum to cfg.n_max with incremental harmonic state."""
    t0 = time.perf_counter()
    kind = spec.kind
    if kind == "TornheimRaw":
        raise ValueError("general Tornheim weights have no regrouped single sum here")
    if kind == "An" and spec.n > 6:
        raise ValueError(f"regrouped summation supports n <= 6, got n={spec.n}")
    prec = _prec_bits(cfg.digits)
    one = 1 << prec
    n_max = cfg.n_max
    if kind == "A3":
        acc = _diag_an(3, spec.s, n_max, one, prec)
    elif kind == "An":
        acc = _diag_an(spec.n, spec.s, n_max, one, prec)
    elif kind == "S111":
        acc = _diag_s111(n_max, one)
    elif kind == "BaseT":
        acc = _diag_base_t(spec.j, n_max, one)
    elif kind == "HalfInt":
        acc = _diag_halfint(spec.variant, n_max, one)
    elif kind == "BInter":
        acc = _diag_binter(n_max, one)
    elif kind in _SINGLE_SUM_KINDS:
        acc = _single_sum_fixed(spec, n_max, one, prec)
    else:
        raise ValueError(f"no diagonal summation for {spec}")
    tail = tail_estimate(spec, n_max)
    value = _fx_value(acc, prec, cfg.digits)
    with mp.workdps(cfg.digits + 10):
        zero = mp.mpf(0)
    return OracleResult(
        value=value,
        method="diagonal",
        n_used=n_max,
        levels_used=None,
        tail_bound=tail,
        error_estimate=zero,
        elapsed=time.perf_counter() - t0,
    )


def _tanh_sinh_node(w):
    """(t, 1-t, -ln t, -ln(1-t)) at t = (1 + tanh w)/2 for w > 0.

    With E = exp(-2w) < 1: t = 1/(1+E), 1-t = E*t, -ln t = log1p(E) and
    -ln(1-t) = 2w + log1p(E).  None of the four forms cancels, so the
    tail where t rounds to 1 keeps full relative accuracy in 1-t and both
    logs, at one exp and one log1p per node.
    """
    e = mp.exp(-2 * w)
    t = 1 / (1 + e)
    lt = mp.log1p(e)
    return t, e * t, lt, 2 * w + lt


def oracle_quadrature(spec: SeriesSpec, cfg: NumericCfg) -> OracleResult:
    """Tanh-sinh integration of the A-family integral representation.

    A_n(s) = (-1)^n Int_0^1 (1-t)^(s-1) ln(t)^n dt.  The substitution
    t = (1 + tanh((pi/2) sinh u))/2 sends both endpoints to double-
    exponentially decaying tails, and 1-t is available without
    cancellation as the mirrored node, so the s-1 power and the log are
    both evaluated stably (``_tanh_sinh_node``, the E = exp(-2w) form).
    Levels halve the step and reuse prior nodes; the level-to-level
    difference is the reported error estimate.

    Within a level the nodes are u = j*h with j stepping by 1 at level 0
    and over the odd j after it, so e^u advances by one multiplication
    with exp(stride*h), computed once per level, and sinh u and cosh u
    follow from e^u and 1/e^u.  Each multiplication adds at most an ulp of
    relative drift to e^u.  A level takes about u_max*2^(L-1) steps,
    under 2^11 for the levels that 300 digits need and under 2^18 even at
    level 16, against the 15 guard digits (about 50 bits) of the working
    precision.
    """
    if spec.kind not in ("A3", "An"):
        raise ValueError(f"quadrature covers the A-family only, not {spec}")
    n = 3 if spec.kind == "A3" else spec.n
    s = spec.s
    t0 = time.perf_counter()
    with mp.workdps(cfg.digits + 15):
        pi_ = +mp.pi
        half_pi = pi_ / 2
        quarter_pi = pi_ / 4
        target = mp.mpf(10) ** (-(cfg.digits + 5))
        u_max = math.log(math.log(10) * (cfg.digits + 25) * 2 / math.pi) + 1.0

        def level_sum(h, stride):
            # folded +-u contributions over u = j*h for j = 1, 1+stride, ...;
            # t and 1-t swap under u -> -u
            acc = mp.mpf(0)
            eu = mp.exp(h)
            step = mp.exp(stride * h)
            j = 1
            while j * h <= u_max:
                emu = 1 / eu
                t, omt, lt, lo = _tanh_sinh_node(quarter_pi * (eu - emu))
                f = t * omt**s * lt**n + omt * t**s * lo**n
                acc += half_pi * (eu + emu) * f
                eu *= step
                j += stride
            return acc

        half = mp.mpf(1) / 2
        h = mp.mpf(1)
        total = pi_ * half ** (s + 1) * mp.log(2) ** n  # u = 0 node
        value = h * (total + level_sum(h, 1))
        estimates: list = []
        converged = False
        levels = 0
        for level in range(1, cfg.quad_levels + 1):
            h = h / 2
            new_value = value / 2 + h * level_sum(h, 2)
            est = abs(new_value - value)
            estimates.append(est)
            value = new_value
            levels = level
            if est <= target * max(1, abs(value)):
                converged = True
                break
        zero = mp.mpf(0)
        result = OracleResult(
            value=+value,
            method="quadrature",
            n_used=None,
            levels_used=levels,
            tail_bound=zero,
            error_estimate=+estimates[-1] if estimates else zero,
            elapsed=time.perf_counter() - t0,
            level_estimates=tuple(estimates),
        )
    if not converged:
        raise OracleError(
            f"quadrature stalled at level {levels} with estimate "
            f"{mp.nstr(result.error_estimate, 5)}",
            partial=result,
        )
    return result


def oracle_for(spec: SeriesSpec, cfg: NumericCfg) -> OracleResult:
    """Dispatch on cfg.method."""
    if cfg.method == "raw":
        return oracle_raw(spec, cfg)
    if cfg.method == "diagonal":
        return oracle_diagonal(spec, cfg)
    return oracle_quadrature(spec, cfg)
