"""Numeric oracles: constants, series summation, tail bounds, quadrature.

Three independent routes produce high-precision numeric values for each
catalog series:

* ``oracle_raw`` sums the defining multi-index form: once ``n_max``
  reaches N_raw (``raw_cutoff``) over the simplex of index totals <= N_raw,
  plus the diagonal route's certified tail; below N_raw over the box
  [origin..n_max]^d.  A one-index series is its own regrouping, so its raw
  route is the diagonal route;
* ``oracle_diagonal`` sums the single-index regrouped form (indices
  grouped by their total), walking the row's harmonic atoms as running
  prefix sums.  Once ``n_max`` reaches the cutoff N* (``asymptotic_cutoff``)
  it sums N* terms and adds the certified asymptotic tail of
  ``asymptotic.py``; below N* it sums n_max terms and bounds the rest by
  the ``tail_estimate`` majorant;
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

import io
import math
import os
import time
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, lru_cache, partial, reduce
from itertools import accumulate, count, islice, repeat
from operator import add, floordiv, mul, rshift
from typing import TYPE_CHECKING

from mpmath import mp
from mpmath.libmp import fzero, mpf_add, mpf_mul, mpf_pow_int, round_nearest

from .exact import bernoulli
from .zexpr import ZExpr

if TYPE_CHECKING:
    from .series import SeriesSpec

_GUARD_BITS = 64
# extra bits of the asymptotic route's grid: each fixed-point engine floors
# its terms by far less than 2^32 ulps of its own grid, so N floored terms
# stay within N 2^-prec of the exact partial sum
_TAIL_GUARD_BITS = 32
# a raw box of cutoff N over d indices sums N^d terms; refuse a runaway box
_RAW_TERM_CAP = 5000**2
# the most folded tuples (about N^d / d!^2) a raw simplex sums; past it the box stays
_RAW_TUPLE_BUDGET = 2**16


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

    digits: working precision (>= 30); n_max: the most terms a series route
    sums (>= 10), a ceiling: the diagonal route stops at N* (``asymptotic_cutoff``),
    the raw route at N_raw (``raw_cutoff``), else in a box of at most ``_RAW_TERM_CAP``
    terms; quad_levels: max tanh-sinh halvings (3..16); method: raw|diagonal|quadrature.
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


class OracleError(Exception):
    """Oracle could not produce a trustworthy value (e.g. quadrature stall).

    ``partial`` carries the best available OracleResult.
    """

    def __init__(self, message: str, partial: OracleResult) -> None:
        super().__init__(message)
        self.partial = partial


# ---------------------------------------------------------------------------
# constants


def _check_digits(digits: int) -> None:
    if digits < 30:
        raise ValueError(f"precision below 30 digits is not supported, got {digits}")


@cache
def const_pi(digits: int):
    """pi at the requested precision (delegated to the mpfloat backend)."""
    _check_digits(digits)
    with mp.workdps(digits + 10):
        return +mp.pi


@cache
def const_ln2(digits: int):
    """ln 2 = 2 atanh(1/3), summed as 2 sum_{i>=0} (1/9)^i / (3 (2i+1))."""
    _check_digits(digits)
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


@cache
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
            corr = mp.mpf(b.numerator) / b.denominator / math.factorial(2 * i) * rising * power
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


def zx_numeric(a: ZExpr, digits: int):
    """Numeric value of a symbolic combination, summed in canonical term order."""
    _check_digits(digits)
    with mp.workdps(digits + 10):
        acc = mp.mpf(0)
        for sym, coeff in a.terms():
            match sym.kind:
                case "unit":
                    v = mp.mpf(1)
                case "ln2":
                    v = const_ln2(digits)
                case "zeta":
                    v = const_zeta(sym.k, digits)
                case _:
                    v = const_pi(digits) ** sym.k
            acc += mp.mpf(coeff.numerator) / coeff.denominator * v
        return +acc


# ---------------------------------------------------------------------------
# fixed-point series engines
#
# Every engine floors each term onto an integer grid ONE and returns the
# scaled sum: 1 << prec for the oracles, a common multiple L of every
# denominator for the exact partials.  One walk driven by each row's atoms
# serves every regrouped family: the diagonal route sums at most 2^11 terms
# at 50 digits, where a hand-written loop per family saves nothing measurable.


def _prec_bits(digits: int) -> int:
    return int(digits * 3.3219281) + _GUARD_BITS


def _reciprocal_sums(one: int, step: int = 1):
    """S_0 = 0, S_1, S_2, ... with S_i = S_{i-1} + one // (1 + (i-1) step):
    the harmonic (step 1) or odd harmonic (step 2) prefix sums on the grid
    ONE, each reciprocal floored (exactly, where it lies on the grid)."""
    return accumulate(map(floordiv, repeat(one), count(1, step)), initial=0)


def _atom_values(atom: tuple, origin: int, one: int):
    """The harmonic atom's values at G = origin, origin + 1, ..."""
    match atom:
        case ("H", a, b):
            return islice(_reciprocal_sums(one), a * origin + b, None, a)
        case ("O", b):
            return islice(_reciprocal_sums(one, 2), origin + b, None)
        case ("E", j):
            # e_i(G) = e_i(G-1) + e_{i-1}(G-1)/(G-1) from e_i(1) = 0
            e = repeat(one)
            for _ in range(j):
                e = accumulate(map(floordiv, e, count(1)), initial=0)
            return islice(e, origin - 1, None)
    raise ValueError(f"unknown atom {atom!r}")


def _atoms(spec: SeriesSpec) -> tuple:
    if spec.family.atoms is None:
        raise ValueError(f"{spec} has no regrouped single sum here")
    return spec.family.atoms(*spec.args)


def _regrouped_terms(spec: SeriesSpec, one: int):
    """The row's regrouped term at G = origin, origin + 1, ... from its ``atoms``:
    (sum coeff * prod atoms) / prod (aG + b) on the grid ONE, each product of two
    atoms floored by ONE.  Every stage is an iterator, so a walk holds O(1) values."""
    terms, linear = _atoms(spec)
    origin = spec.family.origin
    # on a power of two the product floor is a shift: the same integers, but
    # CPython's // does not special-case it (0.3 against 27 us at 1000 digits)
    shift = one.bit_length() - 1
    rescale, by = (rshift, shift) if one == 1 << shift else (floordiv, one)
    parts = []
    for coeff, atoms in terms:
        # e_0 = 1 is no factor
        vals = [_atom_values(atom, origin, one) for atom in atoms if atom != ("E", 0)]
        if vals:
            part = reduce(lambda p, x: map(rescale, map(mul, p, x), repeat(by)), vals)
            parts.append(part if coeff == 1 else map(mul, repeat(coeff), part))
        else:
            parts.append(repeat(coeff * one))
    num = reduce(partial(map, add), parts)
    # prod (aG + b) over the linear factors
    dens = reduce(partial(map, mul), [count(a * origin + b, a) for a, b in linear])
    return map(floordiv, num, dens)


def _regrouped_sum(spec: SeriesSpec, n_max: int, one: int) -> int:
    """The regrouped terms at G = origin..n_max, each floored onto the grid ONE."""
    return sum(islice(_regrouped_terms(spec, one), n_max + 1 - spec.family.origin))


# ---------------------------------------------------------------------------
# the defining multi-index form
#
# A row's ``summand`` is num / (lead(m_1) ... lead(m_{d-1}) last(m_d) total(g))
# with g = m_1 + ... + m_d.  The fixed-point raw box or simplex and the
# exact triangle and box partials all walk the same tables, built once per
# call: the factors of each index value and of each total, and the (product,
# total) of every prefix m_1..m_{d-1}; the last index is one pass along them.
# Where lead and last agree the summand is symmetric (num and total depend
# on g alone) and the walk folds: it visits only m_1 <= ... <= m_d, each
# weighted by its d!/prod(run length)! orderings, which share one
# denominator and so one floored (or exact) term: the fold is exact.


def _defining_walk(spec: SeriesSpec, hi: int, top: int):
    """(num, last, tot, rows) over the indices origin..hi with total <= top:
    the last-index and total factors, and per prefix m_1..m_{d-1} a row
    (lead product, totals slice, i, first, rest): the last index runs from
    last[i], its first term weighted by first and the others by rest.  A
    plain row starts every index at origin with weight 1.  A folded one
    starts it at the index before: a prefix of k indices with w orderings,
    ending in a run of ``run`` equal values, weights a repeat w (k+1)/(run+1)
    and a larger value w (k+1), both integers."""
    fam, args = spec.family, spec.args
    origin, dims = fam.origin, fam.dims(*args)
    num, lead_f, last_f, total_f = fam.summand(*args)
    lead = [lead_f(m) for m in range(origin, hi + 1)]
    last = [last_f(m) for m in range(origin, hi + 1)]
    tot = [total_f(g) for g in range(top + 1)]
    fold = lead == last
    level = [(1, 0, 0, origin, 1, 1)]
    for k in range(1, dims):
        nxt = []
        for p, t, run, lo, first, rest in level:
            # the d - k indices after m_k each need at least m (folded) or origin
            cap = (top - t) // (dims - k + 1) if fold else top - t - (dims - k) * origin
            ms = zip(range(lo, cap + 1), islice(lead, lo - origin, None))
            if fold:
                for m, a in ms:
                    w, r = (first, run + 1) if m == lo else (rest, 1)
                    nxt.append((p * a, t + m, r, m, w * (k + 1) // (r + 1), w * (k + 1)))
            else:
                nxt += [(p * a, t + m, 0, origin, 1, 1) for m, a in ms]
        level = nxt
    return num, last, tot, [
        (p, slice(t + lo, t + hi + 1), lo - origin, first, rest)
        for p, t, _, lo, first, rest in level
    ]


def _defining_sum(spec: SeriesSpec, hi: int, top: int, one: int) -> int:
    """The defining form over ``_defining_walk(spec, hi, top)``, each term
    floor(num * one / (p * last * tot)) on the grid ONE.  As floor(floor(x/c)/d)
    = floor(x/(c d)) for integers x >= 0 and c, d >= 1, each total's numerator
    is divided by tot once, q[g], and a term is q[g] // (p * last), bit for
    bit.  On a grid every denominator divides (``_exact_grid``) it is exact."""
    num, last, tot, rows = _defining_walk(spec, hi, top)
    fam = spec.family
    # totals below origin * dims are never reached (S111's factor at 0 is 0)
    low = fam.origin * fam.dims(*spec.args)
    if num is None:
        nums = islice(_reciprocal_sums(one), low + fam.shift(*spec.args), None)
    else:
        nums = repeat(num * one)
    q = [0] * low + list(map(floordiv, nums, tot[low:]))
    acc = 0
    for p, sl, i, first, rest in rows:
        terms = map(floordiv, q[sl], map(mul, repeat(p), last[i:] if i else last))
        if first != rest:  # a folded row, whose first term repeats the index before
            acc += first * next(terms, 0)
        acc += rest * sum(terms)
    return acc


# ---------------------------------------------------------------------------
# exact (rational) partial sums
#
# The diagonal regrouping must be an identity, so diagonal and defining-form
# partial sums over matching index sets agree exactly as Fractions.  Each is
# the oracles' own engine on a grid L where no floor drops anything, over L.


def _exact_grid(spec: SeriesSpec, hi: int, top: int) -> int:
    """lcm(lead)^(d-1) lcm(last) lcm(tot over the reachable totals), times
    lcm(1..top + shift) for H_{g+shift}: each 1/i, q[g] and term of
    ``_defining_sum(spec, hi, top, L)`` is then an integer."""
    fam, args = spec.family, spec.args
    origin, dims = fam.origin, fam.dims(*args)
    num, lead, last, total = fam.summand(*args)
    ms = range(origin, hi + 1)
    grid = math.lcm(*map(lead, ms)) ** (dims - 1) * math.lcm(*map(last, ms))
    grid *= math.lcm(*map(total, range(origin * dims, top + 1)))
    if num is None:
        grid *= math.lcm(*range(1, top + fam.shift(*args) + 1))
    return grid


def _regrouped_grid(spec: SeriesSpec, cutoff: int) -> int:
    """lcm(1..top)^w lcm(prod (aG + b) over G = origin..cutoff): top is the
    last reciprocal an atom reaches (aN + b for H, 2(N + b) - 1 for O, N for
    E) and w the most atoms in one product, e_j counting j, so each atom,
    product and term of ``_regrouped_sum(spec, cutoff, L)`` is an integer."""
    terms, linear = _atoms(spec)
    reach = {"H": lambda a, b: a * cutoff + b, "O": lambda b: 2 * (cutoff + b) - 1}
    ends = [reach[k](*ps) if k in reach else cutoff for _, ats in terms for k, *ps in ats]
    width = max(sum(ps[0] if k == "E" else 1 for k, *ps in ats) for _, ats in terms)
    dens = (math.prod(a * g + b for a, b in linear) for g in range(spec.family.origin, cutoff + 1))
    return math.lcm(*range(1, max(ends, default=0) + 1)) ** width * math.lcm(*dens)


def _exact_defining_sum(spec: SeriesSpec, hi: int, top: int) -> Fraction:
    """``_defining_sum`` over its exact grid; a one-index series is its own regrouping."""
    if spec.family.summand is None:
        return diagonal_partial_exact(spec, hi)
    grid = _exact_grid(spec, hi, top)
    return Fraction(_defining_sum(spec, hi, top, grid), grid)


def diagonal_partial_exact(spec: SeriesSpec, cutoff: int) -> Fraction:
    """Exact partial sum of the single-index regrouped form, totals <= cutoff."""
    grid = _regrouped_grid(spec, cutoff)
    return Fraction(_regrouped_sum(spec, cutoff, grid), grid)


def triangle_partial_exact(spec: SeriesSpec, cutoff: int) -> Fraction:
    """Exact defining-form sum over the index set matching the diagonal cutoff.

    For double sums that is the triangle (or simplex) of index totals
    <= cutoff; for single sums it coincides with the diagonal partial.
    """
    return _exact_defining_sum(spec, cutoff, cutoff)


def box_partial_exact(spec: SeriesSpec, box: int) -> Fraction:
    """Exact defining-form sum over the raw box cutoff (what oracle_raw sums)."""
    return _exact_defining_sum(spec, box, spec.family.dims(*spec.args) * box)


# ---------------------------------------------------------------------------
# tail bounds
#
# Each family row's ``tail`` gives A (ln x + c)^k / x^p, and the discarded
# tail is at most its closed-form integral from N to infinity.  For every row
# but oddsq that follows from a term-wise majorant by monotone integral
# comparison.  oddsq's 1/(4G^2) lies below its term 1/(2G-1)^2; its bound
# 1/(4N) holds by convexity, as the integral of (2x-1)^-2 from N + 1/2.
# Constants are over-estimates chosen for provability, not tightness; the
# tail-honesty tests pin them against true remainders.


def tail_estimate(spec: SeriesSpec, n_cut: int):
    """Upper bound on the tail discarded beyond cutoff n_cut.

    Integral comparison: sum_{G>N} A (ln G + c)^k / G^p <= A I_k(N) with
    I_0 = N^(1-p)/(p-1) and I_k = (ln N + c)^k N^(1-p)/(p-1) + k I_{k-1}/(p-1).
    Raw boxes contain the triangle of the same cutoff, so the bound covers
    both summation methods.
    """
    if n_cut < 10:
        raise ValueError(f"tail bounds need cutoff >= 10, got {n_cut}")
    fam, args = spec.family, spec.args
    offset = fam.shift(*args)
    if offset > n_cut:
        raise ValueError(f"tail bound needs cutoff >= shift {offset}, got {n_cut}")
    a_const, c_log, k_pow, p_pow = fam.tail(*args)
    # positive terms at 40 digits err far below the 2^-116 (1.2e-35) relative
    # pad that makes the result an upper bound, far below the 30 digits reported
    with mp.workdps(40):
        base = mp.mpf(n_cut) ** (1 - p_pow) / (p_pow - 1)
        ln_c = mp.log(n_cut) + c_log
        integral = base
        for i in range(1, k_pow + 1):
            integral = ln_c**i * base + i * integral / (p_pow - 1)
        return mp.mpf(a_const.numerator) / a_const.denominator * integral * (1 + mp.ldexp(1, -116))


# ---------------------------------------------------------------------------
# oracle entry points


def oracle_raw(spec: SeriesSpec, cfg: NumericCfg) -> OracleResult:
    """The defining form from the row's ``summand``: once cfg.n_max reaches N_raw =
    ``raw_cutoff``, over index totals <= N_raw plus the diagonal route's certified tail
    from the row's ``atoms`` (an error in the atoms over the head's range shows in the
    exact diagonal == triangle check, one inside ``asymptotic.py`` hits both routes);
    else over the box [origin..N]^d, N = cfg.n_max, of at most ``_RAW_TERM_CAP`` terms,
    with the ``tail_estimate`` majorant.  A one-index series is its own regrouping: the
    diagonal route."""
    dims = spec.family.dims(*spec.args)
    if dims == 1:
        return _diagonal(spec, cfg, "raw")
    n_raw = raw_cutoff(spec, cfg.digits)
    if n_raw is None or cfg.n_max < n_raw:
        if cfg.n_max**dims > _RAW_TERM_CAP:
            raise ValueError(
                f"raw box {cfg.n_max}^{dims} is out of reach; "
                f"cap {_RAW_TERM_CAP} terms (use diagonal)"
            )
        return _series(spec, cfg, "raw", lambda n, one: _defining_sum(spec, n, dims * n, one))
    # a folded tuple's term floors once (An's H numerators once more) and its
    # orderings share it: the head errs by under 3 ulps per ordered tuple
    ordered = math.comb(n_raw - dims * spec.family.origin + dims, dims)
    return _series(spec, cfg, "raw", lambda n, one: _defining_sum(spec, n, n, one), n_raw, ordered)


def raw_cutoff(spec: SeriesSpec, digits: int) -> int | None:
    """N_raw: the index total through which the raw route sums the defining
    form before the asymptotic tail takes over: 256 for two indices and 128
    for more, doubled while below that times digits/100 or 64 (shift + 1),
    which keeps the expansion's order near digits/2; None (the box stays)
    for a row without atoms or past ``_RAW_TUPLE_BUDGET``."""
    fam, args = spec.family, spec.args
    if fam.atoms is None:
        return None
    dims, shift = fam.dims(*args), fam.shift(*args)
    base = n = 256 if dims == 2 else 128
    while 100 * n < base * digits or n < 64 * (shift + 1):
        n *= 2
    return n if n**dims // math.factorial(dims) ** 2 <= _RAW_TUPLE_BUDGET else None


def asymptotic_cutoff(spec: SeriesSpec, digits: int) -> int:
    """N*: the terms the diagonal route sums before the asymptotic tail
    takes over.  2^11 at 50 digits, doubled while it is below 40 digits or
    64 (shift + 1), which keeps the expansion's order near digits/2."""
    shift = spec.family.shift(*spec.args)
    n = 2**11
    while n < 40 * digits or n < 64 * (shift + 1):
        n *= 2
    return n


def oracle_diagonal(spec: SeriesSpec, cfg: NumericCfg) -> OracleResult:
    """Single-index regrouped sum with incremental harmonic state.

    cfg.n_max caps the terms summed.  When it reaches N* =
    ``asymptotic_cutoff``, the first N* terms are summed and the rest is
    the certified asymptotic tail: ``value`` is S_N* plus the expanded tail
    and ``tail_bound`` covers its remainder and N* 2^-prec of rounding in
    S_N*.  Below N*, the first n_max terms are summed and ``tail_estimate``
    bounds what is left.
    """
    return _diagonal(spec, cfg, "diagonal")


def _diagonal(spec: SeriesSpec, cfg: NumericCfg, method: str) -> OracleResult:
    # also oracle_raw's one-index route, kept off the traced oracle_diagonal
    n_star = asymptotic_cutoff(spec, cfg.digits)
    cutoff = None if cfg.n_max < n_star else n_star
    return _series(spec, cfg, method, partial(_regrouped_sum, spec), cutoff, n_star)


def _series(spec: SeriesSpec, cfg: NumericCfg, method: str, head, cutoff=None, allowance=0):
    """head(n, one), a fixed-point engine's sum through n on the grid ONE, plus
    the tail past n: without a cutoff n = cfg.n_max and ``tail_estimate``
    bounds the tail; at one, n = cutoff on a grid _TAIL_GUARD_BITS finer, the
    certified asymptotic tail is added and ``tail_bound`` gives each of the
    ``allowance`` summed terms 2^_TAIL_GUARD_BITS ulps, far more than one takes."""
    t0 = time.perf_counter()
    if cutoff is None:
        n, prec = cfg.n_max, _prec_bits(cfg.digits)
        acc = head(n, 1 << prec)
        tail_bound = tail_estimate(spec, n)
        with mp.workdps(cfg.digits + 10):
            value = mp.mpf(acc) / mp.mpf(1 << prec)
    else:
        # imported here, so a run that stays below the cutoffs does not load
        # (and, without cached bytecode, compile) the expansion code
        from . import asymptotic

        n, prec = cutoff, _prec_bits(cfg.digits) + _TAIL_GUARD_BITS
        acc = head(n, 1 << prec)
        tail, bound = asymptotic.tail(spec, n, cfg.digits, prec)
        bound += allowance << _TAIL_GUARD_BITS
        with mp.workprec(prec + 64):
            value = mp.ldexp(mp.mpf(acc + tail), -prec)
        with mp.workprec(64):
            # padded so that rounding the integer to 64 bits cannot lower it
            tail_bound = mp.ldexp(mp.mpf(bound + (bound >> 40) + 1), -prec)
    return OracleResult(
        value=value,
        method=method,
        n_used=n,
        levels_used=None,
        tail_bound=tail_bound,
        error_estimate=mp.mpf(0),
        elapsed=time.perf_counter() - t0,
    )


# tanh-sinh levels through the default quad_levels keep every per-node
# quantity for reuse, keyed by (digits, level); deeper levels stream them
_TABLE_LEVELS = 10
_TABLE_PRECISIONS = 4


def _level_nodes(digits: int, level: int):
    """(weight, t, 1-t, -ln t, -ln(1-t)) as raw mpf tuples at the nodes
    u = j*h, h = 2^-level, of one tanh-sinh level, u <= u_max, at the
    caller's working precision.  t = (1 + tanh w)/2, w = (pi/2) sinh u, and
    the weight is (pi/2) cosh u without its factor h.

    j steps by 1 at level 0 and over the odd j after it, so e^u advances by
    one multiplication with exp(stride*h) and sinh u, cosh u follow from e^u
    and 1/e^u.  From E = exp(-2w): t = 1/(1+E), 1-t = E*t, -ln t = log1p(E)
    and -ln(1-t) = 2w + log1p(E).  None of these forms cancels, so the tail
    where t rounds to 1 keeps full relative accuracy in 1-t and both logs.
    """
    u_max = math.log(math.log(10) * (digits + 25) * 2 / math.pi) + 1.0
    half_pi, quarter_pi = mp.pi / 2, mp.pi / 4
    h = mp.ldexp(1, -level)
    stride = 2 if level else 1
    eu = mp.exp(h)
    step = mp.exp(stride * h)
    # j*h <= u_max, exactly: h is a power of two
    for _ in range(1, math.floor(math.ldexp(u_max, level)) + 1, stride):
        emu = 1 / eu
        w = quarter_pi * (eu - emu)
        e = mp.exp(-2 * w)
        lt = mp.log1p(e)
        t = 1 / (1 + e)
        yield tuple(v._mpf_ for v in (half_pi * (eu + emu), t, e * t, lt, 2 * w + lt))
        eu *= step


@lru_cache(maxsize=_TABLE_PRECISIONS * (_TABLE_LEVELS + 1))
def _node_table(digits: int, level: int) -> tuple[bytes, array]:
    """``_level_nodes`` at quadrature's digits + 15, stored densely: every
    value is positive, so one blob of fixed-width little-endian mantissas
    and an array of exponents, (prec/8 + 8) bytes per value."""
    with mp.workdps(digits + 15):
        width = (mp.prec + 7) // 8
        mans, exps = io.BytesIO(), array("q")
        for row in _level_nodes(digits, level):
            for _, man, exp, _ in row:
                mans.write(man.to_bytes(width, "little"))
                exps.append(exp)
    # getvalue() hands over the BytesIO buffer uncopied, so a build holds
    # one blob at a time; array(exps) drops the append slack
    return mans.getvalue(), array("q", exps)


def _node_rows(digits: int, level: int):
    """``_level_nodes``, decoded one node at a time from the shared table
    through _TABLE_LEVELS."""
    if level > _TABLE_LEVELS:
        return _level_nodes(digits, level)
    mans, exps = _node_table(digits, level)
    width = len(mans) // len(exps)
    view = memoryview(mans)
    ints = (int.from_bytes(view[i : i + width], "little") for i in range(0, len(mans), width))
    vals = ((0, m, x, m.bit_length()) for m, x in zip(ints, exps))
    return zip(vals, vals, vals, vals, vals)


def oracle_quadrature(spec: SeriesSpec, cfg: NumericCfg) -> OracleResult:
    """Tanh-sinh integration of the A-family integral representation.

    A_n(s) = (-1)^n Int_0^1 (1-t)^(s-1) ln(t)^n dt.  The substitution
    t = (1 + tanh((pi/2) sinh u))/2 sends both endpoints to double-
    exponentially decaying tails, and 1-t is available without
    cancellation as the mirrored node, so the s-1 power and the log are
    both evaluated stably (``_level_nodes``, the E = exp(-2w) form).
    Levels halve the step and reuse prior nodes; the level-to-level
    difference is the reported error estimate.

    Within a level the nodes are u = j*h and e^u advances by one
    multiplication.  Each multiplication adds at most an ulp of relative
    drift to e^u.  A level takes about u_max*2^(L-1) steps, under 2^11 for
    the levels that 300 digits need and under 2^18 even at level 16,
    against the 15 guard digits (about 50 bits) of the working precision.

    A node's weight, t, 1-t, -ln t and -ln(1-t) depend on (digits, level)
    alone, never on n or s, so levels 0 through 10 (the default
    quad_levels) take all five from a table shared by every call at that
    precision (``_node_table``, an LRU of 4 precisions x 11 levels, each
    level one blob of mantissas: 1.83 MB for 100, 200 and 300 digits
    through levels 6, 7 and 8, 9.2 MB for 1000 digits through level 9 and
    18.3 MB through level 10).  Deeper levels compute them as they go and
    keep nothing.  A call only evaluates the integrand on them, with the
    operations and rounding it would apply to mpf values, so a warm table
    gives the same bits as a cold one.
    """
    if not spec.family.quadrature:
        raise ValueError(f"quadrature covers the A-family only, not {spec}")
    n, s = spec.args
    t0 = time.perf_counter()
    with mp.workdps(cfg.digits + 15):
        pi_ = +mp.pi
        target = mp.mpf(10) ** (-(cfg.digits + 5))
        prec, rnd = mp.prec, round_nearest

        def level_sum(level):
            # folded +-u contributions over the level's nodes u > 0 (t and
            # 1-t swap under u -> -u): acc += weight * (t (1-t)^s (-ln t)^n
            # + (1-t) t^s (-ln(1-t))^n), on raw tuples with the calls and
            # rounding of the mpf operators
            acc = fzero
            for wt, t, omt, lt, lo in _node_rows(cfg.digits, level):
                a = mpf_mul(t, mpf_pow_int(omt, s, prec, rnd), prec, rnd)
                a = mpf_mul(a, mpf_pow_int(lt, n, prec, rnd), prec, rnd)
                b = mpf_mul(omt, mpf_pow_int(t, s, prec, rnd), prec, rnd)
                b = mpf_mul(b, mpf_pow_int(lo, n, prec, rnd), prec, rnd)
                acc = mpf_add(acc, mpf_mul(wt, mpf_add(a, b, prec, rnd), prec, rnd), prec, rnd)
            return mp.make_mpf(acc)

        half = mp.mpf(1) / 2
        h = mp.mpf(1)
        total = pi_ * half ** (s + 1) * mp.log(2) ** n  # u = 0 node
        value = h * (total + level_sum(0))
        estimates: list = []
        converged = False
        levels = 0
        for level in range(1, cfg.quad_levels + 1):
            h = h / 2
            new_value = value / 2 + h * level_sum(level)
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
