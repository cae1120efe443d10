"""Numeric oracles: constants, series summation, tail bounds, quadrature.

Three independent routes produce high-precision numeric values for each
catalog series:

* ``oracle_raw`` sums the defining multi-index form over the box
  [origin..n_max]^d and bounds the rest by the ``tail_estimate`` majorant,
  a low-precision check of the summand.  A one-index series is its own
  regrouping, so its raw route is the diagonal route;
* ``oracle_diagonal`` sums the single-index regrouped form (indices
  grouped by their total), walking the row's harmonic atoms as running
  prefix sums.  Once ``n_max`` reaches the cutoff N* (``asymptotic_cutoff``)
  it sums N* terms and adds the certified asymptotic tail of
  ``asymptotic.py``; below N* it sums n_max terms and bounds the rest by
  the ``tail_estimate`` majorant;
* ``oracle_quadrature`` integrates with tanh-sinh nodes the log-power
  integral A_n(s) that a row's defining sum equals (``Family.integral``).

Series accumulation uses scaled integer (fixed-point) arithmetic: every
term is floored onto a 2^prec grid and added exactly, so a run is
bit-reproducible and the only error is one downward ulp per term.  With
prec about 3.32*digits + 64 bits (230 at the default 50 digits), the
diagonal route sums at most N* terms (2^11 at 50 digits), and the largest
raw box, ``_RAW_TERM_CAP`` = 25*10^6 terms, stays within about 1.5e-62 of
the true partial sum at 50 digits, far beneath every tolerance used here.

Every numeric routine takes its precision as an argument, or derives it
from ``digits``, and works on raw libmp tuples or (the quadrature integrand)
integer mantissas: it rounds to nearest as the mpf operators do, so it gives
the bits of the mpf form, and never reads or sets mpmath's process-global
precision.  Results are wrapped as mpf with ``mp.make_mpf``.
"""

from __future__ import annotations

import io
import math
import threading
import time
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache, partial, reduce
from itertools import accumulate, count, islice, repeat
from operator import add, floordiv, mul, rshift
from typing import TYPE_CHECKING

from mpmath import mp
from mpmath.libmp import dps_to_prec, fone, from_float, from_int, from_man_exp, fzero, mpf_abs
from mpmath.libmp import mpf_add, mpf_div, mpf_exp, mpf_ge, mpf_gt, mpf_le, mpf_log, mpf_lt, mpf_mul
from mpmath.libmp import mpf_mul_int, mpf_pi, mpf_pos, mpf_pow_int, mpf_rdiv_int, mpf_sub
from mpmath.libmp import round_nearest, to_str

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


METHODS = ("raw", "diagonal", "quadrature")  # one per ``oracle_for`` branch


@dataclass(frozen=True)
class NumericCfg:
    """Oracle configuration; the defaults are 50 digits, n_max 10^6, 10 levels, diagonal.

    digits: working precision (>= 30); n_max: the most terms a series route
    sums (>= 10): the diagonal route stops at N* (``asymptotic_cutoff``), and the raw
    route sums the box of side n_max, of at most ``_RAW_TERM_CAP`` terms;
    quad_levels: max tanh-sinh halvings (3..16); method: one of ``METHODS``.
    """

    digits: int = 50
    n_max: int = 10**6
    quad_levels: int = 10
    method: str = "diagonal"

    def __post_init__(self) -> None:
        for name in ("digits", "n_max", "quad_levels"):
            if type(getattr(self, name)) is not int:
                raise ValueError(f"{name} must be int, got {getattr(self, name)!r}")
        _check_digits(self.digits)
        if self.n_max < 10:
            raise ValueError(f"n_max must be >= 10, got {self.n_max}")
        if not 3 <= self.quad_levels <= 16:
            raise ValueError(f"quad_levels must be in 3..16, got {self.quad_levels}")
        if self.method not in METHODS:
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
    """pi at digits + 10 (delegated to the mpfloat backend)."""
    _check_digits(digits)
    return mp.make_mpf(mpf_pi(dps_to_prec(digits + 10), round_nearest))


@cache
def const_ln2(digits: int):
    """ln 2 = 2 atanh(1/3), summed as 2 sum_{i>=0} (1/9)^i / (3 (2i+1))."""
    _check_digits(digits)
    prec, rnd = dps_to_prec(digits + 10), round_nearest
    target = mpf_pow_int(from_int(10), -(digits + 8), prec, rnd)
    x2, power = mpf_div(fone, from_int(9), prec, rnd), mpf_div(fone, from_int(3), prec, rnd)
    acc = fzero
    for i in count():
        term = mpf_div(power, from_int(2 * i + 1), prec, rnd)
        acc = mpf_add(acc, term, prec, rnd)
        if mpf_lt(term, target):
            return mp.make_mpf(mpf_mul_int(acc, 2, prec, rnd))
        power = mpf_mul(power, x2, prec, rnd)


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
    wp, rnd = dps_to_prec(digits + 10), round_nearest
    big_m = from_int(2 * digits)
    acc = fzero
    for i in range(1, 2 * digits):
        acc = mpf_add(acc, mpf_div(fone, mpf_pow_int(from_int(i), k, wp, rnd), wp, rnd), wp, rnd)
    # + (M^(1-k) / (k-1) + M^-k / 2)
    ends = mpf_add(mpf_div(mpf_pow_int(big_m, 1 - k, wp, rnd), from_int(k - 1), wp, rnd),
                   mpf_div(mpf_pow_int(big_m, -k, wp, rnd), from_int(2), wp, rnd), wp, rnd)
    acc = mpf_add(acc, ends, wp, rnd)
    target = mpf_pow_int(from_int(10), -(digits + 5), wp, rnd)
    rising, power, prev = from_int(k), mpf_pow_int(big_m, -k - 1, wp, rnd), None
    for i in count(1):
        b = bernoulli(2 * i)
        corr = mpf_div(from_int(b.numerator, wp, rnd), from_int(b.denominator), wp, rnd)
        corr = mpf_div(corr, from_int(math.factorial(2 * i)), wp, rnd)
        corr = mpf_mul(mpf_mul(corr, rising, wp, rnd), power, wp, rnd)
        mag = mpf_abs(corr)
        if prev is not None and mpf_ge(mag, prev):
            break
        acc = mpf_add(acc, corr, wp, rnd)
        if mpf_lt(mag, target):
            break
        prev = mag
        rising = mpf_mul_int(rising, (k + 2 * i - 1) * (k + 2 * i), wp, rnd)
        power = mpf_div(power, mpf_mul(big_m, big_m), wp, rnd)
    return mp.make_mpf(acc)


def zx_numeric(a: ZExpr, digits: int):
    """Numeric value of a symbolic combination at digits + 10, summed in
    canonical term order: acc += mpf(num) / den * value."""
    _check_digits(digits)
    prec, rnd = dps_to_prec(digits + 10), round_nearest
    acc = fzero
    for sym, coeff in a.terms():
        match sym.kind:
            case "unit":
                v = fone
            case "ln2":
                v = const_ln2(digits)._mpf_
            case "zeta":
                v = const_zeta(sym.k, digits)._mpf_
            case _:
                v = mpf_pow_int(const_pi(digits)._mpf_, sym.k, prec, rnd)
        c = mpf_div(from_int(coeff.numerator, prec, rnd), from_int(coeff.denominator), prec, rnd)
        acc = mpf_add(acc, mpf_mul(c, v, prec, rnd), prec, rnd)
    return mp.make_mpf(mpf_pos(acc, prec, rnd))


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


_PREFIX: dict = {}  # (atoms, origin, grid bits) -> (width, blob, walk), see ``_prefix_sum``
_PREFIX_BUDGET = 4 * 2**20  # bytes; past it the table starts afresh
_PREFIX_LOCK = threading.Lock()


def _prefix_sum(spec: SeriesSpec, n_max: int, one: int) -> int:
    """``_regrouped_sum(spec, n_max, one)``, read from the row's entry in ``_PREFIX``:
    partial sums S_origin..S_k, one blob of fixed-width little-endian signed
    integers, and the live ``_regrouped_terms`` walk standing at S_k.  A floored
    term does not depend on n_max, so S_n_max is the same integer.  A cutoff
    past k resumes the entry's walk, or walks from origin for a row with no
    entry, and appends the sums to n_max, re-encoding the blob only for a wider
    field: each term of a row and grid is walked once, in any call order.
    A prefix larger than ``_PREFIX_BUDGET`` is summed and not stored."""
    key, i = (_atoms(spec), spec.family.origin, one.bit_length()), n_max - spec.family.origin
    if (i + 1) * (one.bit_length() // 8) > _PREFIX_BUDGET:
        return _regrouped_sum(spec, n_max, one)
    with _PREFIX_LOCK:
        width, blob, walk = _PREFIX.get(key) or (1, b"", _regrouped_terms(spec, one))
        if (i + 1) * width <= len(blob):
            return int.from_bytes(blob[i * width : (i + 1) * width], "little", signed=True)
        # popped while it runs, so a walk cut short is never resumed
        _PREFIX.pop(key, None)
        last = int.from_bytes(blob[-width:], "little", signed=True)
        sums = list(accumulate(islice(walk, i + 1 - len(blob) // width), initial=last))
        wide = max(s.bit_length() for s in sums) // 8 + 1
        if wide > width:  # the stored sums too, in the wider field
            sums[:1] = (int.from_bytes(blob[j : j + width], "little", signed=True)
                        for j in range(0, len(blob), width))
            width, blob = wide, b""
        else:
            del sums[0]
        blob += b"".join(s.to_bytes(width, "little", signed=True) for s in sums)
        if len(blob) <= _PREFIX_BUDGET:
            if sum(len(v[1]) for v in _PREFIX.values()) + len(blob) > _PREFIX_BUDGET:
                _PREFIX.clear()
            _PREFIX[key] = width, blob, walk
        return sums[-1]


# ---------------------------------------------------------------------------
# the defining multi-index form
#
# A row's ``summand`` is num / (lead(m_1) ... lead(m_{d-1}) last(m_d) total(g))
# with g = m_1 + ... + m_d.  The fixed-point raw box and the exact
# triangle and box partials all walk the same tables, built once per
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
    prec, rnd = dps_to_prec(40), round_nearest
    p1 = from_int(p_pow - 1)
    # base = mpf(N)^(1-p) / (p-1), ln_c = log(N) + c
    base = mpf_div(mpf_pow_int(from_int(n_cut, prec, rnd), 1 - p_pow, prec, rnd), p1, prec, rnd)
    ln_c = mpf_add(mpf_log(from_int(n_cut), prec, rnd), from_float(c_log), prec, rnd)
    integral = base
    for i in range(1, k_pow + 1):
        # ln_c^i * base + i * integral / (p-1)
        head = mpf_mul(mpf_pow_int(ln_c, i, prec, rnd), base, prec, rnd)
        integral = mpf_add(head, mpf_div(mpf_mul_int(integral, i, prec, rnd), p1, prec, rnd), prec, rnd)
    a = mpf_div(from_int(a_const.numerator, prec, rnd), from_int(a_const.denominator), prec, rnd)
    pad = (0, 2**116 + 1, -116, 117)  # 1 + 2^-116, exact
    return mp.make_mpf(mpf_mul(mpf_mul(a, integral, prec, rnd), pad, prec, rnd))


# ---------------------------------------------------------------------------
# oracle entry points


def oracle_raw(spec: SeriesSpec, cfg: NumericCfg) -> OracleResult:
    """The defining form from the row's ``summand`` over the box [origin..N]^d,
    N = cfg.n_max, of at most ``_RAW_TERM_CAP`` terms, plus the ``tail_estimate``
    majorant: a low-precision check of the summand, sharing no code with ``atoms``.
    A one-index series is its own regrouping: the diagonal route."""
    dims = spec.family.dims(*spec.args)
    if dims == 1:
        return _diagonal(spec, cfg, "raw")
    if cfg.n_max**dims > _RAW_TERM_CAP:
        widest = math.isqrt(_RAW_TERM_CAP)  # the largest n_max whose box fits the cap
        while widest**dims > _RAW_TERM_CAP:
            widest -= 1
        raise ValueError(
            f"raw box {cfg.n_max}^{dims} is out of reach: its cap of {_RAW_TERM_CAP} terms "
            f"admits n_max <= {widest} for {dims} indices (else use diagonal)"
        )
    return _series(spec, cfg, "raw", lambda n, one: _defining_sum(spec, n, dims * n, one))


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
    S_N*.  Below N*, S_n_max is read from the prefix sums shared by row and precision
    (``_prefix_sum``, at most ``_PREFIX_BUDGET`` = 4 MB), which a larger n_max extends
    by resuming the walk kept with them, and ``tail_estimate`` bounds the rest.
    """
    return _diagonal(spec, cfg, "diagonal")


def _diagonal(spec: SeriesSpec, cfg: NumericCfg, method: str) -> OracleResult:
    # also oracle_raw's one-index route, kept off the traced oracle_diagonal
    n_star = asymptotic_cutoff(spec, cfg.digits)
    below = cfg.n_max < n_star
    head = partial(_prefix_sum if below else _regrouped_sum, spec)
    return _series(spec, cfg, method, head, None if below else n_star)


def _series(spec: SeriesSpec, cfg: NumericCfg, method: str, head, cutoff=None):
    """head(n, one), a fixed-point engine's sum through n on the grid ONE, plus
    the tail past n: without a cutoff n = cfg.n_max and ``tail_estimate``
    bounds the tail; at one, n = cutoff on a grid _TAIL_GUARD_BITS finer, the
    certified asymptotic tail is added and ``tail_bound`` gives each of the
    n summed terms 2^_TAIL_GUARD_BITS ulps, far more than one takes.
    A bound that leaves fewer than digits - 5 digits of the value raises OracleError."""
    t0 = time.perf_counter()
    if cutoff is None:
        n, prec = cfg.n_max, _prec_bits(cfg.digits)
        acc = head(n, 1 << prec)
        tail_bound = tail_estimate(spec, n)
        # acc / 2^prec at digits + 10; the division by a power of two is exact
        value = from_man_exp(acc, -prec, dps_to_prec(cfg.digits + 10), round_nearest)
    else:
        # imported here, so a run that stays below the cutoffs does not load
        # (and, without cached bytecode, compile) the expansion code
        from . import asymptotic

        n, prec = cutoff, _prec_bits(cfg.digits) + _TAIL_GUARD_BITS
        acc = head(n, 1 << prec)
        tail, bound = asymptotic.tail(spec, n, cfg.digits, prec)
        bound += n << _TAIL_GUARD_BITS
        value = from_man_exp(acc + tail, -prec, prec + 64, round_nearest)
        # padded so that rounding the integer to 64 bits cannot lower it
        tail_bound = mp.make_mpf(from_man_exp(bound + (bound >> 40) + 1, -prec, 64, round_nearest))
    result = OracleResult(
        value=mp.make_mpf(value),
        method=method,
        n_used=n,
        levels_used=None,
        tail_bound=tail_bound,
        error_estimate=mp.make_mpf(fzero),
        elapsed=time.perf_counter() - t0,
    )
    if cutoff is not None and bound * 10 ** (cfg.digits - 5) > abs(acc + tail):
        raise OracleError(f"the tail past {n} certifies fewer than {cfg.digits - 5} digits", result)
    return result


# tanh-sinh levels through the default quad_levels keep every per-node
# quantity for reuse, keyed by (digits, level); deeper levels stream them
_TABLE_LEVELS = NumericCfg.quad_levels
_TABLE_PRECISIONS = 4
_SERIES_MAG = 24  # below 2^-24 _log1p's series beats mpf_log, timed at 50-1000 digits


def _log1p(e: tuple, prec: int) -> tuple:
    """mp.log1p(e)'s bits for a positive raw tuple e of at most prec bits: ln(1+e) at
    prec + 10, rounded to nearest at prec.  Below 2^-(prec+10) that is e, as mpmath's
    e - e^2/2 rounds to e.  Below 2^-_SERIES_MAG, where mpf_log would add log2(1/e)
    bits and past 2500 bits run the AGM, it is the series of ln(1+e), each term
    floored about 40 bits below the result's last bit (under 2^-30 ulp in all)."""
    wp, rnd = prec + 10, round_nearest
    _, man, exp, bc = e
    mag = exp + bc
    if mag < -wp:
        return e
    if mag < -_SERIES_MAG:
        fp = wp + 40 - mag
        acc = p = x = man << (fp + exp)
        for k in range(2, fp // -mag + 2):  # p < 2^(fp + k mag) is 0 past there
            p = p * x >> fp
            acc += p // k if k & 1 else -(p // k)
        r = from_man_exp(acc, -fp, wp, rnd)
    else:
        r = mpf_log(mpf_add(fone, e, 2 * wp, rnd), wp, rnd)
    return mpf_pos(r, prec, rnd)


def _round(man: int, exp: int, prec: int) -> tuple[int, int]:
    """libmp's normalize of positive man 2^exp at round_nearest: ties to even, zeros stripped."""
    n = man.bit_length() - prec
    if n > 0:
        t = man >> (n - 1)
        man = (t >> 1) + 1 if t & 1 and (t & 2 or man & ((1 << (n - 1)) - 1)) else t >> 1
        exp += n
    if not man & 1:
        n = (man & -man).bit_length() - 1
        man, exp = man >> n, exp + n
    return man, exp


def _add(m1: int, e1: int, m2: int, e2: int, prec: int) -> tuple[int, int]:
    """The positive sum correctly rounded: mpf_add's bits for terms of <= prec bits."""
    return _round((m1 << (e1 - e2)) + m2, e2, prec) if e1 >= e2 else _add(m2, e2, m1, e1, prec)


def _pow(man: int, exp: int, k: int, prec: int) -> tuple[int, int]:
    """mpf_pow_int's (man 2^exp)^k, not correctly rounded: exact then rounded when
    k <= 2 or bc k < 1000, else binary powering truncated to prec + 4 bitlen(k) + 4."""
    if man == 1 or k <= 2 or man.bit_length() * k < 1000:
        return _round(man**k, exp * k, prec)
    wp, pm, pe = prec + 4 * k.bit_length() + 4, 1, 0
    while True:
        if k & 1:
            pm, pe, k = pm * man, pe + exp, k - 1
            n = pm.bit_length() - wp
            if n > 0:
                pm, pe = pm >> n, pe + n
            if not k:
                return _round(pm, pe, prec)
        man, exp, k = man * man, exp + exp, k >> 1
        n = man.bit_length() - wp
        if n > 0:
            man, exp = man >> n, exp + n


def _level_nodes(digits: int, level: int):
    """(weight, t, 1-t, -ln t, -ln(1-t)) as raw mpf tuples at the nodes
    u = j*h, h = 2^-level, of one tanh-sinh level, u <= u_max, at
    dps_to_prec(digits + 15) bits.  t = (1 + tanh w)/2, w = (pi/2) sinh u,
    and the weight is (pi/2) cosh u without its factor h.

    j steps by 1 at level 0 and over the odd j after it, so e^u advances by
    one multiplication with exp(stride*h) and sinh u, cosh u follow from e^u
    and 1/e^u.  From E = exp(-2w): t = 1/(1+E), 1-t = E*t, -ln t = log1p(E)
    and -ln(1-t) = 2w + log1p(E).  None of these forms cancels, so the tail
    where t rounds to 1 keeps full relative accuracy in 1-t and both logs.
    log1p is ``_log1p``.
    """
    u_max = math.log(math.log(10) * (digits + 25) * 2 / math.pi) + 1.0
    prec, rnd = dps_to_prec(digits + 15), round_nearest
    half_pi, quarter_pi = (mpf_div(mpf_pi(prec, rnd), from_int(q), prec, rnd) for q in (2, 4))
    h = from_man_exp(1, -level)
    stride = 2 if level else 1
    eu, step = mpf_exp(h, prec, rnd), mpf_exp(mpf_mul_int(h, stride, prec, rnd), prec, rnd)
    # j*h <= u_max, exactly: h is a power of two
    for _ in range(1, math.floor(math.ldexp(u_max, level)) + 1, stride):
        emu = mpf_rdiv_int(1, eu, prec, rnd)
        w = mpf_mul(quarter_pi, mpf_sub(eu, emu, prec, rnd), prec, rnd)
        e = mpf_exp(mpf_mul_int(w, -2, prec, rnd), prec, rnd)
        lt = _log1p(e, prec)
        t = mpf_rdiv_int(1, mpf_add(e, fone, prec, rnd), prec, rnd)
        yield (mpf_mul(half_pi, mpf_add(eu, emu, prec, rnd), prec, rnd), t,
               mpf_mul(e, t, prec, rnd), lt, mpf_add(mpf_mul_int(w, 2, prec, rnd), lt, prec, rnd))
        eu = mpf_mul(eu, step, prec, rnd)


@lru_cache(maxsize=_TABLE_PRECISIONS * (_TABLE_LEVELS + 1))
def _node_table(digits: int, level: int) -> tuple[bytes, array]:
    """``_level_nodes`` at quadrature's digits + 15, stored densely: every
    value is positive, so one blob of fixed-width little-endian mantissas
    and an array of exponents, (prec/8 + 8) bytes per value."""
    width = (dps_to_prec(digits + 15) + 7) // 8
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


def _level_sum(digits: int, level: int, n: int, s: int) -> tuple:
    """One level's folded +-u terms at dps_to_prec(digits + 15) bits, a raw tuple:
    acc += weight (a + b) over the nodes u > 0, a = t (1-t)^s (-ln t)^n and
    b = (1-t) t^s (-ln(1-t))^n, rounded step for step as mpf_pow_int, mpf_mul and
    mpf_add round them.  A node value has x < 2^M(x), M(x) = exp + bc, and rounding
    never passes the power of two above the exact value (truncation only lowers
    it), so a <= 2^A, A = M(t) + s M(1-t) + n M(-ln t), b <= 2^B likewise, and the
    term <= 2^(M(weight) + max(A, B) + 1); the tests keep a bit per rounded
    operation, A + 4 and M(weight) + max(A, B) + 6.  A positive x below half an ulp
    of y, 2^(M(y) - prec - 1), leaves y + x rounding to y, so a node whose term is
    below half an ulp of acc is skipped and an a below half an ulp of b is not made.
    """
    am, ae, prec, rows = 0, 0, dps_to_prec(digits + 15), _node_rows(digits, level)
    for (_, wm, we, wb), (_, tm, te, tb), (_, om, oe, ob), (_, lm, le, lb), (_, qm, qe, qb) in rows:
        big_a = te + tb + s * (oe + ob) + n * (le + lb)
        big_b = oe + ob + s * (te + tb) + n * (qe + qb)
        if am and we + wb + (big_a if big_a > big_b else big_b) + 6 <= ae + am.bit_length() - prec - 1:
            continue
        (m, e), (pm, pe) = _pow(tm, te, s, prec), _pow(qm, qe, n, prec)
        m, e = _round(om * m, oe + e, prec)
        bm, be = _round(m * pm, e + pe, prec)
        if big_a + 4 > be + bm.bit_length() - prec - 1:
            (m, e), (pm, pe) = _pow(om, oe, s, prec), _pow(lm, le, n, prec)
            m, e = _round(tm * m, te + e, prec)
            bm, be = _add(bm, be, *_round(m * pm, e + pe, prec), prec)
        m, e = _round(wm * bm, we + be, prec)
        am, ae = _add(am, ae, m, e, prec) if am else (m, e)
    return (0, am, ae, am.bit_length())


def oracle_quadrature(spec: SeriesSpec, cfg: NumericCfg) -> OracleResult:
    """Tanh-sinh integration of the integral that the row's defining sum equals.

    A_n(s) = (-1)^n Int_0^1 (1-t)^(s-1) ln(t)^n dt, (n, s) = ``Family.integral``.
    The substitution t = (1 + tanh((pi/2) sinh u))/2 sends both endpoints to double-
    exponentially decaying tails, and 1-t is available without cancellation
    as the mirrored node (``_level_nodes``, the E = exp(-2w) form).  Levels
    halve the step and reuse prior nodes; the level-to-level difference is
    the reported error estimate.  Within a level e^u advances by one
    multiplication, each adding at most an ulp of relative drift: under 2^11
    steps for the levels 300 digits need and 2^18 at level 16, against the
    15 guard digits (about 50 bits) of the working precision.

    A node's weight, t, 1-t, -ln t and -ln(1-t) depend on (digits, level)
    alone, so levels 0 through 10 (the default quad_levels) read them from a
    table shared by every call at that precision (``_node_table``, an LRU of
    4 precisions x 11 levels: 1.83 MB for 100, 200 and 300 digits through
    levels 6, 7 and 8, 9.2 MB for 1000 digits through level 9, 18.3 MB
    through level 10); deeper levels compute them as they go and keep
    nothing.  A node costs one exp and one ``_log1p``: levels 0-9 at 1000
    digits take about 7 s cold.  ``_level_sum`` only evaluates the integrand
    on them, so a warm table gives the same bits as a cold one.
    """
    if spec.family.integral is None:
        raise ValueError(f"quadrature needs the row's integral A_n(s), and {spec} has none")
    n, s = spec.family.integral(*spec.args)
    t0 = time.perf_counter()
    prec, rnd = dps_to_prec(cfg.digits + 15), round_nearest
    target = mpf_pow_int(from_int(10), -(cfg.digits + 5), prec, rnd)

    # the u = 0 node, pi (1/2)^(s+1) ln(2)^n, and h = 1
    total = mpf_mul(mpf_pi(prec, rnd), mpf_pow_int((0, 1, -1, 1), s + 1, prec, rnd), prec, rnd)
    total = mpf_mul(total, mpf_pow_int(mpf_log(from_int(2), prec, rnd), n, prec, rnd), prec, rnd)
    h = fone
    value = mpf_mul(h, mpf_add(total, _level_sum(cfg.digits, 0, n, s), prec, rnd), prec, rnd)
    estimates: list = []
    converged = False
    for level in range(1, cfg.quad_levels + 1):
        # value/2 + h _level_sum, converged once |new - value| <= target max(1, |new|)
        h = mpf_div(h, from_int(2), prec, rnd)
        new = mpf_mul(h, _level_sum(cfg.digits, level, n, s), prec, rnd)
        new = mpf_add(mpf_div(value, from_int(2), prec, rnd), new, prec, rnd)
        est = mpf_abs(mpf_sub(new, value, prec, rnd), prec, rnd)
        estimates.append(mp.make_mpf(est))
        value = new
        size = mpf_abs(value, prec, rnd)
        if mpf_le(est, mpf_mul(target, size if mpf_gt(size, fone) else fone, prec, rnd)):
            converged = True
            break
    result = OracleResult(
        value=mp.make_mpf(value),
        method="quadrature",
        n_used=None,
        levels_used=len(estimates),
        tail_bound=mp.make_mpf(fzero),
        error_estimate=estimates[-1],
        elapsed=time.perf_counter() - t0,
        level_estimates=tuple(estimates),
    )
    if not converged:
        raise OracleError(
            f"quadrature stalled at level {len(estimates)} with estimate {to_str(est, 5)}",
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
