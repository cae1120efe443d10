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
term is floored onto a 2^prec grid and added exactly, and the value is
that sum, so a run is bit-reproducible and errs by one downward ulp per term.
With prec about 3.32*digits + 64 bits (230 at the default 50 digits), the
diagonal route sums at most N* terms (2^11 at 50 digits), and the largest
raw box, ``_RAW_TERM_CAP`` = 25*10^6 terms, stays within about 1.5e-62 of
the true partial sum at 50 digits, twelve digits past the working precision.
Quadrature works on one fixed-point grid too, with a rounding bound
(``_level_sum``), and so do the constants and ``zx_numeric``, each with its
error budget, on the grid 2^-f of ``_closed_bits``: ln 2 and zeta(k), by
Borwein's integer series, within 2 ulps, and pi within half of one.

Every numeric routine takes its precision as an argument, or derives it
from ``digits``, and never reads or sets mpmath's process-global precision.
``tail_estimate`` is exact integers from one floored logarithm, 2 ulps and ceil(c 2^q),
rounded up once.  Each result holds its route's integers on one grid (``OracleResult``),
and ``harness.verify`` decides |closed - mid| <= rad + est on them exactly.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache, partial, reduce
from itertools import accumulate, count, islice, repeat
from operator import add, floordiv, mul, rshift
from typing import TYPE_CHECKING

from mpmath import mp
from mpmath.libmp import dps_to_prec, from_int, from_man_exp, from_rational, mpf_exp, mpf_ln2, mpf_log
from mpmath.libmp import mpf_pi, round_ceiling, round_floor, round_nearest, to_fixed, to_str

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
    """A route's sum as integers on one grid 2^exp.  mid 2^exp is the value;
    rad 2^exp is the certified bound (the series tail past n_used, with the
    head's rounding past N*; quadrature's rounding against its exact node sum);
    est 2^exp is estimated, not a bound: quadrature's last level difference,
    0 for the series routes.  ``value``, ``tail_bound`` and ``error_estimate``
    are the three as exact mpfs."""

    mid: int
    rad: int
    est: int
    exp: int
    method: str
    n_used: int | None
    levels_used: int | None
    elapsed: float
    level_estimates: tuple = ()

    value = property(lambda self: mp.make_mpf(from_man_exp(self.mid, self.exp)))
    tail_bound = property(lambda self: mp.make_mpf(from_man_exp(self.rad, self.exp)))
    error_estimate = property(lambda self: mp.make_mpf(from_man_exp(self.est, self.exp)))


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


def _closed_bits(digits: int) -> int:
    """f of the grid 2^-f that every constant and closed form sums on: dps_to_prec(digits
    + 10) and 32 guard bits, which keep the floors below (under 2 ulps a constant, times
    its term's |coeff|, and one a term) far under 10^-(digits+10)."""
    _check_digits(digits)
    return dps_to_prec(digits + 10) + 32


@cache
def const_pi(digits: int):
    """pi on the grid 2^-f (``_closed_bits``): libmp's pi at f + 2 bits, whose
    last bit is 2^-f, within half an ulp."""
    f = _closed_bits(digits)
    return mp.make_mpf(mpf_pi(f + 2, round_nearest))


@lru_cache(maxsize=4)
def _borwein_d(f: int) -> tuple[int, ...]:
    """d_0..d_n of ``_borwein_eta`` on the grid 2^-f, which depend on f alone: built once per grid."""
    n = int((f + 2) / 2.5431) + 1
    return tuple(accumulate(accumulate(
        range(n), lambda t, i: t * 2 * (n + i) * (n - i) // ((i + 1) * (2 * i + 1)), initial=1)))


def _borwein_eta(k: int, f: int) -> tuple[int, int]:
    """(a, d) with eta(k) = sum_{j>=0} (-1)^j / (j+1)^k = a 2^-f / d + R, k >= 1, by Borwein's sum
    (P. Borwein, "An efficient algorithm for the Riemann zeta function", 2000): with t_0 = 1,
    t_(i+1) = t_i 2(n+i)(n-i) / ((i+1)(2i+1)), integers, d_j = t_0 + ... + t_j and d = d_n,
    a = sum_{j<n} (-1)^j floor(2^f (d - d_j) / (j+1)^k).  Error, in ulps of 2^-f: |R| <= 2 /
    ((3+sqrt 8)^n (k-1)!) <= 1/2, as n = floor((f+2)/2.5431) + 1 makes (3+sqrt 8)^n > 2^(f+2),
    and the n floors, either side, add under n/d."""
    *d, dn = _borwein_d(f)
    return sum((-1) ** j * (((dn - dj) << f) // (j + 1) ** k) for j, dj in enumerate(d)), dn


@cache
def const_ln2(digits: int):
    """ln 2 = eta(1) on the grid 2^-f (``_closed_bits``): Borwein's a / d (``_borwein_eta``),
    floored once.  Error, in ulps: the remainder (at most 1/2), the n term floors (under n/d)
    and the last floor: under 2 in all, either side."""
    f = _closed_bits(digits)
    a, d = _borwein_eta(1, f)
    return mp.make_mpf(from_man_exp(a // d, -f))


@cache
def const_zeta(k: int, digits: int):
    """zeta(k) = eta(k) / (1 - 2^(1-k)) on the grid 2^-f (``_closed_bits``): Borwein's a / d
    (``_borwein_eta``) times 2^(k-1) / (2^(k-1) - 1), floored once.  Error, in ulps: the
    remainder and the term floors at most doubled (under 1 + 2n/d) and the last floor: under 2
    in all.  mpmath's zeta sums it too for most k, and the tails take zeta(k) from it, but this
    shares no code with them or the heads (which sum the series directly), and a proved identity
    with a proved remainder leaves no shared bug to move a closed form and an oracle together."""
    if k < 2:
        raise ValueError(f"zeta needs k >= 2, got {k}")
    f = _closed_bits(digits)
    a, d = _borwein_eta(k, f)
    return mp.make_mpf(from_man_exp((a << (k - 1)) // (d * ((1 << (k - 1)) - 1)), -f))


def zx_numeric(a: ZExpr, digits: int):
    """A symbolic combination on the grid 2^-f (``_closed_bits``), in canonical term
    order: acc += num * v // den, v the constant's grid integer and pi^k k - 1 floored
    multiply-and-shifts.  Error, in ulps: |num/den| times v's (under 2 for ln 2 and zeta,
    1/2 for pi, k pi^k for pi^k), plus one floor a term; the sum is returned as it is."""
    f = _closed_bits(digits)
    acc = 0
    for sym, coeff in a.terms():
        match sym.kind:
            case "unit":
                v = 1 << f
            case "ln2":
                v = to_fixed(const_ln2(digits)._mpf_, f)
            case "zeta":
                v = to_fixed(const_zeta(sym.k, digits)._mpf_, f)
            case _:
                v = pi = to_fixed(const_pi(digits)._mpf_, f)
                for _ in range(sym.k - 1):
                    v = v * pi >> f
        acc += coeff.numerator * v // coeff.denominator
    return mp.make_mpf(from_man_exp(acc, -f))


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
    """The atom's values at G = origin, origin + 1, ..."""
    match atom:
        case ("H", a, b):
            return islice(_reciprocal_sums(one), a * origin + b, None, a)
        case ("O", b):
            return islice(_reciprocal_sums(one, 2), origin + b, None)
        case ("P", k):
            return islice(accumulate((one // i**k for i in count(1)), initial=0), origin - 1, None)
        case ("G", p):
            return (one // g**p for g in count(origin))
        case ("E", j):
            # e_i(G) = e_i(G-1) + e_{i-1}(G-1)/(G-1) from e_i(1) = 0
            e = repeat(one)
            for _ in range(j):
                e = accumulate(map(floordiv, e, count(1)), initial=0)
            return islice(e, origin - 1, None)
    raise ValueError(f"unknown atom {atom!r}")


def _regrouped_terms(spec: SeriesSpec, one: int):
    """The row's regrouped term at G = origin, origin + 1, ... from its ``atoms``:
    (sum coeff * prod atoms) / prod (aG + b) on the grid ONE, each product of two
    atoms floored by ONE.  Every stage is an iterator, so a walk holds O(1) values."""
    terms, linear = spec.family.atoms(*spec.args)
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
    key, i = (spec.family.atoms(*spec.args), spec.family.origin, one.bit_length()), n_max - spec.family.origin
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
    E, P and G) and w the most atoms in one product, E, P and G counting their
    order, so each atom, product and term of ``_regrouped_sum(spec, cutoff, L)`` is an integer."""
    terms, linear = spec.family.atoms(*spec.args)
    reach = {"H": lambda a, b: a * cutoff + b, "O": lambda b: 2 * (cutoff + b) - 1}
    ends = [reach[k](*ps) if k in reach else cutoff for _, ats in terms for k, *ps in ats]
    width = max(sum(ps[0] if k in ("E", "P", "G") else 1 for k, *ps in ats) for _, ats in terms)
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
    I_k(N) = sum_i k!/(k-i)! (ln N + c)^(k-i) N^(1-p)/(p-1)^(i+1).  Raw boxes
    contain the triangle of the same cutoff, so the bound covers both methods.
    It is exact integers on 2^-q, q = dps_to_prec(40) = 136, from l >= ln N + c:
    ln N floored once from one logarithm, 2 ulps for that floor and the
    logarithm's error, and ceil(c 2^q) for c's exact binary value.  A I_k(N) at l
    is rounded up once at q bits: it exceeds A I_k(N) by under (1.4 k + 2) 2^-q of it.
    """
    if n_cut < 10:
        raise ValueError(f"tail bounds need cutoff >= 10, got {n_cut}")
    fam, args = spec.family, spec.args
    offset = fam.shift(*args)
    if offset > n_cut:
        raise ValueError(f"tail bound needs cutoff >= shift {offset}, got {n_cut}")
    a_const, c_log, k_pow, p_pow = fam.tail(*args)
    q, c_num, c_den = dps_to_prec(40), *c_log.as_integer_ratio()
    wp = q + 8 + n_cut.bit_length().bit_length()  # ln N < 2^(wp-q-8): it errs under 2^-(q+8)
    ell = to_fixed(mpf_log(from_int(n_cut), wp, round_floor), q) + 2 - (-c_num << q) // c_den
    # s_k = sum_i k!/(k-i)! (l (p-1))^(k-i) 2^(qi) = I_k(N) (p-1)^(k+1) N^(p-1) 2^(qk) at l
    s = reduce(lambda v, m: (m * v << q) + (ell * (p_pow - 1)) ** m, range(1, k_pow + 1), 1)
    den = a_const.denominator * (p_pow - 1) ** (k_pow + 1) * n_cut ** (p_pow - 1) << q * k_pow
    return mp.make_mpf(from_rational(a_const.numerator * s, den, q, round_ceiling))


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
    the certified asymptotic tail: ``mid`` is S_N* plus the expanded tail,
    exactly, and ``rad`` covers its remainder and N* 2^-prec of rounding
    in S_N*.  Below N*, S_n_max is read from the prefix sums shared by row and precision
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
    certified asymptotic tail is added and the bound gives each of the n summed
    terms 2^_TAIL_GUARD_BITS ulps, far more than one takes.  The result is the
    sum and the bound as integers on the grid 2^-prec (``OracleResult``).
    A bound that leaves fewer than digits - 5 digits of the value raises OracleError."""
    t0 = time.perf_counter()
    if cutoff is None:
        n, prec = cfg.n_max, _prec_bits(cfg.digits)
        acc = head(n, 1 << prec)
        # the majorant, exactly, on the finer of its own grid and 2^-prec
        _, bound, e, _ = tail_estimate(spec, n)._mpf_
        if e < -prec:
            acc, prec = acc << (-prec - e), -e
        else:
            bound <<= e + prec
    else:
        # imported here, so a run that stays below the cutoffs does not load
        # (and, without cached bytecode, compile) the expansion code
        from . import asymptotic

        n, prec = cutoff, _prec_bits(cfg.digits) + _TAIL_GUARD_BITS
        acc = head(n, 1 << prec)
        tail, bound = asymptotic.tail(spec, n, cfg.digits, prec)
        acc += tail
        bound += n << _TAIL_GUARD_BITS
    result = OracleResult(mid=acc, rad=bound, est=0, exp=-prec, method=method, n_used=n,
                          levels_used=None, elapsed=time.perf_counter() - t0)
    if cutoff is not None and bound * 10 ** (cfg.digits - 5) > abs(acc):
        raise OracleError(f"the tail past {n} certifies fewer than {cfg.digits - 5} digits", result)
    return result


# tanh-sinh levels through the default quad_levels keep every per-node
# quantity for reuse, keyed by (digits, level, grid bits); deeper levels stream them
_TABLE_LEVELS = NumericCfg.quad_levels
_TABLE_PRECISIONS = 4


def _u_max(digits: int) -> float:
    """The last node u of every level: there (pi/4) e^u = (e/2) ln(10) (digits + 25)."""
    return math.log(math.log(10) * (digits + 25) * 2 / math.pi) + 1.0


def _grid_bits(digits: int, n: int) -> int:
    """g = prec + G, the bits of the grid 2^-g that quadrature of a row with
    (-ln)^n works on, prec = dps_to_prec(digits + 15).  With m = max(n, 6),
    Q = (pi/2) e^u_max + 2 above every weight and -ln(1-t), and 2 u_max nodes
    per unit of u: G = log2(2 u_max) + log2(Q) + m log2(Q) + 4, the nodes
    (weighted by h), weight, power of -ln(1-t) and slack of ``_level_sum``'s
    bound, which then puts the value within 2^-prec.  G depends on (digits, n)
    alone, and every row with n <= 6 shares one grid."""
    u_max = _u_max(digits)
    big_q = math.pi / 2 * math.exp(u_max) + 2
    return dps_to_prec(digits + 15) + math.ceil(math.log2(32 * u_max) + (max(n, 6) + 1) * math.log2(big_q))


def _atanh(y: int, f: int) -> int:
    """atanh(y 2^-f) on the grid 2^-f, y 2^-f <= 1/7, as the sum of y^(2k+1)/(2k+1), one
    term per 5.6 bits of f: each after y errs by under 1.5 ulps, those dropped by under 0.4."""
    acc = p = y
    y2 = y * y >> f
    for k in count(3, 2):
        p = p * y2 >> f
        if not p:
            return acc
        acc += p // k


@lru_cache(maxsize=_TABLE_PRECISIONS)
def _log_factors(g: int) -> tuple:
    """(b, T): b = bitlen(8 steps) guard bits for ``_log1p`` on the grid 2^-g, steps =
    isqrt(g) + 2, and T_i = -ln(1 - 2^-i) = 2 atanh(1/(2^(i+1) - 1)), i = 2..steps,
    within an ulp of 2^-(g+b): ``_atanh`` on bitlen(g+b) + 2 more bits, rounded."""
    steps = math.isqrt(g) + 2
    b = (8 * steps).bit_length()
    f = g + b + (g + b).bit_length() + 2
    atanh = (_atanh((1 << f) // ((2 << i) - 1), f) for i in range(2, steps + 1))
    return b, tuple((a >> (f - g - b - 2)) + 1 >> 1 for a in atanh)


def _log1p(e: int, g: int) -> int:
    """ln(1 + E) floored onto the grid 2^-g, E = e 2^-g in [0, 1], within an ulp.

    On f = g + b bits (``_log_factors``), x = 1 + E is reduced towards 1 by the
    factors (1 - 2^-i), i = 2..steps: x -= x >> i while that leaves x >= 1 (at
    most twice an i; none with x - 1 < 2^-i is tried), each adding T_i.  Then
    ln x = 2 atanh(y), y = (x-1)/(x+1) < 2^-steps, in under steps/2 + 1 terms.

    Error, in ulps of 2^-f: each factor's floor leaves x above its exact product
    by under one, moving ln x by under one, and each T_i errs by under one: 4 (steps
    - 1) for the at most 2 (steps - 1) factors.  Doubled, y's floor costs 2, each
    later term 3 and the terms dropped 0.8.  The total, under 5.5 steps < 2^b, is
    under an ulp of 2^-g before the last floor.
    """
    b, table = _log_factors(g)
    f = g + b
    one, acc = 1 << f, 0
    x = one + (e << b)
    for i in range(max(2, f + 1 - (x - one).bit_length()), len(table) + 2):
        while (y := x - (x >> i)) >= one:
            x, acc = y, acc + table[i - 2]
    return acc + 2 * _atanh(((x - one) << f) // (x + one), f) >> b


def _level_nodes(digits: int, level: int, g: int):
    """(weight, t, 1-t, -ln t, -ln(1-t)) floored onto the grid 2^-g at the nodes
    u = j h, h = 2^-level, of one tanh-sinh level, u <= u_max: t = (1 + tanh w)/2,
    w = (pi/2) sinh u, and the weight is pi cosh u without its factor h, halved at u = 0.

    j steps by 1 from 0 at level 0 and over the odd j after it, so e^u advances
    by a multiply-and-shift with exp(stride h) and e^-u = 2^2f // e^u.  From
    E = exp(-2w): t = 2^2g // (2^g + E), 1-t = E t >> g, -ln t = ln(1+E) and
    -ln(1-t) = 2w + ln(1+E), none of which cancels.  Only exp(-2w), at the bits
    its value needs, calls libmp; ln(1+E) is ``_log1p``'s, in fixed point.

    Error: each value lies within 5 ulps of its value at u.  e^u drifts by at
    most 3 J e^u ulps of its own grid, J the level's last j, and 2w and the
    weight carry that times the weight; so e^u, pi and 2w run on f = g + d bits,
    2^d > 16 J g, and reach the grid g within 1.3 ulps, E within 1.5 and t, 1-t,
    -ln t and -ln(1-t) within 2.5, 5, 3.5 and 4.8.  A level stops at its first
    node with 2w > (g + 2) ln 2: there and past it E < 2^-(g+2), so 1-t and
    -ln t floor to 0 and so does the integrand.
    """
    rnd, top = round_nearest, math.floor(math.ldexp(_u_max(digits), level))
    d = (16 * top * g).bit_length()
    f = g + d
    pi, ln2 = (to_fixed(c(f + 8, rnd), f) for c in (mpf_pi, mpf_ln2))
    stop, stride, one = (g + 2) * ln2, 2 if level else 1, 1 << g
    eu, step = (to_fixed(mpf_exp(from_man_exp(k, -level), f + 8, rnd), f) for k in (stride - 1, stride))
    # j h <= u_max, exactly: h is a power of two
    for j in range(stride - 1, top + 1, stride):
        emu = (1 << 2 * f) // eu
        w2 = pi * (eu - emu) >> (f + 1)
        if w2 > stop:
            return
        # exp(-2w) to 2^-(g+2): its bits past about g - 1.44 (2w) are below the grid
        e = to_fixed(mpf_exp(from_man_exp(-w2, -f), max(g + 4 - (w2 >> f) * 36 // 25, 10), rnd), g)
        t, lt = (one << g) // (one + e), _log1p(e, g)
        # the node u = 0 is its own mirror: half its weight
        yield pi * (eu + emu) >> (f + 1 + d + (j == 0)), t, e * t >> g, lt, (w2 >> d) + lt
        eu = eu * step >> f


@lru_cache(maxsize=_TABLE_PRECISIONS * (_TABLE_LEVELS + 1))
def _node_table(digits: int, level: int, g: int) -> tuple:
    """``_level_nodes`` kept as the tuple of its rows."""
    return tuple(_level_nodes(digits, level, g))


def _node_rows(digits: int, level: int, g: int):
    """``_level_nodes``, read from the shared table through _TABLE_LEVELS."""
    if level > _TABLE_LEVELS:
        return _level_nodes(digits, level, g)
    return iter(_node_table(digits, level, g))


def _fpow(x: int, k: int, g: int) -> int:
    """(x 2^-g)^k on the grid 2^-g by binary powering, each product floored."""
    if k < 2:
        return x if k else 1 << g
    r = _fpow(x, k >> 1, g) ** 2 >> g
    return r * x >> g if k & 1 else r


def _level_sum(digits: int, level: int, n: int, s: int, g: int) -> int:
    """One level's folded +-u terms on the grid 2^-g: sum weight (a + b) over its
    nodes, a = t (1-t)^s (-ln t)^n and b = (1-t) t^s (-ln(1-t))^n, for s > 0 as
    t (1-t) ((1-t)^(s-1) (-ln t)^n + t^(s-1) (-ln(1-t))^n), by ``_fpow`` and floors.

    Bound.  Each node value errs by at most eps = 5 ulps (``_level_nodes``).
    Only t (1-t)'s error reaches a + b through a large factor, t^(s-1)
    (-ln(1-t))^n <= Q^n (``_grid_bits``); every other error and floor is
    multiplied by values below 1, or by at most n (1-t) (-ln(1-t))^j <= n c,
    c = e (n/e)^n.  So a + b errs by at most (eps + 1)(Q^n + R) ulps,
    R = n (n + s)(c + 1) + 2, and a node by at most 7 Q^(m+1), m = max(n, 6),
    while 6 R + 5 (c + 1) <= Q^m (s up to about 10^10).  Level v has at most
    u_max 2^max(v-1, 0) + 1 nodes and errs by at most 2^(G+v-1) ulps, G = g - prec;
    the value after level v, 2^-v times the sums of levels 0..v, by 2^-prec.
    """
    acc = 0
    for wt, t, omt, lt, lo in _node_rows(digits, level, g):
        ln, lon = _fpow(lt, n, g), _fpow(lo, n, g)
        if s:
            x = _fpow(omt, s - 1, g) * ln + _fpow(t, s - 1, g) * lon >> g
            acc += wt * ((t * omt >> g) * x >> g)
        else:
            acc += wt * (t * ln + omt * lon >> g)
    return acc >> g


def oracle_quadrature(spec: SeriesSpec, cfg: NumericCfg) -> OracleResult:
    """Tanh-sinh integration of the integral that the row's defining sum equals.

    A_n(s) = (-1)^n Int_0^1 (1-t)^(s-1) ln(t)^n dt, (n, s) = ``Family.integral``.
    The substitution t = (1 + tanh((pi/2) sinh u))/2 sends both endpoints to double-
    exponentially decaying tails, and 1-t is available without cancellation
    as the mirrored node (``_level_nodes``).  Levels halve the step and reuse
    prior nodes; the level-to-level difference is the reported error estimate.
    All of it is summed on one grid 2^-g (``_grid_bits``): the value after level
    v is the sum of the level sums through v times 2^-(g+v), exactly, as is each
    estimate; it lies within 2^-prec, the tail_bound, of the exact node sum.

    A node's values depend on (digits, level, g) alone, so levels 0 through 10
    (the default quad_levels) read them from a table shared by every call on
    that grid (``_node_table``, an LRU of 4 grids x 11 levels: 2.2 MB for 100,
    200 and 300 digits through levels 6, 7 and 8, 9.0 MB for 1000 digits
    through level 9, 18.1 MB through level 10, in tuple and int objects); deeper
    levels compute them as they go and keep nothing.  Levels 0-9 at 1000 digits
    take about 2.8 s cold.
    """
    if spec.family.integral is None:
        raise ValueError(f"quadrature needs the row's integral A_n(s), and {spec} has none")
    n, s = spec.family.integral(*spec.args)
    t0 = time.perf_counter()
    prec, g = dps_to_prec(cfg.digits + 15), _grid_bits(cfg.digits, n)
    total = _level_sum(cfg.digits, 0, n, s, g)  # h = 1
    estimates: list = []
    for level in range(1, cfg.quad_levels + 1):
        # value/2 + h S is (total + S) 2^-(g+level); converged once
        # |new - value| <= 10^-(digits+5) max(1, |new|)
        new = total + _level_sum(cfg.digits, level, n, s, g)
        diff, total = abs(new - 2 * total), new
        estimates.append(mp.make_mpf(from_man_exp(diff, -(g + level))))
        converged = diff * 10 ** (cfg.digits + 5) <= max(total, 1 << (g + level))
        if converged:
            break
    v = g + len(estimates)
    result = OracleResult(mid=total, rad=1 << (v - prec), est=diff, exp=-v, method="quadrature",
                          n_used=None, levels_used=len(estimates), elapsed=time.perf_counter() - t0,
                          level_estimates=tuple(estimates))
    if not converged:
        raise OracleError(
            f"quadrature stalled at level {len(estimates)} with estimate {to_str(estimates[-1]._mpf_, 5)}",
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
