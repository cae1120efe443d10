"""Certified asymptotic tails of the regrouped series.

Past a cutoff N a family's regrouped term f(G) is expanded in w = N/G,
which lies in (0, 1] for G >= N, with coefficients polynomial in L = ln G:

    f(G) = sum_{i <= K, j} t_ij w^i L^j + R(G),
    |R(G)| <= w^(K+1) sum_j r_j L^j        for every G >= N.

The tail past N is then sum t_ij Y_ij, within sum r_j Y_{K+1,j}, where
Y_ij = sum_{G > N} w^i L^j = (-1)^j N^i zeta^(j)(i, N+1) comes from one
Euler-Maclaurin pass per row i (``_log_power_row``), shared by every
series of a precision.

The term is built from its row's ``Family.atoms`` description:

* H^(k)_{x+l}, x = aG and l = 0 or -1, is one Euler-Maclaurin series
  (DLMF 2.10.1): ln x + gamma (k = 1) or zeta(k) - x^(1-k)/(k-1), then
  (1/2 + l) x^-k, then -B_2r (k)_{2r-1}/(2r)! x^(1-k-2r).  The derivatives
  of x^-k keep one sign, so the remainder is at most twice the first
  omitted term;
* H_{aG+b} is H_{aG} plus or minus the reciprocals 1/(aG + t) that shift
  aG to aG + b, each with a geometric remainder;
* O_{G+b} = H_{2G+2b} - H_{G+b}/2;
* the power sums H^(k)_{G-1} give e_j(1, 1/2, ..., 1/(G-1)) by Newton's
  identities, and 1/G^p is the one coefficient w^p / N^p;
* each linear factor aG + b of the denominator is a geometric series.

Products drop the terms above order K into the remainder (``_dropped``
bounds them), and every coefficient carries a bound on its rounding
error.  All arithmetic is on integers scaled by 2^P; an "ulp" below is 2^-P.
Each log jet (-ln(N+1))^j/j! is one rounded division, from ln(N+1) floored once.
gamma, logarithms, zeta(k) and B_2r (``bernfrac``) come from mpmath, never from
``const_*`` or ``exact.bernoulli``, so the oracle shares no code with the closed forms.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache, lru_cache, reduce
from itertools import accumulate
from typing import TYPE_CHECKING, NamedTuple

from mpmath.libmp import bernfrac, from_int, mpf_add, mpf_euler, mpf_log, mpf_nint, mpf_shift, mpf_zeta
from mpmath.libmp import round_floor, round_nearest, to_fixed, to_int

_bernfrac = cache(bernfrac)  # B_n as (p, q); each row asks for B_2r again

if TYPE_CHECKING:
    from .series import SeriesSpec

class _Grid(NamedTuple):
    n: int  # cutoff N: w = N/G
    order: int  # K: powers w^0..w^K are kept
    prec: int  # P: coefficients are integers scaled by 2^P


class _Series(NamedTuple):
    """sum c[i][j] w^i L^j / 2^P for i <= K, j <= deg, with its error.

    The function it stands for is sum t_ij w^i L^j + R(G) for G >= N,
    where t_ij = 0 for i < ``val``, |t_ij - c[i][j]| <= ``err`` ulps for
    i >= val, and |R(G)| <= w^(K+1) sum_j rem[j] L^j ulps.  ``_dropped``
    bounds what truncating it at an order leaves out.  Instances are
    cached and shared, so nothing mutates one after it is built.
    """

    c: list[list[int]]
    val: int
    err: int
    rem: list[int]


def _rnd(num: int, den: int) -> int:
    """num/den rounded to the nearest integer, den > 0."""
    return (2 * num + den) // (2 * den)


def _up(num: int, den: int) -> int:
    """num/den rounded up, den > 0."""
    return -(-num // den)


def _poly_mul(x: list[int], y: list[int]) -> list[int]:
    out = [0] * (len(x) + len(y) - 1)
    for i, a in enumerate(x):
        if a:
            for j, b in enumerate(y):
                out[i + j] += a * b
    return out


def _poly_add(x: list[int], y: list[int]) -> list[int]:
    if len(x) < len(y):
        x, y = y, x
    return [a + (y[j] if j < len(y) else 0) for j, a in enumerate(x)]


def _fixed(x: tuple, prec: int) -> int:
    """A raw mpf x, rounded at prec + 64 bits, in ulps of 2^-prec, within an ulp."""
    return to_int(mpf_nint(mpf_shift(x, prec)))


def _blank(grid: _Grid, deg: int = 0) -> list[list[int]]:
    return [[0] * (deg + 1) for _ in range(grid.order + 1)]


def _one(grid: _Grid) -> _Series:
    c = _blank(grid)
    c[0][0] = 1 << grid.prec
    return _Series(c, 0, 0, [0])


def _dropped(x: _Series) -> list[list[int]]:
    """Rows d[0..K+1] in ulps, d[i][j] = sum_{i' >= i} |c[i'][j]| + err [i' >= val]
    and d[K+1] = 0: as w <= 1, the orders from i up are at most w^i sum_j d[i][j] L^j."""
    d = [[0] * len(x.c[0])]
    for i in range(len(x.c) - 1, -1, -1):
        lift = x.err if i >= x.val else 0
        d.append([s + abs(v) + lift for s, v in zip(d[-1], x.c[i])])
    return d[::-1]


def _mul(x: _Series, y: _Series, grid: _Grid) -> _Series:
    order, prec = grid.order, grid.prec
    deg = len(x.c[0]) + len(y.c[0]) - 2
    acc = _blank(grid, deg)
    for i in range(x.val, order + 1 - y.val):
        for i2 in range(y.val, order + 1 - i):
            row = acc[i + i2]
            for j, a in enumerate(x.c[i]):
                if a:
                    for j2, b in enumerate(y.c[i2]):
                        row[j + j2] += a * b
    half = 1 << (prec - 1)
    c = [[(v + half) >> prec for v in row] for row in acc]
    # the products with i + i2 > K go to the remainder (w <= 1)
    dy = _dropped(y)
    dropped = [0] * (deg + 1)
    for i in range(max(x.val, 1), order + 1):
        tail = dy[order + 1 - i]
        for j, a in enumerate(x.c[i]):
            for j2, b in enumerate(tail):
                dropped[j + j2] += (abs(a) + x.err) * b
    mx, my = _dropped(x)[0], dy[0]
    rem = _poly_add(dropped, _poly_mul(x.rem, _poly_add(my, y.rem)))
    rem = [_up(v, 1 << prec) for v in _poly_add(rem, _poly_mul(mx, y.rem))]
    # each kept coefficient sums at most (K + 1)(min degree + 1) products
    pairs = (order + 1) * min(len(x.c[0]), len(y.c[0]))
    err_num = sum(mx) * y.err + sum(my) * x.err + pairs * x.err * y.err
    return _Series(c, x.val + y.val, _up(err_num, 1 << prec) + 1, rem)


def _combine(parts: list[tuple[Fraction, _Series]], grid: _Grid) -> _Series:
    """sum q * x over (q, x), each product rounded once."""
    c = _blank(grid, max(len(x.c[0]) for _, x in parts) - 1)
    err, rem = 0, [0]
    for q, x in parts:
        p, d = q.numerator, q.denominator
        for i in range(x.val, grid.order + 1):
            row = c[i]
            for j, v in enumerate(x.c[i]):
                row[j] += _rnd(v * p, d)
        err += _up(x.err * abs(p), d) + (d > 1)
        rem = _poly_add(rem, [_up(v * abs(p), d) for v in x.rem])
    return _Series(c, min(x.val for _, x in parts), err, rem)


@lru_cache(maxsize=256)
def _reciprocals(alpha: int, shifts: tuple[int, ...], grid: _Grid) -> _Series:
    """sum over t in shifts of 1/(alpha G + t) = sum_r (-t)^r w^(r+1) / x^(r+1),
    x = alpha N, with the geometric remainder |t|^K / (x^K (x - |t|))."""
    n, order, prec = grid
    x = alpha * n
    if any(abs(t) >= x for t in shifts):
        raise ValueError(f"shift {max(map(abs, shifts))} is out of reach of cutoff {n}")
    c = _blank(grid)
    for r in range(order):
        c[r + 1][0] = _rnd(sum((-t) ** r for t in shifts) << prec, x ** (r + 1))
    rem = sum(_up(abs(t) ** order << prec, x**order * (x - abs(t))) for t in shifts)
    return _Series(c, 1, 1, [rem])


@lru_cache(maxsize=256)
def _power_sum(k: int, alpha: int, last: int, grid: _Grid) -> _Series:
    """H^(k)_{x+last} for G >= N, x = alpha G, last 0 or -1: the module docstring's series."""
    n, order, prec = grid
    x = alpha * n
    c = _blank(grid, 1 if k == 1 else 0)
    wp, rnd = prec + 64, round_nearest
    if k == 1:
        gamma = mpf_euler(wp, rnd)
        c[0][0] = _fixed(mpf_add(mpf_log(from_int(alpha), wp, rnd), gamma, wp, rnd), prec)
        c[0][1] = 1 << prec
    else:
        c[0][0] = _fixed(mpf_zeta(from_int(k), wp, rnd), prec)
        c[k - 1][0] = -_rnd(1 << prec, (k - 1) * x ** (k - 1))
    c[k][0] = (1 + 2 * last) * _rnd(1 << prec, 2 * x**k)
    r, rising = 1, k  # (k)_{2r-1}
    while True:
        (bn, bd), p = _bernfrac(2 * r), k + 2 * r - 1
        num, den = bn * rising << prec, bd * math.factorial(2 * r) * x**p
        if p > order:
            return _Series(c, 0, 1, [_up(2 * abs(num), den)])
        c[p][0] = -_rnd(num, den)
        rising *= p * (p + 1)
        r += 1


@lru_cache(maxsize=256)
def _harmonic(alpha: int, beta: int, grid: _Grid) -> _Series:
    """H_{alpha G + beta} for G >= N."""
    h = _power_sum(1, alpha, 0, grid)
    if beta == 0:
        return h
    # H_{x+b} = H_x + sum_{0<t<=b} 1/(x+t), and H_x - sum_{b<t<=0} 1/(x+t) for b < 0
    shifts = range(1, beta + 1) if beta > 0 else range(beta + 1, 1)
    sign = Fraction(1 if beta > 0 else -1)
    return _combine([(Fraction(1), h), (sign, _reciprocals(alpha, tuple(shifts), grid))], grid)


@lru_cache(maxsize=64)
def _elementary(j: int, grid: _Grid) -> _Series:
    """e_j(1, 1/2, ..., 1/(G-1)) = (1/j) sum_i (-1)^(i-1) e_{j-i} H^(i)_{G-1} (Newton)."""
    if j == 0:
        return _one(grid)
    parts = []
    for i in range(1, j + 1):
        p = _power_sum(i, 1, -1, grid)
        term = p if i == j else _mul(_elementary(j - i, grid), p, grid)
        parts.append((Fraction((-1) ** (i - 1), j), term))
    return _combine(parts, grid)


def _least_order(atom: tuple) -> int:
    """The least order K for ``atom``: H^(k) keeps its x^-k term, so K > k; e_j takes H^(1..j); 1/G^p, p."""
    kind, k = atom[:2]
    return k if kind == "G" else k + 1 if kind in ("E", "P") else 2


def _atom(atom: tuple, grid: _Grid) -> _Series:
    if grid.order < _least_order(atom):
        raise ValueError(f"order {grid.order} is too low for the atom {atom!r}")
    match atom:
        case ("H", alpha, beta):
            return _harmonic(alpha, beta, grid)
        case ("O", beta):
            # O_{G+b} = H_{2G+2b} - H_{G+b}/2
            h2, h1 = _harmonic(2, 2 * beta, grid), _harmonic(1, beta, grid)
            return _combine([(Fraction(1), h2), (Fraction(-1, 2), h1)], grid)
        case ("E", j):
            return _elementary(j, grid)
        case ("P", k):
            return _power_sum(k, 1, -1, grid)
        case ("G", p):
            c = _blank(grid)
            c[p][0] = _rnd(1 << grid.prec, grid.n**p)
            return _Series(c, p, 1, [0])
    raise ValueError(f"unknown atom {atom!r}")


def term_expansion(spec: SeriesSpec, n: int, order: int, prec: int) -> _Series:
    """The regrouped term of ``spec`` expanded past cutoff n to order w^order."""
    grid = _Grid(n, order, prec)
    terms, linear = spec.family.atoms(*spec.args)

    def product(factors: list[_Series]) -> _Series:
        return reduce(lambda x, y: _mul(x, y, grid), factors) if factors else _one(grid)

    numer = [(Fraction(coeff), product([_atom(a, grid) for a in atoms])) for coeff, atoms in terms]
    denom = product([_reciprocals(alpha, (beta,), grid) for alpha, beta in linear])
    return _mul(_combine(numer, grid), denom, grid)


def _times_linear(p: list[int], c: int) -> list[int]:
    """p(eps) (c + eps), truncated to the length of p."""
    return [c * v + (p[j - 1] if j else 0) for j, v in enumerate(p)]


@lru_cache(maxsize=1024)
def _log_power_row(i: int, deg: int, n: int, prec: int) -> tuple[tuple[int, ...], int]:
    """Y_ij = sum_{G > n} (n/G)^i ln^j G for j <= deg, in ulps, and a bound
    on the error of each.

    Euler-Maclaurin from x0 = n + 1 on x^-(i+eps), with eps a truncated
    power series variable (Johansson 2015): sum_{G >= x0} G^-(i+eps) =
    x0^-(i+eps) [x0/(i-1+eps) + 1/2 + sum_r B_2r/(2r)! (i+eps)_{2r-1}
    x0^(1-2r)] + R, and (-1)^j j! times the coefficient of eps^j is
    sum ln^j G / G^i.  R is bounded for each j through DLMF 2.10.1 on
    f(x) = ln^j x / x^i: at most 2|B_2m|/(2m)! times the integral of
    |f^(2m)| past x0, with m one past the last term used.
    """
    x0 = n + 1
    q = [_rnd((-1) ** j * x0 << prec, (i - 1) ** (j + 1)) for j in range(deg + 1)]
    q[0] += 1 << (prec - 1)
    poch = ([i, 1] + [0] * deg)[: deg + 1]  # (i+eps)_{2r-1}
    log_x0 = math.log(x0)
    last = math.inf
    r = 1
    while True:
        bn, bd = _bernfrac(2 * r)
        den = bd * math.factorial(2 * r) * x0 ** (2 * r - 1)
        for j in range(deg + 1):
            q[j] += _rnd(bn * poch[j] << prec, den)
        poch = _times_linear(_times_linear(poch, i + 2 * r - 1), i + 2 * r)
        r += 1
        # natural log of the next term: |B_2r|/(2r)! < 4/(2 pi)^2r, and the
        # coefficients of (i+eps)_{2r-1} at most (i)_{2r-1} (1 + ln(i+2r))^deg
        size = (
            math.log(4)
            - 2 * r * math.log(2 * math.pi)
            + math.lgamma(i + 2 * r - 1)
            - math.lgamma(i)
            + (1 - 2 * r) * log_x0
            + deg * math.log(1 + math.log(i + 2 * r))
        )
        if size < -(prec + 8) * math.log(2):
            break
        if size >= last:
            # the series turns before it is small enough: i ~ 2 pi x0
            raise ValueError(f"cutoff {n} is too low for order {i} at {prec} bits")
        last = size
    # terms r' < r were added; the remainder needs f^(2r)
    m2 = 2 * r
    p1 = i + m2 - 1
    poch = _times_linear(poch, p1)  # (i+eps)_{2r}
    bn, bd = _bernfrac(m2)
    lam = math.ceil(log_x0) + 1  # > ln x0
    # em[j] bounds 2|B_2r|/(2r)! n^i sum_l poch[l] j!/(j-l)! I_{j-l}, with I_m the integral
    # of x^-(p1+1) ln^m x past x0: x0^-p1 sum_{u<=m} m!/u! ln^u x0 / p1^(m-u+1), at most
    # x0^-p1 s[m] / p1^(m+1) for s[m] = sum_{u<=m} (lam p1)^u m!/u! = m s[m-1] + (lam p1)^m
    s = list(accumulate(range(1, deg + 1), lambda v, m: m * v + (lam * p1) ** m, initial=1))
    top, bottom = 2 * abs(bn) * n**i, bd * math.factorial(m2) * x0**p1
    em = []
    for j in range(deg + 1):
        inner = sum(poch[l] * s[j - l] * math.perm(j, l) * p1**l for l in range(j + 1))
        em.append(_up(top * inner << prec, bottom * p1 ** (j + 1)))
    err_q = r + 1  # half an ulp per rounded term
    # x0^-eps = sum_j (-ln x0)^j / j! eps^j: ln x0 floored once, then one rounded division per jet
    wp = prec + 64
    lg = -to_fixed(mpf_log(from_int(x0), wp, round_floor), wp)
    ell = [_rnd(lg**j << prec, math.factorial(j) << wp * j) for j in range(deg + 1)]
    num, den = n**i, x0**i << prec
    ys, err = [], 0
    for j in range(deg + 1):
        v = sum(ell[j - l] * q[l] for l in range(j + 1))
        e = sum(abs(ell[j - l]) * err_q + abs(q[l]) + err_q for l in range(j + 1))
        f = math.factorial(j)
        ys.append(_rnd((-1) ** j * f * v * num, den))
        err = max(err, _up(f * e * num, den) + 1 + em[j])
    return tuple(ys), err


def order(spec: SeriesSpec, n: int, digits: int) -> int:
    """K >= 8 and each atom's ``_least_order``, at which the atoms' remainders
    past cutoff n fall below 10^-(digits+6): about 4 (K+1)! / (2 pi n)^(K+1) for
    H, ((shift + 2)/n)^(K+1) for the shifted reciprocals.  The first stops falling
    once K+2 > 2 pi n; a cutoff that has not met the target by then raises ValueError."""
    target = -(digits + 6) * math.log(10)
    ratio = math.log((spec.family.shift(*spec.args) + 2) / n)
    terms = spec.family.atoms(*spec.args)[0]
    k = max([8] + [_least_order(a) for _, atoms in terms for a in atoms])
    while True:
        harmonic = math.log(4) + math.lgamma(k + 2) - (k + 1) * math.log(2 * math.pi * n)
        if max(harmonic, (k + 1) * ratio) <= target:
            return k
        if k + 2 > 2 * math.pi * n:
            raise ValueError(f"cutoff {n} is too low for {digits} digits")
        k += 1


def tail(spec: SeriesSpec, n: int, digits: int, prec: int) -> tuple[int, int]:
    """(value, bound) in ulps of 2^-prec: sum_{G > n} of the regrouped term
    of ``spec``, and a certified bound on the error of that value.

    The value keeps every order of the expansion.  Truncating it at a lower
    order k moves the orders above k into the remainder (w^i <= w^(k+1)
    for i > k), and the bound reported is the certified bound of the least
    such truncation that is below 10^-(digits+2), or the full expansion's
    own bound when that is larger.  The enclosure so has the width the
    requested digits ask for, but the value's error can nearly fill it:
    against mpmath, A3:s=0's error is 0.95-0.996 of the bound at 60, 120,
    200, 250, 300 and 1000 digits (under 0.001 at 150, 400 and 500); which
    order decides this is ROADMAP item 4's margin audit.  The closed forms
    err far less (``oracle._closed_bits``), so A3:s=0 (6 zeta(4)) stays inside
    this bound: abs_err is 0.98 of it at 200 digits and 0.996 at 1000.
    """
    top = order(spec, n, digits)
    t = term_expansion(spec, n, top, prec)
    if t.val < 2:
        raise ValueError(f"the regrouped term of {spec} does not decay like 1/G^2")
    deg = max(len(t.c[0]), len(t.rem)) - 1
    rows = [_log_power_row(i, deg, n, prec) for i in range(t.val, top + 2)]
    one = 1 << prec
    target = one * one // 10 ** (digits + 2)
    dt = _dropped(t)
    acc = rounding = 0
    bounds = []
    for k, (ys, ey) in enumerate(rows[:-1], t.val):
        for cij, y in zip(t.c[k], ys):
            acc += cij * y
            rounding += abs(cij) * ey + (abs(y) + ey) * t.err
        ys, ey = rows[k + 1 - t.val]
        rem = _poly_add(t.rem, dt[k + 1])  # truncating at k leaves the orders above k
        bounds.append(rounding + sum(r * (abs(y) + ey) for r, y in zip(rem, ys)))
    reached = [b for b in bounds if b <= target]
    bound = max(bounds[-1], reached[0]) if reached else bounds[-1]
    return _rnd(acc, one), _up(bound, one) + 1
