"""Exact rational arithmetic: binomials, Bernoulli numbers, harmonic sums.

Everything here returns ``fractions.Fraction`` in lowest terms.  The closed
forms downstream are alternating binomial sums and harmonic-number
combinations whose cancellation is catastrophic in floating point, so the
rational layer is the ground truth that the numeric oracles are checked
against, never the other way around.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction

Rat = Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


def binomial(n: int, k: int) -> Rat:
    """C(n, k) as an exact rational; 0 when k > n.

    Both arguments must be nonnegative integers.
    """
    if n < 0 or k < 0:
        raise ValueError(f"binomial needs n, k >= 0, got n={n}, k={k}")
    if k > n:
        return _ZERO
    return Fraction(math.comb(n, k))


# Bernoulli numbers, B_1 = -1/2 convention.  Computed once via the
# defining recurrence sum_{j=0}^{n} C(n+1, j) B_j = 0 and cached; the
# cache only ever grows, guarded for concurrent growth.
_bernoulli_cache: list[Fraction] = [_ONE, Fraction(-1, 2)]
_bernoulli_lock = threading.Lock()


def bernoulli(n: int) -> Rat:
    """B_n with B_1 = -1/2; exact, so B_12 = -691/2730 comes out on the nose."""
    if n < 0:
        raise ValueError(f"bernoulli needs n >= 0, got {n}")
    if n >= len(_bernoulli_cache):
        with _bernoulli_lock:
            while len(_bernoulli_cache) <= n:
                m = len(_bernoulli_cache)
                if m % 2 == 1:
                    # odd-index values vanish past B_1
                    _bernoulli_cache.append(_ZERO)
                    continue
                acc = _ZERO
                for j in range(m):
                    acc += binomial(m + 1, j) * _bernoulli_cache[j]
                _bernoulli_cache.append(-acc / binomial(m + 1, m))
    return _bernoulli_cache[n]


# Incrementally grown caches of harmonic numbers: H_n = sum_{i<=n} 1/i,
# the generalized H_n^(m) = sum_{i<=n} 1/i^m by order m, and the odd-
# denominator partial sums O_m = sum_{k<=m} 1/(2k-1).  Rows extend on
# demand and existing entries are never recomputed, so two lookups of the
# same value always return the identical Fraction.
_harmonic_cache: list[Fraction] = [_ZERO]
_odd_cache: list[Fraction] = [_ZERO]
_gen_cache: dict[int, list[Fraction]] = {}
_harmonic_lock = threading.Lock()


def harmonic(n: int) -> Rat:
    """H_n; H_0 = 0."""
    if n < 0:
        raise ValueError(f"harmonic needs n >= 0, got {n}")
    if n >= len(_harmonic_cache):
        with _harmonic_lock:
            while len(_harmonic_cache) <= n:
                i = len(_harmonic_cache)
                _harmonic_cache.append(_harmonic_cache[-1] + Fraction(1, i))
    return _harmonic_cache[n]


def harmonic_gen(n: int, m: int) -> Rat:
    """H_n^(m) = sum_{i=1}^{n} 1/i^m; order m >= 1."""
    if n < 0:
        raise ValueError(f"harmonic_gen needs n >= 0, got {n}")
    if m < 1:
        raise ValueError(f"harmonic_gen needs order m >= 1, got {m}")
    if m == 1:
        return harmonic(n)
    with _harmonic_lock:
        row = _gen_cache.setdefault(m, [_ZERO])
        while len(row) <= n:
            i = len(row)
            row.append(row[-1] + Fraction(1, i**m))
    return _gen_cache[m][n]


def odd_harmonic(m: int) -> Rat:
    """O_m = 1 + 1/3 + ... + 1/(2m-1); O_0 = 0."""
    if m < 0:
        raise ValueError(f"odd_harmonic needs m >= 0, got {m}")
    if m >= len(_odd_cache):
        with _harmonic_lock:
            while len(_odd_cache) <= m:
                i = len(_odd_cache)
                _odd_cache.append(_odd_cache[-1] + Fraction(1, 2 * i - 1))
    return _odd_cache[m]
