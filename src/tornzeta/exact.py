"""Exact rational arithmetic: Bernoulli numbers and harmonic sums.

Everything here returns ``fractions.Fraction`` in lowest terms.  The Bernoulli
numbers feed the zeta(2n) <-> pi^(2n) rewrite in ``zexpr`` and the ``bernoulli``
command (``const_zeta`` needs none, and the asymptotic tails take B_2r from mpmath's
``bernfrac``); the harmonic numbers give aXL's closed form and the tests' references.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache

_ZERO = Fraction(0)


@cache
def bernoulli(n: int) -> Fraction:
    """B_n with B_1 = -1/2; exact, so B_12 = -691/2730 comes out on the nose.

    From the defining recurrence sum_{j=0}^{n} C(n+1, j) B_j = 0.  It asks
    for B_j with j ascending, and each B_j finds its predecessors cached, so
    the recursion is at most 2 deep.
    """
    if n < 0:
        raise ValueError(f"bernoulli needs n >= 0, got {n}")
    if n < 2:
        return Fraction(1) if n == 0 else Fraction(-1, 2)
    if n % 2:
        # odd-index values vanish past B_1
        return _ZERO
    # j = 0 and 1 give 1 - (n+1)/2; the odd j >= 3 give zero, so only even j >= 2 are added
    terms = (math.comb(n + 1, j) * bernoulli(j) for j in range(2, n, 2))
    return -sum(terms, Fraction(1 - n, 2)) / (n + 1)


@cache
def harmonic_gen(n: int, m: int) -> Fraction:
    """H_n^(m) = sum_{i=1}^{n} 1/i^m; order m >= 1."""
    if n < 0:
        raise ValueError(f"harmonic_gen needs n >= 0, got {n}")
    if m < 1:
        raise ValueError(f"harmonic_gen needs order m >= 1, got {m}")
    den = math.lcm(*range(1, n + 1)) ** m
    return Fraction(sum(den // i**m for i in range(1, n + 1)), den)


def harmonic(n: int) -> Fraction:
    """H_n; H_0 = 0."""
    return harmonic_gen(n, 1)


@cache
def odd_harmonic(m: int) -> Fraction:
    """O_m = 1 + 1/3 + ... + 1/(2m-1); O_0 = 0."""
    if m < 0:
        raise ValueError(f"odd_harmonic needs m >= 0, got {m}")
    odd = range(1, 2 * m, 2)
    den = math.lcm(*odd)
    return Fraction(sum(den // i for i in odd), den)
