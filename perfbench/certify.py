"""Certified digits and reference values, independent of tornzeta's numerics.

Everything is computed in mpmath at the caller's precision: at 300 digits
an abs_err of 1e-308 is far below the smallest float, and rounding it to
0.0 would credit the entry with unlimited digits.
"""

from __future__ import annotations

from fractions import Fraction

from mpmath import mp


def certified_digits(closed, abs_err, tail_bound, error_estimate, cap: int) -> float:
    """-log10((abs_err + tail_bound + error_estimate) / |closed|).

    This is how many leading digits of the closed form the comparison
    pins down.  Floored at 0 and capped at the working precision ``cap``,
    which is also the value when the slack is exactly zero.
    """
    with mp.workdps(cap + 20):
        closed = abs(mp.mpf(closed))
        slack = mp.mpf(abs_err) + mp.mpf(tail_bound) + mp.mpf(error_estimate)
        if closed == 0:
            return 0.0
        if slack == 0:
            return float(cap)
        return float(min(max(-mp.log10(slack / closed), 0), cap))


def reference_value(closed_form, digits: int):
    """Numeric value of a closed form from mpmath's own zeta, log(2) and pi.

    ``closed_form`` is a tornzeta ZExpr; only its terms are read, so the
    value shares no code with tornzeta's const_* evaluators.
    """
    with mp.workdps(digits + 20):
        acc = mp.mpf(0)
        for sym, coeff in closed_form.terms():
            if sym.kind == "unit":
                v = mp.mpf(1)
            elif sym.kind == "ln2":
                v = mp.log(2)
            elif sym.kind == "zeta":
                v = mp.zeta(sym.k)
            elif sym.kind == "pipow":
                v = mp.pi**sym.k
            else:
                raise ValueError(f"unknown constant symbol {sym!r}")
            acc += mp.mpf(coeff.numerator) / coeff.denominator * v
        return +acc


def agrees(value, reference, digits: int) -> bool:
    """True when value matches reference to ``digits`` significant digits."""
    with mp.workdps(digits + 20):
        ref = mp.mpf(reference)
        return bool(abs(mp.mpf(value) - ref) <= mp.mpf(10) ** (1 - digits) * max(1, abs(ref)))


def to_mpf(q: Fraction, digits: int):
    with mp.workdps(digits + 20):
        return mp.mpf(q.numerator) / q.denominator
