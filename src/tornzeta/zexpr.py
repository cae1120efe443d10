"""Rational-linear combinations over the constant basis {1, ln2, zeta(k), pi^k}.

Every closed form produced in this package is a finite Q-linear combination
of 1, ln 2, zeta values at integers >= 2, and integer powers of pi.  The
basis symbols are formally independent here: ``ZExpr`` does bookkeeping
only, and the one rewrite that does relate them, zeta(2n) <-> pi^(2n), is
an explicit normalization step rather than something that happens behind
your back.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Iterable

from .exact import bernoulli

_KIND_ORDER = {"unit": 0, "ln2": 1, "zeta": 2, "pipow": 3}


@dataclass(frozen=True, order=False)
class ConstSym:
    """One basis symbol: the unit 1, ln 2, zeta(k), or pi^k."""

    kind: str
    k: int = 0

    def __post_init__(self) -> None:
        if self.kind not in _KIND_ORDER:
            raise ValueError(f"unknown constant kind {self.kind!r}")
        if self.kind in ("unit", "ln2") and self.k != 0:
            raise ValueError(f"{self.kind} takes no index, got k={self.k}")
        if self.kind == "zeta" and self.k < 2:
            raise ValueError(f"zeta index must be >= 2, got {self.k}")
        if self.kind == "pipow" and self.k < 1:
            raise ValueError(f"pi power must be >= 1, got {self.k}")

    def sort_key(self) -> tuple[int, int]:
        return (_KIND_ORDER[self.kind], self.k)

    def __lt__(self, other: "ConstSym") -> bool:
        return self.sort_key() < other.sort_key()

    def render(self) -> str:
        if self.kind == "unit":
            return "1"
        if self.kind == "ln2":
            return "ln2"
        if self.kind == "zeta":
            return f"z{self.k}"
        return "pi" if self.k == 1 else f"pi^{self.k}"


UNIT = ConstSym("unit")
LN2 = ConstSym("ln2")


def zeta_sym(k: int) -> ConstSym:
    return ConstSym("zeta", k)


def pi_pow(k: int) -> ConstSym:
    return ConstSym("pipow", k)


class ZExpr:
    """Immutable rational-linear combination of ``ConstSym`` basis symbols.

    Zero coefficients are dropped on construction, so equality is plain
    coefficient-wise comparison and the zero expression has no terms.
    The hash is computed on first use and never pickled: a str hash is
    salted per process.
    """

    __slots__ = ("_coeffs", "_hash")

    def __init__(self, terms: Iterable[tuple[ConstSym, Fraction]] = ()) -> None:
        acc: dict[ConstSym, Fraction] = {}
        for sym, coeff in terms:
            if not isinstance(sym, ConstSym):
                raise TypeError(f"expected ConstSym, got {type(sym).__name__}")
            c = Fraction(coeff)
            if sym in acc:
                acc[sym] += c
            else:
                acc[sym] = c
        object.__setattr__(
            self, "_coeffs", {s: c for s, c in acc.items() if c != 0}
        )

    # -- constructors ---------------------------------------------------

    @classmethod
    def rational(cls, q: Fraction | int) -> "ZExpr":
        return cls([(UNIT, Fraction(q))])

    @classmethod
    def zeta(cls, k: int, coeff: Fraction | int = 1) -> "ZExpr":
        return cls([(zeta_sym(k), coeff)])

    # -- accessors ------------------------------------------------------

    def coeff(self, sym: ConstSym) -> Fraction:
        return self._coeffs.get(sym, Fraction(0))

    def terms(self) -> tuple[tuple[ConstSym, Fraction], ...]:
        """Terms in canonical order: 1, ln2, zeta(2), zeta(3), ..., pi, pi^2, ..."""
        return tuple((sym, self._coeffs[sym]) for sym in sorted(self._coeffs))

    def is_zero(self) -> bool:
        return not self._coeffs

    # -- algebra --------------------------------------------------------

    def __add__(self, other: "ZExpr") -> "ZExpr":
        if not isinstance(other, ZExpr):
            return NotImplemented
        merged = dict(self._coeffs)
        for sym, c in other._coeffs.items():
            merged[sym] = merged.get(sym, Fraction(0)) + c
        return ZExpr(merged.items())

    def __sub__(self, other: "ZExpr") -> "ZExpr":
        if not isinstance(other, ZExpr):
            return NotImplemented
        return self + (-1) * other

    def __mul__(self, scalar: Fraction | int) -> "ZExpr":
        c = Fraction(scalar)
        return ZExpr((sym, c * v) for sym, v in self._coeffs.items())

    __rmul__ = __mul__

    def __neg__(self) -> "ZExpr":
        return self * -1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ZExpr):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            object.__setattr__(self, "_hash", hash(frozenset(self._coeffs.items())))
            return self._hash

    def __reduce__(self):
        return ZExpr, (tuple(self._coeffs.items()),)

    def __repr__(self) -> str:
        return f"ZExpr({self.render()!r})"

    # -- rendering ------------------------------------------------------

    def render(self) -> str:
        """Canonical text form, e.g. ``16*z2 - 14*z3`` or ``4 - 2*ln2 - z2``."""
        if self.is_zero():
            return "0"
        parts: list[str] = []
        for sym, coeff in self.terms():
            mag = abs(coeff)
            if sym == UNIT:
                body = str(mag)
            elif mag == 1:
                body = sym.render()
            else:
                body = f"{mag}*{sym.render()}"
            if not parts:
                parts.append(body if coeff > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(parts)


def zeta_even_to_pi(n: int) -> ZExpr:
    """zeta(2n) rewritten as a rational multiple of pi^(2n).

    The coefficient is (-1)^(n+1) (2)^(2n) B_{2n} / (2 (2n)!), e.g.
    zeta(2) -> pi^2/6, zeta(4) -> pi^4/90, zeta(6) -> pi^6/945.
    """
    if n < 1:
        raise ValueError(f"zeta_even_to_pi needs n >= 1, got {n}")
    num = (-1) ** (n + 1) * 2 ** (2 * n) * bernoulli(2 * n)
    coeff = num / (2 * factorial(2 * n))
    return ZExpr([(pi_pow(2 * n), coeff)])


def _pi_even_to_zeta(k: int) -> ZExpr:
    # inverse direction: pi^(2n) as a rational multiple of zeta(2n)
    n = k // 2
    coeff = zeta_even_to_pi(n).coeff(pi_pow(k))
    return ZExpr.zeta(2 * n, 1 / coeff)


def zx_normalize(a: ZExpr, mode: str = "keep-zeta") -> ZExpr:
    """Rewrite between the zeta(2n) and pi^(2n) presentations.

    ``keep-zeta`` turns every even pi power into the matching zeta value;
    ``prefer-pi`` goes the other way.  Odd pi powers and everything else
    pass through untouched.  The two modes are mutually inverse on
    expressions with no odd pi powers.
    """
    if mode not in ("keep-zeta", "prefer-pi"):
        raise ValueError(f"unknown normalization mode {mode!r}")
    out = ZExpr()
    for sym, coeff in a.terms():
        if mode == "keep-zeta" and sym.kind == "pipow" and sym.k % 2 == 0:
            out = out + coeff * _pi_even_to_zeta(sym.k)
        elif mode == "prefer-pi" and sym.kind == "zeta" and sym.k % 2 == 0:
            out = out + coeff * zeta_even_to_pi(sym.k // 2)
        else:
            out = out + ZExpr([(sym, coeff)])
    return out
