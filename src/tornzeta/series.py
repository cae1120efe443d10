"""The series catalog: one ``Family`` row per family, and the spec syntax.

A ``SeriesSpec`` names one member of the identity catalog: its family's
token plus the values of the row's parameters, e.g.
``SeriesSpec("An", (4, 0))``.  The text syntax is the one accepted on the
command line and echoed in reports, e.g. ``A3:s=2``, ``An:n=4,s=0``,
``halfint:c``, ``baseT:2``, ``ln``, ``tornheim:a=2,b=1,c=1``.

Everything the package knows about a family lives in its row of
``FAMILIES``: the parameter schema, the closed form, the defining summand,
the regrouped term as harmonic atoms, the tail majorant and the integral.  A fixed
closed form is written in its row; the A family's, which take an
algorithm, come from ``closedform``.  ``closedform.closed_form_of`` and the
oracles look the row up through ``SeriesSpec.family``; adding a family
means adding one row.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import comb, factorial, prod
from typing import Callable

from . import closedform
from .zexpr import LN2, UNIT, ZExpr


def _const(value):
    return lambda *args: value


def _index(m: int) -> int:
    return m


def _odd(m: int) -> int:
    return 2 * m + 1


@dataclass(frozen=True)
class Family:
    """One series family: everything the package knows about it.

    Every callable takes the spec's engine arguments (``SeriesSpec.args``:
    the ``fixed`` values, then the shown parameters) first.  ``summand``
    gives (num, lead, last, total) of the defining multi-index summand
    num / (lead(m_1) ... lead(m_{d-1}) last(m_d) total(g)), indices from
    ``origin`` and g = m_1 + ... + m_d; num is a constant, or None for
    H_{g + shift}.  The raw route's box and the exact triangle and box
    partials all come from it; a one-index row without it is its own
    regrouping.  ``atoms``, which every row has, is the summand regrouped by the index
    total G, from G = ``origin``, as (terms, linear): the sum of coeff * product of atoms
    over the terms, divided by the product of (a G + b) over the linear factors, with atoms
    ``("H", a, b)`` = H_{aG+b}, ``("O", b)`` = O_{G+b}, ``("E", j)`` = e_j(1, 1/2, ...,
    1/(G-1)), ``("P", k)`` = H^(k)_{G-1} for k >= 2 and ``("G", p)`` = 1/G^p.
    The diagonal walk, the exact diagonal partial and the asymptotic tail
    (``asymptotic.py``) of the diagonal route come from it.  The
    two forms are written independently, so their exact partial sums
    agreeing is a check of the regrouping.  ``tail`` gives (A, c, k, p) of A (ln G + c)^k
    / G^p, whose integral past a cutoff of at least ``shift`` bounds the discarded terms:
    for every row but oddsq it majorizes each term, and oddsq's bound holds by convexity
    (see its row).  The float c is used as its exact binary value, rounded up.
    """

    token: str  # the family's one name, in spec syntax and reports
    closed: Callable[..., ZExpr] | None  # None: oracle-only, no closed form
    tail: Callable[..., tuple[Fraction, float, int, int]]
    atoms: Callable[..., tuple]  # (*args) -> (terms, linear)
    summand: Callable[..., tuple] | None = None  # (*args); None: a one-index sum
    dims: Callable[..., int] = _const(2)  # number of summation indices
    origin: int = 1
    params: tuple[str, ...] = ()  # names of SeriesSpec.values, in syntax order
    fixed: tuple = ()  # leading engine arguments the family pins
    bare: bool = False  # the one parameter is written without its name
    valid: Callable[..., bool] = _const(True)
    rule: str = ""  # the range ``valid`` accepts, for error messages
    shift: Callable[..., int] = _const(0)
    integral: Callable[..., tuple[int, int]] | None = None  # (*args) -> (n, s): the sum is A_n(s)


def _single_sum(token, closed, atoms, tail) -> Family:
    # a one-index series is its own regrouping: its atoms are its term
    return Family(token, closed, _const(tail), atoms=_const(atoms), dims=_const(1))


# T_j = sum_{m,n>=0} 1/((2m+1)(2n+1)(2m+2n+j)), the base T-sums
_BASE_T = {1: ZExpr.zeta(2), 2: ZExpr.zeta(3, Fraction(7, 8)), 3: ZExpr.zeta(2, Fraction(1, 2))}

# half-integer variant -> (scale, *ks): the outer factors (m+n+k/2) and the inner
# (m+1/2)(n+1/2) each contribute a 2 once the halves are cleared
_HALF = {"a": (16, 1, 2), "b": (16, 2, 3), "c": (32, 1, 2, 3)}


def _tornheim_atoms(a: int, b: int, c: int) -> tuple:
    # partial fractions in m (Tornheim, Amer. J. Math. 72 (1950)): sum_{m+n=G} m^-a n^-b =
    # sum_{k <= max(a,b)} ([k <= a] C(a+b-k-1, b-1) + [k <= b] C(a+b-k-1, a-1)) H^(k)_{G-1}
    # / G^(a+b-k), over the common G^(min(a,b)+c); S111's 2 H_{G-1} / G^2 is a = b = c = 1
    top = max(a, b)
    return tuple(((k <= a) * comb(a + b - k - 1, b - 1) + (k <= b) * comb(a + b - k - 1, a - 1),
                  (("H", 1, -1) if k == 1 else ("P", k),) + (("G", top - k),) * (k < top))
                 for k in range(1, top + 1)), ((1, 0),) * (min(a, b) + c)


_TORNHEIM = Family(
    token="tornheim",
    params=("a", "b", "c"),
    valid=lambda a, b, c: min(a, b, c) >= 1
    and ((a + c >= 2 and b + c >= 2 and a + b + c >= 4) or (a, b, c) == (1, 1, 1)),
    rule="a, b, c >= 1 and a convergent weight: a+c, b+c >= 2 and a+b+c >= 4, or 1,1,1",
    closed=None,
    summand=lambda a, b, c: (1, lambda m: m**a, lambda n: n**b, lambda g: g**c),
    atoms=_tornheim_atoms,
    # diagonal group sum <= 2 H_{G-1}/G^(1+c) for a, b >= 1
    tail=lambda a, b, c: (Fraction(2), 2.0, 1, 1 + c),
)


def _outer_total(ks: tuple[int, ...]) -> Callable[[int], int]:
    """g -> prod_{k in ks} (2g + k), expanded once into integer coefficients, by Horner."""
    coeffs = (1,)  # highest power first
    for k in ks:
        coeffs = tuple(2 * a + k * b for a, b in zip(coeffs + (0,), (0,) + coeffs))

    def total(g: int) -> int:
        v = 0
        for a in coeffs:
            v = v * g + a
        return v

    return total


# scale * sum_{m,n>=0} 1/((2m+1)(2n+1) prod_{k in ks} (2m+2n+k)), engine arguments
# (scale, *ks); baseT:j is (1, j).  For every G = m + n, (2m+1) + (2n+1) = 2G+2 splits
# 1/((2m+1)(2n+1)) = (1/(2m+1) + 1/(2n+1))/(2G+2), so the group sum is O_{G+1}/(G+1) over
# the outer factors.  O_{G+1} <= 1 + ln(2G+1)/2 <= (ln G + 3.5)/2 and (G+1) prod (2G+k) >=
# 2^len(ks) G^(1+len(ks)) bound it for G >= 1.  Partial fractions in the distinct outer
# factors, 1/prod_q (x+q) = sum_k 1/((x+k) prod_{q!=k} (q-k)), give the closed form in T_k.
_HALF_TORNHEIM = Family(
    token="baseT", params=("j",), bare=True, fixed=(1,), origin=0,
    rule="j in 1..3, each outer factor once",
    valid=lambda scale, *ks: all(k in _BASE_T for k in ks) and len(set(ks)) == len(ks),
    closed=lambda scale, *ks: sum(
        (_BASE_T[k] * Fraction(scale, prod(q - k for q in ks if q != k)) for k in ks), ZExpr()),
    summand=lambda scale, *ks: (scale, _odd, _odd, _outer_total(ks)),
    atoms=lambda scale, *ks: (((scale, (("O", 1),)),), ((1, 1),) + tuple((2, k) for k in ks)),
    tail=lambda scale, *ks: (Fraction(scale, 2 ** (1 + len(ks))), 3.5, 1, 1 + len(ks)),
)


_AN = Family(
    token="An",
    params=("n", "s"),
    valid=lambda n, s: n >= 2 and s >= 0,
    rule="n >= 2 and s >= 0",
    closed=closedform.eval_An,
    dims=lambda n, s: n - 1,
    # H_{g+s} / (m_1 ... m_{n-1} (g+s))
    summand=lambda n, s: (None, _index, _index, lambda g: g + s),
    # c_{n-1}(G) = (n-1)! e_{n-2}/G
    atoms=lambda n, s: (((factorial(n - 1), (("E", n - 2), ("H", 1, s))),), ((1, 0), (1, s))),
    # c_j(G) <= 2^(j-1) H_G^(j-1)/G and H_{G+s} <= ln G + 2 for s <= G
    tail=lambda n, s: (Fraction(2 ** (n - 2)), 2.0, n - 1, 2),
    shift=lambda n, s: s,
    integral=lambda n, s: (n, s),
)

FAMILIES: dict[str, Family] = {
    f.token: f
    for f in (
        replace(_AN, token="A3", params=("s",), fixed=(3,), rule="s >= 0"),
        _AN,
        # A_2(k) with the closed form of its own identity
        replace(
            _AN,
            token="aXL",
            params=("k",),
            fixed=(2,),
            rule="k >= 0",
            closed=lambda n, k: closedform.eval_aXL(k),
        ),
        replace(
            _TORNHEIM, token="S111", params=(), fixed=(1, 1, 1),
            closed=lambda a, b, c: ZExpr.zeta(3, 2),
            # 1/(m+n) = Int_0^1 x^(m+n-1) dx and sum x^m/m = -ln(1-x) give Int_0^1
            # ln(1-x)^2/x dx, and t = 1-x makes it Int_0^1 ln(t)^2/(1-t) dt = A_2(0)
            integral=_const((2, 0)),
        ),
        _single_sum(
            "ln",
            lambda: ZExpr([(UNIT, 4), (LN2, -2)]) - ZExpr.zeta(2),
            (((2, (("H", 2, 1),)), (-1, (("H", 1, 0),))), ((2, 0), (2, 1))),
            # 2 H_{2m+1} - H_m <= ln m + 3.2
            (Fraction(1, 4), 3.2, 1, 2),
        ),
        _single_sum(
            "on",
            lambda: ZExpr.zeta(2, Fraction(1, 4)),
            (((1, (("O", 0),)),), ((2, 0), (2, 1))),
            # O_m <= (ln m + 3.4)/2
            (Fraction(1, 8), 3.4, 1, 2),
        ),
        _HALF_TORNHEIM,
        replace(
            _HALF_TORNHEIM, token="halfint", params=("variant",), fixed=(),
            valid=lambda v: v in _HALF, rule="variant a, b or c",
            closed=lambda v: _HALF_TORNHEIM.closed(*_HALF[v]),
            summand=lambda v: _HALF_TORNHEIM.summand(*_HALF[v]),
            atoms=lambda v: _HALF_TORNHEIM.atoms(*_HALF[v]),
            tail=lambda v: _HALF_TORNHEIM.tail(*_HALF[v]),
        ),
        _single_sum(
            "evenodd",
            lambda: ZExpr([(UNIT, 1), (LN2, -1)]),
            (((1, ()),), ((2, 0), (2, 1))),
            (Fraction(1, 4), 0.0, 0, 2),
        ),
        _single_sum(
            "oddsq",
            lambda: ZExpr.zeta(2, Fraction(3, 4)),
            (((1, ()),), ((2, -1), (2, -1))),
            # 1/(4G^2) lies below the term 1/(2G-1)^2 (ratio 1.108 at G = 10), but
            # the tail past N is at most the integral of the convex (2x-1)^-2 from
            # N + 1/2, exactly 1/(4N), with a margin near 1/(48 N^3); a term-wise
            # majorant would need A = (10/19)^2 and cost certified digits
            (Fraction(1, 4), 0.0, 0, 2),
        ),
        Family(
            token="binter",
            # the proof's intermediate B = A - (3/2) zeta(2) + 1 with A = zeta(2)
            closed=lambda: ZExpr.rational(1) - ZExpr.zeta(2, Fraction(1, 2)),
            summand=_const((1, _odd, _const(1), lambda g: (g + 1) * (2 * g + 1))),
            atoms=_const((((1, (("O", 0),)), (-1, ())), ((1, 1), (2, 1)))),
            # O_G - 1 <= (ln G + 1.4)/2
            tail=_const((Fraction(1, 4), 2.0, 1, 2)),
        ),
        _TORNHEIM,
    )
}


def _family(token: str) -> Family:
    fam = FAMILIES.get(token)
    if fam is None:
        raise ValueError(f"unknown series spec {token!r}; known: {', '.join(sorted(FAMILIES))}")
    return fam


def _value_type(name: str) -> type:
    # the half-integer variant is the one parameter that is not an integer
    return str if name == "variant" else int


@dataclass(frozen=True)
class SeriesSpec:
    """Tagged identifier of one series in the catalog.

    ``kind`` is the family's token and ``values`` its parameters, in the
    row's ``params`` order.  Construction validates types and ranges, so a
    SeriesSpec that exists is always a convergent, well-posed series.
    """

    kind: str
    values: tuple = ()

    def __post_init__(self) -> None:
        fam = _family(self.kind)
        if type(self.values) is not tuple or len(self.values) != len(fam.params):
            raise ValueError(f"{self.kind} takes ({','.join(fam.params)}), got {self.values!r}")
        for name, val in zip(fam.params, self.values):
            want = _value_type(name)
            if type(val) is not want:
                raise ValueError(f"parameter {name!r} must be {want.__name__}, got {val!r}")
        if not fam.valid(*self.args):
            raise ValueError(f"{self.kind} needs {fam.rule}, got {self.params_text()}")

    @property
    def family(self) -> Family:
        return FAMILIES[self.kind]

    @property
    def args(self) -> tuple:
        """Engine arguments: the family's fixed values, then the parameters."""
        return self.family.fixed + self.values

    # -- text form ------------------------------------------------------

    def params_text(self) -> str:
        """Parameter part of the syntax: ``s=2``, ``n=4,s=0``, ``c``, ``2``, ``""``."""
        fam = self.family
        return ",".join(str(v) if fam.bare else f"{n}={v}" for n, v in zip(fam.params, self.values))

    def token(self) -> str:
        return self.kind

    def label(self) -> str:
        """Full spec syntax, e.g. ``A3:s=2`` or ``ln``."""
        ptext = self.params_text()
        return f"{self.kind}:{ptext}" if ptext else self.kind

    def __str__(self) -> str:
        return self.label()


def parse_spec(text: str) -> SeriesSpec:
    """Parse the CLI spec syntax back into a SeriesSpec.

    Inverse of ``SeriesSpec.label``; raises ValueError with a usable
    message on unknown families, missing/extra parameters, or values out
    of range.
    """
    text = text.strip()
    token, sep, ptext = text.partition(":")
    fam = _family(token)
    wanted = fam.params
    if sep and not wanted:
        raise ValueError(f"{token} takes no parameters, got {ptext!r}")
    given: dict[str, str] = {}
    if sep and fam.bare:
        given[wanted[0]] = ptext
    elif sep:
        for part in ptext.split(","):
            name, eq, val = part.partition("=")
            if not eq:
                raise ValueError(f"malformed parameter {part!r} in {text!r}; expected name=value")
            name = name.strip()
            if name not in wanted:
                raise ValueError(f"{token} takes parameters {','.join(wanted)}, not {name!r}")
            if name in given:
                raise ValueError(f"duplicate parameter {name!r} in {text!r}")
            given[name] = val
    missing = [name for name in wanted if name not in given]
    if missing:
        raise ValueError(f"{token} requires parameters {','.join(missing)}; e.g. {token}:...")
    return SeriesSpec(token, tuple(_parse_value(given[name], name) for name in wanted))


def _parse_value(text: str, name: str) -> int | str:
    text = text.strip()
    if _value_type(name) is str:
        return text
    digits = text.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"parameter {name!r} must be an integer, got {text!r}")
    return int(text)
