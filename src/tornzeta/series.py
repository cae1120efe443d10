"""The series catalog: one ``Family`` row per family, and the spec syntax.

A ``SeriesSpec`` names one member of the identity catalog: which family,
plus its integer parameters.  The text syntax is the one accepted on the
command line and echoed in reports, e.g. ``A3:s=2``, ``An:n=4,s=0``,
``halfint:c``, ``baseT:2``, ``ln``, ``tornheim:a=2,b=1,c=1``.

Everything the package knows about a family lives in its row of
``FAMILIES``: the parameter schema, the closed form, the exact terms, the
fixed-point engines and the tail majorant.  The closed-form evaluators and
the oracles look the row up through ``SeriesSpec.family``; adding a family
means adding one row.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from fractions import Fraction
from functools import partial
from math import prod
from typing import Callable

from . import closedform, oracle
from .exact import harmonic, harmonic_gen, odd_harmonic
from .zexpr import ZExpr


def _const(value):
    return lambda *args: value


@dataclass(frozen=True)
class Family:
    """One series family: everything the package knows about it.

    Every callable takes the spec's engine arguments (``SeriesSpec.args``:
    the ``fixed`` values, then the shown parameters) first.  ``term`` is
    the summand of the defining multi-index form, indices from ``origin``;
    ``diag_term`` is the summand of the single-index form regrouped by the
    index total g, from g = ``origin``.  The two are written independently,
    so their exact partial sums agreeing is a check of the regrouping.
    ``diag`` and ``raw`` are the hand-written fixed-point loops for the two
    forms; ``tail`` gives (A, c, k, p) of the majorant A (ln G + c)^k / G^p
    of the terms past a cutoff of at least ``shift``.
    """

    kind: str
    token: str
    closed: Callable[..., ZExpr] | None  # None: oracle-only, no closed form
    term: Callable[..., Fraction]  # (*args, *indices)
    raw: Callable[..., int]  # (*args, box, one)
    tail: Callable[..., tuple[Fraction, float, int, int]]
    diag_term: Callable[..., Fraction] | None = None  # (*args, g); None: no regrouping
    diag: Callable[..., int] | None = None  # (*args, n_max, one)
    dims: Callable[..., int] = _const(2)  # number of summation indices
    origin: int = 1
    params: tuple[str, ...] = ()  # SeriesSpec fields shown in the syntax, in order
    fixed: tuple = ()  # leading engine arguments the family pins
    bare: bool = False  # the one parameter is written without its name
    valid: Callable[..., bool] = _const(True)
    rule: str = ""  # the range ``valid`` accepts, for error messages
    shift: Callable[..., int] = _const(0)
    quadrature: bool = False  # the A-family integral representation applies


def _single_sum(kind, token, closed, term, engine, tail) -> Family:
    # a one-index series is its own regrouping: one term, one engine
    return Family(
        kind=kind, token=token, closed=closed, term=term, raw=engine, tail=_const(tail),
        diag_term=term, diag=engine, dims=_const(1),
    )


def _an_term(n: int, s: int, *ms: int) -> Fraction:
    t = sum(ms) + s
    return harmonic(t) / (prod(ms) * t)


def _composition_weight(j: int, g: int) -> Fraction:
    """c_j(g): 1/product summed over compositions of g into j parts, via
    the power sums p_i = H_{g-1}^(i) (see ``oracle._diag_an``)."""
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


# half-integer variant -> k of its outer factors (m+n+k/2); with the inner
# (m+1/2)(n+1/2) each factor contributes a 2 once the halves are cleared
_HALF_FACTORS = {"a": (1, 2), "b": (2, 3), "c": (1, 2, 3)}


def _halfint_term(v: str, m: int, n: int) -> Fraction:
    ks = _HALF_FACTORS[v]
    g2 = 2 * (m + n)
    return Fraction(2 ** (2 + len(ks)), (2 * m + 1) * (2 * n + 1) * prod(g2 + k for k in ks))


def _halfint_diag_term(v: str, g: int) -> Fraction:
    ks = _HALF_FACTORS[v]
    return 2 ** (2 + len(ks)) * odd_harmonic(g + 1) / ((g + 1) * prod(2 * g + k for k in ks))


_AN = Family(
    kind="An",
    token="An",
    params=("n", "s"),
    valid=lambda n, s: n >= 2 and s >= 0,
    rule="n >= 2 and s >= 0",
    closed=closedform.eval_An,
    dims=lambda n, s: n - 1,
    term=_an_term,
    diag_term=lambda n, s, g: _composition_weight(n - 1, g) * harmonic(g + s) / (g + s),
    diag=oracle._diag_an,
    raw=oracle._raw_an,
    # c_j(G) <= 2^(j-1) H_G^(j-1)/G and H_{G+s} <= ln G + 2 for s <= G
    tail=lambda n, s: (Fraction(2 ** (n - 2)), 2.0, n - 1, 2),
    shift=lambda n, s: s,
    quadrature=True,
)

FAMILIES: dict[str, Family] = {
    f.kind: f
    for f in (
        replace(_AN, kind="A3", token="A3", params=("s",), fixed=(3,), rule="s >= 0"),
        _AN,
        # A_2(k) with the closed form of its own identity
        replace(
            _AN,
            kind="aXL",
            token="aXL",
            params=("k",),
            fixed=(2,),
            rule="k >= 0",
            closed=lambda n, k: closedform.eval_aXL(k),
            quadrature=False,
        ),
        Family(
            kind="S111",
            token="S111",
            closed=lambda: ZExpr.zeta(3, 2),
            term=lambda m, n: Fraction(1, m * n * (m + n)),
            diag_term=lambda g: 2 * harmonic(g - 1) / Fraction(g * g),
            diag=oracle._diag_s111,
            raw=oracle._raw_s111,
            tail=_const((Fraction(2), 2.0, 1, 2)),
        ),
        _single_sum(
            "LnSeries",
            "ln",
            closedform.eval_ln_series,
            lambda m: (2 * harmonic(2 * m + 1) - harmonic(m)) / (2 * m * (2 * m + 1)),
            oracle._sum_ln_series,
            # 2 H_{2m+1} - H_m <= ln m + 3.2
            (Fraction(1, 4), 3.2, 1, 2),
        ),
        _single_sum(
            "OnSeries",
            "on",
            closedform.eval_on_series,
            lambda m: odd_harmonic(m) / (2 * m * (2 * m + 1)),
            oracle._sum_on_series,
            # O_m <= (ln m + 3.4)/2
            (Fraction(1, 8), 3.4, 1, 2),
        ),
        Family(
            kind="BaseT",
            token="baseT",
            params=("j",),
            bare=True,
            valid=lambda j: j in (1, 2, 3),
            rule="j in 1..3",
            closed=closedform.eval_base_T,
            origin=0,
            term=lambda j, m, n: Fraction(1, (2 * m + 1) * (2 * n + 1) * (2 * m + 2 * n + j)),
            diag_term=lambda j, g: odd_harmonic(g + 1) / ((g + 1) * (2 * g + j)),
            diag=oracle._diag_base_t,
            raw=oracle._raw_base_t,
            tail=_const((Fraction(1, 4), 3.5, 1, 2)),
        ),
        Family(
            kind="HalfInt",
            token="halfint",
            params=("variant",),
            bare=True,
            valid=lambda v: v in _HALF_FACTORS,
            rule="variant a, b or c",
            closed=closedform.eval_halfint,
            origin=0,
            term=_halfint_term,
            diag_term=_halfint_diag_term,
            diag=oracle._diag_halfint,
            raw=oracle._raw_halfint,
            tail=lambda v: (Fraction(2), 3.5, 1, 1 + len(_HALF_FACTORS[v])),
        ),
        _single_sum(
            "EvenOddAux",
            "evenodd",
            partial(closedform.eval_aux, "EvenOddAux"),
            lambda m: Fraction(1, 2 * m * (2 * m + 1)),
            oracle._sum_evenodd,
            (Fraction(1, 4), 0.0, 0, 2),
        ),
        _single_sum(
            "OddSquares",
            "oddsq",
            partial(closedform.eval_aux, "OddSquares"),
            lambda m: Fraction(1, (2 * m - 1) ** 2),
            oracle._sum_oddsq,
            (Fraction(1, 4), 0.0, 0, 2),
        ),
        Family(
            kind="BInter",
            token="binter",
            closed=partial(closedform.eval_aux, "BInter"),
            term=lambda m, n: Fraction(1, (2 * m + 1) * (m + n + 1) * (2 * (m + n) + 1)),
            diag_term=lambda g: (odd_harmonic(g) - 1) / Fraction((g + 1) * (2 * g + 1)),
            diag=oracle._diag_binter,
            raw=oracle._raw_binter,
            # O_G - 1 <= (ln G + 1.4)/2
            tail=_const((Fraction(1, 4), 2.0, 1, 2)),
        ),
        Family(
            kind="TornheimRaw",
            token="tornheim",
            params=("a", "b", "c"),
            valid=lambda a, b, c: min(a, b, c) >= 1
            and ((a + c >= 2 and b + c >= 2 and a + b + c >= 4) or (a, b, c) == (1, 1, 1)),
            rule="a, b, c >= 1 and a convergent weight: a+c, b+c >= 2 and a+b+c >= 4, or 1,1,1",
            closed=None,
            term=lambda a, b, c, m, n: Fraction(1, m**a * n**b * (m + n) ** c),
            raw=oracle._raw_tornheim,
            # diagonal group sum <= 2 H_{G-1}/G^(1+c) for a, b >= 1
            tail=lambda a, b, c: (Fraction(2), 2.0, 1, 1 + c),
        ),
    )
}
_FAMILY_OF_TOKEN = {f.token: f for f in FAMILIES.values()}

KINDS = tuple(FAMILIES)


@dataclass(frozen=True)
class SeriesSpec:
    """Tagged identifier of one series in the catalog.

    Exactly the parameters belonging to ``kind`` may be set; everything
    else must stay None.  Construction validates ranges, so a SeriesSpec
    that exists is always a convergent, well-posed series.
    """

    kind: str
    s: int | None = None
    n: int | None = None
    k: int | None = None
    j: int | None = None
    variant: str | None = None
    a: int | None = None
    b: int | None = None
    c: int | None = None

    def __post_init__(self) -> None:
        fam = FAMILIES.get(self.kind)
        if fam is None:
            raise ValueError(f"unknown series family {self.kind!r}")
        for f in fields(self)[1:]:
            val = getattr(self, f.name)
            if f.name in fam.params:
                if val is None:
                    raise ValueError(f"{self.kind} requires parameter {f.name!r}")
            elif val is not None:
                raise ValueError(f"{self.kind} takes no parameter {f.name!r}")
        if not fam.valid(*self.args):
            raise ValueError(f"{fam.token} needs {fam.rule}, got {self.params_text()}")

    @property
    def family(self) -> Family:
        return FAMILIES[self.kind]

    @property
    def args(self) -> tuple:
        """Engine arguments: the family's fixed values, then the parameters."""
        fam = self.family
        return fam.fixed + tuple(getattr(self, name) for name in fam.params)

    # -- text form ------------------------------------------------------

    def params_text(self) -> str:
        """Parameter part of the syntax: ``s=2``, ``n=4,s=0``, ``c``, ``2``, ``""``."""
        fam = self.family
        return ",".join(
            str(getattr(self, name)) if fam.bare else f"{name}={getattr(self, name)}"
            for name in fam.params
        )

    def token(self) -> str:
        return self.family.token

    def label(self) -> str:
        """Full spec syntax, e.g. ``A3:s=2`` or ``ln``."""
        ptext = self.params_text()
        return f"{self.token()}:{ptext}" if ptext else self.token()

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
    fam = _FAMILY_OF_TOKEN.get(token)
    if fam is None:
        known = ", ".join(sorted(_FAMILY_OF_TOKEN))
        raise ValueError(f"unknown series spec {token!r}; known: {known}")
    wanted = fam.params
    if not sep:
        if wanted:
            raise ValueError(f"{token} requires parameters {','.join(wanted)}; e.g. {token}:{'...'}")
        return SeriesSpec(fam.kind)
    if not wanted:
        raise ValueError(f"{token} takes no parameters, got {ptext!r}")
    given: dict[str, str] = {}
    if fam.bare:
        given[wanted[0]] = ptext
    else:
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
        raise ValueError(f"{token} is missing parameters: {','.join(missing)}")
    return SeriesSpec(fam.kind, **{name: _parse_value(val, name) for name, val in given.items()})


def _parse_value(text: str, name: str) -> int | str:
    # the half-integer variant is the one parameter that is not an integer
    if name == "variant":
        return text.strip()
    try:
        return int(text.strip())
    except ValueError:
        raise ValueError(f"parameter {name!r} must be an integer, got {text.strip()!r}") from None
