import ast
import hashlib
import inspect
import os
import sys
from types import ModuleType

import pytest
from mpmath import mp, workdps

import tornzeta
from tornzeta import asymptotic, exact, oracle
from tornzeta.closedform import closed_form_of
from tornzeta.oracle import _closed_bits, const_ln2, const_pi, const_zeta, zx_numeric
from tornzeta.series import FAMILIES
from tornzeta.zexpr import ZExpr, zeta_even_to_pi

_DIGITS = [30, 50, 300, 1000]


def _ulps(got, want, digits: int):
    """|got - want| in ulps of the constants' grid 2^-f."""
    with workdps(digits + 40):
        return abs(got - want) * mp.mpf(2) ** _closed_bits(digits)


class TestZeta:
    @pytest.mark.parametrize("k", range(2, 13))
    @pytest.mark.parametrize("digits", _DIGITS)
    def test_against_library_zeta(self, k, digits):
        # Borwein's budget is under 2 ulps; up to 1.23 is measured (30 digits)
        with workdps(digits + 40):
            assert _ulps(const_zeta(k, digits), mp.zeta(k), digits) <= 2

    def test_leading_digits(self):
        with workdps(45):
            text = mp.nstr(const_zeta(2, 30), 25)
        assert text.startswith("1.64493406684822643647")

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            const_zeta(1, 50)
        with pytest.raises(ValueError):
            const_zeta(2, 20)

    def test_cache_returns_same_object(self):
        assert const_zeta(3, 50) is const_zeta(3, 50)

    def test_bits_pinned(self):
        # zeta(2..8) at 30 through 1000 digits, hashed; any change to
        # Borwein's coefficients, its term count or the floors changes the digest
        digest = hashlib.sha256()
        for digits in (30, 50, 100, 200, 300, 1000):
            for k in range(2, 9):
                digest.update(f"{k}|{digits}|{const_zeta(k, digits)._mpf_}\n".encode())
        assert digest.hexdigest() == "7919d69ad979b132118422f1329ec1f01ce58b5d8d9e21e28c7632e6a9ef064e"


class TestLn2AndPi:
    def test_ln2_value(self):
        for digits in (*_DIGITS, 40, 47, 90):
            with workdps(digits + 40):
                assert _ulps(const_ln2(digits), mp.log(2), digits) <= 2, digits
                assert abs(mp.exp(const_ln2(digits)) - 2) < mp.mpf(10) ** -digits, digits

    def test_pi_value(self):
        for digits in _DIGITS:
            assert _ulps(const_pi(digits), mp.pi, digits) <= 4 * digits, digits

    def test_rejects_low_digits(self):
        with pytest.raises(ValueError):
            const_ln2(10)
        with pytest.raises(ValueError):
            const_pi(0)

    def test_bits_pinned(self):
        # ln 2 and pi at 30 through 1000 digits, hashed; any change to
        # Borwein's eta(1), its term count or the floors changes the digest
        digest = hashlib.sha256()
        for digits in (30, 50, 100, 200, 300, 1000):
            digest.update(f"ln2|{digits}|{const_ln2(digits)._mpf_}\n".encode())
            digest.update(f"pi|{digits}|{const_pi(digits)._mpf_}\n".encode())
        assert digest.hexdigest() == "6a62183803225979ad32bceb89864e98f1900b94bba264c886e093c0249b7b40"


class TestEvenZetaBridge:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_pi_form_matches_zeta_numerically(self, n):
        # rational * pi^{2n} against the independently summed zeta value
        with workdps(60):
            via_pi = zx_numeric(zeta_even_to_pi(n), 50)
            direct = const_zeta(2 * n, 50)
            assert abs(via_pi - direct) < mp.mpf("1e-25")


class TestZxNumeric:
    def test_term_mix(self):
        expr = ZExpr.zeta(2) - ZExpr.zeta(3)
        with workdps(60):
            want = mp.zeta(2) - mp.zeta(3)
            assert abs(zx_numeric(expr, 50) - want) < mp.mpf("1e-48")

    def test_zero_expr(self):
        assert zx_numeric(ZExpr.rational(0), 30) == 0


def _names(code) -> set:
    """Global and attribute names a function's code reads, nested code objects included."""
    nested = (_names(c) for c in code.co_consts if hasattr(c, "co_names"))
    return set(code.co_names).union(*nested)


@pytest.mark.parametrize("fn", [const_pi, const_ln2, const_zeta, zx_numeric])
def test_evaluator_shares_no_code_with_the_oracles(fn):
    # the closed forms are checked against the oracles, so the evaluator takes
    # nothing from quadrature's fixed-point kernels, the series walks or the tails
    names = _names(getattr(fn, "__wrapped__", fn).__code__)
    assert names, fn
    banned = {"_atanh", "_log1p", "_log_factors", "_fpow", "asymptotic"}
    prefixes = ("_level_", "_node_", "_regrouped_")
    assert not {n for n in names if n in banned or n.startswith(prefixes)}, fn


_PACKAGE = os.path.dirname(tornzeta.__file__)


def _ours(obj):
    """The tornzeta function behind obj (through cache wrappers), else None."""
    if callable(obj) and not isinstance(obj, type):
        obj = inspect.unwrap(obj)
    code = getattr(obj, "__code__", None)
    return obj if code is not None and code.co_filename.startswith(_PACKAGE) else None


def _found(value) -> list:
    """The tornzeta functions in a value, or in a tuple of them (a row's summand)."""
    if isinstance(value, tuple):
        return [f for v in value for f in _found(v)]
    return [f] if (f := _ours(value)) else []


def _methods() -> dict:
    """Every non-dunder method and property of a tornzeta class, by name: an
    attribute read may reach any of them.  A class is entered through its
    reference (``_callees``), so dunders such as super().__init__ stay out."""
    out: dict = {}
    for name, module in sorted(sys.modules.items()):
        if name.startswith("tornzeta."):
            for cls in vars(module).values():
                if isinstance(cls, type) and cls.__module__ == name:
                    for attr, v in vars(cls).items():
                        # a property's getter, a classmethod's function, a cached_property's
                        v = getattr(v, "fget", None) or getattr(v, "__func__", None) or getattr(v, "func", v)
                        if (f := _ours(v)) and not attr.startswith("__"):
                            out.setdefault(attr, []).append(f)
    return out


def _callees(fn, methods: dict) -> list:
    """What fn's code may call: the tornzeta functions its global and attribute
    names resolve to (a module's, imported at the top or in the function), a
    class's __init__ and __post_init__, methods by name, and its closure's."""
    names = _names(fn.__code__)
    out = []
    for name in names:
        obj = fn.__globals__.get(name, sys.modules.get(f"tornzeta.{name}"))
        if isinstance(obj, ModuleType):
            out += [f for n in names if (f := _ours(getattr(obj, n, None)))]
        elif isinstance(obj, type):
            out += [f for n in ("__init__", "__post_init__") if (f := _ours(vars(obj).get(n)))]
        else:
            out += _found(obj)
        out += methods.get(name, [])
    for cell in fn.__closure__ or ():
        out += _found(cell.cell_contents)
    return out


def _label(fn) -> str:
    return f"{fn.__module__}.{fn.__qualname__}"


def _reach(roots) -> dict:
    """code -> function for every tornzeta function reachable from roots."""
    methods, seen = _methods(), {}
    stack = [f for r in roots for f in _found(r)]
    while stack:
        fn = stack.pop()
        if fn.__code__ not in seen:
            seen[fn.__code__] = fn
            stack += _callees(fn, methods)
    return seen


# what the evaluator and the oracles may both reach, and why
_SHARED = {
    "tornzeta.series.SeriesSpec.family": "each side reads its own fields of the spec's row",
    "tornzeta.series.SeriesSpec.args": "the spec's parameters, which both sides are given",
}


def test_evaluator_and_oracles_reach_no_common_code():
    # walked from the closed forms and their values on one side, from every
    # route, the majorant and the rows' oracle fields on the other: a helper
    # reached from both, however it is named, could move both sides together
    rows = FAMILIES.values()
    evaluator = _reach([zx_numeric, closed_form_of] + [f.closed for f in rows])
    oracles = _reach([oracle.oracle_raw, oracle.oracle_diagonal, oracle.oracle_quadrature,
                      oracle.tail_estimate]
                     + [getattr(f, a) for f in rows for a in ("summand", "atoms", "tail", "integral")])
    # the walks reach what each side is known to call
    assert {"tornzeta.oracle.const_zeta", "tornzeta.closedform.eval_An"} <= {*map(_label, evaluator.values())}
    assert {"tornzeta.asymptotic.tail", "tornzeta.oracle._fpow", "tornzeta.series._odd"} <= {
        *map(_label, oracles.values())}
    assert {_label(evaluator[c]) for c in evaluator.keys() & oracles.keys()} <= set(_SHARED)
    # and each side reads only its own fields of a row
    reads = [set().union(*(_names(f.__code__) for f in side.values())) for side in (evaluator, oracles)]
    assert not reads[0] & {"summand", "atoms", "tail", "integral"} and "closed" not in reads[1]


def test_tails_take_no_bernoulli_from_the_evaluator():
    # the tails take B_2r from mpmath's bernfrac and the zeta(2n) -> pi^(2n) rewrite
    # from exact.bernoulli, so a wrong B_2r cannot move a closed form and its tail together
    nodes = list(ast.walk(ast.parse(inspect.getsource(asymptotic))))
    names = {n.id for n in nodes if isinstance(n, ast.Name)}
    names |= {n.attr for n in nodes if isinstance(n, ast.Attribute)}
    dotted = [n.name for n in nodes if isinstance(n, ast.alias)]
    dotted += [n.module or "" for n in nodes if isinstance(n, ast.ImportFrom)]
    names.update(part for name in dotted for part in name.split("."))
    assert not names & {"bernoulli", "exact"}
    assert exact.bernoulli not in vars(asymptotic).values()
