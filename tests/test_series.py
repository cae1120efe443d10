import ast
from dataclasses import replace
from fractions import Fraction
from math import prod
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import tornzeta
from tornzeta.series import FAMILIES, Family, SeriesSpec, parse_spec


ROUND_TRIPS = [
    ("A3:s=0", SeriesSpec("A3", (0,))),
    ("A3:s=17", SeriesSpec("A3", (17,))),
    ("An:n=4,s=0", SeriesSpec("An", (4, 0))),
    ("An:n=2,s=5", SeriesSpec("An", (2, 5))),
    ("aXL:k=0", SeriesSpec("aXL", (0,))),
    ("aXL:k=3", SeriesSpec("aXL", (3,))),
    ("S111", SeriesSpec("S111")),
    ("ln", SeriesSpec("ln")),
    ("on", SeriesSpec("on")),
    ("baseT:2", SeriesSpec("baseT", (2,))),
    ("halfint:c", SeriesSpec("halfint", ("c",))),
    ("evenodd", SeriesSpec("evenodd")),
    ("oddsq", SeriesSpec("oddsq")),
    ("binter", SeriesSpec("binter")),
    ("tornheim:a=2,b=1,c=1", SeriesSpec("tornheim", (2, 1, 1))),
]


@pytest.mark.parametrize("text,want", ROUND_TRIPS)
def test_parse_round_trip(text, want):
    spec = parse_spec(text)
    assert spec == want
    assert spec.label() == text
    assert parse_spec(spec.label()) == spec


def test_whitespace_tolerated():
    assert parse_spec(" An: n=4, s=0 ") == SeriesSpec("An", (4, 0))
    assert parse_spec("halfint: b") == SeriesSpec("halfint", ("b",))
    assert parse_spec("A3: s = 2") == SeriesSpec("A3", (2,))


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "A3",                      # missing parameter
        "A3:s=-1",
        "A3:k=2",                  # wrong parameter name
        "A3:s=2,s=3",              # duplicate
        "A3:s=2,k=1",              # extra
        "An:n=1,s=0",              # n below range
        "An:s=0",                  # n missing
        "aXL:k=x",                 # not an integer
        "S111:s=0",                # takes no parameters
        "ln:s=1",
        "baseT:0",
        "baseT:4",
        "halfint:d",
        "halfint",
        "tornheim:a=1,b=1,c=0",    # c below range
        "tornheim:a=0,b=2,c=2",    # a below range
        "tornheim:a=2,b=1",        # c missing
        "wat:s=2",                 # unknown family
        "A3:s=2.5",
        "A3:s=2_0",                # int() would read these three as 20, 2 and 3
        "A3:s=+2",
        "A3:s=\u0663",
    ],
)
def test_parse_rejects(bad):
    with pytest.raises(ValueError):
        parse_spec(bad)


def test_error_messages_name_the_problem():
    with pytest.raises(ValueError, match="unknown series spec"):
        parse_spec("wat:s=2")
    with pytest.raises(ValueError, match="requires parameters s"):
        parse_spec("A3")


def test_direct_construction_validates():
    with pytest.raises(ValueError):
        SeriesSpec("A3")
    with pytest.raises(ValueError):
        SeriesSpec("A3", (2, 1))
    with pytest.raises(ValueError):
        SeriesSpec("An", (4,))
    with pytest.raises(ValueError):
        SeriesSpec("A3", [2])
    with pytest.raises(ValueError):
        SeriesSpec("baseT", (5,))
    with pytest.raises(ValueError):
        SeriesSpec("halfint", ("q",))
    with pytest.raises(ValueError, match="unknown series spec"):
        SeriesSpec("Nope")


@pytest.mark.parametrize(
    "kind,values,name",
    [
        ("A3", (True,), "s"),
        ("A3", (2.0,), "s"),
        ("A3", ("2",), "s"),
        ("An", (4, False), "s"),
        ("aXL", (3.0,), "k"),
        ("baseT", ("2",), "j"),
        ("halfint", (1,), "variant"),
        ("tornheim", (2, 1, 1.0), "c"),
    ],
)
def test_values_have_the_parameter_type(kind, values, name):
    # a bool or a float would build a label that parse_spec refuses
    with pytest.raises(ValueError, match=f"parameter '{name}'"):
        SeriesSpec(kind, values)


def test_tornheim_convergence_rule():
    # total weight >= 4 with both cross sums, plus the balanced corner case
    assert SeriesSpec("tornheim", (1, 1, 1)).label() == "tornheim:a=1,b=1,c=1"
    SeriesSpec("tornheim", (2, 2, 1))
    SeriesSpec("tornheim", (1, 2, 1))
    with pytest.raises(ValueError):
        SeriesSpec("tornheim", (3, 1, 0))
    with pytest.raises(ValueError):
        SeriesSpec("tornheim", (0, 5, 5))


def test_kinds_catalog():
    assert set(FAMILIES) == {
        "A3",
        "An",
        "aXL",
        "S111",
        "ln",
        "on",
        "baseT",
        "halfint",
        "evenodd",
        "oddsq",
        "binter",
        "tornheim",
    }
    assert all(f.token == token for token, f in FAMILIES.items())


def test_a_family_is_one_row(monkeypatch):
    # a parameter name no other family uses needs nothing outside the row
    probe = Family(
        token="probe", closed=None, tail=lambda p: (Fraction(1), 0.0, 0, 2), params=("p",),
        atoms=lambda p: (((1, ()),), ((1, 0), (1, 0))),
    )
    monkeypatch.setitem(FAMILIES, "probe", probe)
    spec = parse_spec("probe:p=3")
    assert spec.label() == "probe:p=3"
    assert parse_spec(spec.label()) == spec
    assert spec.args == (3,)



@pytest.mark.parametrize("fixed", [(4, 1), (16, 1, 2), (16, 2, 3)])
def test_half_integer_row_refuses_a_repeated_outer_factor(monkeypatch, fixed):
    # the closed form's partial fractions hold for distinct outer factors only: with
    # fixed (4, 1), baseT:1 would be 4 sum 1/((2m+1)(2n+1)(2m+2n+1)^2), not 8 zeta(2)
    row = replace(FAMILIES["baseT"], fixed=fixed)
    monkeypatch.setitem(FAMILIES, "baseT", row)
    repeated = next(k for k in (1, 2, 3) if k in fixed[1:])
    with pytest.raises(ValueError, match=f"baseT needs {row.rule}, got {repeated}"):
        parse_spec(f"baseT:{repeated}")
    assert "each outer factor once" in row.rule
    fresh = next(k for k in (1, 2, 3) if k not in fixed[1:])
    assert parse_spec(f"baseT:{fresh}").args == fixed + (fresh,)


@pytest.mark.parametrize(
    "text, ks",
    [("baseT:1", (1,)), ("baseT:2", (2,)), ("baseT:3", (3,)),
     ("halfint:a", (1, 2)), ("halfint:b", (2, 3)), ("halfint:c", (1, 2, 3))],
)
def test_half_integer_total_is_the_product_of_the_outer_factors(text, ks):
    # the index total's factor, expanded once per row, is prod (2g + k) as the same integers
    spec = parse_spec(text)
    total = spec.family.summand(*spec.args)[3]
    assert all(total(g) == prod(2 * g + k for k in ks) for g in range(0, 5000, 7))

_FAMILY_NAMES = set(FAMILIES)


# harness.py is left out: its manifests name specs
@pytest.mark.parametrize(
    "module", ["closedform.py", "oracle.py", "asymptotic.py", "cli.py", "zexpr.py", "exact.py"]
)
def test_family_names_only_in_the_catalog(module):
    # a family token spelled outside its FAMILIES row is a second dispatch on it
    tree = ast.parse((Path(tornzeta.__file__).parent / module).read_text())
    named = {
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and node.value in _FAMILY_NAMES
    }
    assert not named, f"{module} names families {sorted(named)}"


@pytest.mark.parametrize(
    "module", sorted(p.name for p in Path(tornzeta.__file__).parent.glob("*.py"))
)
def test_no_module_reads_the_environment(module):
    # configuration comes in as arguments; an environment read is a hidden second input
    tree = ast.parse((Path(tornzeta.__file__).parent / module).read_text())
    reads = {
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"))
        or (isinstance(node, ast.Name) and node.id in ("environ", "getenv"))
        or (isinstance(node, ast.alias) and node.name in ("environ", "getenv"))
    }
    assert not reads, f"{module} reads the environment on lines {sorted(reads)}"


_SPECS = st.one_of(
    st.integers(0, 25).map(lambda s: SeriesSpec("A3", (s,))),
    st.tuples(st.integers(2, 8), st.integers(0, 12)).map(lambda t: SeriesSpec("An", t)),
    st.integers(0, 20).map(lambda k: SeriesSpec("aXL", (k,))),
    st.integers(1, 3).map(lambda j: SeriesSpec("baseT", (j,))),
    st.sampled_from("abc").map(lambda v: SeriesSpec("halfint", (v,))),
    st.sampled_from(["S111", "ln", "on", "evenodd", "oddsq", "binter"]).map(SeriesSpec),
    st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)).map(
        lambda t: SeriesSpec("tornheim", t)
    ),
)


@given(_SPECS)
def test_label_round_trips_everywhere(spec):
    assert parse_spec(spec.label()) == spec
    assert str(spec) == spec.label()
