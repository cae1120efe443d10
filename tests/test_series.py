import ast
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import tornzeta
from tornzeta.series import FAMILIES, KINDS, SeriesSpec, parse_spec


ROUND_TRIPS = [
    ("A3:s=0", SeriesSpec("A3", s=0)),
    ("A3:s=17", SeriesSpec("A3", s=17)),
    ("An:n=4,s=0", SeriesSpec("An", n=4, s=0)),
    ("An:n=2,s=5", SeriesSpec("An", n=2, s=5)),
    ("aXL:k=0", SeriesSpec("aXL", k=0)),
    ("aXL:k=3", SeriesSpec("aXL", k=3)),
    ("S111", SeriesSpec("S111")),
    ("ln", SeriesSpec("LnSeries")),
    ("on", SeriesSpec("OnSeries")),
    ("baseT:2", SeriesSpec("BaseT", j=2)),
    ("halfint:c", SeriesSpec("HalfInt", variant="c")),
    ("evenodd", SeriesSpec("EvenOddAux")),
    ("oddsq", SeriesSpec("OddSquares")),
    ("binter", SeriesSpec("BInter")),
    ("tornheim:a=2,b=1,c=1", SeriesSpec("TornheimRaw", a=2, b=1, c=1)),
]


@pytest.mark.parametrize("text,want", ROUND_TRIPS)
def test_parse_round_trip(text, want):
    spec = parse_spec(text)
    assert spec == want
    assert spec.label() == text
    assert parse_spec(spec.label()) == spec


def test_whitespace_tolerated():
    assert parse_spec(" An: n=4, s=0 ") == SeriesSpec("An", n=4, s=0)
    assert parse_spec("halfint: b") == SeriesSpec("HalfInt", variant="b")


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
        SeriesSpec("A3", s=2, k=1)
    with pytest.raises(ValueError):
        SeriesSpec("An", n=4)
    with pytest.raises(ValueError):
        SeriesSpec("BaseT", j=5)
    with pytest.raises(ValueError):
        SeriesSpec("HalfInt", variant="q")
    with pytest.raises(ValueError):
        SeriesSpec("Nope")


def test_tornheim_convergence_rule():
    # total weight >= 4 with both cross sums, plus the balanced corner case
    assert SeriesSpec("TornheimRaw", a=1, b=1, c=1).label() == "tornheim:a=1,b=1,c=1"
    SeriesSpec("TornheimRaw", a=2, b=2, c=1)
    SeriesSpec("TornheimRaw", a=1, b=2, c=1)
    with pytest.raises(ValueError):
        SeriesSpec("TornheimRaw", a=3, b=1, c=0)
    with pytest.raises(ValueError):
        SeriesSpec("TornheimRaw", a=0, b=5, c=5)


def test_kinds_catalog():
    assert set(KINDS) == {
        "A3",
        "An",
        "aXL",
        "S111",
        "LnSeries",
        "OnSeries",
        "BaseT",
        "HalfInt",
        "EvenOddAux",
        "OddSquares",
        "BInter",
        "TornheimRaw",
    }


_FAMILY_NAMES = {name for f in FAMILIES.values() for name in (f.kind, f.token)}


# harness.py is left out: its manifests name specs
@pytest.mark.parametrize(
    "module", ["closedform.py", "oracle.py", "asymptotic.py", "cli.py", "zexpr.py", "exact.py"]
)
def test_family_names_only_in_the_catalog(module):
    # a family kind or token spelled outside its FAMILIES row is a second dispatch on it
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
    st.integers(0, 25).map(lambda s: SeriesSpec("A3", s=s)),
    st.tuples(st.integers(2, 8), st.integers(0, 12)).map(
        lambda t: SeriesSpec("An", n=t[0], s=t[1])
    ),
    st.integers(0, 20).map(lambda k: SeriesSpec("aXL", k=k)),
    st.integers(1, 3).map(lambda j: SeriesSpec("BaseT", j=j)),
    st.sampled_from("abc").map(lambda v: SeriesSpec("HalfInt", variant=v)),
    st.sampled_from(["S111", "LnSeries", "OnSeries", "EvenOddAux", "OddSquares", "BInter"]).map(
        SeriesSpec
    ),
    st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)).map(
        lambda t: SeriesSpec("TornheimRaw", a=t[0], b=t[1], c=t[2])
    ),
)


@given(_SPECS)
def test_label_round_trips_everywhere(spec):
    assert parse_spec(spec.label()) == spec
    assert str(spec) == spec.label()
