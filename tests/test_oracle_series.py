import hashlib
import tracemalloc
from dataclasses import replace
from fractions import Fraction as F
from itertools import combinations, islice, product
from math import ceil, comb, factorial, floor, prod
from operator import floordiv

import pytest
from hypothesis import given, strategies as st
from mpmath import mp, workdps
from mpmath.libmp import from_int, mpf_log, round_floor

from tornzeta import oracle
from tornzeta.closedform import closed_form_of
from tornzeta.exact import harmonic, harmonic_gen, odd_harmonic
from tornzeta.oracle import (
    NumericCfg,
    box_partial_exact,
    diagonal_partial_exact,
    oracle_diagonal,
    oracle_for,
    oracle_quadrature,
    oracle_raw,
    tail_estimate,
    triangle_partial_exact,
    zx_numeric,
)
from tornzeta.series import FAMILIES, SeriesSpec, parse_spec


def f2m(fr: F):
    return mp.mpf(fr.numerator) / mp.mpf(fr.denominator)


def m2f(x) -> F:
    """The mpf x as the Fraction its raw tuple denotes, exactly."""
    sign, man, exp, _ = x._mpf_
    return (-1) ** sign * man * F(2) ** exp


class TestExactPartialSpots:
    def test_box_single_terms(self):
        assert box_partial_exact(parse_spec("A3:s=0"), 1) == F(3, 4)
        assert box_partial_exact(parse_spec("S111"), 1) == F(1, 2)
        assert box_partial_exact(parse_spec("baseT:1"), 0) == F(1)

    def test_tornheim_small_box(self):
        got = box_partial_exact(parse_spec("tornheim:a=1,b=1,c=1"), 2)
        assert got == F(1, 2) + 2 * F(1, 6) + F(1, 16)

    def test_diagonal_first_group(self):
        assert diagonal_partial_exact(parse_spec("A3:s=0"), 2) == F(3, 4)
        assert diagonal_partial_exact(parse_spec("S111"), 2) == F(1, 2)
        assert diagonal_partial_exact(parse_spec("baseT:1"), 0) == F(1)


REGROUPINGS = [
    ("A3:s=0", 40),
    ("A3:s=3", 40),
    ("An:n=2,s=0", 40),
    ("An:n=2,s=5", 40),
    ("An:n=4,s=0", 25),
    ("An:n=5,s=2", 16),
    ("An:n=6,s=1", 14),
    ("An:n=8,s=0", 10),
    ("S111", 40),
    ("baseT:1", 40),
    ("baseT:2", 40),
    ("baseT:3", 40),
    ("halfint:a", 40),
    ("halfint:b", 40),
    ("halfint:c", 40),
    ("binter", 40),
]
# every valid tornheim:a,b,c with a, b, c <= 3, whose atoms are its partial fractions
REGROUPINGS += [
    (SeriesSpec("tornheim", abc).label(), depth)
    for abc in product(range(1, 4), repeat=3)
    if FAMILIES["tornheim"].valid(*abc)
    for depth in (20, 60)
]


class TestReductionSoundness:
    @pytest.mark.parametrize("text,depth", REGROUPINGS)
    def test_diagonal_equals_defining_form(self, text, depth):
        # regrouping by index total is an identity, so partials over the
        # same index set must agree as exact rationals
        spec = parse_spec(text)
        assert diagonal_partial_exact(spec, depth) == triangle_partial_exact(spec, depth)

    @pytest.mark.parametrize("text", ["aXL:k=2", "ln", "on", "evenodd", "oddsq"])
    def test_one_index_triangle_is_the_diagonal(self, text):
        # aXL has a defining summand, so this compares two transcriptions;
        # ln, on, evenodd and oddsq have none, and triangle_partial_exact
        # returns their diagonal partial itself: for them this checks the
        # lookup only, and test_single_sums_match_second_transcription
        # checks the terms
        spec = parse_spec(text)
        assert triangle_partial_exact(spec, 30) == diagonal_partial_exact(spec, 30)

    @pytest.mark.parametrize("text", ["ln", "on", "evenodd", "oddsq"])
    @pytest.mark.parametrize("cutoff", [1, 2, 7, 30, 61])
    def test_single_sums_match_second_transcription(self, text, cutoff):
        # each partial sum written again here, from its definition or a
        # telescoped closed form, never from the family row
        n = cutoff
        if text == "ln":
            # sum_m (2 H_{2m+1} - H_m) / (2m (2m+1)), inner sums spelled out
            want = F(0)
            for m in range(1, n + 1):
                h_odd = sum(F(1, i) for i in range(1, 2 * m + 2))
                h_m = sum(F(1, i) for i in range(1, m + 1))
                want += (2 * h_odd - h_m) / (2 * m * (2 * m + 1))
        elif text == "on":
            # sum_m O_m / (2m (2m+1)), O_m = sum_{k<=m} 1/(2k-1)
            want = sum(
                sum(F(1, 2 * k - 1) for k in range(1, m + 1)) / (2 * m * (2 * m + 1))
                for m in range(1, n + 1)
            )
        elif text == "evenodd":
            # 1/(2m(2m+1)) = 1/(2m) - 1/(2m+1) telescopes to H_N/2 - (O_{N+1} - 1)
            want = harmonic(n) / 2 - (odd_harmonic(n + 1) - 1)
        else:
            # the odd squares up to (2N-1)^2: all squares to (2N)^2 minus the even ones
            want = harmonic_gen(2 * n, 2) - harmonic_gen(n, 2) / 4
        assert diagonal_partial_exact(parse_spec(text), n) == want

    @pytest.mark.parametrize(
        "text",
        [
            "A3:s=0",
            "An:n=3,s=2",
            "S111",
            "binter",
            "halfint:a",
            "halfint:b",
            "halfint:c",
            "baseT:1",
            "baseT:2",
            "baseT:3",
            "tornheim:a=2,b=1,c=1",
        ],
    )
    def test_triangle_box_sandwich(self, text):
        # triangle(N) sits inside box(N) sits inside triangle(2N): index-set
        # containment with positive terms, checked exactly
        spec = parse_spec(text)
        tri = triangle_partial_exact(spec, 20)
        box = box_partial_exact(spec, 20)
        tri2 = triangle_partial_exact(spec, 40)
        assert tri < box < tri2


DIAG_FAMILIES = [
    "A3:s=0",
    "A3:s=5",
    "An:n=2,s=1",
    "An:n=4,s=2",
    "An:n=6,s=0",
    "aXL:k=0",
    "aXL:k=3",
    "S111",
    "ln",
    "on",
    "evenodd",
    "oddsq",
    "binter",
    "baseT:1",
    "baseT:2",
    "baseT:3",
    "halfint:a",
    "halfint:b",
    "halfint:c",
]


# oracle_raw(...).value at 50 digits, from hand-written fixed-point loops,
# one per family; repr digits, so mp.mpf(value) at 60 digits is exact
RAW_PINNED = [
    ("A3:s=0", 40, "5.21833573564003756172910465285375781095448390918256722692291436"),
    ("A3:s=1", 40, "4.73303096855713830341852531978186050993250064414438313294823611"),
    ("An:n=3,s=2", 40, "4.36647201342060454931978304104226832170210586666665564328116274"),
    ("An:n=4,s=0", 12, "9.04941434329719368362045684894040442139322560177909903396135776"),
    ("An:n=4,s=2", 12, "7.79209201997087368524309239242749771928190304908464780272717054"),
    ("S111", 40, "2.17738017642607823585229708026869963429764556593349624129112055"),
    ("baseT:1", 40, "1.60826140343550150142439577903813578525270115805571409544842861"),
    ("baseT:2", 40, "1.01531376259731703102039163631136737349568498453134812753011358"),
    ("baseT:3", 40, "0.786164956339565482961359426354272617461456775986940426265455139"),
    ("halfint:a", 40, "9.4871622534109515264640662836282945881122587763898554866930392"),
    ("halfint:b", 40, "3.66638090012402476894451535931351609654765133671052322023453664"),
    ("halfint:c", 40, "5.82078135328692675751955092431477849156460743967933226645850225"),
    ("An:n=5,s=1", 10, "17.9225938365043833374350021607588590256805985410327341112137366"),
    ("An:n=2,s=3", 40, "1.44692784349546557691325643638056184280289074235449771271266846"),
    ("aXL:k=2", 40, "1.62177129705231936059937617742787867961046857430795768373360969"),
    ("binter", 40, "0.153054820683288472216114375899994390046992436392345730284974593"),
    ("tornheim:a=2,b=1,c=1", 40, "1.31259524983020973795304802566435754533461299679567855711690691"),
    ("tornheim:a=1,b=1,c=1", 40, "2.17738017642607823585229708026869963429764556593349624129112055"),
]


# the regrouped walk's integers on the 50-digit grid, as summed by the
# hand-written per-family loops that the walk replaced; those loops divided
# An's composition weight by G before taking the product, so for n >= 4 the
# walk may differ from them by a few ulps, and must match bit for bit elsewhere
WALK_PINNED = {
    ("A3:s=0", 37): 8623153056472146711541027906047101981460714546633524869028046412691034,
    ("A3:s=0", 500): 10779274695811231831760793436720102111563710793263653848697039959485131,
    ("A3:s=5", 37): 5905959640458426275308054809196708995372838432259135638491903075746022,
    ("A3:s=5", 500): 7962104076890142077771286904823388494788125813415686298606765947822859,
    ("An:n=2,s=1", 37): 3213493873252912040547963645831220814549004383364390443042746534214758,
    ("An:n=2,s=1", 500): 3424027930590924123651471444225432498602309201644931510774693066536586,
    ("An:n=4,s=2", 37): 19739665174880111677195551048802831249958586939815220828802399030001825,
    ("An:n=4,s=2", 500): 35099100512604221219384797696843225403782531277592392773128708282556175,
    ("An:n=6,s=0", 37): 160206796730383291745783801361080743565436723021844163656444806834899380,
    ("An:n=6,s=0", 500): 722402490961010432773523019415819296356619102107277651260073333340995246,
    ("aXL:k=0", 37): 3908518067706894508696409339910957388370337831836875270429736274826829,
    ("aXL:k=0", 500): 4121279026052070151855075682418337500752884059591201415175556269592226,
    ("aXL:k=3", 37): 2482895421728765114993102796889112914305178828191399710617771545825661,
    ("aXL:k=3", 500): 2689162903016567976312197991410654977890434750735032254589759748844112,
    ("S111", 37): 3670116974495198004366511407044529378354173314249821917108001104372001,
    ("S111", 500): 4094419020052743688894775838292317210876844652039087969233069849901160,
    ("ln", 37): 1596089935676464471121401385014299517538628986783942240595427574263363,
    ("ln", 500): 1663645709129409340147805728830177662228656727369869285597134529620590,
    ("on", 37): 671900695751862130459846669730492158539373314998597609296224110140727,
    ("on", 500): 705603682632335430882284586692996554169276995208144839865485118454002,
    ("evenodd", 37): 518028850071613338564818180764418681003518361759761853358341708492420,
    ("evenodd", 500): 528593655453789496548278995030484340816078783699182530114785616481851,
    ("oddsq", 37): 2117014420400804599709878245518694020532912154899110741745031419708011,
    ("oddsq", 500): 2127809348228178263339096207393127384333784236351994226649480765818724,
    ("binter", 37): 254472220641301668875463930134693034212755089905625288669915566484912,
    ("binter", 500): 300143121696871965879055782375664613562194481187059981648343857564091,
    ("baseT:1", 37): 2763677963309429082662081211679471558872686699680998612174250685437711,
    ("baseT:1", 500): 2830328675437353427451066182561705104417026554674442074802381853765753,
    ("baseT:2", 37): 1740710930384450609779258533144030013682007405095918160386986762201068,
    ("baseT:2", 500): 1806916818531112295060640469114696861842281779604367031536894576927542,
    ("baseT:3", 37): 1345452858705706274128310634213887940608893065362646856664243899102032,
    ("baseT:3", 500): 1411221409232503462082829456546319727123411446818522229060393284726268,
    ("halfint:a", 37): 16367472526799655566125162856567064723050868713361287228596222771786257,
    ("halfint:a", 500): 16374589710499858118246811415152131881195916401121200692247796429411230,
    ("halfint:b", 37): 6324129146859909370415166382882273169169829435732340859563885809584595,
    ("halfint:b", 500): 6331126548777741327644976201094034155501925324573516839624020675220356,
    ("halfint:c", 37): 10043343379939746195709996473684791553881039277628946369032336962201644,
    ("halfint:c", 500): 10043463161722116790601835214058097725693991076547683852623775754190628,
}


class TestFixedPointEngines:
    @pytest.mark.parametrize("text", DIAG_FAMILIES)
    def test_diagonal_engine_matches_exact(self, text):
        spec = parse_spec(text)
        cfg = NumericCfg(digits=50, n_max=300, method="diagonal")
        got = oracle_for(spec, cfg)
        want = diagonal_partial_exact(spec, 300)
        with workdps(70):
            assert abs(got.value - f2m(want)) < mp.mpf("1e-55")
        assert got.method == "diagonal"
        assert got.n_used == 300

    @pytest.mark.parametrize(
        "text,box",
        [
            ("A3:s=1", 40),
            ("An:n=2,s=3", 40),
            ("An:n=3,s=2", 40),
            ("An:n=4,s=0", 12),
            ("An:n=5,s=1", 10),
            ("S111", 40),
            ("tornheim:a=2,b=1,c=1", 40),
            ("tornheim:a=1,b=1,c=1", 40),
            ("baseT:1", 40),
            ("baseT:2", 40),
            ("baseT:3", 40),
            ("halfint:a", 40),
            ("halfint:b", 40),
            ("halfint:c", 40),
            ("binter", 40),
            ("aXL:k=2", 40),
            ("ln", 40),
            ("on", 40),
            ("evenodd", 40),
            ("oddsq", 40),
        ],
    )
    def test_raw_engine_matches_exact(self, text, box):
        spec = parse_spec(text)
        cfg = NumericCfg(digits=50, n_max=box, method="raw")
        got = oracle_raw(spec, cfg)
        want = box_partial_exact(spec, box)
        with workdps(70):
            assert abs(got.value - f2m(want)) < mp.mpf("1e-55")
        assert got.method == "raw"

    @pytest.mark.parametrize("text,box,value", RAW_PINNED)
    def test_raw_engine_pinned(self, text, box, value):
        # the raw box and box_partial_exact derive from one factored summand,
        # so the comparison above checks the arithmetic only; these values,
        # summed by hand-written per-family loops, check the transcription
        res = oracle_raw(parse_spec(text), NumericCfg(digits=50, n_max=box, method="raw"))
        with workdps(60):
            assert +res.value == mp.mpf(value)

    @pytest.mark.parametrize("text", DIAG_FAMILIES)
    @pytest.mark.parametrize("cutoff", [37, 500])
    def test_regrouped_walk_pinned(self, text, cutoff):
        # the walk and diagonal_partial_exact derive from one atom
        # description, so test_diagonal_engine_matches_exact checks the
        # arithmetic only; these values check the fixed-point rounding too
        spec = parse_spec(text)
        got = oracle._regrouped_sum(spec, cutoff, 1 << oracle._prec_bits(50))
        slack = 16 if spec.kind == "An" and spec.values[0] >= 4 else 0
        assert abs(got - WALK_PINNED[text, cutoff]) <= slack

    def test_one_index_raw_walk_holds_bounded_memory(self):
        # every stage of the walk is an iterator, so a long regrouped sum
        # holds a handful of values rather than a list of every partial sum
        spec = parse_spec("ln")
        tracemalloc.start()
        try:
            oracle._regrouped_sum(spec, 2 * 10**5, 1 << oracle._prec_bits(50))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20, peak

    def test_rounding_is_downward(self):
        # fixed-point truncation may only under-shoot the exact partial: the
        # value, read exactly from its raw tuple, never lies above it
        diag = ["A3:s=2", "ln", "on", "S111", "halfint:c", "baseT:2", "binter",
                "evenodd", "oddsq", "aXL:k=3", "An:n=4,s=1"]
        raw = ["S111", "A3:s=2", "halfint:c", "baseT:2", "binter", "tornheim:a=2,b=1,c=1"]
        cases = [("ln", NumericCfg(digits=40, n_max=200, method="diagonal"), diagonal_partial_exact)]
        cases += [(t, NumericCfg(n_max=n, method="diagonal"), diagonal_partial_exact)
                  for n in (100, 137, 317, 1000) for t in diag]
        cases += [(t, NumericCfg(n_max=n, method="raw"), box_partial_exact) for n in (20, 37, 80) for t in raw]
        for text, cfg, exact in cases:
            spec = parse_spec(text)
            got = oracle_for(spec, cfg)
            assert m2f(got.value) <= exact(spec, cfg.n_max), (text, cfg.method, cfg.n_max)

    def test_deterministic_repeats(self):
        spec = parse_spec("halfint:c")
        cfg = NumericCfg(digits=40, n_max=2000, method="diagonal")
        a = oracle_for(spec, cfg)
        b = oracle_for(spec, cfg)
        assert a.value == b.value
        with workdps(50):
            assert mp.nstr(a.value, 40) == mp.nstr(b.value, 40)


class TestPrefixTable:
    """Diagonal heads below N* are read from ``oracle._PREFIX``, the partial
    sums shared by every call on the same atoms, origin and grid."""

    CUTOFFS = [12, 37, 150, 500, 1500]
    ORDERS = {
        "ascending": CUTOFFS,
        "descending": CUTOFFS[::-1],
        "shuffled": [150, 12, 1500, 37, 500],
    }

    @pytest.fixture(autouse=True)
    def empty_table(self):
        oracle._PREFIX.clear()
        yield
        oracle._PREFIX.clear()

    @staticmethod
    def _heads(monkeypatch, spec, digits, cutoffs, method="diagonal"):
        # the integers _diagonal's head returns, in call order
        heads, read = [], oracle._prefix_sum

        def recorded(*args):
            heads.append(read(*args))
            return heads[-1]

        with monkeypatch.context() as m:
            m.setattr(oracle, "_prefix_sum", recorded)
            for n in cutoffs:
                oracle._diagonal(spec, NumericCfg(digits=digits, n_max=n, method=method), method)
        return heads

    @pytest.mark.parametrize("text", DIAG_FAMILIES)
    def test_heads_match_the_walk_in_any_order(self, text, monkeypatch):
        # both precisions share the table, each order starts from an empty one
        spec = parse_spec(text)
        want = {}
        for digits in (50, 120):
            assert self.CUTOFFS[-1] < oracle.asymptotic_cutoff(spec, digits)
            one = 1 << oracle._prec_bits(digits)
            want[digits] = {n: oracle._regrouped_sum(spec, n, one) for n in self.CUTOFFS}
        for order, cutoffs in self.ORDERS.items():
            oracle._PREFIX.clear()
            for digits in (50, 120):
                got = self._heads(monkeypatch, spec, digits, cutoffs)
                assert got == [want[digits][n] for n in cutoffs], (digits, order)

    @pytest.mark.parametrize("text", DIAG_FAMILIES)
    def test_each_term_is_walked_once(self, text, monkeypatch):
        # a cutoff past the stored prefix resumes the row's walk where the
        # last one stopped; a cleared table walks again from origin
        spec, cutoffs = parse_spec(text), self.ORDERS["shuffled"]
        one = 1 << oracle._prec_bits(50)
        want = [oracle._regrouped_sum(spec, n, one) for n in cutoffs]
        pulled, walk = [], oracle._regrouped_terms

        def counted(*args):
            for term in walk(*args):
                pulled.append(None)
                yield term

        monkeypatch.setattr(oracle, "_regrouped_terms", counted)
        for rounds in (1, 2):
            assert self._heads(monkeypatch, spec, 50, cutoffs) == want, rounds
            assert len(pulled) == rounds * (max(cutoffs) - spec.family.origin + 1)
            oracle._PREFIX.clear()

    def test_an_interrupted_extension_is_never_resumed(self, monkeypatch):
        # a walk cut short mid-extension leaves no entry behind, so the next
        # call walks from origin instead of resuming at the wrong term
        spec, one = parse_spec("halfint:b"), 1 << oracle._prec_bits(50)
        walk = oracle._regrouped_terms

        def interrupted(*args):
            yield from islice(walk(*args), 100)
            raise KeyboardInterrupt

        with monkeypatch.context() as m:
            m.setattr(oracle, "_regrouped_terms", interrupted)
            oracle._prefix_sum(spec, 40, one)
            assert len(oracle._PREFIX) == 1
            with pytest.raises(KeyboardInterrupt):
                oracle._prefix_sum(spec, 300, one)
        for n in (300, 50, 120, 20):
            assert oracle._prefix_sum(spec, n, one) == oracle._regrouped_sum(spec, n, one), n

    def test_one_index_raw_route_reads_the_table(self, monkeypatch):
        spec = parse_spec("ln")
        one = 1 << oracle._prec_bits(50)
        got = self._heads(monkeypatch, spec, 50, [300, 40], method="raw")
        assert got == [oracle._regrouped_sum(spec, n, one) for n in (300, 40)]
        assert len(oracle._PREFIX) == 1

    def test_key_is_the_atoms_not_the_spec(self, monkeypatch):
        # a row whose atoms change is never served the old row's sums
        spec, cfg = parse_spec("ln"), NumericCfg(digits=50, n_max=500)
        before = oracle_diagonal(spec, cfg).value
        terms, linear = FAMILIES["ln"].atoms()
        mutated = ((3, terms[0][1]),) + terms[1:], linear
        monkeypatch.setitem(FAMILIES, "ln", replace(FAMILIES["ln"], atoms=lambda: mutated))
        after = oracle_diagonal(spec, cfg).value
        one = 1 << oracle._prec_bits(50)
        assert oracle._prefix_sum(spec, 500, one) == oracle._regrouped_sum(spec, 500, one)
        oracle._PREFIX.clear()
        assert after != before
        assert after == oracle_diagonal(spec, cfg).value

    def test_budget_bounds_the_stored_bytes(self, monkeypatch):
        # a few KB hold about a hundred 50-digit sums: the table clears,
        # refuses the longer prefixes, and every head is still the walk's
        budget = 4096
        monkeypatch.setattr(oracle, "_PREFIX_BUDGET", budget)
        one = 1 << oracle._prec_bits(50)
        stored = set()
        for text in ("ln", "on", "S111", "halfint:b"):
            spec = parse_spec(text)
            # 145 sums pass the budget by a byte or so each, which a width of prec/8 misses
            for n in (40, 90, 60, 130, 500, 145, 20, 100):
                got = self._heads(monkeypatch, spec, 50, [n])
                assert got == [oracle._regrouped_sum(spec, n, one)], (text, n)
                assert sum(len(blob) for _, blob, _ in oracle._PREFIX.values()) <= budget
                stored |= set(oracle._PREFIX)
        assert len(stored) == 4


# every row with two or more indices; the fold engages where lead and last agree
MULTI_INDEX = [
    "S111",
    "baseT:1",
    "baseT:2",
    "baseT:3",
    "halfint:a",
    "halfint:b",
    "halfint:c",
    "binter",
    "A3:s=0",
    "A3:s=7",
    "An:n=3,s=2",
    "An:n=4,s=0",
    "An:n=4,s=2",
    "An:n=5,s=1",
    "tornheim:a=2,b=1,c=1",
    "tornheim:a=1,b=1,c=2",
    "tornheim:a=2,b=2,c=1",
]


def _frac_div(x, d):
    return F(x) / d


def _unfolded_sum(spec, hi: int, top: int, one, div):
    """The defining form summed over every ordered index tuple in
    origin..hi with total <= top, one div(num * one, den) per tuple, with
    H_{g+shift} summed as div(one, i) per reciprocal, as the engines do."""
    fam = spec.family
    num, lead, last, total = fam.summand(*spec.args)
    shift = fam.shift(*spec.args)
    harm = [div(0, 1)]
    for i in range(1, top + shift + 1):
        harm.append(harm[-1] + div(one, i))
    acc = div(0, 1)
    for ms in product(range(fam.origin, hi + 1), repeat=fam.dims(*spec.args)):
        g = sum(ms)
        if g <= top:
            top_num = harm[g + shift] if num is None else num * one
            acc += div(top_num, prod(map(lead, ms[:-1])) * last(ms[-1]) * total(g))
    return acc


# sha256 of str() of (triangle, box) exact partials at every (spec, cutoff)
# of the exact-sound benchmark workload, as summed term by term in Fractions
# before the defining form moved onto the common-multiple grid
EXACT_SOUND_PINNED = [
    ("A3:s=0", 60, "4a0c92176045e6295a56788c4df29e3b68e37918289e0b9afa02d08d3cb0aa23"),
    ("A3:s=7", 90, "80da0fe3bc16b4dee1581e9b1e5e773a7734e43e01f12bc1fcbf4fd70bceda4d"),
    ("A3:s=20", 120, "5fd43353e5f9da51511ccde04339d89a2f0d8b8e10b69fc49c25fad8409e162b"),
    ("An:n=2,s=0", 60, "b0a17e772aa22358bda34b0c188c49f73c58c4ac36d87721eeb5cceac33ba235"),
    ("An:n=2,s=3", 90, "05fe217a8b52b85579d41550369541c3d82cc6668d237264e5048fdfcae06a21"),
    ("An:n=2,s=6", 120, "3635f2d21a1d4efeab10fb00ff61bdf11599f2e8fd22d307f32361d524547dc2"),
    ("An:n=3,s=0", 60, "4a0c92176045e6295a56788c4df29e3b68e37918289e0b9afa02d08d3cb0aa23"),
    ("An:n=3,s=3", 90, "55770856f08fd9e64cd67629762d19a627c75f15d044bfdd3652babdbb91be60"),
    ("An:n=3,s=6", 120, "49de919b5b559b59375ca4fdefb593b0151799cc8ad0d6b9fe20d1544e0929fb"),
    ("An:n=4,s=0", 20, "74597dbb100293d5e9b0de49a42fea28b949aa6695714edd7cb0510907258cad"),
    ("An:n=4,s=3", 28, "16766d22117fa8299018d5cddec06267d36791b6e04729860632bb3419bed81d"),
    ("An:n=4,s=6", 36, "3397d15cab8075ad09aa0321211f223eea40eac4780299cc7d00fe5d555e621b"),
    ("aXL:k=0", 60, "b0a17e772aa22358bda34b0c188c49f73c58c4ac36d87721eeb5cceac33ba235"),
    ("aXL:k=7", 90, "9d2bcec54a41a97edb20de1a894a7ddad275a42f12ceff37880470315868655f"),
    ("aXL:k=20", 120, "0cb45dc04bd0fde55b2967ae367a9556c1d8730b5acb1f663ad500ac2c1f673a"),
    ("S111", 60, "747085b75890805d6d6e46d1ea6d9ca71cd35a4536cd0af6e539523b14e32caa"),
    ("S111", 90, "ee89eb38feca879994fb8fd7ac7f070f4ee7fde0f7ca6e49af5124e512ecc4c3"),
    ("S111", 120, "8dc8d3b0713b556269fa873575d928770104a79bb7a5f832948badaa5f77153d"),
    ("ln", 60, "e5910e13e60816602070e2acf0e34e72a075790e3116ed9806b2a9fc7adde661"),
    ("ln", 90, "ebf6c5086c2306717ea024491bc84a54dd24a127b05ccaa945b6ecbb77596610"),
    ("ln", 120, "35a0201bcea29cecff5b6c30480ead23f8e84b418954464f1734d794fd982b80"),
    ("on", 60, "4753a92e732a4c1b4bef7814d47d9992c07887e9015dd1e4b05f9195b5b706b2"),
    ("on", 90, "ec4470c3ef8e22638838b2bfa227a170c03f77a76a56a870dc16125e2f62e59e"),
    ("on", 120, "40e77ac4a897d8a633854ab73445d9642907fb3e2a489a78fc2359eb3b3db2f3"),
    ("baseT:1", 60, "486fb1312dca5d3edd5e2de24965ece488575a8fa4399f62729d19cab63e54fc"),
    ("baseT:2", 90, "4f00e243288ef50909e2dab5224e87e4e036484a28986e775bbf8a56a26ff8c1"),
    ("baseT:3", 120, "6c3040945321964a11e70e01e3ff330e687f0cc5ad9ebeb4ed27e881ac97bc52"),
    ("halfint:a", 60, "49ee9cf6a37abfca43f24bebbbf4f833b5f27bbecc93ba8a33ec181f58dbf4c1"),
    ("halfint:b", 90, "cd732bf8865642af15f3722c579117228e6084266fcb86b8b9a0fc6ccef6db55"),
    ("halfint:c", 120, "23ff1cbb60ee52c820056c8e9217c656b5f0fd97d73bce55b88ce9afe043778f"),
    ("evenodd", 60, "c57c4cadd2d9fddf0e97f59b14c6903bdc1532404f4b8ee5d8a83129636284df"),
    ("evenodd", 90, "2426964b6406ee669b9e5a405f72c81410443678e9629615fef2d64b7c9ad270"),
    ("evenodd", 120, "4069908fd9587048cbd0c6cadab88bab9cb5726a6ced5cb9f03cc170239253e3"),
    ("oddsq", 60, "ec9f12f71f5870e33491e8dd85b91a42f76e12f09b09ac0eeab7a40cfb0bee01"),
    ("oddsq", 90, "c98705e73b264f29076486d41b9fd3fc2259b3c8473ec84775e1a0a5493ba749"),
    ("oddsq", 120, "d933b07785dda06dbdee6a795523890b38e7caaacdd5cd85ee4a504fb7a21813"),
    ("binter", 60, "92a74edaca81188411a91e163e6803c070caf74471646732d8afd99409461236"),
    ("binter", 90, "6675bce7e1e775c40ae62112ecf3241656fa8e9cace3d17716ad1b5378434845"),
    ("binter", 120, "dcda0cbbfd031ff0f965e91e02bbfa595bf87cbea434a286504f6fd588319fd5"),
]


class TestSymmetricFold:
    @pytest.mark.parametrize("text", MULTI_INDEX)
    def test_fold_matches_every_ordering(self, text):
        # a symmetric row sums each unordered tuple once, weighted by its
        # orderings; per-term floors depend on the multiset alone, so the
        # integers and the Fractions must equal the unfolded sums exactly
        spec = parse_spec(text)
        dims = spec.family.dims(*spec.args)
        for box in (1, 2, 7, 40) if dims == 2 else (1, 2, 3, 7):
            for digits in (30, 77):
                one = 1 << oracle._prec_bits(digits)
                for top in (box, dims * box):
                    got = oracle._defining_sum(spec, box, top, one)
                    assert got == _unfolded_sum(spec, box, top, one, floordiv), (box, digits, top)
            exact = _unfolded_sum(spec, box, box, 1, _frac_div)
            assert triangle_partial_exact(spec, box) == exact, box
            exact = _unfolded_sum(spec, box, dims * box, 1, _frac_div)
            assert box_partial_exact(spec, box) == exact, box

    def test_exact_sound_partials_pinned(self):
        for text, cutoff, digest in EXACT_SOUND_PINNED:
            spec = parse_spec(text)
            pair = f"{triangle_partial_exact(spec, cutoff)} {box_partial_exact(spec, cutoff)}"
            assert hashlib.sha256(pair.encode()).hexdigest() == digest, (text, cutoff)

    @pytest.mark.parametrize("text", MULTI_INDEX)
    def test_exact_grid_leaves_no_remainder(self, text):
        # the exact partials floor every term on one common-multiple grid L;
        # L must be a multiple of every denominator the walk meets, so that
        # no floor drops anything and the sum scales exactly with L
        spec = parse_spec(text)
        dims = spec.family.dims(*spec.args)
        for box in (1, 2, 7, 40) if dims == 2 else (1, 2, 3, 7):
            for top in (box, dims * box):
                grid = oracle._exact_grid(spec, box, top)
                _, last, tot, rows = oracle._defining_walk(spec, box, top)
                for p, sl, i, *_ in rows:
                    for b, c in zip(last[i:], tot[sl]):
                        assert grid % (p * b * c) == 0, (box, top, p, b, c)
                got = oracle._defining_sum(spec, box, top, grid)
                assert oracle._defining_sum(spec, box, top, 3 * grid) == 3 * got, (box, top)

    @given(st.sampled_from(MULTI_INDEX), st.integers(1, 12), st.data())
    def test_exact_partials_match_unfolded_fractions(self, text, box, data):
        spec = parse_spec(text)
        dims = spec.family.dims(*spec.args)
        top = data.draw(st.integers(box, dims * box))
        grid = oracle._exact_grid(spec, box, top)
        got = F(oracle._defining_sum(spec, box, top, grid), grid)
        assert got == _unfolded_sum(spec, box, top, 1, _frac_div)
        exact = _unfolded_sum(spec, box, box, 1, _frac_div)
        assert triangle_partial_exact(spec, box) == exact
        exact = _unfolded_sum(spec, box, dims * box, 1, _frac_div)
        assert box_partial_exact(spec, box) == exact

    @pytest.mark.parametrize("text", DIAG_FAMILIES + ["A3:s=20", "An:n=8,s=0"])
    def test_regrouped_grid_leaves_no_remainder(self, text):
        # the exact diagonal partial walks on the common multiple L of its
        # atoms and linear factors (e_6 in An:n=8 puts lcm(1..N)^7 in it);
        # no floor may drop anything, so the sum scales exactly with L
        spec = parse_spec(text)
        origin = spec.family.origin
        for cutoff in (origin, origin + 1, 7, 40):
            grid = oracle._regrouped_grid(spec, cutoff)
            got = oracle._regrouped_sum(spec, cutoff, grid)
            assert oracle._regrouped_sum(spec, cutoff, 3 * grid) == 3 * got, cutoff

    def test_exact_partials_build_one_fraction_per_call(self, monkeypatch):
        # every exact partial sums on an integer grid and builds one Fraction
        # at the end; a walk dividing as Fractions would build one per term
        built = []

        def counting(*args):
            built.append(args)
            return F(*args)

        monkeypatch.setattr(oracle, "Fraction", counting)
        specs = [parse_spec(text) for text in MULTI_INDEX + ["aXL:k=3", "ln", "on", "oddsq"]]
        assert {s.kind for s in specs} >= {k for k, f in FAMILIES.items() if f.summand}
        for spec in specs:
            partials = [triangle_partial_exact, box_partial_exact]
            if spec.family.atoms is not None:
                partials.append(diagonal_partial_exact)
            for partial_exact in partials:
                built.clear()
                assert partial_exact(spec, 5) > 0
                assert len(built) == 1, (str(spec), partial_exact.__name__, len(built))

    @pytest.mark.parametrize(
        "text,box,terms",
        [
            ("S111", 40, 40 * 41 // 2),
            ("binter", 40, 40 * 40),
            ("An:n=4,s=0", 7, comb(7 + 2, 3)),
            ("An:n=5,s=1", 7, comb(7 + 3, 4)),
        ],
    )
    def test_fold_engages_on_symmetric_rows_only(self, text, box, terms):
        # a folded row walks the nondecreasing tuples, each weighted by its
        # d!/prod(run length)! orderings, which add up to box^d
        spec = parse_spec(text)
        dims = spec.family.dims(*spec.args)
        num, last, tot, rows = oracle._defining_walk(spec, box, dims * box)
        touched = [sl.stop - sl.start for p, sl, i, first, rest in rows]
        assert sum(touched) == terms
        weighted = sum(first + rest * (n - 1) for (*_, first, rest), n in zip(rows, touched))
        assert weighted == box**dims


HONESTY_FAMILIES = DIAG_FAMILIES + ["An:n=5,s=0", "An:n=3,s=4", "An:n=7,s=0"]
# one spec per family row or more, covering every row's tail
TAIL_ROWS = HONESTY_FAMILIES + [
    "A3:s=20",
    "aXL:k=50",
    "tornheim:a=1,b=1,c=1",
    "tornheim:a=2,b=1,c=1",
    "tornheim:a=1,b=1,c=3",
]


def majorant_sum(spec, n_cut: int, digits: int = 50):
    """(S_N, tail_estimate) from the fixed-point regrouped walk, S_N the exact
    acc 2^-prec: oracle_diagonal's value and tail_bound below the asymptotic
    cutoff, at any cutoff."""
    prec = oracle._prec_bits(digits)
    acc = oracle._regrouped_sum(spec, n_cut, 1 << prec)
    return mp.ldexp(acc, -prec), tail_estimate(spec, n_cut)


@pytest.mark.parametrize("text, digits, n_max", [("ln", 50, 100), ("halfint:c", 30, 2047)])
def test_below_cutoff_result_is_the_head_and_the_majorant_exactly(text, digits, n_max):
    # mid 2^exp is the head's acc 2^-prec and rad 2^exp the majorant, on the
    # finer of their grids; at 30 digits and 2047 terms the majorant's lies below 2^-prec
    spec = parse_spec(text)
    result = oracle_diagonal(spec, NumericCfg(digits=digits, n_max=n_max))
    value, bound = majorant_sum(spec, n_max, digits)
    assert (result.value, result.tail_bound, result.est) == (value, bound, 0)
    assert result.exp == min(-oracle._prec_bits(digits), bound._mpf_[2])


class TestTailHonesty:
    @pytest.mark.parametrize("text", HONESTY_FAMILIES)
    @pytest.mark.parametrize("n_cut", [1000, 10000])
    def test_true_remainder_within_bound(self, text, n_cut):
        spec = parse_spec(text)
        value, bound = majorant_sum(spec, n_cut)
        with workdps(60):
            closed = zx_numeric(closed_form_of(spec), 50)
            err = closed - value
            assert err >= 0
            assert err <= bound
            # the majorant should stay within an order of magnitude of truth
            assert bound <= max(20 * err, mp.mpf("1e-25"))

    @pytest.mark.parametrize("n_cut", [10, 11, 100])
    def test_oddsq_remainder_within_convexity_bound(self, n_cut):
        # oddsq's 1/(4G^2) lies below its term 1/(2G-1)^2; the bound 1/(4N)
        # holds as the integral of the convex (2x-1)^-2 from N + 1/2
        spec = parse_spec("oddsq")
        with workdps(60):
            rest = mp.pi**2 / 8 - f2m(diagonal_partial_exact(spec, n_cut))
            assert 0 < rest <= tail_estimate(spec, n_cut)
        # and not below 1/(4N) itself, compared exactly
        man, exp = tail_estimate(spec, n_cut).man_exp
        assert man * F(2) ** exp >= F(1, 4 * n_cut)

    def test_tornheim_raw_remainder_within_bound(self):
        spec = parse_spec("tornheim:a=1,b=1,c=1")
        cfg = NumericCfg(digits=50, n_max=100, method="raw")
        res = oracle_raw(spec, cfg)
        with workdps(60):
            closed = 2 * mp.zeta(3)
            err = closed - res.value
            assert 0 <= err <= res.tail_bound

    @pytest.mark.parametrize("text", ["A3:s=0", "aXL:k=1", "ln", "baseT:2", "halfint:c"])
    def test_bound_shrinks_with_cutoff(self, text):
        spec = parse_spec(text)
        prev = tail_estimate(spec, 100)
        for n in (1000, 10000, 100000):
            cur = tail_estimate(spec, n)
            assert cur < prev
            prev = cur

    def test_bound_positive(self):
        assert tail_estimate(parse_spec("on"), 50) > 0

    def test_tail_rows_cover_every_family(self):
        assert {parse_spec(text).kind for text in TAIL_ROWS} == set(FAMILIES)

    @pytest.mark.parametrize("text", TAIL_ROWS)
    def test_bound_rounds_up(self, text):
        # the majorant integral A sum_i k!/(k-i)! (ln N + c)^(k-i) N^(1-p)/(p-1)^(i+1),
        # evaluated here at 80 digits: the returned bound must not lie below
        # it, and may exceed it only by the 2^-128 its integer budget allows
        spec = parse_spec(text)
        a_const, c_log, k_pow, p_pow = spec.family.tail(*spec.args)
        for n_cut in (*range(10, 201), *range(997, 1004), 1500, 10**5, 2**40 + 1):
            if n_cut < spec.family.shift(*spec.args):
                continue
            bound = tail_estimate(spec, n_cut)
            with workdps(80):
                ln_c = mp.log(n_cut) + c_log
                integral = sum(
                    factorial(k_pow) // factorial(k_pow - i) * ln_c ** (k_pow - i)
                    / mp.mpf(p_pow - 1) ** (i + 1)
                    for i in range(k_pow + 1)
                )
                want = f2m(a_const) * integral * mp.mpf(n_cut) ** (1 - p_pow)
                assert want <= bound <= want * (1 + mp.ldexp(1, -128)), n_cut


# rows of every family with a regrouped single sum
ENCLOSED = [
    "A3:s=0",
    "A3:s=7",
    "An:n=4,s=2",
    "aXL:k=5",
    "S111",
    "ln",
    "on",
    "baseT:1",
    "baseT:2",
    "baseT:3",
    "halfint:a",
    "halfint:b",
    "halfint:c",
    "evenodd",
    "oddsq",
    "binter",
]
# rows with an integral A_n(s), for quadrature's pairs
QUADRATURE_ENCLOSED = ["A3:s=0", "An:n=4,s=2", "An:n=5,s=3", "aXL:k=3", "S111"]


class TestEnclosuresMeet:
    """Two certified enclosures of the same sum must intersect, whatever
    produced them; checking that needs no reference value, so tornheim,
    which has no closed form, is checked too."""

    @staticmethod
    def _enclosure(result, digits, terms=None):
        # past N*: value +- tail_bound.  Below N*, or on a raw box, of TERMS
        # positive terms: the head plus [0, tail_bound], widened by the
        # 2^_TAIL_GUARD_BITS ulps a term that _series allows past N*, far
        # more than each term's floor takes
        if terms is None:
            return result.value - result.tail_bound, result.value + result.tail_bound
        slack = mp.ldexp(terms, oracle._TAIL_GUARD_BITS - oracle._prec_bits(digits))
        return result.value - slack, result.value + slack + result.tail_bound

    @staticmethod
    def _quadrature(spec, digits):
        # the level loop's stop target 10^-(digits+5) max(1, |v|) as the
        # half-width, until quadrature's error is certified
        v = oracle_quadrature(spec, NumericCfg(digits=digits)).value
        half = mp.mpf(10) ** -(digits + 5) * max(1, abs(v))
        return v - half, v + half

    def test_enclosures_meet_across_cutoffs_precisions_and_routes(self):
        def meet(a, b, where):
            assert a[0] <= b[1] and b[0] <= a[1], where

        with workdps(400):
            for text in ENCLOSED:
                spec = parse_spec(text)
                past = {d: self._enclosure(oracle_diagonal(spec, NumericCfg(digits=d)), d) for d in (50, 60, 120)}
                # below N* against past N*
                for digits in (50, 120):
                    for n in (150, 1500):
                        below = oracle_diagonal(spec, NumericCfg(digits=digits, n_max=n))
                        meet(self._enclosure(below, digits, n), past[digits], (text, digits, n))
                # d against 2d digits
                meet(past[60], past[120], (text, "60 against 120 digits"))
                # the raw box, from the summand, against the diagonal route, from the atoms
                if spec.family.dims(*spec.args) == 2:
                    box = oracle_raw(spec, NumericCfg(n_max=60, method="raw"))
                    meet(self._enclosure(box, 50, 60**2), past[50], (text, "raw box"))
            spec = parse_spec("tornheim:a=2,b=1,c=1")
            boxes = {n: oracle_raw(spec, NumericCfg(n_max=n, method="raw")) for n in (100, 300, 800)}
            for a, b in combinations(boxes, 2):
                meet(self._enclosure(boxes[a], 50, a**2), self._enclosure(boxes[b], 50, b**2), (a, b))
            # quadrature at d against 2d digits, and against the diagonal route
            for text in QUADRATURE_ENCLOSED:
                spec = parse_spec(text)
                quad = {d: self._quadrature(spec, d) for d in (50, 100)}
                meet(quad[50], quad[100], (text, "quadrature at 50 against 100 digits"))
                diagonal = self._enclosure(oracle_diagonal(spec, NumericCfg(digits=50)), 50)
                meet(quad[50], diagonal, (text, "quadrature against the diagonal route"))


def _fraction_tail_estimate(spec, n_cut: int) -> F:
    """tail_estimate's rational, from its upper bound l on ln N + c, as the
    closed sum A sum_i k!/(k-i)! l^(k-i) N^(1-p)/(p-1)^(i+1) in Fractions,
    not its recurrence, rounded up at q = 136 bits."""
    a_const, c_log, k_pow, p_pow = spec.family.tail(*spec.args)
    q = 136
    wp = q + 8 + n_cut.bit_length().bit_length()
    ln_n = m2f(mp.make_mpf(mpf_log(from_int(n_cut), wp, round_floor)))
    ell = F(floor(ln_n * 2**q) + 2 + ceil(F(c_log) * 2**q), 2**q)
    x = a_const * F(n_cut) ** (1 - p_pow) * sum(
        F(factorial(k_pow) // factorial(k_pow - i)) * ell ** (k_pow - i) / (p_pow - 1) ** (i + 1)
        for i in range(k_pow + 1)
    )
    # the ulp of x's q-bit mantissa
    top = x.numerator.bit_length() - x.denominator.bit_length()
    ulp = F(2) ** ((top if x >= F(2) ** top else top - 1) - q + 1)
    return -(-x // ulp) * ulp


class TestRawTupleBits:
    # tail_estimate against its exact rational rounded up, and the series
    # values against their routes' integers, bit for bit

    @pytest.mark.parametrize("text", TAIL_ROWS)
    def test_tail_estimate(self, text):
        spec = parse_spec(text)
        cutoffs = [*range(10, 61), 99, 100, 101, 317, 1000, 2047, 10**5, 10**6, 2**40 + 1]
        for n_cut in cutoffs:
            if n_cut >= spec.family.shift(*spec.args):
                assert m2f(tail_estimate(spec, n_cut)) == _fraction_tail_estimate(spec, n_cut), n_cut

    @pytest.mark.parametrize("digits", [30, 50, 77, 200])
    def test_series_value(self, digits):
        # below N*, and on a raw box, the value is acc 2^-prec exactly; past N*
        # it is (acc + tail) 2^-prec on the finer grid, and tail_bound is bound 2^-prec
        prec = oracle._prec_bits(digits)
        for text in ["A3:s=2", "An:n=4,s=1", "S111", "ln", "halfint:c", "binter"]:
            spec = parse_spec(text)
            for n in (10, 100, 317):
                acc = oracle._regrouped_sum(spec, n, 1 << prec)
                got = oracle_diagonal(spec, NumericCfg(digits=digits, n_max=n)).value
                assert m2f(got) == F(acc, 1 << prec), (text, n)
            if spec.family.summand is not None:
                for n in (10, 20):
                    dims = spec.family.dims(*spec.args)
                    acc = oracle._defining_sum(spec, n, dims * n, 1 << prec)
                    got = oracle_raw(spec, NumericCfg(digits=digits, n_max=n)).value
                    assert m2f(got) == F(acc, 1 << prec), (text, n)
        from tornzeta import asymptotic

        fine = prec + oracle._TAIL_GUARD_BITS
        for text in ["A3:s=2", "ln"]:
            spec = parse_spec(text)
            n_star = oracle.asymptotic_cutoff(spec, digits)
            acc = oracle._regrouped_sum(spec, n_star, 1 << fine)
            tail, bound = asymptotic.tail(spec, n_star, digits, fine)
            bound += n_star << oracle._TAIL_GUARD_BITS
            got = oracle_diagonal(spec, NumericCfg(digits=digits))
            assert m2f(got.value) == F(acc + tail, 1 << fine)
            assert m2f(got.tail_bound) == F(bound, 1 << fine)


class TestMonotoneApproach:
    @pytest.mark.parametrize("text", ["A3:s=2", "S111", "on", "halfint:a"])
    def test_partials_increase_toward_closed_value(self, text):
        spec = parse_spec(text)
        p1 = diagonal_partial_exact(spec, 50)
        p2 = diagonal_partial_exact(spec, 100)
        assert p1 < p2
        with workdps(60):
            closed = zx_numeric(closed_form_of(spec), 50)
            assert f2m(p2) < closed


class TestConfigAndGuards:
    def test_cfg_validation(self):
        with pytest.raises(ValueError):
            NumericCfg(digits=20)
        with pytest.raises(ValueError):
            NumericCfg(n_max=5)
        with pytest.raises(ValueError):
            NumericCfg(quad_levels=2)
        with pytest.raises(ValueError):
            NumericCfg(quad_levels=17)
        with pytest.raises(ValueError):
            NumericCfg(method="montecarlo")

    @pytest.mark.parametrize(
        "field, value",
        [("digits", 50.0), ("n_max", 500.0), ("quad_levels", 10.5), ("digits", True)],
    )
    def test_cfg_fields_must_be_int(self, field, value):
        # a float or bool field would otherwise fail deep in an engine
        with pytest.raises(ValueError, match=f"{field} must be int"):
            NumericCfg(**{field: value})

    def test_diagonal_guards(self):
        cfg = NumericCfg(n_max=100)
        with pytest.raises(ValueError, match="cutoff >= shift"):
            oracle_diagonal(parse_spec("An:n=2,s=200"), cfg)

    def test_raw_caps(self):
        # the cap refuses a box the route would sum, at any digits
        with pytest.raises(ValueError, match="out of reach"):
            oracle_raw(parse_spec("S111"), NumericCfg(digits=201, n_max=5001, method="raw"))
        with pytest.raises(ValueError, match="out of reach"):
            oracle_raw(parse_spec("An:n=4,s=0"), NumericCfg(digits=101, n_max=401, method="raw"))
        # the default n_max is a 10^6 box, so a two-index row refuses it
        with pytest.raises(ValueError, match="out of reach"):
            oracle_raw(parse_spec("S111"), NumericCfg(digits=50, method="raw"))
        # the cap counts terms, so more indices lower the largest box
        with pytest.raises(ValueError, match="out of reach"):
            oracle_raw(parse_spec("An:n=6,s=0"), NumericCfg(n_max=400, method="raw"))
        with pytest.raises(ValueError, match="out of reach"):
            oracle_raw(parse_spec("An:n=12,s=0"), NumericCfg(n_max=10, method="raw"))
        # the 1-dim families have no box blowup and take large cutoffs
        spec, cfg = parse_spec("aXL:k=0"), NumericCfg(n_max=20000, method="raw")
        assert oracle_raw(spec, cfg).n_used == oracle.asymptotic_cutoff(spec, cfg.digits)

    @pytest.mark.parametrize("text", ["ln", "on", "evenodd", "oddsq", "aXL:k=0", "An:n=2,s=3"])
    @pytest.mark.parametrize("at", ["100", "N*-1", "N*", "10^5"])
    def test_one_index_raw_is_the_diagonal_route(self, text, at):
        # a one-index series is its own regrouping: below N* and past it the
        # raw route gives the diagonal route's value, terms and bound
        spec = parse_spec(text)
        n_star = oracle.asymptotic_cutoff(spec, 50)
        n_max = {"100": 100, "N*-1": n_star - 1, "N*": n_star, "10^5": 10**5}[at]
        raw = oracle_raw(spec, NumericCfg(digits=50, n_max=n_max, method="raw"))
        diag = oracle_diagonal(spec, NumericCfg(digits=50, n_max=n_max, method="diagonal"))
        assert raw.method == "raw"
        assert raw.n_used == diag.n_used == min(n_max, n_star)
        assert raw.value._mpf_ == diag.value._mpf_
        assert raw.tail_bound._mpf_ == diag.tail_bound._mpf_

    def test_quadrature_family_guard(self):
        # halfint's integrand needs ln(1+x), which the A_n(s) kernel does not take
        message = r"quadrature needs the row's integral A_n\(s\), and halfint:c has none"
        with pytest.raises(ValueError, match=message):
            oracle_quadrature(parse_spec("halfint:c"), NumericCfg())

    def test_tail_estimate_guards(self):
        with pytest.raises(ValueError):
            tail_estimate(parse_spec("A3:s=0"), 9)
        with pytest.raises(ValueError):
            tail_estimate(parse_spec("aXL:k=50"), 40)

    def test_dispatch_by_method(self):
        spec = parse_spec("A3:s=0")
        assert oracle_for(spec, NumericCfg(n_max=50, method="raw")).method == "raw"
        assert oracle_for(spec, NumericCfg(n_max=50, method="diagonal")).method == "diagonal"
        assert oracle_for(spec, NumericCfg(method="quadrature")).method == "quadrature"
