import math
import os
import subprocess
import sys
import threading
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from tornzeta.exact import (
    bernoulli,
    harmonic,
    harmonic_gen,
    odd_harmonic,
)


class TestBernoulli:
    @pytest.mark.parametrize(
        "n,want",
        [
            (0, F(1)),
            (1, F(-1, 2)),
            (2, F(1, 6)),
            (4, F(-1, 30)),
            (6, F(1, 42)),
            (8, F(-1, 30)),
            (10, F(5, 66)),
            (12, F(-691, 2730)),
        ],
    )
    def test_known_values(self, n, want):
        assert bernoulli(n) == want

    @pytest.mark.parametrize("n", list(range(3, 16, 2)))
    def test_odd_vanish(self, n):
        assert bernoulli(n) == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bernoulli(-1)

    @given(st.integers(min_value=1, max_value=40))
    @example(120)
    @example(250)
    def test_defining_recurrence(self, n):
        # sum_{k<n} C(n,k) B_k = 0 for n >= 2, with B_1 = -1/2 convention;
        # 120 and 250 reach past the B_172 that 300-digit runs use
        total = sum(math.comb(n, k) * bernoulli(k) for k in range(n))
        if n == 1:
            assert total == 1
        else:
            assert total == 0

    def test_recursion_stays_shallow(self):
        # the recurrence asks for B_j with j ascending, so a cold B_300 finds
        # every B_j it needs cached and recurses at most 2 deep
        code = (
            "import sys\n"
            "from tornzeta.exact import bernoulli\n"
            "sys.setrecursionlimit(100)\n"
            "print(bernoulli(300))\n"
        )
        path = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            timeout=60,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path))),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == str(bernoulli(300))


class TestHarmonic:
    @pytest.mark.parametrize(
        "n,want", [(0, F(0)), (1, F(1)), (2, F(3, 2)), (3, F(11, 6)), (5, F(137, 60))]
    )
    def test_values(self, n, want):
        assert harmonic(n) == want

    @pytest.mark.parametrize(
        "n,m,want", [(2, 2, F(5, 4)), (3, 2, F(49, 36)), (0, 5, F(0)), (4, 3, F(2035, 1728))]
    )
    def test_gen_values(self, n, m, want):
        assert harmonic_gen(n, m) == want

    @pytest.mark.parametrize("m,want", [(0, F(0)), (1, F(1)), (2, F(4, 3)), (3, F(23, 15))])
    def test_odd_values(self, m, want):
        assert odd_harmonic(m) == want

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            harmonic(-1)
        with pytest.raises(ValueError):
            harmonic_gen(-2, 2)
        with pytest.raises(ValueError):
            harmonic_gen(3, 0)
        with pytest.raises(ValueError):
            odd_harmonic(-1)

    @given(st.integers(min_value=1, max_value=300))
    def test_recurrence(self, n):
        assert harmonic(n) - harmonic(n - 1) == F(1, n)

    @given(st.integers(min_value=1, max_value=200), st.integers(min_value=1, max_value=4))
    def test_gen_recurrence(self, n, m):
        assert harmonic_gen(n, m) - harmonic_gen(n - 1, m) == F(1, n**m)

    @given(st.integers(min_value=0, max_value=200))
    def test_gen_order_one_is_harmonic(self, n):
        assert harmonic_gen(n, 1) == harmonic(n)

    @given(st.integers(min_value=0, max_value=200))
    def test_odd_harmonic_splitting(self, m):
        # H_{2m} splits into odd-denominator and even-denominator parts
        assert odd_harmonic(m) == harmonic(2 * m) - harmonic(m) / 2

    @given(st.integers(min_value=1, max_value=150))
    def test_odd_recurrence(self, m):
        assert odd_harmonic(m) - odd_harmonic(m - 1) == F(1, 2 * m - 1)


def test_table_cache_is_shared():
    # two lookups hand back identical Fraction objects out of the cache
    a = harmonic(50)
    b = harmonic(50)
    assert a is b


def test_fresh_table_concurrent_growth():
    # start each table past every index the rest of the suite asks for (H_n
    # to about 2200, O_m to about 1100, H_n^(2) to about 200), so the
    # threads fill the caches together
    h0, o0, g0 = 2500, 1200, 250
    errs = []

    def _work():
        try:
            for n in range(h0, h0 + 25):
                assert harmonic(n) - harmonic(n - 1) == F(1, n)
                odd_harmonic(o0 + n % 11)
                harmonic_gen(g0 + n % 7, 2)
        except Exception as exc:  # pragma: no cover - only on race
            errs.append(exc)

    threads = [threading.Thread(target=_work) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert not errs
    assert harmonic(h0 + 24) == sum(F(1, i) for i in range(1, h0 + 25))
    assert odd_harmonic(o0 + 10) == sum(F(1, 2 * i - 1) for i in range(1, o0 + 11))
    assert harmonic_gen(g0 + 6, 2) == sum(F(1, i * i) for i in range(1, g0 + 7))
