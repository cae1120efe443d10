import threading
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from tornzeta import exact
from tornzeta.exact import (
    bernoulli,
    binomial,
    harmonic,
    harmonic_gen,
    odd_harmonic,
)


class TestBinomial:
    @pytest.mark.parametrize(
        "n,k,want",
        [(0, 0, 1), (1, 0, 1), (1, 1, 1), (4, 2, 6), (10, 3, 120), (30, 15, 155117520)],
    )
    def test_values(self, n, k, want):
        assert binomial(n, k) == want

    def test_out_of_range_is_zero(self):
        assert binomial(3, 4) == 0
        assert binomial(0, 1) == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            binomial(-1, 0)
        with pytest.raises(ValueError):
            binomial(3, -2)

    @given(st.integers(min_value=0, max_value=30))
    def test_row_sum(self, n):
        assert sum(binomial(n, k) for k in range(n + 1)) == 2**n

    @given(st.integers(min_value=1, max_value=40), st.integers(min_value=1, max_value=40))
    def test_pascal(self, n, k):
        assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


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
    def test_defining_recurrence(self, n):
        # sum_{k<n} C(n,k) B_k = 0 for n >= 2, with B_1 = -1/2 convention
        total = sum(binomial(n, k) * bernoulli(k) for k in range(n))
        if n == 1:
            assert total == 1
        else:
            assert total == 0


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
    # start past every row cached so far, so the threads grow the caches
    base = max(len(exact._harmonic_cache), len(exact._odd_cache), len(exact._gen_cache.get(2, ())))
    errs = []

    def _work():
        try:
            for n in range(base, base + 400):
                assert harmonic(n) - harmonic(n - 1) == F(1, n)
                odd_harmonic(base + n % 97)
                harmonic_gen(base + n % 53, 2)
        except Exception as exc:  # pragma: no cover - only on race
            errs.append(exc)

    threads = [threading.Thread(target=_work) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
        assert not t.is_alive()
    assert not errs
    assert harmonic(base + 399) == sum(F(1, i) for i in range(1, base + 400))
