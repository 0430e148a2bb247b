"""The generating-function solvers and selfcheck's series helper."""

import time
import tracemalloc
from math import comb
from operator import mul

import pytest

from ffdyck import series, words
from ffdyck.selfcheck import series_sum
from ffdyck.series import d_series, l_series, u_series


def test_series_sum_products_and_shifts():
    assert series_sum(3, (1, 1), [(1, 0, 3)]) == (1, 3, 3, 1)
    assert series_sum(4, (1, 1), [(2, 1, 1)]) == (0, 2, 2, 0, 0)
    assert series_sum(2, (1, 1, 1, 1), [(1, 0, 0), (7, 3, 1)]) == (1, 0, 0)


def test_u_series_catalan():
    assert u_series(1, 5) == (1, 1, 2, 5, 14, 42)
    assert u_series(1, 0) == (1,)


def test_u_series_slope52():
    assert u_series(2, 3) == (1, 3, 19, 153)


def test_d_series_values():
    assert d_series(2, 3) == (1, 3, 13, 94)
    assert d_series(1, 4) == (1, 2, 3, 7, 19)
    assert d_series(3, 0) == (1,)


def test_l_series_top_index_is_tau():
    assert l_series(1, 3, 4) == (0, 1, 0, 0, 0)
    assert l_series(2, 5, 6) == (0, 1, 0, 0, 0, 0, 0)


def test_l_series_l1_leading_coefficients():
    l1 = l_series(1, 1, 7)
    assert l1[2] == 1 and l1[7] == 1
    assert sum(1 for c in l1 if c) == 2
    l1_52 = l_series(2, 1, 10)
    assert l1_52[3] == 1 and l1_52[10] == 3


def dense_l_series(m, order):
    """Every L_i to the given order, each product with L_1 summed over all lengths."""
    top = 2 * m + 1
    ls = [[0] for _ in range(top + 1)]
    l1 = ls[1]
    for n in range(1, order + 1):
        ls[top].append(1 if n == 1 else 0)
        ls[top - 1].append(l1[n - 2] if n >= 2 else 0)
        for k in range(top - 2, 0, -1):
            after = ls[k + 1]
            ls[k].append(sum(map(mul, l1, after[n - 1 :: -1])) + ls[k + 2][n - 1])
    return [tuple(c) for c in ls]


def dense_u_powers(m, order):
    """U^e for e = 0..2 max(1, min(m, order)), each power U^e, e >= 2, extended
    by the product U^(e-1) U at every index."""
    top = max(1, min(m, order))
    weights = [(j, comb(m + j, m - j)) for j in range(1, top + 1)]
    powers = [[1] + [0] * order] + [[1] for _ in range(2 * top)]
    u = powers[1]
    for n in range(1, order + 1):
        u.append(sum(w * powers[2 * j][n - j] for j, w in weights if j <= n))
        for e in range(2, 2 * top + 1):
            powers[e].append(sum(map(mul, powers[e - 1], reversed(u))))
    return powers


def dense_u_and_d(m, order):
    """U and D = 1 + t U^2 + sum_j C(m+j-1, m-j) t^j U^(2j-1) from the dense powers."""
    powers = dense_u_powers(m, order)
    weights = [(j, comb(m + j - 1, m - j)) for j in range(1, min(m, order) + 1)]
    d = [1] + [
        powers[2][n - 1] + sum(w * powers[2 * j - 1][n - j] for j, w in weights if j <= n)
        for n in range(1, order + 1)
    ]
    return tuple(powers[1]), tuple(d)


@pytest.mark.parametrize("m", range(1, 7))
def test_u_and_d_series_match_dense_solve(m):
    # every order up to 60 covers the orders below m, where the powers stop early
    for order in range(61):
        assert (u_series(m, order), d_series(m, order)) == dense_u_and_d(m, order), order


@pytest.mark.parametrize("m, order", [(3, 74), (2, 300)])
def test_u_and_d_series_match_dense_solve_at_bench_sizes(m, order):
    assert (u_series(m, order), d_series(m, order)) == dense_u_and_d(m, order)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_l_series_matches_dense_solve(m):
    dense = dense_l_series(m, 300)
    for i in range(1, 2 * m + 2):
        assert l_series(m, i, 300) == dense[i], i


def test_l_series_guard_catches_a_wrong_stride(monkeypatch):
    # with the wrong period L_1 gets a word off its residue class, which must raise
    monkeypatch.setattr(series, "period", lambda m: 2 * m + 4)
    with pytest.raises(AssertionError, match="L_1 has a word of length 7"):
        l_series(1, 1, 40)


@pytest.mark.parametrize("m", [4, 8])
def test_l_series_below_the_order_matches_dense_solve(m):
    # to an order below m + 1, the lists of L_k with k < 2m+3 - 2 order are
    # not built, and a lower i reads zeros
    for order in range(m + 3):
        dense = dense_l_series(m, order)
        for i in range(1, 2 * m + 2):
            assert l_series(m, i, order) == dense[i], (order, i)


def test_l_series_at_a_large_slope_is_sized_by_the_order():
    m = 10**5
    tracemalloc.start()
    try:
        assert l_series(m, 2 * m + 1, 3) == (0, 1, 0, 0)
        assert l_series(m, 2 * m - 1, 3) == (0, 0, 1, 0)
        assert l_series(m, 1, 3) == (0, 0, 0, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize(
    "solve, args, held",
    [(u_series, (2, 9), 30), (d_series, (2, 9), 60), (l_series, (2, 1, 9), 50)],
    ids=["U", "D", "L"],
)
def test_solvers_charge_the_coefficients_they_hold(monkeypatch, solve, args, held):
    # the charge comes before any list is made: these raised OverflowError or
    # ran for seconds
    monkeypatch.delenv(words.BRUTE_CAP_ENV, raising=False)
    start = time.perf_counter()
    with pytest.raises(words.CapExceeded, match=" series solve needs more than 10000000 "):
        solve(*args[:-1], 10**19)
    assert time.perf_counter() - start < 1
    monkeypatch.setenv(words.BRUTE_CAP_ENV, str(held))
    assert len(solve(*args)) == 10
    monkeypatch.setenv(words.BRUTE_CAP_ENV, str(held - 1))
    with pytest.raises(words.CapExceeded):
        solve(*args)
