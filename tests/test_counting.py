"""Closed-form counters and their cross-validation."""

import time
import tracemalloc
from math import comb, factorial

import pytest

from ffdyck import bell, counting, series, words
from ffdyck.codes import build_code
from ffdyck.counting import (
    NonIntegerResult,
    _exact_div,
    ascent_weight,
    count_colored_dyck,
    count_d,
    count_u,
    count_u_slope52,
    u_odd_power_coeff,
)
from ffdyck.grammar import expand_l_words, primitive_u_words
from ffdyck.selfcheck import series_sum
from ffdyck.series import d_series, l_series, u_series
from ffdyck.words import brute_cap, check_word, from_binary, letter_counts, to_binary


def test_ascent_weight():
    assert ascent_weight(3, 1) == 6
    assert ascent_weight(3, 2) == 5
    assert ascent_weight(3, 3) == 1
    assert ascent_weight(2, 5) == 0
    assert ascent_weight(2, 0) == 1


def test_count_u_slope72_first_term():
    assert count_u(3, 1) == 6


def test_u_odd_power_coeff_values():
    assert u_odd_power_coeff(2, 0, 5) == 1
    assert u_odd_power_coeff(2, 1, 0) == 3
    # frozen via the length-28 identity 3*D_{3,0} + 4*D_{2,1} + D_{1,2} = 810
    assert u_odd_power_coeff(2, 2, 1) == 84
    assert 3 * 153 + 4 * 84 + 15 == 810
    assert u_odd_power_coeff(2, 3, 0) == 153
    assert u_odd_power_coeff(2, 1, 2) == 15


def test_u_odd_power_coeff_matches_series_powers():
    for m in (1, 2, 3):
        for ell in range(4):
            power = series_sum(8, u_series(m, 8), [(1, 0, 2 * ell + 1)])
            for nu in range(9):
                assert u_odd_power_coeff(m, nu, ell) == power[nu], (m, nu, ell)


def step_by_step_colored_dyck(m, n):
    """The colored-Dyck DP over single steps, one row per step of 4n."""
    steps = 4 * n
    blocks = [(2 * j + 1, 2 * j - 1, comb(m + j, m - j)) for j in range(1, m + 1)]
    table = [[0] * (steps + 1) for _ in range(steps + 1)]
    table[0][0] = 1
    for s in range(steps):
        for h, w in enumerate(table[s]):
            if not w:
                continue
            if h:
                table[s + 1][h - 1] += w
            for ds, dh, weight in blocks:
                if s + ds <= steps and h + dh <= steps:
                    table[s + ds][h + dh] += w * weight
    return table[steps][0]


@pytest.mark.parametrize(
    "m, n_max", [(1, 40), (2, 40), (3, 40), (4, 40), (5, 40), (7, 6), (8, 6)]
)
def test_block_rows_match_step_by_step_dp(m, n_max):
    # with m > n the front padding is longer than a row: whole slices read zeros
    for n in range(n_max + 1):
        assert count_colored_dyck(m, n) == step_by_step_colored_dyck(m, n), n


# what each method runs, by the module that holds the name
ROUTE_FUNCTIONS = {
    "bell": [
        (counting, "count_u"),
        (counting, "count_d"),
        (counting, "u_odd_power_coeff"),
        (counting, "bell_rows"),
        (bell, "bell_rows"),
    ],
    "series": [(series, "u_series"), (series, "d_series"), (series, "_even_powers")],
    "colored": [(counting, "count_colored_dyck"), (counting, "_packed_rows")],
    "brute": [
        (words, "brute_enumerate_u"),
        (words, "brute_enumerate_d"),
        (words, "_brute_enumerate"),
    ],
}


@pytest.mark.parametrize("language, method", list(counting.ROUTES))
def test_every_route_calls_no_other_route(monkeypatch, language, method):
    assert set(ROUTE_FUNCTIONS) == {method for _, method in counting.ROUTES}
    want = {"U": 19, "D": 13}[language]

    def forbidden(*args, **kwargs):
        raise AssertionError(f"the {method} route called another counting route")

    for other, names in ROUTE_FUNCTIONS.items():
        if other != method:
            for module, name in names:
                monkeypatch.setattr(module, name, forbidden)
    assert counting.ROUTES[language, method](2, 2) == want


def half_rows_by_cell(m, n_max):
    """Row n of both halves of the colored-Dyck DP for every n <= n_max, one
    dict entry per height and no packing; the forward heights above
    2 n_max - k reach no row n <= n_max and are dropped."""
    weights = [comb(m + j, m - j) for j in range(m + 1)]
    forward, backward = {0: 1}, {0: 1}
    rows = [([1], [1])]
    for k in range(1, n_max + 1):
        step = {}
        for h, x in forward.items():
            for j, w in enumerate(weights):
                if 0 <= h + 2 * j - 1 <= 2 * n_max - k:
                    step[h + 2 * j - 1] = step.get(h + 2 * j - 1, 0) + w * x
        forward = step
        backward = {
            h: sum(w * backward.get(h + 2 * j - 1, 0) for j, w in enumerate(weights))
            for h in range(k % 2, k + 1, 2)
        }
        heights = range(k % 2, k + 1, 2)
        rows.append(([forward.get(h, 0) for h in heights], [backward[h] for h in heights]))
    return rows


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_packed_rows_equal_rows_by_cell(m):
    # every n <= 130 crosses the 64-row re-measure twice and meets at both
    # row parities; 200, 301 and 400 reach the bench's largest sizes
    want = half_rows_by_cell(m, 400)
    for n in [*range(131), 200, 301, 400]:
        assert counting._packed_rows(m, n) == want[n], n


def test_exact_division_guard():
    assert _exact_div(6, 3, "ok") == 2
    with pytest.raises(NonIntegerResult):
        _exact_div(7, 3, "must fail")


def test_inexact_division_names_bit_lengths_not_digits():
    # str() of a 5001-digit int raises ValueError, which the CLI maps to bad input
    with pytest.raises(NonIntegerResult, match=r"^ctx: inexact 16610-bit / 2-bit division$"):
        _exact_div(10**5000 + 1, 3, "ctx")


def slope52_direct_sum(n):
    """The slope-5/2 single sum, every term from its binomials, then divided by 2n + 1."""
    low = (n + 1) // 2
    terms = (comb(2 * n + 1, k) * comb(k, n - k) * 3 ** (2 * k - n) for k in range(low, n + 1))
    total = sum(terms)
    assert total % (2 * n + 1) == 0, n
    return total // (2 * n + 1)


def test_slope52_ratio_steps_match_the_direct_sum():
    # n = 151..383 are the bench's sizes
    for n in [*range(121), 151, 217, 284, 317, 383, 1000]:
        assert count_u_slope52(n) == slope52_direct_sum(n), n


def odd_power_by_comb_and_factorial(nu, ell, row):
    """u_odd_power_coeff's closed form from Bell row nu, C(N, k) * k! by comb and factorial."""
    top = 2 * nu + 2 * ell + 1
    total = sum(comb(top, k) * factorial(k) * b for k, b in enumerate(row))
    q, r = divmod((2 * ell + 1) * total, top * factorial(nu))
    assert r == 0, (nu, ell)
    return q


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_falling_factorial_prefactor_matches_comb_and_factorial(m):
    xs = [factorial(j) * comb(m + j, m - j) for j in range(1, m + 1)]
    for nu, row in enumerate(bell.bell_rows(60, xs, 61)):
        for ell in range(4):
            want = odd_power_by_comb_and_factorial(nu, ell, row)
            assert u_odd_power_coeff(m, nu, ell) == want, (nu, ell)


def test_counts_past_enumerable_sizes():
    for m in (1, 2, 3):
        u200 = count_u(m, 200)
        assert u_series(m, 200)[200] == u200 == count_colored_dyck(m, 200), m
        assert d_series(m, 200)[200] == count_d(m, 200), m
    # blocks of up to 2m+1 = 11 steps meet the height bound near both ends
    for m in (4, 5):
        for n in range(31):
            assert count_colored_dyck(m, n) == count_u(m, n), (m, n)
    assert count_colored_dyck(3, 400) == count_u(3, 400)
    # the halves meet at the odd row 999, past every enumeration
    assert count_colored_dyck(1, 999) == comb(1998, 999) // 1000
    for n in (0, 1, 2, 3, 301, 400):
        assert count_u_slope52(n) == count_u(2, n), n
    catalan_199, catalan_200 = comb(398, 199) // 200, comb(400, 200) // 201
    assert count_u(1, 200) == catalan_200
    assert count_d(1, 200) == catalan_200 + catalan_199


@pytest.mark.parametrize("m, n", [(8000, 0), (8000, 1), (10**5, 3)])
def test_large_slope_at_small_size(m, n):
    # every route reads only the blocks j <= n, so its tables are sized by
    # min(m, n) and a large m at a small n costs no more than m = n
    def timed(route, *args):
        start = time.perf_counter()
        value = route(*args)
        assert time.perf_counter() - start < 1, route.__name__
        return value

    u = timed(count_u, m, n)
    series_u = timed(u_series, m, n)
    assert timed(count_colored_dyck, m, n) == series_u[n] == u
    assert timed(count_d, m, n) == timed(d_series, m, n)[n]
    power = series_sum(n, series_u, [(1, 0, 7)])
    assert timed(u_odd_power_coeff, m, n, 3) == power[n]
    if n == 1:
        assert u == ascent_weight(m, 1)


def test_bell_route_holds_only_the_rows_it_reads():
    # the whole triangle of count_u(2, 400) peaks near 6 MB, its window of
    # two rows near 0.15 MB
    tracemalloc.start()
    try:
        count_u(2, 400)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize(
    "counter, args, message",
    [
        pytest.param(count_u, (0, 1), "m must be >= 1", id="count_u-m"),
        pytest.param(count_u, (2, -1), "n must be >= 0", id="count_u-n"),
        pytest.param(count_d, (0, 1), "m must be >= 1", id="count_d-m"),
        pytest.param(count_d, (2, -1), "n must be >= 0", id="count_d-n"),
        pytest.param(count_colored_dyck, (0, 1), "m must be >= 1", id="colored-m"),
        pytest.param(count_colored_dyck, (2, -1), "n must be >= 0", id="colored-n"),
        pytest.param(u_odd_power_coeff, (0, 1, 0), "m must be >= 1", id="odd_power-m"),
        pytest.param(u_odd_power_coeff, (2, -1, 0), "n must be >= 0", id="odd_power-n"),
        pytest.param(u_odd_power_coeff, (2, 1, -1), "^ell must be >= 0, got -1$", id="odd_power-ell"),
        pytest.param(u_odd_power_coeff, (2, 3, -2), "ell must be >= 0", id="odd_power-ell2"),
        pytest.param(ascent_weight, (0, 0), "m must be >= 1", id="ascent_weight-m0"),
        pytest.param(ascent_weight, (-1, 0), "m must be >= 1", id="ascent_weight-m-1"),
        pytest.param(count_u_slope52, (-1,), "n must be >= 0", id="slope52-n"),
        pytest.param(u_series, (2, -1), "n must be >= 0", id="u_series-n"),
        pytest.param(d_series, (2, -1), "n must be >= 0", id="d_series-n"),
        pytest.param(l_series, (2, 1, -1), "n must be >= 0", id="l_series-n"),
        pytest.param(l_series, (0, 1, 3), "m must be >= 1", id="l_series-m"),
        pytest.param(expand_l_words, (2, 1, -5), "n must be >= 0", id="expand_l_words-n"),
        pytest.param(expand_l_words, (2, 6, 5), r"^i must be in 1\.\.5, got 6$", id="expand_l_words-i6"),
        pytest.param(l_series, (2, 0, 3), r"^i must be in 1\.\.5, got 0$", id="l_series-i0"),
        pytest.param(primitive_u_words, (2, 3), r"^j must be in 1\.\.2, got 3$", id="primitive-j3"),
        pytest.param(build_code, (0, 0), "m must be >= 1", id="build_code-m"),
        pytest.param(build_code, (1, -3), "n must be >= 0", id="build_code-n"),
        pytest.param(count_u, (2.0, 3), "m must be an int, got float", id="count_u-m-float"),
        pytest.param(count_d, (2, 1.5), "n must be an int, got float", id="count_d-n-float"),
        pytest.param(count_u_slope52, (2.0,), "n must be an int, got float", id="slope52-n-float"),
        pytest.param(u_series, (2, "3"), "n must be an int, got str", id="u_series-n-str"),
        pytest.param(build_code, ("1", 2), "m must be an int, got str", id="build_code-m-str"),
        pytest.param(check_word, (None,), "word must be a str, got NoneType", id="check_word-None"),
        pytest.param(to_binary, (b"ab",), "word must be a str, got bytes", id="to_binary-bytes"),
        pytest.param(from_binary, (b"",), "word must be a str, got bytes", id="from_binary-bytes"),
        pytest.param(expand_l_words, (2, 1.0, 5), "i must be an int, got float", id="expand_l_words-i-float"),
        pytest.param(primitive_u_words, (2, 1.0), "j must be an int, got float", id="primitive-j-float"),
        pytest.param(ascent_weight, (2, 1.0), "j must be an int, got float", id="ascent_weight-j-float"),
        pytest.param(u_odd_power_coeff, (2, 1, 0.5), "ell must be an int, got float", id="odd_power-ell-float"),
        pytest.param(l_series, (2, 1.5, 3), "i must be an int, got float", id="l_series-i-float"),
        pytest.param(brute_cap, (1.5,), "cap must be an int, got float", id="brute_cap-float"),
        pytest.param(count_u, (True, 3), "m must be an int, got bool", id="count_u-m-bool"),
        pytest.param(brute_cap, (True,), "cap must be an int, got bool", id="brute_cap-bool"),
        pytest.param(letter_counts, (1.0, 2), "m must be an int, got float", id="letter_counts-m-float"),
        pytest.param(bell.bell_partial, (2.5, 1, [1, 1, 1]), "n must be an int, got float", id="bell_partial-n-float"),
        pytest.param(bell.bell_partial, (True, 1, [1]), "n must be an int, got bool", id="bell_partial-n-bool"),
        pytest.param(bell.bell_partial, (3, 1.0, [1]), "k must be an int, got float", id="bell_partial-k-float"),
        pytest.param(bell.binomial, (5, 2.0), "k must be an int, got float", id="binomial-k-float"),
        pytest.param(bell.binomial, ("5", 2), "n must be an int, got str", id="binomial-n-str"),
        pytest.param(bell.bell_partial, (3, 1, "abc"), "xs must be a sequence of ints, got str", id="bell_partial-xs-str"),
        pytest.param(bell.bell_partial, (3, 1, b"abc"), "xs must be a sequence of ints, got bytes", id="bell_partial-xs-bytes"),
        pytest.param(bell.bell_partial, (3, 1, {1, 2}), "xs must be a sequence of ints, got set", id="bell_partial-xs-set"),
        pytest.param(bell.bell_partial, (3, 1, ["a", 1, 1]), "x_1 must be an int, got str", id="bell_partial-xs-str-item"),
        pytest.param(bell.bell_partial, (3, 1, None), "xs must be a sequence of ints, got NoneType", id="bell_partial-xs-None"),
        pytest.param(bell.bell_partial, (2, 1, [1.5, 2.0]), "x_1 must be an int, got float", id="bell_partial-xs-float"),
        pytest.param(bell.bell_partial, (2, 1, [1, True]), "x_2 must be an int, got bool", id="bell_partial-xs-bool"),
    ],
)
def test_invalid_input_rejected(counter, args, message):
    with pytest.raises(ValueError, match=message):
        counter(*args)
