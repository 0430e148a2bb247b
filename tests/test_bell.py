"""Binomial and partial Bell polynomial kernel."""

from math import comb, factorial

import pytest

from ffdyck.bell import bell_partial, bell_rows
from ffdyck.counting import ascent_weight


def set_partitions(n: int, k: int):
    """All partitions of {1..n} into exactly k nonempty blocks (oracle helper)."""
    if n == 0:
        if k == 0:
            yield []
        return
    for rest in set_partitions(n - 1, k):
        for i in range(len(rest)):
            yield rest[:i] + [rest[i] + [n]] + rest[i + 1 :]
    if k >= 1:
        for rest in set_partitions(n - 1, k - 1):
            yield rest + [[n]]


def bell_by_partitions(n: int, k: int, xs) -> int:
    """Independent Bell polynomial oracle: sum over explicit set partitions."""
    total = 0
    for part in set_partitions(n, k):
        term = 1
        for block in part:
            j = len(block)
            term *= xs[j - 1] if j <= len(xs) else 0
        total += term
    return total


def test_bell_edge_rows():
    assert bell_partial(0, 0, ()) == 1
    for n in range(1, 6):
        assert bell_partial(n, 0, (1, 1, 1, 1, 1)) == 0
    for k in range(1, 6):
        assert bell_partial(0, k, (1, 1, 1, 1, 1)) == 0
    # outside 0 <= k <= n the documented value is 0, for a negative n too
    assert bell_partial(2, -1, (1, 1)) == bell_partial(-1, 0, ()) == 0


def test_bell_takes_any_sequence_of_ints():
    assert bell_partial(3, 1, range(1, 4)) == 3
    assert bell_partial(5, 2, range(1, 6)) == bell_partial(5, 2, [1, 2, 3, 4, 5]) == 80


def test_bell_single_block_and_diagonal():
    # B_{n,1} = x_n and B_{n,n} = x_1^n
    assert bell_partial(3, 1, (7, 9, 11)) == 11
    assert bell_partial(3, 3, (2,)) == 8
    assert bell_partial(1100, 1100, (2,)) == 2**1100


def test_bell_matches_partition_oracle():
    xs_pool = [(1, 1, 1, 1, 1, 1, 1), (1, 2, 0, 3, 0, 1, 2), (3, 2, 0, 0, 0, 0, 0), (1, 2, 0)]
    for xs in xs_pool:
        for n in range(8):
            for k in range(n + 1):
                assert bell_partial(n, k, xs) == bell_by_partitions(n, k, xs), (
                    n,
                    k,
                    xs,
                )


def test_bell_arguments_past_sequence_end_read_zero():
    # (x_1,) behaves like (x_1, 0, 0, ...)
    for n in range(1, 7):
        for k in range(n + 1):
            assert bell_partial(n, k, (5,)) == bell_partial(n, k, (5, 0, 0, 0, 0, 0))


def test_bell_pure_function_of_inputs():
    # nothing is cached between calls with different argument sequences
    a = bell_partial(6, 3, (1, 1, 1))
    b = bell_partial(6, 3, (2, 1, 1))
    assert a == bell_partial(6, 3, (1, 1, 1))
    assert a != b


def full_rows(n, xs):
    """Rows 0..n of the Bell triangle, every column 0..i of every row i: the
    loop bell_rows ran before its rows kept only their windows."""
    args = [(j, x) for j, x in zip(range(1, n + 1), xs) if x]
    rows = [[1]]
    for i in range(1, n + 1):
        row = [0] * (i + 1)
        for j, x in args:
            if j > i:
                break
            c = comb(i - 1, j - 1) * x
            for k, b in enumerate(rows[i - j]):
                if b:
                    row[k + 1] += c * b
        rows.append(row)
    return rows


# argument sequences by n; each is a prefix of the one for a larger n
SHAPES = {
    "ones": lambda n: [1] * n,
    **{
        f"m={m}": lambda n, m=m: [factorial(j) * ascent_weight(m, j) for j in range(1, m + 1)]
        for m in (1, 2, 3, 4)
    },
    "gap": lambda n: (1, 0, 0, 2),
    "leading-zero": lambda n: (0, 3, 1),
    "one-argument": lambda n: (5,),
    "zeros": lambda n: [0] * n,
    "longer-than-n": lambda n: range(1, n + 9),
}


@pytest.mark.parametrize("shape", SHAPES.values(), ids=SHAPES)
def test_windows_match_the_full_triangle(shape):
    want = full_rows(40, shape(40))
    for n in range(41):
        xs = shape(n)
        assert bell_rows(n, xs, n + 1) == want[: n + 1], n
        for k in range(-1, n + 2):
            assert bell_partial(n, k, xs) == (want[n][k] if 0 <= k <= n else 0), (n, k)


def test_stirling_entries_past_the_enumerable_sizes():
    # S(n, k) = k S(n-1, k) + S(n-1, k-1), row by row to n = 200
    stirling = [1]
    for n in range(1, 201):
        stirling = [0] + [k * stirling[k] + stirling[k - 1] for k in range(1, n)] + [1]
    for k in (1, 50, 100, 150, 199, 200):
        assert bell_partial(200, k, [1] * 200) == stirling[k], k


@pytest.mark.parametrize("c1, c2", [(1, 1), (2, 3)])
def test_two_argument_closed_form_at_n_200(c1, c2):
    # B_{n,j}(c1, 2 c2) = n!/j! C(j, n-j) c1^(2j-n) c2^(n-j)
    n = 200
    for j in range((n + 1) // 2, n + 1):
        want = factorial(n) // factorial(j) * comb(j, n - j) * c1 ** (2 * j - n) * c2 ** (n - j)
        assert bell_partial(n, j, (c1, 2 * c2)) == want, j


def test_diagonal_past_the_enumerable_sizes():
    # one argument: one cell per row
    assert bell_partial(5000, 5000, (3,)) == 3**5000
