"""Binomial and partial Bell polynomial kernel."""

from ffdyck.bell import bell_partial


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
