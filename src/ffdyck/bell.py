"""Exact integer combinatorics: binomial coefficients and partial Bell polynomials.

Everything here is plain Python integer arithmetic, so all results are exact
at any size.  The partial (exponential) Bell polynomial B_{n,k}(x_1, x_2, ...)
sums over the set partitions of an n-element set into k blocks, each block of
size j contributing a factor x_j.  Argument sequences are 1-based: xs[0] is
x_1, and entries past the end of the sequence read as zero.  bell_rows
builds the triangle B_{i,k}, i <= n, row by row, holds only the rows the
recurrence still reads and returns the last rows it is asked for; a caller
that needs B_{n,k} for every k asks for row n.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Sequence

from .words import check_int


def binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k), zero for k < 0 or k > n."""
    check_int("n", n)
    check_int("k", k)
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def bell_rows(n: int, xs: Sequence[int], last: int) -> list[list[int]]:
    """The last rows n - last + 1..n of the partial Bell triangle, row i[k] = B_{i,k}(x_1, x_2, ...).

    Row i comes from the rows above it by the recurrence

        B_{i,k} = sum_{j>=1} C(i-1, j-1) * x_j * B_{i-j, k-1},

    with B_{0,0} = 1 and B_{i,0} = 0 for i >= 1; zero arguments are skipped.
    Only the rows that the recurrence or the result can still read are held:
    the last max(last, max{j <= n : x_j != 0}) of them, which is every row
    when the arguments have no bounded support.  Needs 1 <= last <= n + 1.
    """
    args = _nonzero_args(n, xs)
    held = deque([[1]], maxlen=max(last, args[-1][0] if args else 1))
    for i in range(1, n + 1):
        row = [0] * (i + 1)
        for j, x in args:
            if j > i:
                break
            c = math.comb(i - 1, j - 1) * x
            for k, b in enumerate(held[-j]):
                if b:
                    row[k + 1] += c * b
        held.append(row)
    return list(held)[-last:]


def _nonzero_args(n: int, xs: Sequence[int]) -> list[tuple[int, int]]:
    """The pairs (j, x_j) with j <= n and x_j != 0; xs must be a Sequence of ints."""
    if not isinstance(xs, Sequence) or isinstance(xs, (str, bytes)):
        raise ValueError(f"xs must be a sequence of ints, got {type(xs).__name__}")
    args = [(j, x) for j, x in zip(range(1, n + 1), xs) if x or type(x) is not int]
    for j, x in args:
        check_int(f"x_{j}", x)
    return args


def bell_partial(n: int, k: int, xs: Sequence[int]) -> int:
    """Partial Bell polynomial B_{n,k}(x_1, x_2, ...), zero unless 0 <= k <= n.

    The arguments x_j with j <= n are checked for every k.
    """
    check_int("n", n)
    check_int("k", k)
    if not 0 <= k <= n:
        _nonzero_args(n, xs)
        return 0
    return bell_rows(n, xs, 1)[0][k]
