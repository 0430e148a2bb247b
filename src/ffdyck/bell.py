"""Exact integer combinatorics: binomial coefficients and partial Bell polynomials.

Everything here is plain Python integer arithmetic, so all results are exact
at any size.  The partial (exponential) Bell polynomial B_{n,k}(x_1, x_2, ...)
sums over the set partitions of an n-element set into k blocks, each block of
size j contributing a factor x_j.  Argument sequences are 1-based: xs[0] is
x_1, and entries past the end of the sequence read as zero.  bell_table
builds the triangle B_{i,k}, i <= n, row by row; a caller that needs B_{n,k}
for every k reads one row of it.
"""

from __future__ import annotations

import math
from typing import Sequence

from .words import check_int


def binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k), zero for k < 0 or k > n."""
    check_int("n", n)
    check_int("k", k)
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def bell_table(n: int, xs: Sequence[int]) -> list[list[int]]:
    """Rows 0..n of partial Bell polynomials: table[i][k] = B_{i,k}(x_1, x_2, ...).

    Row i comes from the rows above it by the recurrence

        B_{i,k} = sum_{j>=1} C(i-1, j-1) * x_j * B_{i-j, k-1},

    with B_{0,0} = 1 and B_{i,0} = 0 for i >= 1; zero arguments are skipped.
    """
    args = [(j, x) for j, x in enumerate(xs, start=1) if x and j <= n]
    table = [[1]]
    for i in range(1, n + 1):
        row = [0] * (i + 1)
        for j, x in args:
            if j > i:
                break
            c = math.comb(i - 1, j - 1) * x
            for k, b in enumerate(table[i - j]):
                if b:
                    row[k + 1] += c * b
        table.append(row)
    return table


def bell_partial(n: int, k: int, xs: Sequence[int]) -> int:
    """Partial Bell polynomial B_{n,k}(x_1, x_2, ...), zero unless 0 <= k <= n."""
    check_int("n", n)
    check_int("k", k)
    if not 0 <= k <= n:
        return 0
    return bell_table(n, xs)[n][k]
