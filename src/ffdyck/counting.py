"""Closed-form exact counters for the languages U and D.

u_odd_power_coeff evaluates the partial-Bell-polynomial formula for the
coefficients of the odd powers of the U series; all its B_{n,k} come from one
row of one Bell table.  count_u is the l = 0 case of that formula, and count_d
sums such coefficients over l, reading every row it needs from one table.
count_colored_dyck is a deliberately independent dynamic program over
colored classical Dyck paths; it shares no code with the Bell formula or the
series solvers so it can serve as an oracle for both.  It advances one block
(a maximal ascent with the down step that ends it) per row, keeps only the
heights of the row's parity that the path can both reach and still return
to 0 from, and builds each row from shifted slices of the last one, padded
with zeros at both ends, with C-level `map` passes; the slice of weight 1 is
added without a multiply.  count_u_slope52 sums its single-sum closed form
by the ratio of consecutive terms, with an exact division at every step.

Rational prefactors are evaluated as integer division with an exactness
check; an inexact division means a transcription bug, never bad input.
"""

from __future__ import annotations

from itertools import repeat
from math import comb, factorial
from operator import add, mul

from .bell import bell_table
from .words import check_args, check_int


class NonIntegerResult(Exception):
    """An exact integer division in a counting formula failed to be exact."""


def _exact_div(num: int, den: int, context: str) -> int:
    q, r = divmod(num, den)
    if r:
        raise NonIntegerResult(f"{context}: {num} is not divisible by {den}")
    return q


def ascent_weight(m: int, j: int) -> int:
    """Weight C(m+j, m-j) of a maximal 2j-ascent; zero for j > m.

    These are the coefficients of the functional equation of the U series and
    simultaneously the number of primitive words of length (2m+3)j.
    """
    check_args(m)
    check_int("j", j)
    if j < 0 or j > m:
        return 0
    return comb(m + j, m - j)


def _weighted_args(m: int) -> list[int]:
    """Bell arguments j! * C(m+j, m-j) for j = 1..m (they are zero past j = m)."""
    return [factorial(j) * ascent_weight(m, j) for j in range(1, m + 1)]


def count_u(m: int, n: int) -> int:
    """Number of U-words of length (2m+3)n (1 for n = 0)."""
    return u_odd_power_coeff(m, n, 0)


def count_u_slope52(n: int) -> int:
    """Slope-5/2 specialization of count_u via its single-sum closed form.

    Evaluates (1/(2n+1)) * sum_{k=ceil(n/2)}^{n} t_k with t_k = C(2n+1, k)
    C(k, n-k) 3^(2k-n), and must agree with count_u(2, n).  Only the first
    term is built from binomials; each next one follows from the ratio
    t_{k+1} / t_k = 9 (2n+1-k)(n-k) / ((2k-n+2)(2k-n+1)), applied as an
    exact division, so a wrong ratio raises NonIntegerResult.
    """
    check_args(2, n)
    low = (n + 1) // 2
    term = comb(2 * n + 1, low) * comb(low, n - low) * 3 ** (2 * low - n)
    total = term
    for k in range(low, n):
        term = _exact_div(
            term * 9 * (2 * n + 1 - k) * (n - k),
            (2 * k - n + 2) * (2 * k - n + 1),
            f"count_u_slope52(n={n}) term {k + 1}",
        )
        total += term
    return _exact_div(total, 2 * n + 1, f"count_u_slope52(n={n})")


def u_odd_power_coeff(m: int, nu: int, ell: int) -> int:
    """Coefficient of t^nu in the (2*ell+1)-st power of the U series.

    Closed form: (2l+1)/(2v+2l+1) * sum_{k=0}^{v} C(2v+2l+1, k) * k!/v! *
    B_{v,k}(1! w_1, 2! w_2, ...) with w_j = ascent_weight(m, j).  With
    B_{0,0} = 1 the value at nu = 0 is 1 for every ell, as the constant term
    of any power of U must be.
    """
    check_args(m, nu)
    check_int("ell", ell)
    if ell < 0:
        raise ValueError("ell must be >= 0")
    return _odd_power_from_row(m, nu, ell, bell_table(nu, _weighted_args(m))[nu])


def _odd_power_from_row(m: int, nu: int, ell: int, row: list[int]) -> int:
    """The closed form of u_odd_power_coeff, given row nu of the Bell table."""
    total = sum(
        comb(2 * nu + 2 * ell + 1, k) * factorial(k) * b for k, b in enumerate(row)
    )
    return _exact_div(
        (2 * ell + 1) * total,
        (2 * nu + 2 * ell + 1) * factorial(nu),
        f"u_odd_power_coeff(m={m}, nu={nu}, ell={ell})",
    )


def count_d(m: int, n: int) -> int:
    """Number of nonempty D-words of length (2m+3)n (1 for n = 0)."""
    check_args(m, n)
    if n == 0:
        return 1
    table = bell_table(n - 1, _weighted_args(m))
    return sum(
        comb(m + ell + 1, m - ell)
        * _odd_power_from_row(m, n - ell - 1, ell, table[n - ell - 1])
        for ell in range(min(m, n - 1) + 1)
    )


def count_colored_dyck(m: int, n: int) -> int:
    """Colored-Dyck-path count of U-words, independent of the Bell formula.

    Counts classical Dyck paths of semilength 2n assembled from the blocks
    "d" (j = 0) and "u^(2j) d" for j = 1..m, where each maximal ascent of
    length 2j may be colored in C(m+j, m-j) ways.  Every block ends with its
    one down step, so ascents are maximal without further bookkeeping, a
    path has exactly 2n blocks, and its lowest points are block ends.  Block
    by block the path is a walk with steps 2j - 1 in {-1, +1, +3, ...,
    2m - 1} from height 0 back to 0 that never goes below 0 (a Lukasiewicz
    path).

    The DP has one row per block boundary, rows 0..2n.  Row k keeps only
    the heights a walk can have after k blocks and still come back: every
    step is odd, so h has the parity of k; each block goes up by at most
    2m - 1, so h <= (2m - 1) k; each of the 2n - k blocks left goes down by
    at most 1, so h <= 2n - k.  Entry i of row k is height k % 2 + 2i, and a
    block of ascent 2j moves entry i + s - j of row k to entry i of row
    k + 1, where s = (k + 1) % 2.  So the next row is the sum of m + 1
    shifted slices of the current one, each times its weight.  The sum is
    built from chained `map(add, ...)` and `map(mul, ...)` calls that one
    `list` call runs in C, with no per-cell bytecode, bound test or double
    indexing; the slice for j = m has weight C(2m, 0) = 1 and is added
    without a multiply, so at m = 1 a row takes additions only.  The row is
    padded with m zeros at each end: slices reaching below height 0 read
    the front ones, and the down-step slice, which reads up to m entries
    past the top reachable height of row k, reads the back ones.
    """
    check_args(m, n)
    weights = [comb(m + j, m - j) for j in range(1, m)]  # j = m has weight 1
    pad = [0] * m
    row = [1]  # height 0, the only one reachable after 0 blocks
    for k in range(2 * n):
        s = 1 - k % 2
        top = min(2 * n - k - 1, (2 * m - 1) * (k + 1))
        size = (top - s) // 2 + 1  # heights s + 2i <= top
        padded = pad + row + pad
        acc = map(add, padded[m + s : m + s + size], padded[s : s + size])
        for j, weight in enumerate(weights, 1):
            seg = padded[m + s - j : m + s - j + size]
            acc = map(add, acc, map(mul, seg, repeat(weight)))
        row = list(acc)
    return row[0]
