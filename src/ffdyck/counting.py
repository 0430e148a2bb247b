"""Closed-form exact counters for the languages U and D.

u_odd_power_coeff evaluates the partial-Bell-polynomial formula for the
coefficients of the odd powers of the U series; all its B_{n,k} come from one
row of one Bell table.  count_u is the l = 0 case of that formula, and count_d
sums such coefficients over l, reading every row it needs from one table.
count_colored_dyck is a deliberately independent dynamic program over
colored classical Dyck paths; it shares no code with the Bell formula or the
series solvers so it can serve as an oracle for both.  It advances one block
(a maximal ascent with the down step that ends it) per row and meets in the
middle: n rows forward from height 0, n rows backward down to height 0,
joined by a dot product at row n.  A backward row at r blocks keeps the
heights h <= r, from which r blocks can still return to 0, and its values
count walks of at most n blocks, so they carry fewer bits than the forward
rows n + 1..2n they replace.  Each row is built from shifted slices
of the last one with C-level `map` passes and written straight into its
zero-padded list; the slices of weight 1 are added without a multiply.
count_u_slope52 sums its single-sum closed form by the ratio of consecutive
terms, with an exact division at every step.

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
    """Number of D-words of length (2m+3)n (1 for n = 0)."""
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
    length 2j may be colored in w_j = C(m+j, m-j) ways.  Every block ends
    with its one down step, so ascents are maximal without further
    bookkeeping, a path has exactly 2n blocks, and its lowest points are
    block ends.  Block by block the path is a walk with steps 2j - 1 in
    {-1, +1, +3, ..., 2m - 1} from height 0 back to 0 that never goes below
    0 (a Lukasiewicz path).

    The walk is counted in two halves that meet at row n, the middle block
    boundary.  Forward row k holds F_k[h], the weight of the walks from 0 to
    h in k blocks; backward row r holds B_r[h], the weight of the walks from
    h down to 0 in r blocks.  Every walk is at some height h after n blocks,
    so the count is the sum over h of F_n[h] * B_n[h].  Backward row r
    stands in for forward row 2n - r of a single pass, with about as many
    cells, but its values count walks of r <= n blocks, not 2n - r, so they
    carry fewer bits.  Meeting at row n splits the 2n blocks evenly, and
    both rows there hold the heights 0..n.

    Each row keeps only the heights that matter.  Every step is odd, so h has
    the parity of the row.  Forward row k keeps h <= (2m - 1) k, reachable
    in k blocks, and h <= 2n - k, since each of the 2n - k blocks left goes
    down by at most 1.  Backward row r keeps h <= min(r, (2m - 1)(2n - r)),
    which is h <= r on the rows r <= n that it computes.  Entry i of a row
    is height (row % 2) + 2i.

    A block of ascent 2j moves forward entry i + s - j of row k to entry i
    of row k + 1, where s = (k + 1) % 2, and backward entry i + j - s' of
    row r - 1 to entry i of row r, where s' = 1 - r % 2.  One pass of the
    loop takes both halves from row k to row k + 1, so s' = 1 - s.  Each new
    row is the sum of m + 1 shifted slices of the last one, each times its
    weight, built from chained `map(add, ...)` and `map(mul, ...)` calls
    that one list extension runs in C, with no per-cell bytecode, bound
    test or double indexing.  The slices of j = 0 and j = m have weight 1
    and take no multiply, so at m = 1 a row takes additions only.  Each row
    is written straight into its zero-padded list.  A forward row has m
    zeros at each end: in front for the slices that reach below height 0,
    at the back for the down-step slice, which reads up to m entries past
    the top reachable height.  A backward row has one zero in front, for
    the down step from height 0, and m at the back, for heights too high to
    return.
    """
    check_args(m, n)
    weights = [comb(m + j, m - j) for j in range(m + 1)]  # w_0 = w_m = 1
    middle = list(enumerate(weights[1:m], 1))
    zeros = [0] * m
    forward = zeros + [1] + zeros  # height 0, the only one after 0 blocks
    backward = [0, 1] + zeros  # 0 blocks lead from height 0 to 0
    for k in range(n):
        s = 1 - k % 2
        top = min(2 * n - k - 1, (2 * m - 1) * (k + 1))
        size = (top - s) // 2 + 1
        acc = map(add, forward[m + s : m + s + size], forward[s : s + size])
        for j, w in middle:
            seg = forward[m + s - j : m + s - j + size]
            acc = map(add, acc, map(mul, seg, repeat(w)))
        forward = zeros.copy()
        forward += acc
        forward += zeros
        size = (k + 1) // 2 + 1  # heights up to k + 1
        acc = map(add, backward[s : s + size], backward[s + m : s + m + size])
        for j, w in middle:
            seg = backward[s + j : s + j + size]
            acc = map(add, acc, map(mul, seg, repeat(w)))
        backward = [0]
        backward += acc
        backward += zeros
    size = n // 2 + 1
    return sum(map(mul, forward[m : m + size], backward[1 : 1 + size]))
