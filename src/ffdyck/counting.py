"""Closed-form exact counters for the languages U and D.

u_odd_power_coeff evaluates the partial-Bell-polynomial formula for the
coefficients of the odd powers of the U series; all its B_{n,k} come from one
row of one Bell table.  count_u is the l = 0 case of that formula, and count_d
sums such coefficients over l, reading every row it needs from one table.
count_colored_dyck is a deliberately independent dynamic program over
colored classical Dyck paths; it shares no code with the Bell formula or the
series solvers so it can serve as an oracle for both.

Rational prefactors are evaluated as integer division with an exactness
check; an inexact division means a transcription bug, never bad input.
"""

from __future__ import annotations

from math import comb, factorial

from .bell import bell_table
from .words import check_args


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

    Evaluates (1/(2n+1)) * sum_{k=ceil(n/2)}^{n} C(2n+1, k) C(k, n-k) 3^(2k-n)
    and must agree with count_u(2, n).
    """
    check_args(2, n)
    total = sum(
        comb(2 * n + 1, k) * comb(k, n - k) * 3 ** (2 * k - n)
        for k in range((n + 1) // 2, n + 1)
    )
    return _exact_div(total, 2 * n + 1, f"count_u_slope52(n={n})")


def u_odd_power_coeff(m: int, nu: int, ell: int) -> int:
    """Coefficient of t^nu in the (2*ell+1)-st power of the U series.

    Closed form: (2l+1)/(2v+2l+1) * sum_{k=0}^{v} C(2v+2l+1, k) * k!/v! *
    B_{v,k}(1! w_1, 2! w_2, ...) with w_j = ascent_weight(m, j).  With
    B_{0,0} = 1 the value at nu = 0 is 1 for every ell, as the constant term
    of any power of U must be.
    """
    check_args(m, nu)
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
    "d" and "u^(2j) d" for j = 1..m, where each maximal ascent of length 2j
    may be colored in C(m+j, m-j) ways.  Dynamic programming over (steps
    consumed, height); block boundaries keep ascent maximality implicit since
    every ascent block ends with a down step.

    Only cells that can still reach the end are visited: after s of the 4n
    steps the height is at most min(s, 4n - s), since the path must come back
    down in the steps that remain, and a block is added only if it lands
    within that bound.  Every block keeps s + h fixed mod 4, so row s visits
    only the heights h = -s (mod 4).  Each row is released once its cells
    have been pushed forward.
    """
    check_args(m, n)
    if n == 0:
        return 1
    steps = 4 * n
    blocks = [(2 * j + 1, 2 * j - 1, comb(m + j, m - j)) for j in range(1, m + 1)]
    table = [[0] * (min(s, steps - s) + 1) for s in range(steps + 1)]
    table[0][0] = 1
    for s in range(steps):
        row, table[s] = table[s], None
        down = table[s + 1]
        for h in range(-s % 4, len(row), 4):
            w = row[h]
            if not w:
                continue
            if h:
                down[h - 1] += w
            for ds, dh, weight in blocks:
                if s + ds + h + dh > steps:
                    break
                table[s + ds][h + dh] += w * weight
    return table[steps][0]
