"""Closed-form exact counters for the languages U and D.

u_odd_power_coeff evaluates the partial-Bell-polynomial formula for the
coefficients of the odd powers of the U series; all its B_{n,k} come from one
row of the Bell triangle, and its prefactors C(2v+2l+1, k) k! are one running
falling factorial.  count_u is the l = 0 case of that formula, and
count_d sums such coefficients over l, reading its last m + 1 rows from one
pass.  The triangle holds only the m rows its recurrence still reads.
count_colored_dyck is a deliberately independent dynamic program over
colored classical Dyck paths; it shares no code with the Bell formula or the
series solvers so it can serve as an oracle for both.  It advances one block
(a maximal ascent with the down step that ends it) per row and meets in the
middle: n rows forward from height 0, n rows backward down to height 0,
joined by a dot product at row n.  A backward row at r blocks keeps the
heights h <= r, from which r blocks can still return to 0, and its values
count walks of at most n blocks, so they carry fewer bits than the forward
rows n + 1..2n they replace.  Each half-row is one packed int, cell i in
a slot of B bits, and a row step is a few whole-row shifts, small
multiplies and adds; B covers the widest cell times (sum_j w_j)^64, and is
measured again every 64 rows.  The packed passes are memory-bound, so past
n = 500-700 at m = 2 and 3 they are slower than rows of one int per cell.
count_u_slope52 sums its single-sum closed form by the ratio of consecutive
terms: one multiply of the big term by the small factors and one checked
divmod per step.

ROUTES is the one table of the independent counting routes (Bell, series,
colored DP, brute search) by (language, method); the CLI dispatches through
it and the selfcheck count checks compare its rows.

Rational prefactors are evaluated as integer division with an exactness
check; an inexact division means a transcription bug, never bad input, and
raises NonIntegerResult, whose message is built only then and names the bit
lengths of the operands, not their digits.
"""

from __future__ import annotations

from math import comb, factorial
from operator import mul

from . import series, words
from .bell import bell_rows
from .words import check_args, check_int


class NonIntegerResult(Exception):
    """An exact integer division in a counting formula failed to be exact."""


def _exact_div(num: int, den: int, context: str, *args: object) -> int:
    """num // den; else NonIntegerResult, formatted only then, naming bit lengths, not digits."""
    q, r = divmod(num, den)
    if r:
        bits = f"{num.bit_length()}-bit / {den.bit_length()}-bit"
        raise NonIntegerResult(f"{context.format(*args)}: inexact {bits} division")
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


def _weighted_args(m: int, n: int) -> list[int]:
    """Bell arguments j! * C(m+j, m-j) for j = 1..min(m, n); Bell row n reads none past n."""
    return [factorial(j) * ascent_weight(m, j) for j in range(1, min(m, n) + 1)]


def count_u(m: int, n: int) -> int:
    """Number of U-words of length (2m+3)n (1 for n = 0)."""
    return u_odd_power_coeff(m, n, 0)


def count_u_slope52(n: int) -> int:
    """Slope-5/2 specialization of count_u via its single-sum closed form.

    Evaluates (1/(2n+1)) * sum_{k=ceil(n/2)}^{n} t_k with t_k = C(2n+1, k)
    C(k, n-k) 3^(2k-n), and must agree with count_u(2, n).  Only the first
    term is built from binomials; each next one follows from the ratio
    t_{k+1} / t_k = 9 (2n+1-k)(n-k) / ((2k-n+2)(2k-n+1)).  A step multiplies
    the big term once, by the product of the small factors, and divides by
    divmod; a nonzero remainder, that is a wrong ratio, raises
    NonIntegerResult, whose message is formatted only then.
    """
    check_args(2, n)
    low = (n + 1) // 2
    term = comb(2 * n + 1, low) * comb(low, n - low) * 3 ** (2 * low - n)
    total = term
    for k in range(low, n):
        small = 9 * (2 * n + 1 - k) * (n - k)
        term, r = divmod(term * small, (2 * k - n + 2) * (2 * k - n + 1))
        if r:
            raise NonIntegerResult(f"count_u_slope52(n={n}) term {k + 1} is not an integer")
        total += term
    return _exact_div(total, 2 * n + 1, "count_u_slope52(n={})", n)


def u_odd_power_coeff(m: int, nu: int, ell: int) -> int:
    """Coefficient of t^nu in the (2*ell+1)-st power of the U series.

    Closed form: (2l+1)/(2v+2l+1) * sum_{k=0}^{v} C(2v+2l+1, k) * k!/v! *
    B_{v,k}(1! w_1, 2! w_2, ...) with w_j = ascent_weight(m, j).  The
    prefactor C(N, k) * k! with N = 2v+2l+1 is the falling factorial
    N (N-1) ... (N-k+1), carried as one running product across k.  With
    B_{0,0} = 1 the value at nu = 0 is 1 for every ell, as the constant term
    of any power of U must be.
    """
    check_args(m, nu)
    check_int("ell", ell, 0)
    return _odd_power_from_row(m, nu, ell, bell_rows(nu, _weighted_args(m, nu), 1)[0])


def _odd_power_from_row(m: int, nu: int, ell: int, row: list[int]) -> int:
    """The closed form of u_odd_power_coeff, given row nu of the Bell table."""
    top = 2 * nu + 2 * ell + 1
    total, falling = 0, 1  # falling = C(top, k) * k!
    for k, b in enumerate(row):
        total += falling * b
        falling *= top - k
    context = "u_odd_power_coeff(m={}, nu={}, ell={})"
    return _exact_div((2 * ell + 1) * total, top * factorial(nu), context, m, nu, ell)


def count_d(m: int, n: int) -> int:
    """Number of D-words of length (2m+3)n (1 for n = 0)."""
    check_args(m, n)
    if n == 0:
        return 1
    ells = range(min(m, n - 1) + 1)
    rows = bell_rows(n - 1, _weighted_args(m, n - 1), len(ells))
    return sum(
        comb(m + ell + 1, m - ell)
        * _odd_power_from_row(m, n - ell - 1, ell, rows[-1 - ell])
        for ell in ells
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
    row r - 1 to entry i of row r, where s' = 1 - r % 2.  One step takes both
    halves from row k to row k + 1, so s' = 1 - s.  Each new row is the sum
    of the shifted copies of the last one, each times its weight.  Only the
    blocks j <= min(m, n) are stepped: a block of ascent 2j > 2n climbs
    above 2n - 1 and cannot return to 0 within 2n blocks.  w_0 = 1, and so
    is the top weight w_min(m,n) unless n < m; a copy of weight 1 takes no
    multiply.

    Each half-row is one int, cell i in the B-bit slot i (Kronecker
    substitution): a shifted copy is a shift by whole slots, and a step is
    a few whole-row shifts, small multiplies and adds, with no per-cell
    object.  Every value is nonnegative and a step multiplies the largest
    cell by at most sum_j w_j, so slots of B = bits(widest cell) +
    bits((sum_j w_j)^64) + 1 bits, rounded up to whole bytes, hold every
    cell and every partial sum of the next 64 rows, and no slot carries
    into the next.  Every 64 rows both halves are unpacked, B is measured
    again from the widest cell and the halves are repacked; the dot product
    reads the unpacked cells of row n.

    The packed rows win while the cost of one int object per cell outweighs
    the digits: up to n = 400 at m = 1..3 they take 0.26-0.81 of the time
    of rows held as one int per cell.  Every slot is as wide as the widest
    cell, and the whole-row passes are memory-bound, so the gap closes as
    n grows: the two forms tie near n = 500-700 at m = 2 and 3, and at
    (2, 1000) and (2, 2000) the packed rows take about 1.2-1.4 and 1.7-1.9
    times as long.
    """
    check_args(m, n)
    forward, backward = _packed_rows(m, n)
    return sum(map(mul, forward, backward))


def _packed_rows(m: int, n: int) -> tuple[list[int], list[int]]:
    """Row n of both halves of count_colored_dyck, one int per half-row.

    Both halves sum their shifted copies by Horner's rule over j = min(m, n)..1,
    then add the j = 0 copy.  A forward step shifts left by j - s slots; its
    down-step copy at s = 1 shifts right by one slot, which drops height -1.
    A backward step shifts right by j - s' slots, which drops the heights
    below 0, and its down-step copy at s' = 1 shifts left by one.  Backward
    rows never hold a height above r.  Forward rows reach heights above
    2n - k, from which the blocks left cannot return; a mask drops them
    every fourth row and at row n.  A step goes down by at most 1, so they
    feed no kept height, and the rows in between carry them at no risk:
    they are bounded like every other cell.
    """
    high = min(m, n)  # no block climbs past j = n and returns in 2n blocks
    weights = [comb(m + j, m - j) for j in range(high + 1)]
    head, middle = weights[high], weights[high - 1 : 0 : -1]  # w_(high-1), ..., w_1
    growth = (sum(weights) ** 64).bit_length() + 1
    forward = backward = [1]
    for start in range(0, n, 64):
        fb, f = _pack(forward, growth)
        bb, b = _pack(backward, growth)
        fw, bw = 8 * fb, 8 * bb
        for k in range(start, min(start + 64, n)):
            s = 1 - k % 2
            t = f if head == 1 else head * f
            for w in middle:
                t = (t << fw) + w * f
            t = t + (f >> fw) if s else (t << fw) + f
            top = 2 * n - k - 1
            # every 64-row chunk ends on a masked row, so each unpack is exact
            if top < (2 * high - 1) * (k + 1) and (k % 4 == 3 or k == n - 1):
                t &= (1 << ((top - s) // 2 + 1) * fw) - 1
            f = t
            u = b if head == 1 else head * b
            for w in middle:
                u = (u >> bw) + w * b
            b = (u >> bw) + b if s else u + (b << bw)
        forward = _unpack(f, fb, min(top, (2 * high - 1) * (k + 1)) // 2 + 1)
        backward = _unpack(b, bb, (k + 1) // 2 + 1)
    return forward, backward


def _pack(cells: list[int], growth: int) -> tuple[int, int]:
    """Slot width in bytes, and the cells packed into one int at that width."""
    nb = (max(cells).bit_length() + growth + 7) // 8
    return nb, int.from_bytes(b"".join(c.to_bytes(nb, "little") for c in cells), "little")


def _unpack(packed: int, nb: int, count: int) -> list[int]:
    """The count cells of nb bytes each that _pack packed."""
    data = packed.to_bytes(count * nb, "little")
    return [int.from_bytes(data[i : i + nb], "little") for i in range(0, len(data), nb)]


# (language, method) -> (m, n) -> the number of words of length (2m+3)n
ROUTES = {
    ("U", "bell"): count_u,
    ("D", "bell"): count_d,
    ("U", "series"): lambda m, n: series.u_series(m, n)[n],
    ("D", "series"): lambda m, n: series.d_series(m, n)[n],
    ("U", "colored"): count_colored_dyck,
    ("U", "brute"): lambda m, n: len(words.brute_enumerate_u(m, n)),
    ("D", "brute"): lambda m, n: len(words.brute_enumerate_d(m, n)),
}
