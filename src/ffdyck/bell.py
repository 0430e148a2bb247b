"""Exact integer combinatorics: binomial coefficients and partial Bell polynomials.

Everything here is plain Python integer arithmetic, so all results are exact
at any size.  The partial (exponential) Bell polynomial B_{n,k}(x_1, x_2, ...)
sums over the set partitions of an n-element set into k blocks, each block of
size j contributing a factor x_j.  Argument sequences are 1-based: xs[0] is
x_1, and entries past the end of the sequence read as zero.  bell_rows
builds the triangle B_{i,k}, i <= n, row by row, holds only the rows the
recurrence still reads and returns the last rows it is asked for; a caller
that needs B_{n,k} for every k asks for row n.

Each row is computed and held only in its window: the columns that can be
nonzero and that the result reads.  With J the largest j <= n with
x_j != 0, two facts bound it.  A block holds 1..J elements, so B_{i,k} = 0
unless ceil(i/J) <= k <= i.  The recurrence adds one block per step, so
B_{i,k} feeds B_{n,K} only through K - k more blocks that hold the n - i
elements left, which needs K - (n - i) <= k <= K - ceil((n - i)/J).
bell_rows keeps the first window; bell_partial reads one column K and keeps
both, which trims even the all-ones (Stirling) rows, where J = n and the
first window is the whole row.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence
from math import comb

from .words import Budget, check_int


def binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k), zero for k < 0 or k > n.

    C(n, k) <= n^min(k, n - k), so the result fills at most
    min(k, n - k) * bits(n) / 64 64-bit words.  It is charged to one
    `words.Budget` first, as one item of that many letters, so a result
    past the brute-force cap raises CapExceeded before it is built.  The
    counting routes read their small weights from `math.comb` directly.
    """
    check_int("n", n)
    check_int("k", k)
    if k < 0 or k > n:
        return 0
    Budget("binomial", "results", None).charge(1, min(k, n - k) * n.bit_length() // 64)
    return comb(n, k)


def bell_rows(n: int, xs: Sequence[int], last: int) -> list[tuple[int, list[int]]]:
    """The last rows n - last + 1..n of the partial Bell triangle, B_{i,k}(x_1, x_2, ...).

    Row i comes from the rows above it by the recurrence

        B_{i,k} = sum_{j>=1} C(i-1, j-1) * x_j * B_{i-j, k-1},

    with B_{0,0} = 1 and B_{i,0} = 0 for i >= 1; zero arguments are skipped.
    Only the rows that the recurrence or the result can still read are held:
    the last max(last, J) of them, J = max{j <= n : x_j != 0}, which is
    every row when the arguments have no bounded support.  No block holds
    more than J elements, so B_{i,k} = 0 for k * J < i, and row i is
    computed, held and returned as (first, cells), its window: first =
    ceil(i/J) and cells[k - first] = B_{i,k}.  Needs 1 <= last <= n + 1.
    Past the brute-force cap (see `_triangle`) it raises CapExceeded first.
    """
    return list(_triangle(n, _nonzero_args(n, xs), last, None))[-last:]


def _triangle(n: int, args: list[tuple[int, int]], last: int, column: int | None) -> deque:
    """The held rows of the Bell triangle to row n, each as (first column, its cells).

    Row i holds only its window lo..hi (see the module docstring): the
    first bound for every row, and the column bounds too when `column` is
    K.  A cell of row i - j feeds column k + 1 of row i, so each (row, j)
    pair reads one slice of the row above, the whole row when there is no
    column, and no j with i - j < lo - 1 reaches the window.  The triangle is
    charged first, by `charge_triangle`.
    """
    top = args[-1][0] if args else 1
    held: deque = deque([(0, [1])], maxlen=last if last > top else top)
    charge_triangle(n, top, last)
    for i in range(1, n + 1):
        lo, hi = -(-i // top), i
        if column is not None:
            if lo < column - n + i:
                lo = column - n + i
            if hi > column + (i - n) // top:
                hi = column + (i - n) // top
            if hi < lo:  # no cell of this row feeds the column
                held.append((lo, []))
                continue
        row = [0] * (hi - lo + 1)
        reach = i - lo + 1  # a longer block leaves only cells left of the window
        for j, x in args:
            if j > reach:
                break
            first, above = held[-j]
            if column is not None:  # the row above can reach past both ends
                start = lo - 1 - first if lo > first else 0
                above, first = above[start : hi - first], first + start
            c = comb(i - 1, j - 1) * x
            for k, b in enumerate(above, first + 1 - lo):
                if b:
                    row[k] += c * b
        held.append((lo, row))
    return held


def charge_triangle(n: int, top: int, last: int) -> None:
    """Charge the triangle to row n, J = top, that keeps `last` rows to one `words.Budget`.

    One item, whose letters are the n rows it steps and the cells its held
    rows can hold: max(last, J) rows times the widest window, n - ceil(n/J) + 1.
    A caller that builds costly arguments charges their triangle first.
    """
    held = last if last > top else top
    Budget("Bell triangle", "triangles", None).charge(1, n + held * (n - -(-n // top) + 1))


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

    The arguments x_j with j <= n are checked for every k.  Row i of the
    triangle keeps only the columns c that can be nonzero, ceil(i/J) <= c <= i,
    and that can still reach column k of row n in the blocks left,
    k - (n - i) <= c <= k - ceil((n - i)/J); row n is then B_{n,k} alone, or
    empty where k * J < n.
    """
    check_int("n", n)
    check_int("k", k)
    args = _nonzero_args(n, xs)
    if not 0 <= k <= n:
        return 0
    row = _triangle(n, args, 1, k)[-1][1]
    return row[0] if row else 0
