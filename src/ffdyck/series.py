"""Generating-function solvers: power series truncated at a fixed order, exact.

Used as an independent route to the word counts: the generating function of U
solves U = 1 + sum_{j=1}^m C(m+j, m-j) t^j U^{2j}, the generating function of
D evaluates as 1 + t U^2 + sum_{j=1}^m C(m+j-1, m-j) t^j U^{2j-1}, and the
one-letter-step system over the variable tau (one tau per letter) is

    L_{2m+1} = tau,  L_{2m} = tau^2 L_1,
    L_i = tau L_1 L_{i+1} + tau L_{i+2}   for 1 <= i <= 2m-1.

All solvers work online, one coefficient index at a time: every right-hand
side carries a factor of the series variable, so the n-th coefficient of each
unknown reads only coefficients below n.  The U solver keeps the coefficient
lists of U and of its even powers U^(2j), j = 1..m, the only powers the
equation reads.  Per index it squares U into U^2, and U^j into U^(2j) for
even j, by half-convolutions that multiply each pair once, and takes every
other U^(2j) as one convolution with U^2; D adds one convolution with U.  So
a U or D solve to order n costs O(m n^2) integer operations.  Coefficient n
reads the terms t^j with j <= n only, so to an order n < m the sums stop at
j = n and the powers at U^(2 max(1, n)): a large m costs no more than
m = order.  An L_k word of length n has valuation k = (2m+3)#a - 2n, so
L_k is zero at n unless k + 2n = 0 mod 2m+3: of L_1..L_{2m+1}, at most one
unknown can be nonzero at each length.  The L solver computes only that
one, and its convolution with L_1 steps over L_1's lengths, m+1 mod
2m+3, so a length costs one convolution of about n/(2m+3) products.
Each solver returns the coefficients 0..order as a tuple of ints; selfcheck
checks them against their equations with a truncated product of its own.
Each first charges the coefficients its lists will hold to one
`words.Budget`, a count it knows from m and the order, so a solve past the
brute-force cap raises CapExceeded before it allocates any.
"""

from __future__ import annotations

from math import comb
from operator import mul

from .words import Budget, check_args, check_int, period


def _even_powers(m: int, order: int, budget: Budget) -> list[list[int]]:
    """Coefficients 0..order of U and of U^(2j), j = 1..max(1, min(m, order)), index by index.

    Entry 0 of the result is U and entry j is U^(2j).  At index n the equation
    gives u_n = sum_j C(m+j, m-j) [t^(n-j)] U^(2j), which reads only indices
    below n; then each even power takes its n-th coefficient, in order of j.
    U^(2j) with j = 1 or j even is the square of U^j, a list already kept
    (U itself, or U^(2 j/2)): a half-convolution makes each product
    a_k a_(n-k), k < n - k, once and doubles it, plus the middle square at
    even n.  Every other U^(2j) is one convolution U^(2j-2) U^2.  No index
    up to the order reads a term with j > order, so the powers stop at
    j = min(m, order); U and U^2 are kept at every order.  Their coefficients
    are charged to `budget` first.
    """
    top = max(1, min(m, order))
    budget.charge((top + 1) * (order + 1), 0)
    weights = [(j, comb(m + j, m - j)) for j in range(1, top + 1)]
    u = [1] + [0] * order
    evens = [u] + [[1] for _ in range(top)]
    steps = [  # (U^(2j), a, b) with U^(2j) = a b; a is b for a square
        (evens[j], evens[j // 2], evens[j // 2]) if j == 1 or j % 2 == 0
        else (evens[j], evens[j - 1], evens[1]) for j in range(1, top + 1)
    ]
    for n in range(1, order + 1):
        u[n] = sum(w * evens[j][n - j] for j, w in weights if j <= n)
        half = (n + 1) // 2
        for power, a, b in steps:
            if a is not b:
                power.append(sum(map(mul, a, reversed(b))))
            else:
                twice = 2 * sum(map(mul, a[:half], a[n : n - half : -1]))
                power.append(twice if n % 2 else twice + a[half] * a[half])
    return evens


def u_series(m: int, order: int) -> tuple[int, ...]:
    """Counting series of U in t (one t per 2m+3 letters), to the given order.

    The solve keeps U and its even powers U^2, U^4, .., U^(2m).  Per index it
    squares U into U^2 and U^j into U^(2j) for even j by half-convolutions,
    each making half a convolution's products, and takes every other power
    as one convolution with U^2: one convolution's worth of products per
    index at m = 2, two at m = 3.
    """
    check_args(m, order)
    return tuple(_even_powers(m, order, Budget("U series solve", "coefficients", None))[0])


def d_series(m: int, order: int) -> tuple[int, ...]:
    """Counting series of D in t, evaluated from the even powers of the U series.

    D = 1 + t U^2 + K U with K = sum_j C(m+j-1, m-j) t^j U^(2j-2).  K's
    j = 1 term is m t, a shift of U; the rest is t^2 K2 with
    K2 = sum_{j>=2} C(m+j-1, m-j) t^(j-2) U^(2j-2), and t^2 K2 U costs one
    convolution per index on top of the U solve, none at m = 1.
    """
    check_args(m, order)
    budget = Budget("D series solve", "coefficients", None)
    budget.charge((min(m, order) + 1) * (order + 1), 0)  # K2's terms, K2 and D
    evens = _even_powers(m, order, budget)
    u = evens[0]
    weights = [(j, comb(m + j - 1, m - j)) for j in range(2, min(m, order) + 1)]
    terms = [[0] * (j - 2) + [w * x for x in evens[j - 1][: order + 1 - j]] for j, w in weights]
    k2 = list(map(sum, zip(*terms)))
    d = [1] + [a + m * b for a, b in zip(evens[1], u[:order])]
    for i in range(len(k2)):
        d[i + 2] += sum(map(mul, k2, reversed(u[: i + 1])))
    return tuple(d)


def l_series(m: int, i: int, order: int) -> tuple[int, ...]:
    """Counting series in tau of the i-th one-letter-step language, 1 <= i <= 2m+1.

    At each length n only the unknown L_K with K + 2n = 0 mod 2m+3 can be
    nonzero (see the module docstring); it is the one computed, and every
    other unknown keeps the 0 it was allocated with.  Its right-hand side
    reads only lengths below n, and its product tau L_1 L_{K+1} sums over
    the lengths m+1 + r(2m+3) < n of L_1 words only, held as their own list
    and extended whenever L_1 is the unknown computed.  An L_k word of
    length l has valuation k = (2m+3)#a - 2l, #a >= 1, so only L_k with
    k >= 2m+3 - 2 order (and the two top rows) are built.
    """
    check_args(m, order)
    top = 2 * m + 1
    check_int("i", i, 1, top)
    low = max(1, min(top - 1, top + 2 - 2 * order))
    # L_low..L_top, and L_1's zeros when L_1 is not among them
    lists = top + 1 - low + (low > 1)
    Budget("L series solve", "coefficients", None).charge(lists * (order + 1), 0)
    if i < low:
        return (0,) * (order + 1)
    step = period(m)
    ls = [[0] * (order + 1) for _ in range(low, top + 1)]  # ls[k - low] holds L_k
    l1_class = []  # L_1 at its lengths m + 1, m + 1 + step, .. below n
    for n in range(1, order + 1):
        k = -2 * n % step
        if k < low or k > top:
            continue
        if k == top:
            c = 1 if n == 1 else 0
        elif k == top - 1:  # L_{2m} = tau^2 L_1; its n - 2 is on L_1's class
            c = l1_class[(n - m - 3) // step]
        else:
            # L_{k+1} at n - 1 - (m + 1), n - 1 - (m + 1) - step, ..; no term
            # when l1_class is empty, as it is whenever that start is negative
            after = ls[k + 1 - low][n - 2 - m :: -step]
            c = sum(map(mul, l1_class, after)) + ls[k + 2 - low][n - 1]
            if k == 1:
                l1_class.append(c)
        ls[k - low][n] = c
    return tuple(ls[i - low])
