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
m = order.  Every L_1 word has valuation 1, so
its length is m+1 mod 2m+3 and L_1 is zero off that residue class; the L
solver's convolutions with L_1 step over L_1's lengths only, which divides
their cost by 2m+3, and a guard raises if a coefficient of L_1 off the
class comes out nonzero.
Each solver returns the coefficients 0..order as a tuple of ints; selfcheck
checks them against their equations with a truncated product of its own.
Each first charges the coefficients its lists will hold to one
`words.Budget`, a count it knows from m and the order, so a solve past the
brute-force cap raises CapExceeded before it allocates any.
"""

from __future__ import annotations

from operator import mul

from .bell import binomial
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
    weights = [(j, binomial(m + j, m - j)) for j in range(1, top + 1)]
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
    weights = [(j, binomial(m + j - 1, m - j)) for j in range(2, min(m, order) + 1)]
    terms = [[0] * (j - 2) + [w * x for x in evens[j - 1][: order + 1 - j]] for j, w in weights]
    k2 = list(map(sum, zip(*terms)))
    d = [1] + [a + m * b for a, b in zip(evens[1], u[:order])]
    for i in range(len(k2)):
        d[i + 2] += sum(map(mul, k2, reversed(u[: i + 1])))
    return tuple(d)


def l_series(m: int, i: int, order: int) -> tuple[int, ...]:
    """Counting series in tau of the i-th one-letter-step language, 1 <= i <= 2m+1.

    At each index n the unknowns are filled from L_{2m+1} down to L_1; every
    right-hand side reads only coefficients below n.  The product tau L_1
    L_{k+1} sums over the lengths m+1 + r(2m+3) < n of L_1 words only; after
    each index an AssertionError is raised if L_1's new coefficient is
    nonzero off that class, so no skipped product is ever nonzero.  An L_k
    word of length l has valuation k = (2m+3)#a - 2l, #a >= 1, so only L_k
    with k >= 2m+3 - 2 order (and the two top rows) are built.
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
    ls = [[0] for _ in range(low, top + 1)]  # ls[k - low] holds L_k
    l1 = ls[0] if low == 1 else [0] * (order + 1)  # L_1 is zero to this order
    for n in range(1, order + 1):
        ls[-1].append(1 if n == 1 else 0)
        ls[-2].append(l1[n - 2] if n >= 2 else 0)
        l1_class = l1[m + 1 :: step]  # L_1 on its lengths below n; empty for n <= m + 1
        back = n - 2 - m  # the index of L_{k+1} that meets L_1's length m + 1
        for k in range(len(ls) - 3, -1, -1):
            after = ls[k + 1][back::-step]
            ls[k].append(sum(map(mul, l1_class, after)) + ls[k + 2][n - 1])
        if l1[n] and n % step != m + 1:
            raise AssertionError(f"L_1 has a word of length {n}, not {m + 1} mod {step}")
    return tuple(ls[i - low])
