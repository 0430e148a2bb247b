"""Reference answers that share no code with the library's counting routes.

Counts come from Lagrange inversion on the functional equation of U.  With
P(s) = sum_{j=0}^m C(m+j, m-j) s^j, the series U solves U = P(s) with
s = t U^2, so for k >= 1

    [t^k] U^r = (r/k) [s^(k-1)] P'(s) P(s)^(2k+r-1),

and every power of the polynomial P is expanded by the J. C. P. Miller
recurrence.  D follows from D = 1 + t U^2 + sum_j C(m+j-1, m-j) t^j U^(2j-1),
and the one-letter-step series L_i from L_1 = tau^(m+1) U(tau^(2m+3)) and the
descending system L_i = tau L_1 L_(i+1) + tau L_(i+2).  Partial Bell values
use B_{n,k}(j! w_j) = n!/k! [s^n] (P(s) - 1)^k and the Stirling recurrence.
"""

from __future__ import annotations

from math import comb, factorial

# OEIS-backed values the paper quotes: Catalan numbers at m = 1 and
# A274052 (3, 19, 153, 1390 for U; 3, 13, 94, 810 for D) at m = 2.
KNOWN = {
    ("U", 1): [1, 1, 2, 5, 14, 42, 132, 429, 1430],
    ("U", 2): [1, 3, 19, 153, 1390],
    ("D", 2): [1, 3, 13, 94, 810],
}


def check_known() -> None:
    """Raise if the reference disagrees with the published values."""
    for (language, m), values in KNOWN.items():
        got = [count(language, m, n) for n in range(len(values))]
        if got != values:
            raise ArithmeticError(f"reference {language} counts at m={m}: {got} != {values}")


def ascent_poly(m: int) -> list[int]:
    """Coefficients of P(s) = sum_{j=0}^m C(m+j, m-j) s^j."""
    return [comb(m + j, m - j) for j in range(m + 1)]


def poly_power(p: list[int], alpha: int, upto: int) -> list[int]:
    """Coefficients 0..upto of p(s)**alpha for p[0] == 1 (Miller recurrence)."""
    q = [1] + [0] * upto
    deg = len(p) - 1
    for k in range(1, upto + 1):
        acc = 0
        for i in range(1, min(k, deg) + 1):
            acc += ((alpha + 1) * i - k) * p[i] * q[k - i]
        q[k], rem = divmod(acc, k)
        if rem:
            raise ArithmeticError(f"Miller recurrence lost exactness at k={k}")
    return q


def u_power_coeff(m: int, r: int, k: int) -> int:
    """[t^k] U^r by Lagrange inversion."""
    if k == 0:
        return 1
    p = ascent_poly(m)
    dp = [j * p[j] for j in range(1, len(p))]
    q = poly_power(p, 2 * k + r - 1, k - 1)
    acc = sum(dp[i] * q[k - 1 - i] for i in range(min(len(dp), k)))
    num = r * acc
    if num % k:
        raise ArithmeticError(f"Lagrange coefficient not integral at m={m}, r={r}, k={k}")
    return num // k


def count(language: str, m: int, n: int) -> int:
    """Number of U-words (language 'U') or D-words ('D') of length (2m+3)n."""
    if language == "U":
        return u_power_coeff(m, 1, n)
    if n == 0:
        return 1
    total = u_power_coeff(m, 2, n - 1)
    for j in range(1, m + 1):
        if j <= n:
            total += comb(m + j - 1, m - j) * u_power_coeff(m, 2 * j - 1, n - j)
    return total


def _mul(a: list[int], b: list[int], order: int) -> list[int]:
    """Product of two coefficient lists, truncated at the given order."""
    out = [0] * (order + 1)
    for i, x in enumerate(a):
        if x:
            for j in range(min(len(b), order + 1 - i)):
                if b[j]:
                    out[i + j] += x * b[j]
    return out


def _shift(a: list[int], order: int) -> list[int]:
    return ([0] + a)[: order + 1]


def l_series(m: int, i: int, order: int) -> list[int]:
    """Coefficients 0..order (in tau) of the i-th one-letter-step language."""
    per = 2 * m + 3
    l1 = [0] * (order + 1)
    for n in range(order // per + 1):
        pos = per * n + m + 1
        if pos <= order:
            l1[pos] = count("U", m, n)
    tau = _shift([1] + [0] * order, order)
    ls = {2 * m + 1: tau, 2 * m: _shift(_shift(l1, order), order)}
    for k in range(2 * m - 1, 0, -1):
        a = _shift(_mul(l1, ls[k + 1], order), order)
        b = _shift(ls[k + 2], order)
        ls[k] = [x + y for x, y in zip(a, b)]
    if ls[1] != l1:
        raise ArithmeticError(f"L_1 from the descending system disagrees with U at m={m}")
    return ls[i]


def stirling2_table(top: int) -> list[list[int]]:
    """S(n, k) for 0 <= k <= n <= top."""
    table = [[1] + [0] * top]
    for n in range(1, top + 1):
        prev = table[-1]
        row = [0] * (top + 1)
        for k in range(1, n + 1):
            row[k] = k * prev[k] + prev[k - 1]
        table.append(row)
    return table


def bell_weighted(m: int, n: int, k: int) -> int:
    """B_{n,k}(1! w_1, 2! w_2, ...) = n!/k! [s^n] (P(s) - 1)^k for slope m."""
    if k == 0:
        return 1 if n == 0 else 0
    base = [0] + ascent_poly(m)[1:]
    power = [1] + [0] * n
    for _ in range(k):
        power = _mul(power, base, n)
    num, rem = divmod(factorial(n) * power[n], factorial(k))
    if rem:
        raise ArithmeticError(f"Bell value not integral at m={m}, n={n}, k={k}")
    return num
