"""Truncated formal power series with exact integer coefficients.

Used as an independent route to the word counts: the generating function of U
solves U = 1 + sum_{j=1}^m C(m+j, m-j) t^j U^{2j}, the generating function of
D evaluates as 1 + t U^2 + sum_{j=1}^m C(m+j-1, m-j) t^j U^{2j-1}, and the
one-letter-step system over the variable tau (one tau per letter) is

    L_{2m+1} = tau,  L_{2m} = tau^2 L_1,
    L_i = tau L_1 L_{i+1} + tau L_{i+2}   for 1 <= i <= 2m-1.

All solvers work online, one coefficient index at a time: every right-hand
side carries a factor of the series variable, so the n-th coefficient of each
unknown reads only coefficients below n.  The U solver keeps the coefficient
lists of the powers U^e, e = 0..2m, and extends each power by one convolution
with U per index, so a solve to order n costs O(m n^2) integer operations.
The Series class below is the separate arithmetic that selfcheck uses to
check the solutions against their equations.  The substitution
t = tau^(2m+3) is the explicit `inflate` operation, never an implicit
reindexing.
"""

from __future__ import annotations

from operator import mul
from typing import Iterator, Sequence

from .bell import binomial
from .words import check_args


class Series:
    """Power series truncated at a fixed order, with exact int coefficients.

    Binary operations require equal truncation orders; products discard all
    terms above the shared order and are exact below it.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[int], order: int | None = None):
        cs = list(coeffs)
        if order is not None:
            if len(cs) > order + 1:
                cs = cs[: order + 1]
            else:
                cs += [0] * (order + 1 - len(cs))
        elif not cs:
            cs = [0]
        self.coeffs: tuple[int, ...] = tuple(cs)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def zero(cls, order: int) -> "Series":
        return cls([0], order)

    @classmethod
    def one(cls, order: int) -> "Series":
        return cls([1], order)

    @classmethod
    def monomial(cls, k: int, order: int, coeff: int = 1) -> "Series":
        cs = [0] * (order + 1)
        if 0 <= k <= order:
            cs[k] = coeff
        return cls(cs)

    def __getitem__(self, k: int) -> int:
        return self.coeffs[k]

    def __iter__(self) -> Iterator[int]:
        return iter(self.coeffs)

    def __len__(self) -> int:
        return len(self.coeffs)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Series) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"Series({list(self.coeffs)})"

    def _match(self, other: "Series") -> None:
        if self.order != other.order:
            raise ValueError(
                f"truncation orders differ: {self.order} != {other.order}"
            )

    def __add__(self, other: "Series") -> "Series":
        self._match(other)
        return Series([a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "Series") -> "Series":
        self._match(other)
        return Series([a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __mul__(self, other: "Series | int") -> "Series":
        if isinstance(other, int):
            return Series([other * a for a in self.coeffs])
        self._match(other)
        n = self.order
        out = [0] * (n + 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j in range(n + 1 - i):
                b = other.coeffs[j]
                if b:
                    out[i + j] += a * b
        return Series(out)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "Series":
        if e < 0:
            raise ValueError("negative series powers are not supported")
        result = Series.one(self.order)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def shift(self, k: int) -> "Series":
        """Multiply by the k-th power of the variable, same truncation order."""
        cs = [0] * (self.order + 1)
        for i, a in enumerate(self.coeffs):
            if a and i + k <= self.order:
                cs[i + k] = a
        return Series(cs)

    def inflate(self, k: int, order: int) -> "Series":
        """Substitute variable -> variable**k, truncating at the given order."""
        cs = [0] * (order + 1)
        for i, a in enumerate(self.coeffs):
            if a and i * k <= order:
                cs[i * k] = a
        return Series(cs)


def _u_powers(m: int, order: int) -> list[list[int]]:
    """Coefficients 0..order of U^e for e = 0..2m, solved one index at a time.

    At index n the equation gives u_n = sum_j C(m+j, m-j) [t^(n-j)] U^(2j),
    which reads only indices below n; then each power U^e, e >= 2, takes its
    n-th coefficient from the convolution of U^(e-1) with U.
    """
    weights = [(j, binomial(m + j, m - j)) for j in range(1, m + 1)]
    powers = [[1] + [0] * order] + [[1] for _ in range(2 * m)]
    u = powers[1]
    for n in range(1, order + 1):
        u.append(sum(w * powers[2 * j][n - j] for j, w in weights if j <= n))
        for e in range(2, 2 * m + 1):
            powers[e].append(sum(map(mul, powers[e - 1], reversed(u))))
    return powers


def u_series(m: int, order: int) -> Series:
    """Counting series of U in t (one t per 2m+3 letters), to the given order."""
    check_args(m, order)
    return Series(_u_powers(m, order)[1])


def d_series(m: int, order: int) -> Series:
    """Counting series of D in t, evaluated from the powers of the U series."""
    check_args(m, order)
    powers = _u_powers(m, order)
    weights = [(j, binomial(m + j - 1, m - j)) for j in range(1, m + 1)]
    coeffs = [1] + [
        powers[2][n - 1]
        + sum(w * powers[2 * j - 1][n - j] for j, w in weights if j <= n)
        for n in range(1, order + 1)
    ]
    return Series(coeffs)


def l_series(m: int, i: int, order: int) -> Series:
    """Series in tau of the i-th one-letter-step language, 1 <= i <= 2m+1.

    At each index n the unknowns are filled from L_{2m+1} down to L_1; every
    right-hand side reads only coefficients below n.
    """
    check_args(m, order)
    top = 2 * m + 1
    if not 1 <= i <= top:
        raise ValueError(f"index i must lie in 1..{top}, got {i}")
    ls = [[0] for _ in range(top + 1)]
    l1 = ls[1]
    for n in range(1, order + 1):
        ls[top].append(1 if n == 1 else 0)
        ls[top - 1].append(l1[n - 2] if n >= 2 else 0)
        for k in range(top - 2, 0, -1):
            after = ls[k + 1]
            ls[k].append(sum(map(mul, l1, after[n - 1 :: -1])) + ls[k + 2][n - 1])
    return Series(ls[i])
