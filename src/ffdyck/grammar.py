"""Grammar-driven word generation for slope (2m+1)/2.

The derivation system generating D through the auxiliary nonterminals
L_1 .. L_{2m+1} is

    D       = empty + L_1 L_1 b + L_2 b,
    L_{2m+1} = a,
    L_{2m}   = a L_1 b,
    L_i      = L_{i+1} L_1 b + L_{i+2} b      for 1 <= i <= 2m-1,

an unambiguous context-free grammar.  L_i holds the factor-free words of
total valuation i whose nonempty prefixes all have valuation above i.  Every
L_1 word factors as a * u * b^m with u in U, which is how U-words are
produced here: expand L_1 and strip the frame.

Expansion is length-indexed and memoized per call.  A word of L_i and length
l has valuation i = (2m+3)#a - 2l, so L_i is empty unless i + 2l is a
multiple of 2m+3: the expander returns at once at every other length, and it
steps the split point of L_{i+1} L_1 b by 2m+3 from the one residue where
L_{i+1} can be nonempty.  Each product L_{i+1} x L_1 x {b} is joined in one
C-level pass, `map("".join, product(...))`, and U-words are sorted once,
after the frame is stripped.  Duplicate derivations are NOT collapsed: every
derivation still yields its own word and no set union is taken, so an
ambiguity bug would surface as a count mismatch in the tests rather than
being silently hidden.
"""

from __future__ import annotations

from itertools import combinations, product, repeat
from math import comb
from operator import itemgetter

from .words import CapExceeded, brute_cap, check_args, period


class _Expander:
    """Per-call memo table for length-indexed expansion of the L system.

    Expansion work is proportional to the words it materializes, so the
    brute-force cap is charged against emitted words rather than against the
    C(length, #a) candidate bound used by the exhaustive searches.  Memory is
    proportional to their letters, which a second budget of 10 x the cap
    bounds (at the default cap, `generate --m 2 --n 6` holds 11.0 M letters).
    Each batch of words is charged before it is built, so no memo entry can
    overshoot either budget.  A length where L_i must be empty returns before
    the memo and charges nothing.
    """

    def __init__(self, m: int, cap: int):
        self.m = m
        self.per = period(m)
        self.cap = cap
        self.words_left = cap
        self.letters_left = 10 * cap
        self.memo: dict[tuple[int, int], tuple[str, ...]] = {}

    def charge(self, count: int, length: int) -> None:
        """Charge `count` words of `length` letters, about to be built."""
        self.words_left -= count
        self.letters_left -= count * length
        if self.words_left < 0:
            raise CapExceeded(
                f"grammar expansion needs more than {self.cap} words,"
                " the brute-force cap"
            )
        if self.letters_left < 0:
            raise CapExceeded(
                f"grammar expansion needs more than {10 * self.cap} letters,"
                " 10 x the brute-force cap"
            )

    def l_words(self, i: int, length: int) -> tuple[str, ...]:
        per = self.per
        if length < 1 or (i + 2 * length) % per:
            return ()
        key = (i, length)
        cached = self.memo.get(key)
        if cached is not None:
            return cached
        m = self.m
        if i == 2 * m + 1:
            words = ("a",) if length == 1 else ()
            self.charge(len(words), length)
        elif i == 2 * m:
            inner = self.l_words(1, length - 2)
            self.charge(len(inner), length)
            words = tuple(["a" + w + "b" for w in inner])
        else:
            acc: list[str] = []
            # L_{i+1} needs i+1 + 2 left_len = 0 (mod per); since 2(m+2) = 1
            # (mod per), that is left_len = -(i+1)(m+2)
            start = -(i + 1) * (m + 2) % per or per
            for left_len in range(start, length - 1, per):
                left = self.l_words(i + 1, left_len)
                if not left:
                    continue
                right = self.l_words(1, length - 1 - left_len)
                self.charge(len(left) * len(right), length)
                acc += map("".join, product(left, right, ("b",)))
            shorter = self.l_words(i + 2, length - 1)
            self.charge(len(shorter), length)
            acc += [u + "b" for u in shorter]
            words = tuple(acc)
        self.memo[key] = words
        return words


def expand_l_words(m: int, i: int, length: int, cap: int | None = None) -> list[str]:
    """All words of the given length derivable from L_i, sorted."""
    check_args(m, length)
    if not 1 <= i <= 2 * m + 1:
        raise ValueError(f"index i must lie in 1..{2 * m + 1}, got {i}")
    return sorted(_Expander(m, brute_cap(cap)).l_words(i, length))


def generate_u_words(m: int, n: int, cap: int | None = None) -> list[str]:
    """All U-words of length (2m+3)n, from L_1 words with the a/b^m frame stripped."""
    check_args(m, n)
    if n == 0:
        return [""]
    expander = _Expander(m, brute_cap(cap))
    framed = expander.l_words(1, period(m) * n + m + 1)
    del expander  # frees every memo entry but the framed words
    tail = "b" * m
    if not (
        all(map(str.startswith, framed, repeat("a")))
        and all(map(str.endswith, framed, repeat(tail)))
    ):
        bad = next(w for w in framed if not (w.startswith("a") and w.endswith(tail)))
        raise AssertionError(f"L_1 word lacks the a..b^{m} frame: {bad}")
    words = list(map(itemgetter(slice(1, -m)), framed))
    del framed
    words.sort()
    return words


def generate_d_words(m: int, n: int, cap: int | None = None) -> list[str]:
    """All nonempty D-words of length (2m+3)n via D = L_1 L_1 b + L_2 b, sorted.

    That rule is the general L_i rule at i = 0, so D expands as L_0.
    """
    check_args(m, n)
    if n == 0:
        return []
    return sorted(_Expander(m, brute_cap(cap)).l_words(0, period(m) * n))


def primitive_u_words(m: int, j: int, cap: int | None = None) -> list[str]:
    """U-words of length (2m+3)j that are not an insertion of a smaller one, sorted.

    Longer U-words arise by splicing a nonempty U-word into a host U-word
    right after one of the host's letters a (every derivation slot of the
    grammar sits directly after an a); what no such splice produces is the
    set of building blocks.  They are built here in closed form: the b-runs
    around their 2j letters a are (0, m+1, ..., m+1, 1), with 2j-1 middle
    entries, plus a weak composition of the m-j remaining b's into the 2j+1
    runs.  That gives C(m+j, 2j) = C(m+j, m-j) words, charged against the cap
    before they are built.  The `primitive-blocks` selfcheck compares them
    with the insertion filter itself.
    """
    check_args(m)
    if not 1 <= j <= m:
        raise ValueError(f"primitive words exist for 1 <= j <= m, got j={j}")
    _Expander(m, brute_cap(cap)).charge(comb(m + j, m - j), period(m) * j)
    base = [0] + [m + 1] * (2 * j - 1) + [1]
    slots = m + j  # stars and bars: the m-j extra b's and 2j bars in a row
    words = []
    for bars in combinations(range(slots), 2 * j):
        cuts = (-1, *bars, slots)
        runs = [r + hi - lo - 1 for r, lo, hi in zip(base, cuts, cuts[1:])]
        words.append("a".join(["b" * r for r in runs]))
    words.sort()
    return words
