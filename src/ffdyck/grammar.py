"""Grammar-driven word generation for slope (2m+1)/2.

The derivation system generating D through the auxiliary nonterminals
L_1 .. L_{2m+1} is

    D       = empty + L_1 L_1 b + L_2 b,
    L_{2m+1} = a,
    L_i      = L_{i+1} L_1 b + L_{i+2} b   for 1 <= i <= 2m (L_{2m+2} empty),

an unambiguous context-free grammar.  L_i holds the factor-free words of
total valuation i whose nonempty prefixes all have valuation above i.  Every
L_1 word factors as a * u * b^m with u in U, which is how U-words are
produced here, without building a single L_1 word of the top length: the
top rule L_1 = L_2 L_1 b + L_3 b is applied to factors whose share of the
frame is already cut, the leading a of each L_2 and L_3 factor and the
trailing b^(m-1) of each L_1 and L_3 factor (with the rule's own b, that is
the b^m).  The frame is checked there, once per factor: a factor that lacks
its part raises AssertionError naming it.  For a nonempty block that is the
same as checking that every framed word has the a..b^m frame.

Expansion is length-indexed and memoized per call.  A word of L_i and length
l has valuation i = (2m+3)#a - 2l, so L_i is empty unless i + 2l is a
multiple of 2m+3: the expander returns at once at every other length, and
`_Expander.splits` steps the split point of L_{i+1} L_1 b by 2m+3 from the
one residue where L_{i+1} can be nonempty, charging each nonempty block
before it is built.  Each product is joined in one C-level pass,
`map("".join, product(...))`.  Memo entries are sorted: factors of one
length that are sorted give a sorted product, so an entry is one sorted run
per block and its one sort merges them, and cutting a frame shared by every
factor keeps the order.  U-words are therefore one sort (a merge of about n
runs) away from sorted, and D-words and `expand_l_words` need no sort at
all.  Duplicate derivations are NOT collapsed: every derivation still yields
its own word and no set union is taken, so an ambiguity bug would surface as
a count mismatch in the tests rather than being silently hidden.
"""

from __future__ import annotations

from collections.abc import Iterator
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
    overshoot either budget.  A length where L_i must be empty, or an index
    past 2m+1, returns before the memo and charges nothing; so L_{2m} is
    a L_1 b by the general rule, the one block (a, L_1) of its splits.
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
        """The words of L_i of this length, sorted; memoized."""
        if length < 1 or i > 2 * self.m + 1 or (i + 2 * length) % self.per:
            return ()
        key = (i, length)
        cached = self.memo.get(key)
        if cached is not None:
            return cached
        if i == 2 * self.m + 1:
            words = ("a",) if length == 1 else ()
            self.charge(len(words), length)
        else:
            acc: list[str] = []
            for left, right in self.splits(i, length):
                acc += map("".join, product(left, right, ("b",)))
            shorter = self.l_words(i + 2, length - 1)
            self.charge(len(shorter), length)
            acc += [u + "b" for u in shorter]
            # one sorted run per block: the sort merges them
            acc.sort()
            words = tuple(acc)
        self.memo[key] = words
        return words

    def splits(
        self, i: int, length: int
    ) -> Iterator[tuple[tuple[str, ...], tuple[str, ...]]]:
        """The nonempty blocks (L_{i+1}, L_1) of L_{i+1} L_1 b at this length.

        Each block is charged as the words it makes, of `length` letters,
        before it is yielded.
        """
        per = self.per
        # L_{i+1} needs i+1 + 2 left_len = 0 (mod per); since 2(m+2) = 1
        # (mod per), that is left_len = -(i+1)(m+2)
        start = -(i + 1) * (self.m + 2) % per or per
        for left_len in range(start, length - 1, per):
            left = self.l_words(i + 1, left_len)
            if not left:
                continue
            right = self.l_words(1, length - 1 - left_len)
            if right:
                self.charge(len(left) * len(right), length)
                yield left, right


def _cut_frame(
    factors: tuple[str, ...], i: int, m: int, lead: int, tail: int
) -> list[str] | tuple[str, ...]:
    """Same-length L_i factors with their first `lead` and last `tail` letters cut.

    Those letters are the a (lead = 1) and the b's of the a..b^m frame; a
    factor that lacks them raises AssertionError naming it.  Every factor
    keeps its place in the sorted order.
    """
    if lead and not all(map(str.startswith, factors, repeat("a"))):
        bad = next(f for f in factors if not f.startswith("a"))
        raise AssertionError(
            f"L_{i} factor lacks the leading a of the a..b^{m} frame: {bad}"
        )
    suffix = "b" * tail
    if tail and not all(map(str.endswith, factors, repeat(suffix))):
        bad = next(f for f in factors if not f.endswith(suffix))
        raise AssertionError(
            f"L_{i} factor lacks the b^{tail} tail of the a..b^{m} frame: {bad}"
        )
    if not (lead or tail):
        return factors
    return list(map(itemgetter(slice(lead, -tail or None)), factors))


def expand_l_words(m: int, i: int, length: int, cap: int | None = None) -> list[str]:
    """All words of the given length derivable from L_i, sorted."""
    check_args(m, length)
    if not 1 <= i <= 2 * m + 1:
        raise ValueError(f"index i must lie in 1..{2 * m + 1}, got {i}")
    return list(_Expander(m, brute_cap(cap)).l_words(i, length))


def generate_u_words(m: int, n: int, cap: int | None = None) -> list[str]:
    """All U-words of length (2m+3)n, sorted.

    They are the L_1 words of length (2m+3)n + m + 1 without their a..b^m
    frame, built by the top rule L_1 = L_2 L_1 b + L_3 b from factors whose
    share of the frame is already cut.
    """
    check_args(m, n)
    if n == 0:
        return [""]
    expander = _Expander(m, brute_cap(cap))
    length = period(m) * n + m + 1
    words: list[str] = []
    for left, right in expander.splits(1, length):
        left = _cut_frame(left, 2, m, 1, 0)
        right = _cut_frame(right, 1, m, 0, m - 1)
        words += map("".join, product(left, right))
    shorter = expander.l_words(3, length - 1)
    expander.charge(len(shorter), length)
    del expander  # frees every memo entry but the last factors
    if shorter:
        words += _cut_frame(shorter, 3, m, 1, m - 1)
    del shorter
    words.sort()
    return words


def generate_d_words(m: int, n: int, cap: int | None = None) -> list[str]:
    """All nonempty D-words of length (2m+3)n via D = L_1 L_1 b + L_2 b, sorted.

    That rule is the general L_i rule at i = 0, so D expands as L_0.
    """
    check_args(m, n)
    if n == 0:
        return []
    return list(_Expander(m, brute_cap(cap)).l_words(0, period(m) * n))


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
