"""Grammar-driven word generation for slope (2m+1)/2.

The derivation system generating D through the auxiliary nonterminals
L_1 .. L_{2m+1} is

    D       = empty + L_1 L_1 b + L_2 b,
    L_{2m+1} = a,
    L_i      = L_{i+1} L_1 b + L_{i+2} b   for 1 <= i <= 2m (L_{2m+2} empty),

an unambiguous context-free grammar.  L_i holds the factor-free words of
total valuation i whose nonempty prefixes all have valuation above i, and D
is the same rule at i = 0.  Every L_i word starts with a, and for odd
i = 2t+1 it ends in b^(m-t), by induction on the rule: L_1 b ends in
b^(m+1), and L_{i+2} b in one b more than L_{i+2}.  So with s(i) =
m - (i-1)/2 for odd i and 0 for even i, each word is a * core * b^s(i).
The memo holds cores, so the L_1 cores are the U-words, L_{2m+1} = a has
the empty core, and the rule reads

    core_i = core_{i+1} b^s(i+1) a core_1 b^(m+1-s(i))  +  core_{i+2} b^(s(i+2)+1-s(i)).

U-words are the L_1 cores of the top length, and D-words are a * core_0:
both are joined from cores and constant pieces, and nothing is cut.

Expansion is length-indexed and memoized per call.  A word of L_i and length
l has valuation i = (2m+3)#a - 2l, so L_i is empty unless i + 2l is a
multiple of 2m+3: the expander returns at once at every other length, and
`_Expander.blocks` steps the split point of L_{i+1} L_1 b by 2m+3 from the
one residue where L_{i+1} can be nonempty.  Each block is charged to a
`words.Budget` at the length of its full words before it is built, and is
joined in one C-level pass, `map("".join, product(...))`; sorted cores of
one length give a sorted product, so one sort merges the runs.  The top rule
of U and D is expanded two levels deep: a block's first factor that the memo
lacks once the block's L_1 is fetched (for U, L_3 of the top length less
one) serves that block only, so the blocks of its own rule are joined
straight into the output and it is never stored or sorted.  A call holds its
memo entries, all shorter than the top length, and the output.  Duplicate
derivations are NOT collapsed: every derivation still yields its own word
and no set union is taken, so an ambiguity bug would surface as a count
mismatch in the tests rather than being silently hidden.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import combinations, product
from math import comb, prod

from .words import Budget, check_args, check_int, period


class _Expander:
    """Per-call memo table for length-indexed expansion of the L system.

    Each batch of words is charged to the call's `words.Budget` before it is
    built (at the default cap, `generate --m 2 --n 6` is charged 11.0 M
    letters).  A length where L_i must be empty, or an index past 2m+1, gets
    no memo entry and charges nothing; so L_{2m} is a L_1 b by the general
    rule, the one block (a, L_1) of its splits.
    """

    def __init__(self, m: int, cap: int | None):
        self.m = m
        self.per = period(m)
        self.budget = Budget("grammar expansion", "words", cap)
        self.memo: dict[tuple[int, int], tuple[str, ...]] = {}

    def tail(self, i: int) -> int:
        """s(i): the b's that end every L_i word, outside its core."""
        return self.m - i // 2 if i % 2 else 0

    def l_words(self, i: int, length: int) -> tuple[str, ...]:
        """The cores of the L_i words of this length, sorted; memoized."""
        cached = self.memo.get((i, length))
        if cached is not None:
            return cached
        if length < 1 or i > 2 * self.m + 1 or (i + 2 * length) % self.per:
            return ()
        # L_i needs L_{i+2} one letter shorter, which needs L_{i+4}, ...: walk
        # up that chain while the memo lacks the next link, then build down
        # from the far end, so the chain never nests and is walked once.
        # Every link has the residue of i + 2 length, so each one is stored.
        top = 0
        while (
            i + 2 * top + 2 <= 2 * self.m + 1
            and length - top > 1
            and (i + 2 * top + 2, length - top - 1) not in self.memo
        ):
            top += 1
        for k in range(top, -1, -1):
            j, size = i + 2 * k, length - k
            if j == 2 * self.m + 1:
                words = ("",) if size == 1 else ()
                self.budget.charge(len(words), size)
            else:
                words = tuple(self.runs(j, size))
            self.memo[j, size] = words
        return words

    def blocks(self, i: int, length: int) -> Iterator[tuple[tuple[int, int], list[tuple[str, ...]]]]:
        """The blocks of core_i at this length, by L_i = L_{i+1} L_1 b + L_{i+2} b.

        A block is the key (index, length) of its first factor and its other
        pieces, each a sorted tuple of words: the L_1 cores or one constant.
        The b's after core_{i+2} are s(i+2) + 1 - s(i): one for even i, none
        for odd i.  The L_1 of a split is fetched here, before its first
        factor, and a split whose L_1 is empty is skipped.
        """
        per = self.per
        # L_{i+1} needs i+1 + 2 left_len = 0 (mod per); since 2(m+2) = 1
        # (mod per), that is left_len = -(i+1)(m+2)
        start = -(i + 1) * (self.m + 2) % per or per
        join, end = ("b" * self.tail(i + 1) + "a",), ("b" * (self.m + 1 - self.tail(i)),)
        for left_len in range(start, length - 1, per):
            right = self.l_words(1, length - 1 - left_len)
            if right:
                yield (i + 1, left_len), [join, right, end]
        yield (i + 2, length - 1), [] if i % 2 else [("b",)]

    def runs(self, i: int, length: int, head: tuple = (), stream=False) -> list[str]:
        """The L_i cores of this length, each after the pieces of `head`.

        One sort merges their runs, one per joined block.  With `stream`, a
        block's first factor that the memo does not hold is not stored: the
        blocks of its own rule are charged as the entry would have been and
        joined straight into the result.  Adjacent constants are joined into
        one piece before the product.
        """
        words: list[str] = []
        for key, rest in self.blocks(i, length):
            if stream and key not in self.memo and key[0] <= 2 * self.m:  # L_{2m+1} = a
                subs = [[self.l_words(*k), *r] for k, r in self.blocks(*key)]
                self.budget.charge(sum(prod(map(len, sub)) for sub in subs), key[1])
            else:
                subs = [[self.l_words(*key)]]
            for sub in subs:
                lists = []
                for piece in (*head, *sub, *rest):
                    if len(piece) == 1 and lists and len(lists[-1]) == 1:
                        lists[-1] = (lists[-1][0] + piece[0],)
                    else:
                        lists.append(piece)
                self.budget.charge(prod(map(len, lists)), length)
                words += map("".join, product(*lists))
        words.sort()
        return words


def expand_l_words(m: int, i: int, length: int, cap: int | None = None) -> list[str]:
    """All words of the given length derivable from L_i, sorted."""
    check_args(m, length)
    check_int("i", i, 1, 2 * m + 1)
    expander = _Expander(m, cap)
    cores = expander.l_words(i, length)
    tail = "b" * expander.tail(i) if cores else ""
    return ["a" + core + tail for core in cores]


def generate_u_words(m: int, n: int, cap: int | None = None) -> list[str]:
    """All U-words of length (2m+3)n, sorted.

    They are the cores of the L_1 words of length (2m+3)n + m + 1, built
    from the top rule L_1 = L_2 L_1 b + L_3 b.
    """
    check_args(m, n)
    if n == 0:
        return [""]
    _charge_lower_bound(m, n, comb(m + 1, 2), cap)
    return _Expander(m, cap).runs(1, period(m) * n + m + 1, stream=True)


def generate_d_words(m: int, n: int, cap: int | None = None) -> list[str]:
    """All D-words of length (2m+3)n via D = empty + L_1 L_1 b + L_2 b, sorted.

    At n > 0 that is the general L_i rule at i = 0, so D-words are a * core_0.
    """
    check_args(m, n)
    if n == 0:
        return [""]
    _charge_lower_bound(m, n, m + 1, cap)
    return _Expander(m, cap).runs(0, period(m) * n, (("a",),), stream=True)


def _charge_lower_bound(m: int, n: int, first: int, cap: int | None) -> None:
    """Charge, on a budget of its own, `first` * w^(n-1) words, w = C(m+1, 2).

    Chains of the w one-blocks give u_n >= w^n, and the m+1 D-words of size
    1 give d_n >= (m+1) w^(n-1), so a size past the cap is refused before
    expanding; the expansion charges at least its output, so it keeps its
    thresholds.  Past the cap's bit length the exponent changes no answer.
    """
    budget = Budget("grammar expansion", "words", cap)
    power = comb(m + 1, 2) ** min(n - 1, budget.cap.bit_length())
    budget.charge(first * power, period(m) * n)


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
    check_int("j", j, 1, m)
    Budget("building-block construction", "words", cap).charge(comb(m + j, m - j), period(m) * j)
    base = [0] + [m + 1] * (2 * j - 1) + [1]
    slots = m + j  # stars and bars: the m-j extra b's and 2j bars in a row
    words = []
    for bars in combinations(range(slots), 2 * j):
        cuts = (-1, *bars, slots)
        runs = [r + hi - lo - 1 for r, lo, hi in zip(base, cuts, cuts[1:])]
        words.append("a".join(["b" * r for r in runs]))
    words.sort()
    return words
