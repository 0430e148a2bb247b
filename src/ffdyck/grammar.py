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
produced here: expand L_1 and strip the frame.  Expansion is length-indexed
and memoized per call; duplicate derivations are NOT collapsed, so an
ambiguity bug would surface as a count mismatch in the tests rather than
being silently hidden by a set union.
"""

from __future__ import annotations

from .words import CapExceeded, brute_cap, check_args, period


def _a_count(m: int, i: int, length: int) -> int | None:
    """Number of a's in any length-`length` word of valuation i, if integral."""
    num = i + 2 * length
    den = 2 * m + 3
    if num % den:
        return None
    n_a = num // den
    if not 0 <= n_a <= length:
        return None
    return n_a


class _Expander:
    """Per-call memo table for length-indexed expansion of the L system.

    Expansion work is proportional to the words it materializes, so the
    brute-force cap is charged against emitted words rather than against the
    C(length, #a) candidate bound used by the exhaustive searches.  Memory is
    proportional to their letters, which a second budget of 10 x the cap
    bounds (at the default cap, `generate --m 2 --n 6` holds 11.0 M letters).
    Each batch of words is charged before it is built, so no memo entry can
    overshoot either budget.
    """

    def __init__(self, m: int, cap: int):
        self.m = m
        self.words_left = cap
        self.letters_left = 10 * cap
        self.memo: dict[tuple[int, int], tuple[str, ...]] = {}

    def charge(self, count: int, length: int) -> None:
        """Charge `count` words of `length` letters, about to be built."""
        self.words_left -= count
        self.letters_left -= count * length
        if self.words_left < 0 or self.letters_left < 0:
            raise CapExceeded("grammar expansion exceeds the brute-force cap")

    def l_words(self, i: int, length: int) -> tuple[str, ...]:
        if length < 1:
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
            words = tuple("a" + w + "b" for w in inner)
        else:
            acc: list[str] = []
            for left_len in range(1, length - 1):
                left = self.l_words(i + 1, left_len)
                if not left:
                    continue
                right = self.l_words(1, length - 1 - left_len)
                self.charge(len(left) * len(right), length)
                for u in left:
                    for v in right:
                        acc.append(u + v + "b")
            shorter = self.l_words(i + 2, length - 1)
            self.charge(len(shorter), length)
            acc.extend(u + "b" for u in shorter)
            words = tuple(acc)
        self.memo[key] = words
        return words


def expand_l_words(m: int, i: int, length: int, cap: int | None = None) -> list[str]:
    """All words of the given length derivable from L_i, sorted."""
    check_args(m, length)
    if not 1 <= i <= 2 * m + 1:
        raise ValueError(f"index i must lie in 1..{2 * m + 1}, got {i}")
    if _a_count(m, i, length) is None:
        return []
    return sorted(_Expander(m, brute_cap(cap)).l_words(i, length))


def generate_u_words(m: int, n: int, cap: int | None = None) -> list[str]:
    """All U-words of length (2m+3)n, from L_1 words with the a/b^m frame stripped."""
    check_args(m, n)
    if n == 0:
        return [""]
    framed = expand_l_words(m, 1, period(m) * n + m + 1, cap=cap)
    tail = "b" * m
    words = []
    for w in framed:
        if not (w.startswith("a") and w.endswith(tail)):
            raise AssertionError(f"L_1 word lacks the a..b^{m} frame: {w}")
        words.append(w[1 : len(w) - m])
    return sorted(words)


def generate_d_words(m: int, n: int, cap: int | None = None) -> list[str]:
    """All nonempty D-words of length (2m+3)n via D = L_1 L_1 b + L_2 b, sorted.

    That rule is the general L_i rule at i = 0, so D expands as L_0.
    """
    check_args(m, n)
    if n == 0:
        return []
    return sorted(_Expander(m, brute_cap(cap)).l_words(0, period(m) * n))


def primitive_u_words(m: int, j: int, cap: int | None = None) -> list[str]:
    """U-words of length (2m+3)j that are not an insertion of a smaller one.

    Longer U-words arise by splicing a nonempty U-word into a host U-word
    right after one of the host's letters a (every derivation slot of the
    grammar sits directly after an a).  A word w is therefore discarded when
    w = p + u + s with p ending in a, u a nonempty U-word, and p + s again a
    nonempty U-word; what survives is the set of building blocks.  There are
    C(m+j, m-j) of them at length (2m+3)j.
    """
    check_args(m)
    if not 1 <= j <= m:
        raise ValueError(f"primitive words exist for 1 <= j <= m, got j={j}")
    per = period(m)
    candidates = generate_u_words(m, j, cap=cap)
    shorter: dict[int, set[str]] = {
        k: set(generate_u_words(m, k, cap=cap)) for k in range(1, j)
    }

    def is_insertion(w: str) -> bool:
        for k in range(1, j):
            inner_len = per * k
            hosts = shorter[j - k]
            for start in range(1, len(w) - inner_len + 1):
                if w[start - 1] != "a":
                    continue
                if w[start : start + inner_len] in shorter[k]:
                    if w[:start] + w[start + inner_len :] in hosts:
                        return True
        return False

    return [w for w in candidates if not is_insertion(w)]
