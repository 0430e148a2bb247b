"""Seeded inputs: request streams and words whose verdicts are known by construction.

Members of U are built from the unambiguous grammar the paper gives for L_1,

    L_(2m+1) = a,   L_(2m) = a L_1 b,   L_i = L_(i+1) L_1 b + L_(i+2) b,

read as templates: expanding L_1 down to terminals while keeping every
right-hand L_1 as a hole yields a finite list of templates, and an L_1 word
is a tree whose nodes are templates and whose children fill the holes.  Every
L_1 word is a u b^m with u in U, so stripping that frame gives a U-word.  A
tree grows by replacing a leaf (the template "a b^m") with a larger template,
which adds (2m+3) j letters for some 1 <= j <= m; growing a random leaf gives
shallow words with low profiles, growing the newest leaf gives deep chains
with tall profiles.  D-words are L_1 L_1 b.  Splicing a nonempty D-word into a
member leaves a proper Dyck factor, so the result is in neither U nor D.
"""

from __future__ import annotations

import random
from functools import lru_cache

HOLE = None


@lru_cache(maxsize=None)
def templates(m: int) -> tuple[tuple, ...]:
    """Right-hand sides of L_1 with each derived L_1 left as a HOLE."""

    def expand(i: int) -> list[tuple]:
        if i == 2 * m + 1:
            return [("a",)]
        if i == 2 * m:
            return [("a", HOLE, "b")]
        return [t + (HOLE, "b") for t in expand(i + 1)] + [t + ("b",) for t in expand(i + 2)]

    return tuple(expand(1))


def _growth(m: int, tpl: tuple) -> int:
    """Size units (one unit = 2m+3 letters) added by replacing a leaf with tpl."""
    holes = tpl.count(HOLE)
    letters = len(tpl) - holes
    added = letters + holes * (m + 1) - (m + 1)
    units, rem = divmod(added, 2 * m + 3)
    if rem:
        raise ArithmeticError(f"template {tpl} changes the length by {added} letters")
    return units


class _Tree:
    """L_1 derivation tree; node 0 is the root, leaves use the empty template."""

    def __init__(self, m: int):
        self.leaf = ("a",) + ("b",) * m
        self.tpl: list[tuple] = [self.leaf]
        self.kids: list[list[int]] = [[]]
        self.depth: list[int] = [0]

    def grow(self, node: int, tpl: tuple) -> list[int]:
        self.tpl[node] = tpl
        new = []
        for _ in range(tpl.count(HOLE)):
            self.tpl.append(self.leaf)
            self.kids.append([])
            self.depth.append(self.depth[node] + 1)
            new.append(len(self.tpl) - 1)
        self.kids[node] = new
        return new

    def l1_word(self) -> str:
        """Iterative left-to-right expansion (deep chains exceed the recursion limit)."""
        out: list[str] = []
        stack = [(0, 0, 0)]  # (node, next token, next hole)
        while stack:
            node, pos, hole = stack.pop()
            tpl = self.tpl[node]
            while pos < len(tpl):
                tok = tpl[pos]
                pos += 1
                if tok is HOLE:
                    stack.append((node, pos, hole + 1))
                    stack.append((self.kids[node][hole], 0, 0))
                    break
                out.append(tok)
        return "".join(out)


def u_word(m: int, n: int, rng: random.Random, tall: bool) -> tuple[str, int]:
    """A U-word of length (2m+3)n and the depth of its derivation tree.

    Shallow words grow a uniformly chosen leaf with a random template each
    step.  Tall words always grow the last child of the node grown last,
    cycling through the templates, which makes one chain whose depth grows
    linearly with n; they depend on n alone, so their quadratic scan cost
    does not vary with the seed.
    """
    options = [(t, _growth(m, t)) for t in templates(m) if t.count(HOLE)]
    tree = _Tree(m)
    leaves = [0]
    node = 0
    size = 0
    step = 0
    while size < n:
        fits = [(t, g) for t, g in options if g <= n - size]
        tpl, g = fits[step % len(fits)] if tall else rng.choice(fits)
        step += 1
        if not tall:
            node = leaves.pop(rng.randrange(len(leaves)))
        new = tree.grow(node, tpl)
        if tall:
            node = new[-1]
        else:
            leaves.extend(new)
        size += g
    word = tree.l1_word()
    return word[1 : len(word) - m], max(tree.depth)


def frame(m: int, u: str) -> str:
    """The L_1 word a u b^m."""
    return "a" + u + "b" * m


def d_word(m: int, u1: str, u2: str) -> str:
    """The D-word L_1 L_1 b built from two U-words."""
    return frame(m, u1) + frame(m, u2) + "b"


def splice(word: str, insert: str, pos: int) -> str:
    """Insert a word before position pos (0 <= pos <= len(word))."""
    return word[:pos] + insert + word[pos:]


def stratified(
    rng: random.Random, count: int, lo: int, hi: int, skew: float, jitter: float = 0.1
) -> list[int]:
    """count integers in [lo, hi], one per equal-probability stratum of x**skew.

    Stratum i draws x uniformly from the middle `jitter` share of
    [i/count, (i+1)/count); the value is lo + (hi - lo) * x**skew.  The seed
    moves each value inside its stratum while the multiset keeps the same
    shape, so the total work of a batch barely depends on the seed.
    """
    out = []
    for i in range(count):
        x = (i + 0.5 + jitter * (rng.random() - 0.5)) / count
        out.append(lo + round((hi - lo) * x**skew))
    return out
