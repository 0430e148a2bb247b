"""Cross-bifix-free binary codes built from factor-free Dyck words.

Splitting a nonempty factor-free Dyck word as w = w1 w2 forces the valuation
of w1 strictly positive and that of w2 strictly negative, so no nonempty
proper prefix of any word in D can be the suffix of any word in D (itself
included).  Rendered over {0, 1}, the D-words of lengths (2m+3)n therefore
form a non-overlapping code of variable length.
"""

from __future__ import annotations

from bisect import bisect

from . import grammar, words


class CodeSet:
    """A set of binary codewords drawn from D for one slope.

    Immutable; equal when the slope and the words are equal.
    """

    __slots__ = ("m", "words")

    m: int
    words: tuple[str, ...]

    def __init__(self, m: int, words: tuple[str, ...]) -> None:
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "words", words)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"CodeSet is immutable: cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"CodeSet is immutable: cannot delete {name!r}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CodeSet):
            return NotImplemented
        return (self.m, self.words) == (other.m, other.words)

    def __hash__(self) -> int:
        return hash((self.m, self.words))

    def __repr__(self) -> str:
        return f"CodeSet(m={self.m!r}, words={self.words!r})"

    def __reduce__(self) -> tuple:
        return CodeSet, (self.m, self.words)

    @property
    def slope(self) -> str:
        return f"{2 * self.m + 1}/2"

    @property
    def lengths(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for w in self.words:
            out[len(w)] = out.get(len(w), 0) + 1
        return out

    def to_json_obj(self) -> dict:
        return {"slope": self.slope, "m": self.m, "words": list(self.words)}


def build_code(m: int, n_max: int, cap: int | None = None) -> CodeSet:
    """All D-words of lengths (2m+3)n for n = 1..n_max, over the 01 alphabet."""
    words.check_args(m, n_max)
    collected: list[str] = []
    for n in range(1, n_max + 1):
        collected.extend(
            words.to_binary(w) for w in grammar.generate_d_words(m, n, cap=cap)
        )
    return CodeSet(m, tuple(sorted(collected)))


def verify_cross_bifix_free(
    ws: list[str] | tuple[str, ...],
) -> tuple[bool, tuple[str, str, int] | None]:
    """Check that no nonempty proper prefix of any word is a suffix of any word.

    Self-pairs are included, so each word is also checked to be bifix-free.
    Returns (True, None) on success, else (False, violation) with the
    lexicographically first violating triple (w1, w2, overlap length), where
    the length-`overlap` prefix of w1 equals a suffix of w2.

    One dict maps each nonempty proper prefix to the least word that has it,
    so the first violation is the least (least[w2[-k:]], w2, k) over the
    suffixes w2[-k:] that are keys, found in one pass with no ordered re-scan.
    Its keys are charged to the cap first; anything but a list or tuple of str is a ValueError.
    """
    if not isinstance(ws, (list, tuple)) or not set(map(type, ws)) <= {str}:
        raise ValueError("ws must be a list or tuple of str words")
    ordered = sorted(set(ws))
    budget = words.Budget("cross-bifix-free verifier", "prefixes", None)
    lengths = sorted(map(len, ordered))
    for k in range(1, lengths[-1] if lengths else 0):
        budget.charge(len(lengths) - bisect(lengths, k), k)  # one k-letter prefix per longer word
    least = {w[:k]: w for w in reversed(ordered) for k in range(1, len(w))}
    triples = [
        (least[w[-k:]], w, k)
        for w in ordered
        for k in range(1, len(w) + 1)
        if w[-k:] in least
    ]
    return (False, min(triples)) if triples else (True, None)
