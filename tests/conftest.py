"""Fixtures shared by the test modules."""

import pytest

from ffdyck.words import brute_enumerate_u


@pytest.fixture
def spliced_u_word():
    """Builder of seeded U-words too large to enumerate."""

    def build(m, n, rng, tall):
        """A U-word of size n: size-1 U-words spliced in one at a time.

        Each letter a of a spliced block opens a slot right after it, and
        each slot takes one later block, which keeps the word in U.  Tall
        words always splice into the newest block, shallow ones into any
        open slot.
        """
        blocks = brute_enumerate_u(m, 1)
        word, free, newest = "", [0], [0]
        for _ in range(n):
            slot = rng.choice(newest if tall else free)
            block = rng.choice(blocks)
            free.remove(slot)
            newest = [slot + i + 1 for i, c in enumerate(block) if c == "a"]
            free = [s + len(block) if s > slot else s for s in free] + newest
            word = word[:slot] + block + word[slot:]
        return word

    return build
