"""Words over {a, b} with valuation h(a) = 2m+1, h(b) = -2 (slope (2m+1)/2).

A word is a generalized Dyck word if its total valuation is 0 and every
prefix valuation is >= 0.  It is factor-free if no nonempty proper contiguous
factor is itself a generalized Dyck word ("proper" meaning the factor is not
the whole word).  Two languages are exposed here:

  D: the factor-free Dyck words (plus the empty word), and
  U: the empty word together with the words w of total valuation 0 whose
     prefix valuations all stay strictly above -2m and for which the framed
     word a w b^m is factor-free.

The frame matters: a suffix of w that never dips below its own starting
level can borrow up to m closing b's from the frame to complete a Dyck
factor, so factor-freeness of w alone is too weak for m >= 2 (for m = 1 the
band condition already forbids such suffixes).  Framed factor-freeness also
forces some prefix of w to have negative valuation: otherwise w itself would
be a Dyck factor sitting inside the frame.

Nonempty words of either language have length a multiple of 2m+3, with
exactly 2n letters a and (2m+1)n letters b at length (2m+3)n.

Words are plain Python strings over the alphabet "ab"; an alternate binary
rendering maps a <-> 0, b <-> 1.  All word lists are sorted with a < b.
"""

from __future__ import annotations

import os


DEFAULT_BRUTE_CAP = 10**7
BRUTE_CAP_ENV = "DYCK_BRUTE_CAP"


class CapExceeded(Exception):
    """The candidate space of a brute-force search exceeds the configured cap."""


class MalformedTraversal(Exception):
    """The tree parser lost its place while replaying a word (an internal bug).

    Raised by `trees.word_to_tree`; it lives here so that code catching it
    need not import the tree module.
    """


def brute_cap(override: int | None = None) -> int:
    """Active brute-force candidate cap (override arg, else env var, else default)."""
    if override is not None:
        return override
    raw = os.environ.get(BRUTE_CAP_ENV, str(DEFAULT_BRUTE_CAP))
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{BRUTE_CAP_ENV} must be an integer, got {raw!r}") from None


def check_args(m: int, n: int = 0) -> None:
    """The library's input contract for a slope m and a size n: m >= 1, n >= 0."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if n < 0:
        raise ValueError("n must be >= 0")


def check_word(word: str) -> None:
    """The input contract for a word: letters a and b only."""
    # one C-level pass: every letter outside ASCII encodes as "?"
    if word.encode("ascii", "replace").translate(None, b"ab"):
        stray = next(c for c in word if c not in "ab")
        raise ValueError(f"word must be over {{a, b}}, got letter {stray!r}")


def period(m: int) -> int:
    """Common length unit 2m+3 of nonempty words in U and D."""
    return 2 * m + 3


def to_binary(word: str) -> str:
    """Render an ab-word in the binary alphabet (a -> 0, b -> 1)."""
    return word.translate(str.maketrans("ab", "01"))


def from_binary(word: str) -> str:
    """Read a binary word (0 -> a, 1 -> b) into the ab alphabet."""
    return word.translate(str.maketrans("01", "ab"))


def valuation(word: str, m: int) -> int:
    """Total valuation (#a)*(2m+1) - 2*(#b)."""
    check_args(m)
    check_word(word)
    return (2 * m + 1) * word.count("a") - 2 * word.count("b")


def prefix_profile(word: str, m: int) -> list[int]:
    """Valuations of all prefixes; entry i is the valuation of word[:i]."""
    check_args(m)
    check_word(word)
    rise = 2 * m + 1
    values = [0]
    h = 0
    for c in word:
        h += rise if c == "a" else -2
        values.append(h)
    return values


def is_dyck(word: str, m: int) -> bool:
    """Total valuation 0 and no prefix valuation below 0."""
    check_args(m)
    check_word(word)
    rise = 2 * m + 1
    h = 0
    for c in word:
        h += rise if c == "a" else -2
        if h < 0:
            return False
    return h == 0


def _dyck_factor_start(stack: tuple | None, h: int, j: int) -> tuple[tuple, int | None]:
    """Add prefix level h at index j to a stack of visible levels.

    The stack is an immutable linked tuple (level, index, parent) or None.
    Returns the new stack and the start i of the Dyck factor word[i:j], or
    None when no factor ends at j; on a tie the stack is returned unchanged.
    """
    while stack is not None and stack[0] > h:
        stack = stack[2]
    if stack is not None and stack[0] == h:
        return stack, stack[1]
    return (h, j, stack), None


def is_factor_free(word: str, m: int) -> bool:
    """No nonempty proper factor of the word is a generalized Dyck word.

    The factor word[i:j] is Dyck exactly when profile[i] == profile[j] and no
    profile value in between drops below it.  Scanning j upward, a level
    profile[i] stays visible while no later prefix has dropped below it, so
    the visible levels strictly increase: adding profile[j] pops the levels
    above it, and a tie with the new top is a Dyck factor.  The single tie
    allowed is the whole word (start 0, end len(word)).
    """
    stack = None
    for j, h in enumerate(prefix_profile(word, m)):
        stack, start = _dyck_factor_start(stack, h, j)
        if start is not None and not (start == 0 and j == len(word)):
            return False
    return True


def is_in_d(word: str, m: int) -> bool:
    """Membership in D: factor-free generalized Dyck word (empty word included)."""
    return is_dyck(word, m) and is_factor_free(word, m)


def is_in_u(word: str, m: int) -> bool:
    """Membership in U.

    The empty word belongs to U; a nonempty word does iff it has total
    valuation 0, every prefix valuation stays strictly above -2m, some
    prefix valuation is negative, and the framed word a + word + b^m is
    factor-free.  The frame check subsumes factor-freeness of the word
    itself and additionally rejects words with a suffix that completes to a
    Dyck factor using 1..m of the closing b's.

    One scan of the framed word serves every condition.  The frame's a lifts
    each prefix of the word by 2m+1, so the band reads 1 < h and the dip
    reads min h < 2m+1 on the framed levels h, and the visible-level stack
    of is_factor_free runs alongside.  The framed word ends at level 1, so
    any tie with a visible level is a proper Dyck factor.
    """
    check_args(m)
    check_word(word)
    if not word:
        return True
    rise = 2 * m + 1
    if rise * word.count("a") != 2 * word.count("b"):
        return False
    h = lo = rise
    stack = (rise, 1, (0, 0, None))
    for j, c in enumerate(word, 2):
        h += rise if c == "a" else -2
        if h < lo:
            if h <= 1:
                return False
            lo = h
        stack, start = _dyck_factor_start(stack, h, j)
        if start is not None:
            return False
    if lo == rise:
        return False
    for j in range(len(word) + 2, len(word) + 2 + m):
        h -= 2
        stack, start = _dyck_factor_start(stack, h, j)
        if start is not None:
            return False
    return True


def is_in_u_lattice(word: str, m: int) -> bool:
    """Lattice-path reading of U membership, kept independent of is_in_u.

    Identify a with an east step and b with a north step.  A nonempty word
    is in U iff the resulting path from the origin ends on the main line
    y = ((2m+1)/2) x, touches a lattice point strictly above that line,
    stays strictly below the parallel line shifted up by m, admits no pair
    of lattice points on a common line of slope (2m+1)/2 with the subpath
    between them weakly below that line (other than the full path), and has
    no tail that runs weakly below the slope line through its own starting
    point while finishing strictly below it at an even east-step distance
    (such a tail closes into a Dyck factor once up to m north steps are
    appended).
    """
    check_args(m)
    check_word(word)
    if not word:
        return True
    pts = [(0, 0)]
    x = y = 0
    for c in word:
        if c == "a":
            x += 1
        else:
            y += 1
        pts.append((x, y))
    rise = 2 * m + 1
    if 2 * y != rise * x:
        return False
    if not any(2 * yi > rise * xi for xi, yi in pts):
        return False
    if not all(2 * yi < rise * xi + 2 * m for xi, yi in pts):
        return False
    last = len(pts) - 1
    for i in range(last + 1):
        xi, yi = pts[i]
        for j in range(i + 1, last + 1):
            if (i, j) == (0, last):
                continue
            xj, yj = pts[j]
            if 2 * (yj - yi) != rise * (xj - xi):
                continue
            if all(
                2 * (yk - yi) <= rise * (xk - xi) for xk, yk in pts[i : j + 1]
            ):
                return False
    xe, ye = pts[last]
    for i in range(1, last):
        xi, yi = pts[i]
        if (xe - xi) % 2:
            continue
        if 2 * (ye - yi) >= rise * (xe - xi):
            continue
        if all(2 * (yk - yi) <= rise * (xk - xi) for xk, yk in pts[i:]):
            return False
    return True


def letter_counts(m: int, n: int) -> tuple[int, int]:
    """(#a, #b) of any valuation-0 word of length (2m+3)n."""
    return 2 * n, (2 * m + 1) * n


def _check_cap(length: int, n_a: int, cap: int | None) -> None:
    # the count itself is not printed: past about 4300 digits str() refuses it
    limit = brute_cap(cap)
    # C(length - n_a + i, i) never decreases in i and ends at C(length, n_a),
    # so stop at the first value past the cap instead of computing it in full
    count = 1
    for i in range(1, n_a + 1):
        if count > limit:
            break
        count = count * (length - n_a + i) // i
    if count > limit:
        raise CapExceeded(
            f"C({length},{n_a}) candidates exceed the brute-force cap {limit}"
        )


def _brute_enumerate(m: int, n: int, dyck_mode: bool, cap: int | None) -> list[str]:
    """Depth-first search over {a,b} words of length (2m+3)n.

    Prunes prefixes that leave the admissible valuation band (>= 0 in Dyck
    mode, > -2m in U mode) or that already contain a nonempty Dyck factor
    ending at the current position; such a factor is proper in any completed
    word extending the prefix.  Each node carries its own persistent stack of
    visible levels, so backtracking needs no undo.  Two more prunes read that
    stack; neither cuts a prefix that some member extends:

    - All-b tail.  Once no a is left, the rest is b^rem_b from the top level
      2*rem_b, and it lands on every even level below the top: down to 2 in
      D (the step onto 0 closes the whole word) and down to -2m in U (the
      frame's b^m continues the descent).  A visible level there that is
      even is a tie.  In U the start level 0 stays visible until some prefix
      dips below 0, so the same test demands that dip.
    - Buried pair.  A descent moves down by 2, so a path that falls below
      adjacent visible levels v, v+1 first lands on one of them, a tie.
      Every word falls below both before it ends (to 0 in D, to -2m with the
      frame in U), so the a step that buries such a pair under the new top
      is dead; only a steps bury levels.  D spares the pair (0, 1): only its
      closing step passes it, and that tie is the whole word.

    Every surviving candidate is re-checked with the full membership
    predicate before being emitted.
    """
    check_args(m, n)
    if n == 0:
        return [] if dyck_mode else [""]
    length = period(m) * n
    n_a, n_b = letter_counts(m, n)
    _check_cap(length, n_a, cap)
    rise = 2 * m + 1
    floor = 0 if dyck_mode else 1 - 2 * m
    tail_floor = 2 if dyck_mode else -2 * m
    accept = is_in_d if dyck_mode else is_in_u

    out: list[str] = []
    letters: list[str] = []

    def walk(stack: tuple, rem_a: int, rem_b: int) -> None:
        if rem_a == 0:
            # the all-b tail: no visible even level between the floor and the top
            node = stack[2]
            while node is not None and node[0] >= tail_floor:
                if node[0] % 2 == 0:
                    return
                node = node[2]
            word = "".join(letters) + "b" * rem_b
            if accept(word, m):
                out.append(word)
            return
        top, _, below = stack
        # an a step buries the pair (top - 1, top) if both are visible
        if below is None or below[0] != top - 1 or (dyck_mode and top == 1):
            letters.append("a")
            walk(_dyck_factor_start(stack, top + rise, len(letters))[0], rem_a - 1, rem_b)
            letters.pop()
        if rem_b and top - 2 >= floor:
            letters.append("b")
            after, start = _dyck_factor_start(stack, top - 2, len(letters))
            if start is None:
                walk(after, rem_a, rem_b - 1)
            letters.pop()

    walk((0, 0, None), n_a, n_b)
    return sorted(out)


def brute_enumerate_u(m: int, n: int, cap: int | None = None) -> list[str]:
    """All U-words of length (2m+3)n, sorted, by pruned exhaustive search."""
    return _brute_enumerate(m, n, dyck_mode=False, cap=cap)


def brute_enumerate_d(m: int, n: int, cap: int | None = None) -> list[str]:
    """All nonempty D-words of length (2m+3)n, sorted, by pruned exhaustive search."""
    return _brute_enumerate(m, n, dyck_mode=True, cap=cap)
