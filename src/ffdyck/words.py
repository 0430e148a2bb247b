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

Membership rests on one linear scan (`_run_scan`) that finds a Dyck factor
as a tie between prefix levels, reading the word one b-run at a time: only
a descent can tie, so the scan loops #a + 1 times, not once per letter.  It
keeps the visible levels in one increasing stack.  The brute-force search
keeps the same visible levels split by parity, one frame per letter a, since
its run bounds read each parity's top in O(1): a frame branches on the
length of the b-run before its next a, bounds that length in O(1), and
places the last a inline, so the all-b tail needs no frame of its own.  The
last frame decides each word it completes in O(1) from its two lists
(`_last_frame_ok`), with no scan of the word.

Words are plain Python strings over the alphabet "ab"; an alternate binary
rendering maps a <-> 0, b <-> 1.  All word lists are sorted with a < b.
"""

from __future__ import annotations

import os
from bisect import bisect, bisect_left


DEFAULT_BRUTE_CAP = 10**7
BRUTE_CAP_ENV = "DYCK_BRUTE_CAP"


class CapExceeded(Exception):
    """An enumeration needs more than the brute-force cap allows."""


def brute_cap(override: int | None = None) -> int:
    """Active brute-force cap (override arg, else env var, else default).

    A negative cap is rejected with a ValueError naming where it came from.
    """
    if override is not None:
        check_int("cap", override, 0)
        return override
    raw = os.environ.get(BRUTE_CAP_ENV)
    if raw is None:
        return DEFAULT_BRUTE_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"{BRUTE_CAP_ENV} must be an integer, got {raw!r}") from None
    check_int(BRUTE_CAP_ENV, cap, 0)
    return cap


class Budget:
    """The brute-force cap of one call: the cap in items, 10 x the cap in letters.

    Every enumerator charges what it is about to make: a search its
    candidates, with no letters, as it never builds them; a builder its
    items and the letters they spell.  The items bound the time and the
    letters the memory.  `charge` is the one place that raises CapExceeded.
    """

    def __init__(self, caller: str, items: str, cap: int | None):
        self.caller, self.items = caller, items
        self.cap = self.items_left = brute_cap(cap)
        self.letters_left = 10 * self.cap

    def charge(self, count: int, length: int) -> None:
        """Charge `count` items of `length` letters; name the budget that runs out."""
        self.items_left -= count
        self.letters_left -= count * length
        if self.items_left < 0 or self.letters_left < 0:
            # the count itself is not printed: past about 4300 digits str() refuses it
            spent = (
                f"{self.cap} {self.items}, the"
                if self.items_left < 0
                else f"{10 * self.cap} letters, 10 x the"
            )
            raise CapExceeded(f"{self.caller} needs more than {spent} brute-force cap")


def check_int(name: str, value: int, low: int | None = None, high: int | None = None) -> None:
    """The input contract for an integer: an int, not a bool, in low.. or low..high.

    The caller fixes the bounds; without low there are none.  Out of them the
    message reads `{name} must be >= {low}, got {value}` or
    `{name} must be in {low}..{high}, got {value}`.
    """
    if type(value) is not int:
        raise ValueError(f"{name} must be an int, got {type(value).__name__}")
    if low is not None and (value < low or high is not None and value > high):
        bound = f">= {low}" if high is None else f"in {low}..{high}"
        raise ValueError(f"{name} must be {bound}, got {value}")


def check_args(m: int, n: int = 0) -> None:
    """The library's input contract for a slope m and a size n: ints, m >= 1, n >= 0."""
    check_int("m", m, 1)
    check_int("n", n, 0)


def check_word(word: str, letters: str = "ab") -> None:
    """The input contract for a word: a str over `letters`, with the first stray letter named."""
    if not isinstance(word, str):
        raise ValueError(f"word must be a str, got {type(word).__name__}")
    # one C-level pass: every letter outside ASCII encodes as "?"
    if word.encode("ascii", "replace").translate(None, letters.encode()):
        stray = next(c for c in word if c not in letters)
        raise ValueError(f"word must be over {{{', '.join(letters)}}}, got letter {stray!r}")


def period(m: int) -> int:
    """Common length unit 2m+3 of nonempty words in U and D."""
    return 2 * m + 3


_TO_BINARY = str.maketrans("ab", "01")
_FROM_BINARY = str.maketrans("01", "ab")


def to_binary(word: str) -> str:
    """Render an ab-word in the binary alphabet (a -> 0, b -> 1)."""
    check_word(word)
    return word.translate(_TO_BINARY)


def from_binary(word: str) -> str:
    """Read a binary word (0 -> a, 1 -> b) into the ab alphabet."""
    check_word(word, "01")
    return word.translate(_FROM_BINARY)


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
    return _is_dyck(word, 2 * m + 1)


def _is_dyck(word: str, rise: int) -> bool:
    """`is_dyck` without the contract checks, one b-run at a time.

    A b-run only descends and an a only climbs, so the lowest level of each
    run is its last, and the word dips below 0 iff some run ends there.  The
    word is split 256 letters at a time, so one that dips below 0 early, as
    every nonempty U-word does, costs only its first slices.  A slice may cut
    a run; the cut is at a prefix level all the same.
    """
    h = 0
    for start in range(0, len(word), 256):
        h -= rise  # the slice's first piece follows no a of its own
        for run in word[start : start + 256].split("a"):
            h += rise - 2 * len(run)
            if h < 0:
                return False
    return h == 0


def _run_scan(word: str, rise: int) -> list[int] | None:
    """Scan the prefix levels of a word for a Dyck factor, one b-run at a time.

    The factor word[i:j] is Dyck exactly when the levels at i and j are equal
    and no level in between drops below them.  A level stays visible while no
    later prefix has dropped below it; a prefix level equal to a visible one
    (a tie) closes a Dyck factor.  Returns None at the first tie, else the
    visible levels at the end in one increasing list; the start level 0
    counts as visible from the outset.

    - An a only climbs, above every visible level, so only a b-run can tie.
    - A run of k b's from the top level h lands on h-2, ..., h-2k, all of
      h's parity, and hides every visible level above h-2k (h itself is
      never stored: its first b hides it).  So it pops every visible level
      >= h-2k: one of h's parity is a level it lands on, a tie, and one of
      the other parity is only hidden.  Then h-2k tops the list.
    - The list starts on a sentinel below every reachable level, so the pops
      need no emptiness test; each level is pushed once and popped at most
      once (the all-nearest-smaller-values stack).

    So the loop runs once per b-run, #a + 1 times (2n + 1 for a word of
    length (2m+3)n with 2n letters a), not once per letter.
    """
    stack = [-2 * len(word) - 2]
    h = -rise
    for run in word.split("a"):
        h += rise - 2 * len(run)
        while stack[-1] >= h:
            if not (stack.pop() - h) & 1:
                return None
        stack.append(h)
    return stack[1:]


def is_factor_free(word: str, m: int) -> bool:
    """No nonempty proper factor of the word is a generalized Dyck word.

    Every Dyck factor shows up in `_run_scan` as a tie.  The single tie
    allowed is the whole word (start 0, end len(word)), so the scan stops one
    letter short and the last letter is tested here: an a ties nothing, and a
    b lands on the total valuation v from v+2, the top of the visible levels,
    tying v if it is visible.  Between that top and v at most v+1 is visible,
    so v can only sit one or two places below the top.  That tie is the whole
    word exactly when the word is Dyck, i.e. v is 0 and no level went below
    0, which makes the start 0 the lowest visible level.
    """
    check_args(m)
    check_word(word)
    rise = 2 * m + 1
    stack = _run_scan(word[:-1], rise)
    if stack is None:
        return False
    if not word.endswith("b"):
        return True
    v = rise * word.count("a") - 2 * word.count("b")
    return v not in stack[-3:-1] or (v == 0 and stack[0] == 0)


def is_in_d(word: str, m: int) -> bool:
    """Membership in D: factor-free generalized Dyck word (empty word included).

    A nonempty Dyck word ends with a b onto level 0, which ties the start and
    nothing else: any other level 0 would end a prefix, itself a tie that the
    scan of all but the last letter reports.  So once the word is Dyck, that
    scan alone decides factor-freeness.  The Dyck test comes first: it stops
    at the first run that dips below 0, as every nonempty U-word does.
    """
    check_args(m)
    check_word(word)
    rise = 2 * m + 1
    return _is_dyck(word, rise) and _run_scan(word[:-1], rise) is not None


def is_in_u(word: str, m: int) -> bool:
    """Membership in U.

    The empty word belongs to U; a nonempty word does iff it has total
    valuation 0, every prefix valuation stays strictly above -2m, some
    prefix valuation is negative, and the framed word a + word + b^m is
    factor-free.  The frame check subsumes factor-freeness of the word
    itself and additionally rejects words with a suffix that completes to a
    Dyck factor using 1..m of the closing b's.

    One `_run_scan` of the framed word serves every condition.  The framed
    word ends at level 1, so any tie is a proper Dyck factor.  The frame's a
    lifts each prefix of the word by 2m+1, so the band reads "framed levels
    above 1" and the dip "some framed level below 2m+1".  Without a dip a
    nonempty word would return to 2m+1 over its start, a tie, while the empty
    word, framed as a b^m, ties nothing and is in U.  Inside the word, a
    framed level 0 ties the start unless a lower level came first, and a
    level 1 ties the frame's last level unless a lower one comes later.  So
    without a tie the band fails iff some level is below 0, and as the frame
    ends at 1 that level stays visible: the band holds iff the lowest visible
    level, the first in the scan's list, is the start 0.
    """
    check_args(m)
    check_word(word)
    rise = 2 * m + 1
    if rise * word.count("a") != 2 * word.count("b"):
        return False
    stack = _run_scan("a" + word + "b" * m, rise)
    return stack is not None and stack[0] == 0


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
    rise = 2 * m + 1
    # the end point (#a, #b) must lie on the main line
    if 2 * word.count("b") != rise * word.count("a"):
        return False
    pts = [(0, 0)]
    x = y = 0
    for c in word:
        if c == "a":
            x += 1
        else:
            y += 1
        pts.append((x, y))
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
    check_args(m, n)
    return 2 * n, (2 * m + 1) * n


def _last_frame_ok(
    low: int, same: list[int], other: list[int], j: int, floor: int, tail_floor: int
) -> bool:
    """Membership of a word that the last frame of `_brute_enumerate` completes.

    The frame's prefix ties nothing and stays in the band; the word goes on
    with a b-run down to `low`, the last a and the all-b tail.  `same` and
    `other` are the frame's visible levels below its top, of the top's parity
    and of the other, and `other[:j]` are the levels of `other` below `low`,
    which the run leaves visible.  The word is a member iff

    - the run stays in the band: `low` >= `floor`, which is 0 in D and 1 - 2m
      in U (the tail ends on 0, above both);
    - the run ties nothing: it lands on every level of the top's parity down
      to `low`, so it ties the top of `same` if that is `low` or higher;
    - the tail ties nothing: from `low` + 2m+1 it lands on every level of the
      other parity down to `tail_floor`, which is 2 in D (the step onto 0
      closes the whole word) and -2m in U (the frame's b^m goes on), so it
      ties the top of `other[:j]` if that is `tail_floor` or higher;
    - in U, some prefix dips below 0: the start level 0 stays visible in
      `other` until one does, and the tail passes 0, so this is a tail tie.

    So each candidate costs O(1): no letter is scanned and no list copied.
    """
    return (
        low >= floor
        and not (same and same[-1] >= low)
        and not (j and other[j - 1] >= tail_floor)
    )


def _brute_enumerate(m: int, n: int, dyck_mode: bool, cap: int | None) -> list[str]:
    """Depth-first search over {a,b} words of length (2m+3)n, one frame per a.

    A frame stands at the top level after an a (or at the start) and holds
    the visible levels below it that `_run_scan` would keep on its stack,
    split by parity into increasing lists, `same` of the top's parity and
    `other` of the other parity, so that each parity's top reads in O(1).
    It branches on the length r of the b-run that follows, then on the next
    a, so the search makes one frame per a, not one per letter.  Three
    bounds cut the run; none cuts a prefix that some member extends:

    - The run stays in the band (>= 0 in Dyck mode, > -2m in U mode) and
      closes no Dyck factor: it descends through every level of the top's
      parity, so it first ties the top of `same`.  Both bounds, and the b's
      left, cap r in O(1).  The run hides the levels of `other` above it
      and tops `same` with the level it lands on.
    - Buried pair.  A descent moves down by 2, so a path that falls below
      adjacent visible levels v, v+1 first lands on one of them, a tie.
      Every word falls below both before it ends (to 0 in D, to -2m with the
      frame in U), so the a that buries such a pair under the new top is
      dead: the run may not end just above a kept level of `other`.  D
      spares the pair (0, 1): only its closing step passes it, and that tie
      is the whole word.
    - All-b tail.  The last a is placed inline.  The rest is b^rem_b from
      the even top 2*rem_b, and it lands on every even level below the top:
      down to 2 in D (the step onto 0 closes the whole word) and down to -2m
      in U (the frame's b^m continues the descent).  A visible even level
      there is a tie, and the even levels are the ones `other` keeps, so the
      last run must hide the lowest level of `other` at or above that floor:
      one `bisect_left` bounds r from below.  In U the start level 0 stays
      visible until some prefix dips below 0, so the same bound demands that
      dip.

    The recursion is at most 2n deep.  The search omits U's frame a and its
    start level -(2m+1): it lies below the band, so no in-band level ties it.
    Each candidate of the last frame is decided by `_last_frame_ok`, which
    tests every membership condition on the letters that frame leaves open and
    trusts none of the bounds above; the full predicates `is_in_u`/`is_in_d`
    are not called, and the tests check them on every word emitted.  A frame
    tries shorter runs first, and a shorter run puts an a where a longer one
    puts a b, so the depth-first walk emits the words sorted.
    """
    check_args(m, n)
    if n == 0:
        return [""]
    length = period(m) * n
    n_a, n_b = letter_counts(m, n)
    budget = Budget("brute search", "candidates", cap)
    # charge C(length, n_a) candidates, no letters: C(length - n_a + i, i)
    # never decreases in i, so stop at the first value past the cap
    count = 1
    for i in range(1, n_a + 1):
        if count > budget.cap:
            break
        count = count * (length - n_a + i) // i
    budget.charge(count, 0)
    rise = 2 * m + 1
    floor = 0 if dyck_mode else 1 - 2 * m
    tail_floor = 2 if dyck_mode else -2 * m

    out: list[str] = []
    b_runs = ["b" * k for k in range(n_b + 1)]

    def walk(
        prefix: str, top: int, same: list[int], other: list[int], rem_a: int, rem_b: int
    ) -> None:
        # the longest run: b's left, the floor, and the first tie
        r_max = rem_b if top - 2 * rem_b >= floor else (top - floor) // 2
        if same and top - 2 * r_max <= same[-1]:
            r_max = (top - same[-1]) // 2 - 1
        r_min = 0
        if rem_a == 1:
            # the last run hides every even level the all-b tail would tie
            i = bisect_left(other, tail_floor)
            if i < len(other):
                r_min = (top - other[i] + 1) // 2
        for r in range(r_min, r_max + 1):
            low = top - 2 * r
            j = bisect(other, low)
            # buried pair (low - 1, low)
            if j and other[j - 1] == low - 1 and not (dyck_mode and low == 1):
                continue
            if rem_a > 1:
                kept = other[:j]
                walk(prefix + b_runs[r] + "a", low + rise, kept, same + [low], rem_a - 1, rem_b - r)
            elif _last_frame_ok(low, same, other, j, floor, tail_floor):
                out.append(prefix + b_runs[r] + "a" + b_runs[rem_b - r])

    walk("", 0, [], [], n_a, n_b)
    return out


def brute_enumerate_u(m: int, n: int, cap: int | None = None) -> list[str]:
    """All U-words of length (2m+3)n, sorted, by pruned exhaustive search."""
    return _brute_enumerate(m, n, dyck_mode=False, cap=cap)


def brute_enumerate_d(m: int, n: int, cap: int | None = None) -> list[str]:
    """All D-words of length (2m+3)n, sorted, by pruned exhaustive search."""
    return _brute_enumerate(m, n, dyck_mode=True, cap=cap)
