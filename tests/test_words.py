"""Word predicates, profiles, and the brute-force enumerators."""

import ast
import inspect
import itertools
import random
import textwrap
import time
from pathlib import Path

import pytest

from ffdyck import selfcheck, words
from ffdyck.grammar import expand_l_words, generate_d_words, generate_u_words, primitive_u_words
from ffdyck.trees import enumerate_trees
from ffdyck.words import (
    CapExceeded,
    brute_enumerate_d,
    brute_enumerate_u,
    from_binary,
    is_dyck,
    is_factor_free,
    is_in_d,
    is_in_u,
    is_in_u_lattice,
    prefix_profile,
    to_binary,
    valuation,
)


def all_words(max_len: int):
    for length in range(max_len + 1):
        for tup in itertools.product("ab", repeat=length):
            yield "".join(tup)


def dyck_factor_start(stack, h, j):
    """Add prefix level h at index j to a linked stack (level, index, parent).

    Returns the new stack and the start i of the Dyck factor word[i:j], or
    None when no factor ends at j; on a tie the stack is returned unchanged.
    """
    while stack is not None and stack[0] > h:
        stack = stack[2]
    if stack is not None and stack[0] == h:
        return stack, stack[1]
    return (h, j, stack), None


def replay_factor_free(word, m):
    # reference: one letter at a time over the whole profile, independent of
    # the run-at-a-time `_run_scan`
    stack = None
    for j, h in enumerate(prefix_profile(word, m)):
        stack, start = dyck_factor_start(stack, h, j)
        if start is not None and (start, j) != (0, len(word)):
            return False
    return True


def long_words(spliced_u_word):
    """Seeded words of size 100-300 with verdicts known by construction.

    Yields (m, word, in U, factor-free): shallow and tall U-words, a D-word
    a u b^m a v b^m b, and each of them with a size-1 D-word spliced in.
    """
    rng = random.Random(2018)
    for m in (1, 2, 3):
        tail = "b" * m
        shallow = spliced_u_word(m, rng.randint(100, 300), rng, tall=False)
        tall = spliced_u_word(m, rng.randint(100, 300), rng, tall=True)
        u, v = (spliced_u_word(m, rng.randint(50, 150), rng, tall=False) for _ in "uv")
        d_word = "a" + u + tail + "a" + v + tail + "b"
        for word, in_u in ((shallow, True), (tall, True), (d_word, False)):
            yield m, word, in_u, True
            pos = rng.randrange(len(word) + 1)
            yield m, word[:pos] + rng.choice(brute_enumerate_d(m, 1)) + word[pos:], False, False


def test_valuation():
    assert valuation("", 1) == 0
    assert valuation("abbab", 1) == 0
    assert valuation("aab", 1) == 4
    assert valuation("bbbbbbb", 2) == -14


def test_prefix_profile():
    assert prefix_profile("ab", 1) == [0, 3, 1]
    assert prefix_profile("", 2) == [0]
    assert prefix_profile("abbab", 1) == [0, 3, 1, -1, 2, 0]


def test_profile_steps_property():
    for m in (1, 2):
        for w in all_words(7):
            prof = prefix_profile(w, m)
            assert prof[0] == 0
            assert all(b - a in (2 * m + 1, -2) for a, b in zip(prof, prof[1:]))
            assert prof[-1] == valuation(w, m)


def test_is_dyck():
    assert is_dyck("aabbb", 1)
    assert not is_dyck("abbab", 1)  # prefix abb dips to -1
    assert is_dyck("", 2)


def test_is_factor_free():
    assert is_factor_free("aabbb", 1)
    assert not is_factor_free("aaabbbbb", 1)  # contains the Dyck factor aabbb
    assert is_factor_free("", 1)
    assert is_factor_free("a", 1) and is_factor_free("b", 1)


def test_factor_free_against_naive_scan(spliced_u_word):
    def naive(w, m):
        for i in range(len(w)):
            for j in range(i + 1, len(w) + 1):
                if (i, j) == (0, len(w)):
                    continue
                if is_dyck(w[i:j], m):
                    return False
        return True

    for m in (1, 2, 3):
        for w in all_words(9):
            assert is_factor_free(w, m) == naive(w, m) == replay_factor_free(w, m), (w, m)
    # past what the naive scan can reach, the per-letter replay is the reference
    for m, w, _, factor_free in long_words(spliced_u_word):
        assert is_factor_free(w, m) == replay_factor_free(w, m) == factor_free, (m, len(w))
        profile = prefix_profile(w, m)
        assert is_dyck(w, m) == (min(profile) == 0 == profile[-1]), (m, len(w))
        assert is_in_d(w, m) == (is_dyck(w, m) and factor_free), (m, len(w))


def test_run_scan_keeps_the_reference_stack(spliced_u_word):
    # `_run_scan` returns None exactly where the letter-at-a-time reference
    # ties, else the reference's final stack levels in increasing order: on
    # every word of up to 14 letters (m = 1, 2) and 12 letters (m = 3), walked
    # as a tree of prefixes that share the reference's linked stack, and on
    # the long words
    def levels(stack):
        found = []
        while stack is not None:
            found.append(stack[0])
            stack = stack[2]
        return found[::-1]

    def check(word, m, stack, tied):
        want = None if tied else levels(stack)
        assert words._run_scan(word, 2 * m + 1) == want, (m, word)

    for m, top in ((1, 14), (2, 14), (3, 12)):
        todo = [("", 0, dyck_factor_start(None, 0, 0)[0], False)]
        while todo:
            word, h, stack, tied = todo.pop()
            check(word, m, stack, tied)
            if len(word) < top:
                for letter, step in (("a", 2 * m + 1), ("b", -2)):
                    longer, start = dyck_factor_start(stack, h + step, len(word) + 1)
                    todo.append((word + letter, h + step, longer, tied or start is not None))
    for m, w, _, _ in long_words(spliced_u_word):
        stack, tied = None, False
        for j, h in enumerate(prefix_profile(w, m)):
            stack, start = dyck_factor_start(stack, h, j)
            tied = tied or start is not None
        check(w, m, stack, tied)


def test_is_in_d():
    assert is_in_d("aabbb", 1)
    assert is_in_d("ababb", 1)
    assert not is_in_d("aabbbaabbb", 1)
    assert is_in_d("", 1)


def test_is_in_d_is_dyck_and_factor_free():
    for m in (1, 2, 3):
        for w in all_words(12):
            assert is_in_d(w, m) == (is_dyck(w, m) and is_factor_free(w, m)), (w, m)


def test_is_in_u():
    assert is_in_u("abbab", 1)
    assert is_in_u("babbbab", 2)
    assert is_in_u("abbbbab", 2) and is_in_u("abbbabb", 2)
    assert not is_in_u("aabbb", 1)  # no negative prefix
    assert is_in_u("", 2)


def test_is_in_u_rejects_frame_straddling_suffixes():
    # valuation 0, inside the band, factor-free as a bare word, but a suffix
    # completes to a Dyck factor once the b^m frame is appended
    for w in ("baabbbb", "bababbb", "babbabb"):
        assert valuation(w, 2) == 0
        assert is_factor_free(w, 2)
        assert not is_in_u(w, 2)


def test_one_pass_is_in_u_matches_profile_formulation(spliced_u_word):
    def profile_is_in_u(word, m):
        # reference: the whole prefix profile, then the framed factor check
        if not word:
            return True
        prof = prefix_profile(word, m)
        if prof[-1] != 0 or not -2 * m < min(prof) < 0:
            return False
        return replay_factor_free("a" + word + "b" * m, m)

    for m in (1, 2, 3):
        for w in all_words(12):
            assert is_in_u(w, m) == profile_is_in_u(w, m), (w, m)
    for m, w, in_u, _ in long_words(spliced_u_word):
        assert is_in_u(w, m) == profile_is_in_u(w, m) == in_u, (m, len(w))
    chain = "ba" * 1200 + "bbbab" * 1200  # the word of a 1200-deep blue chain
    assert is_in_u(chain, 2) and profile_is_in_u(chain, 2)
    for i in (0, 1, 2399, 2400, 4500, 8398):
        swapped = chain[:i] + chain[i + 1] + chain[i] + chain[i + 2 :]
        assert is_in_u(swapped, 2) == profile_is_in_u(swapped, 2), i


def test_binary_rendering():
    assert to_binary("aabbb") == "00111"
    assert from_binary("01011") == "ababb"
    assert from_binary(to_binary("abbab")) == "abbab"


def test_binary_rendering_checks_its_alphabet():
    with pytest.raises(ValueError, match="got letter 'c'"):
        to_binary("abc")
    with pytest.raises(ValueError, match=r"^word must be over \{0, 1\}, got letter '2'$"):
        from_binary("012")
    with pytest.raises(ValueError, match="got letter 'b'$"):
        from_binary("b0a1b")
    assert to_binary("") == from_binary("") == ""


def test_brute_enumerate_u_examples():
    assert brute_enumerate_u(1, 1) == ["abbab"]
    assert brute_enumerate_u(1, 2) == ["aabbabbbab", "abbaabbabb"]
    assert brute_enumerate_u(2, 1) == ["abbbabb", "abbbbab", "babbbab"]


def test_brute_enumerate_d_examples():
    assert brute_enumerate_d(1, 1) == ["aabbb", "ababb"]
    assert len(brute_enumerate_d(1, 4)) == 19
    assert len(brute_enumerate_d(2, 2)) == 13


def test_brute_enumerators_match_naive_filter():
    # the pruned search must equal a dumb scan over all letter arrangements
    for m, n in [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 2)]:
        length = (2 * m + 3) * n
        n_a = 2 * n
        naive_u, naive_d = [], []
        for positions in itertools.combinations(range(length), n_a):
            letters = ["b"] * length
            for p in positions:
                letters[p] = "a"
            w = "".join(letters)
            if is_in_u(w, m):
                naive_u.append(w)
            if is_in_d(w, m):
                naive_d.append(w)
        assert brute_enumerate_u(m, n) == sorted(naive_u), (m, n)
        assert brute_enumerate_d(m, n) == sorted(naive_d), (m, n)


@pytest.mark.parametrize(
    "m, n", sorted({*selfcheck.BRUTE_RANGES_FULL, (1, 5), (1, 6), (2, 4), (3, 3), (4, 2)})
)
def test_brute_search_rechecks_only_members(monkeypatch, m, n):
    # the prunes are exact: the final test rejects no candidate, over the
    # selfcheck brute ranges, the bench's brute sizes, and the narrowest and
    # the widest U band, (1, 5) and (4, 2); the full predicates, which the
    # search does not call, accept every word it emits
    verdicts = []

    def spy(*frame, last_frame_ok=words._last_frame_ok):
        verdicts.append(last_frame_ok(*frame))
        return verdicts[-1]

    monkeypatch.setattr(words, "_last_frame_ok", spy)
    # C(30, 12) candidates at (1, 6) are past the default cap
    found_u = brute_enumerate_u(m, n, cap=10**8)
    found_d = brute_enumerate_d(m, n, cap=10**8)
    assert verdicts == [True] * (len(found_u) + len(found_d))
    assert all(is_in_u(w, m) for w in found_u)
    assert all(is_in_d(w, m) for w in found_d)


def frames_reached(m, n, floor):
    """Every prefix ending in an a, with 2n - 1 letters a and at most
    (2m+1)n letters b, that ties nothing and stays at or above `floor`.

    Yields the prefix with its frame: top level, `same` and `other`, the
    scan's visible levels below the top split by parity.  Both properties hold
    for a prefix of each such prefix, so the walk stops at the first one that
    fails.
    """
    rise = 2 * m + 1
    n_a, n_b = words.letter_counts(m, n)
    todo = [""]
    while todo:
        prefix = todo.pop()
        for r in range(n_b - prefix.count("b") + 1):
            longer = prefix + "b" * r + "a"
            stack = words._run_scan(longer, rise)
            if stack is None or min(prefix_profile(longer, m)) < floor:
                continue
            if longer.count("a") < n_a - 1:
                todo.append(longer)
            else:
                top = stack.pop()
                same = [v for v in stack if not (v - top) & 1]
                yield longer, top, same, [v for v in stack if (v - top) & 1]


def test_last_frame_test_equals_the_full_predicate():
    # every word whose prefix before its last b-run and a reaches a frame,
    # at (1, <=4), (2, <=3) and (3, <=2), in both languages
    sizes = [(1, n) for n in range(1, 5)] + [(2, n) for n in range(1, 4)]
    sizes += [(3, 1), (3, 2)]
    seen = set()
    for m, n in sizes:
        n_b = words.letter_counts(m, n)[1]
        for is_in, floor, tail_floor in ((is_in_d, 0, 2), (is_in_u, 1 - 2 * m, -2 * m)):
            for prefix, top, same, other in frames_reached(m, n, floor):
                rem_b = n_b - prefix.count("b")
                for r in range(rem_b + 1):
                    low = top - 2 * r
                    j = words.bisect(other, low)
                    word = prefix + "b" * r + "a" + "b" * (rem_b - r)
                    got = words._last_frame_ok(low, same, other, j, floor, tail_floor)
                    assert got == is_in(word, m), (is_in.__name__, m, word)
                    seen.add(got)
    assert seen == {False, True}


@pytest.mark.parametrize("m, n, frames", [(2, 3, 348), (1, 5, 252)])
def test_brute_search_frames_placing_the_last_a(monkeypatch, m, n, frames):
    # one bisect_left per frame that places the last a: the buried-pair prune
    # keeps this work down (810 and 4,112 such frames without it), while the
    # branches it cuts would die later on a tie and never reach the re-check
    calls = []

    def spy(*args, bisect_left=words.bisect_left):
        calls.append(args)
        return bisect_left(*args)

    monkeypatch.setattr(words, "bisect_left", spy)
    brute_enumerate_u(m, n)
    brute_enumerate_d(m, n)
    assert len(calls) == frames


@pytest.mark.parametrize("m, n", [(1, 7), (4, 3)])
def test_brute_search_equals_grammar_past_the_filter(m, n):
    # sizes past the naive filter above and past the selfcheck's brute ranges;
    # C(35, 14) candidates at (1, 7) is past the default cap, not the search
    assert brute_enumerate_u(m, n, cap=10**10) == generate_u_words(m, n)
    assert brute_enumerate_d(m, n, cap=10**10) == generate_d_words(m, n)


@pytest.mark.parametrize(
    "enumerate_words",
    [generate_d_words, brute_enumerate_d, brute_enumerate_u, primitive_u_words],
)
def test_zero_slope_rejected(enumerate_words):
    with pytest.raises(ValueError, match="m must be >= 1"):
        enumerate_words(0, 1)


@pytest.mark.parametrize(
    "enumerate_words",
    [generate_u_words, generate_d_words, brute_enumerate_d, brute_enumerate_u],
)
def test_negative_size_rejected(enumerate_words):
    with pytest.raises(ValueError, match="n must be >= 0"):
        enumerate_words(2, -1)


@pytest.mark.parametrize(
    "predicate, word, m, message",
    [
        pytest.param(is_in_u, "", 0, "m must be >= 1", id="is_in_u-"),
        pytest.param(is_in_d, "aab", 0, "m must be >= 1", id="is_in_d-aab"),
        pytest.param(is_factor_free, "aab", 0, "m must be >= 1", id="is_factor_free-aab"),
        pytest.param(is_dyck, "aab", 0, "m must be >= 1", id="is_dyck-aab"),
        pytest.param(is_in_u_lattice, "", 0, "m must be >= 1", id="is_in_u_lattice-"),
        pytest.param(valuation, "ab", 0, "m must be >= 1", id="valuation-ab"),
        pytest.param(prefix_profile, "ab", 0, "m must be >= 1", id="prefix_profile-ab"),
        pytest.param(is_in_u, "babbbab", 1.5, "m must be an int, got float", id="is_in_u-float"),
        pytest.param(is_in_d, "aab", "1", "m must be an int, got str", id="is_in_d-str"),
        pytest.param(is_dyck, "aab", None, "m must be an int, got NoneType", id="is_dyck-None"),
        pytest.param(is_in_u, None, 1, "word must be a str, got NoneType", id="is_in_u-word-None"),
        pytest.param(valuation, ["a"], 1, "word must be a str, got list", id="valuation-word-list"),
    ],
)
def test_predicates_reject_zero_slope(predicate, word, m, message):
    with pytest.raises(ValueError, match=message):
        predicate(word, m)


@pytest.mark.parametrize(
    "m, n, message",
    [
        (1.5, -1, "m must be an int, got float"),
        pytest.param(0, "1", "m must be >= 1, got 0", id="0-1-m must be >= 1"),
        (1, "1", "n must be an int, got str"),
        pytest.param(1, -1, "n must be >= 0, got -1", id="1--1-n must be >= 0"),
        # bool is an int subclass, but no slope or size
        (True, 3, "m must be an int, got bool"),
        (1, False, "n must be an int, got bool"),
    ],
)
def test_check_args_order(m, n, message):
    # the type of m, then its bound, then the type of n, then its bound
    with pytest.raises(ValueError, match=f"^{message}$"):
        words.check_args(m, n)


@pytest.mark.parametrize(
    "check",
    [valuation, prefix_profile, is_dyck, is_factor_free, is_in_u, is_in_u_lattice],
)
def test_letters_outside_ab_rejected(check):
    for word, stray in (("abxab", "x"), ("abbaé", "é")):
        with pytest.raises(ValueError, match=f"got letter '{stray}'"):
            check(word, 1)


def test_cap_exceeded():
    with pytest.raises(CapExceeded):
        brute_enumerate_u(1, 10, cap=1000)


def test_cap_check_costs_less_than_the_search():
    # the full candidate counts here have millions of digits
    start = time.perf_counter()
    with pytest.raises(CapExceeded):
        brute_enumerate_u(1, 10**6)
    with pytest.raises(CapExceeded):
        enumerate_trees(10**7)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize(
    "enumerate_, args, message",
    [
        (brute_enumerate_u, (1, 10, 1000), "brute search needs more than 1000 candidates, the"),
        (brute_enumerate_d, (1, 10, 1000), "brute search needs more than 1000 candidates, the"),
        (generate_u_words, (1, 12, 10), "grammar expansion needs more than 10 words, the"),
        (expand_l_words, (1, 1, 62, 100), "grammar expansion needs more than 1000 letters, 10 x the"),
        (primitive_u_words, (40, 20), "building-block construction needs more than 10000000 words, the"),
        (enumerate_trees, (3, 349), "tree enumeration needs more than 3490 letters, 10 x the"),
    ],
)
def test_cap_exceeded_names_the_enumerator_and_its_budget(monkeypatch, enumerate_, args, message):
    monkeypatch.delenv(words.BRUTE_CAP_ENV, raising=False)
    with pytest.raises(CapExceeded, match=f"^{message} brute-force cap$"):
        enumerate_(*args)


def test_only_the_budget_raises_cap_exceeded():
    # one rule for every enumerator: the next one charges a Budget too
    def cap_raises(tree):
        return sum(
            isinstance(node, ast.Raise) and "CapExceeded" in ast.unparse(node)
            for node in ast.walk(tree)
        )

    package = Path(words.__file__).parent
    total = sum(cap_raises(ast.parse(path.read_text())) for path in package.glob("*.py"))
    charge = ast.parse(textwrap.dedent(inspect.getsource(words.Budget.charge)))
    assert total == cap_raises(charge) == 1


def test_value_errors_come_from_the_contract():
    # one input contract: a new range check goes through words.check_int, so
    # the functions that raise ValueError themselves are these alone
    def raisers(module, body, prefix=""):
        for node in body:
            if isinstance(node, ast.ClassDef):
                yield from raisers(module, node.body, f"{node.name}.")
            elif isinstance(node, ast.FunctionDef) and any(
                isinstance(inner, ast.Raise)
                and inner.exc is not None
                and ast.unparse(inner.exc).startswith("ValueError")
                for inner in ast.walk(node)
            ):
                yield f"{module}.{prefix}{node.name}"

    package = Path(words.__file__).parent
    found = {
        name
        for path in package.glob("*.py")
        for name in raisers(path.stem, ast.parse(path.read_text()).body)
    }
    assert found == {
        "words.check_int",
        "words.check_word",
        "words.brute_cap",
        "bell._nonzero_args",
        "codes.verify_cross_bifix_free",
        "trees.ColoredTree.from_json_text",
        "trees._parse_json",
        "cli._cmd_count",
        "selfcheck.run",
    }


def test_cap_env_override(monkeypatch):
    monkeypatch.setenv(words.BRUTE_CAP_ENV, "1")
    with pytest.raises(CapExceeded):
        brute_enumerate_u(1, 1)
    monkeypatch.delenv(words.BRUTE_CAP_ENV)
    assert brute_enumerate_u(1, 1) == ["abbab"]


def test_negative_cap_rejected(monkeypatch):
    # a negative cap used to reach the searches and fail as "cap -1" exceeded
    with pytest.raises(ValueError, match=r"^cap must be >= 0, got -1$"):
        words.brute_cap(-1)
    with pytest.raises(ValueError, match=r"^cap must be >= 0, got -1$"):
        brute_enumerate_u(1, 1, cap=-1)
    monkeypatch.setenv(words.BRUTE_CAP_ENV, "-1")
    with pytest.raises(ValueError, match=r"^DYCK_BRUTE_CAP must be >= 0, got -1$"):
        words.brute_cap()
    assert words.brute_cap(0) == 0

