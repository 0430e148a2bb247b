"""Grammar expansion: derivation-driven generation and primitive words."""

import hashlib
import itertools
import sys
import time
import tracemalloc
from math import comb

import pytest

from ffdyck import grammar
from ffdyck.counting import count_d, count_u
from ffdyck.grammar import (
    expand_l_words,
    generate_d_words,
    generate_u_words,
    primitive_u_words,
)
from ffdyck.words import (
    Budget,
    CapExceeded,
    is_factor_free,
    period,
    prefix_profile,
    valuation,
)


def test_expand_l_top_index():
    assert expand_l_words(1, 3, 1) == ["a"]
    assert expand_l_words(2, 5, 1) == ["a"]
    assert expand_l_words(1, 3, 2) == []


def test_expand_l_index_bounds():
    with pytest.raises(ValueError):
        expand_l_words(1, 4, 3)
    with pytest.raises(ValueError):
        expand_l_words(1, 0, 3)


def test_expand_l_smallest_words():
    # the shortest L_1 word is a b^m; L_i lengths then step by 2m+3
    assert expand_l_words(1, 1, 2) == ["ab"]
    assert expand_l_words(1, 1, 3) == []
    assert expand_l_words(2, 1, 3) == ["abb"]
    assert expand_l_words(2, 4, 5) == ["aabbb"]
    assert expand_l_words(2, 4, 8) == []


def test_expand_l_membership_conditions():
    # L_i holds factor-free words of valuation i with proper nonempty
    # prefixes strictly above i
    for m, i, length in [(1, 1, 7), (1, 2, 4), (2, 1, 10), (2, 3, 8)]:
        produced = expand_l_words(m, i, length)
        for w in produced:
            prof = prefix_profile(w, m)
            assert prof[-1] == i
            assert all(v > i for v in prof[1:-1])
            assert is_factor_free(w, m)
        assert produced == sorted(produced)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_expand_l_is_complete(m):
    # an exhaustive filter by L_i's definition at every length up to 14: a
    # stride that skips a length where L_i is nonempty loses words here.  At
    # m = 3, L_3 and L_5 are the first to end in b^2 and b outside their cores
    for length in range(1, 15):
        want: dict[int, list[str]] = {i: [] for i in range(1, 2 * m + 2)}
        for letters in itertools.product("ab", repeat=length):
            w = "".join(letters)
            prof = prefix_profile(w, m)
            i = prof[-1]
            if i not in want or min(prof[1:-1], default=i + 1) <= i:
                continue
            if is_factor_free(w, m):
                want[i].append(w)
        for i, ws in want.items():
            assert expand_l_words(m, i, length) == ws, (m, i, length)


def test_generate_u_examples():
    assert generate_u_words(1, 1) == ["abbab"]
    assert generate_u_words(1, 2) == ["aabbabbbab", "abbaabbabb"]
    assert generate_u_words(2, 1) == ["abbbabb", "abbbbab", "babbbab"]
    length14 = generate_u_words(2, 2)
    assert len(length14) == 19
    assert "abbbabbbabbbab" in length14


def test_generate_d_examples():
    assert generate_d_words(1, 1) == ["aabbb", "ababb"]
    assert len(generate_d_words(1, 3)) == 7
    assert len(generate_d_words(2, 1)) == 3


def test_unambiguity_as_count_equality():
    # duplicate derivations would inflate the raw expansion lists; the
    # unambiguity-counts check covers the brute-force sizes
    for m, n in [(1, 5), (1, 6), (2, 4)]:
        gu = generate_u_words(m, n)
        assert len(gu) == len(set(gu)) == count_u(m, n), (m, n)
        gd = generate_d_words(m, n)
        assert len(gd) == len(set(gd)) == count_d(m, n), (m, n)


def test_primitive_words_closed_form_past_the_filter():
    # sizes where the insertion filter took seconds or exceeded the cap
    assert primitive_u_words(5, 5) == ["a" + "bbbbbba" * 9 + "b"]
    got = primitive_u_words(7, 3)
    assert len(got) == comb(10, 4) == 210
    assert got == sorted(got) and all(len(w) == 17 * 3 for w in got)
    with pytest.raises(CapExceeded, match="more than 209 words"):
        primitive_u_words(7, 3, cap=209)


def test_primitive_index_bounds():
    with pytest.raises(ValueError):
        primitive_u_words(2, 3)
    with pytest.raises(ValueError):
        primitive_u_words(2, 0)


@pytest.mark.parametrize(
    "gen, top",
    [pytest.param(generate_u_words, 1, id="U"), pytest.param(generate_d_words, 0, id="D")],
)
def test_top_factors_used_once_are_not_stored(monkeypatch, gen, top):
    # the top rule is L_top = L_{top+1} L_1 b + L_{top+2} b at the top length
    # (L_1 framed for U, L_0 = D); every block's L_1 is fetched before its
    # first factor, so what the memo holds then is what those L_1's stored
    m, n = 2, 5
    length = period(m) * n + (m + 1 if top else 0)
    made = []
    init = grammar._Expander.__init__

    def spy(self, *args):
        init(self, *args)
        made.append(self)

    monkeypatch.setattr(grammar._Expander, "__init__", spy)
    gen(m, n)
    held = grammar._Expander(m, 10**9)
    for right in range(1, length - 1):
        held.l_words(1, right)
    firsts = {(top + 1, left) for left in range(1, length - 1)} | {(top + 2, length - 1)}
    stored = firsts & made[0].memo.keys()
    assert stored <= held.memo.keys(), sorted(stored - held.memo.keys())
    assert (top + 2, length - 1) not in stored


def test_stack_depth_does_not_grow_with_m():
    # L_i(l) needs L_{i+2}(l-1), L_{i+4}(l-2), ...: m steps at m = 150, which
    # took over 200 frames when each step nested in the one before it
    frame, depth = sys._getframe(), 0
    while frame:
        frame, depth = frame.f_back, depth + 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 50)
    try:
        words = generate_d_words(150, 1, cap=10**9)
    finally:
        sys.setrecursionlimit(limit)
    assert len(words) == count_d(150, 1)


def test_l_chain_is_walked_once_per_call(monkeypatch):
    # L_1 at length m+1 is the one word a b^m, at the end of a chain of m
    # links; a walk of the chain for each link it builds made m^2/2 calls
    m, calls = 3000, 0
    real = grammar._Expander.l_words

    def spy(self, *args):
        nonlocal calls
        calls += 1
        return real(self, *args)

    monkeypatch.setattr(grammar._Expander, "l_words", spy)
    assert expand_l_words(m, 1, m + 1) == ["a" + "b" * m]
    assert calls <= 3 * m


def test_large_slope_at_size_one_is_refused_quickly(monkeypatch):
    monkeypatch.delenv("DYCK_BRUTE_CAP", raising=False)
    # the lower bound of m+1 words fits the cap here; the expansion must not
    # spend seconds before its own charges refuse it
    start = time.perf_counter()
    with pytest.raises(CapExceeded):
        generate_d_words(5000, 1)
    assert time.perf_counter() - start < 1.0


def test_expand_l_words_builds_no_tail_without_a_core():
    # no L_1 word has length 8 at these slopes, so b^m is never needed
    assert expand_l_words(10**19, 1, 8) == []
    tracemalloc.start()
    try:
        assert expand_l_words(10**8, 1, 8) == []
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_cap_applies_to_grammar():
    # the shortest L words are charged first, and they average under 10 letters
    with pytest.raises(
        CapExceeded, match=r"^grammar expansion needs more than 10 words,"
    ):
        generate_u_words(1, 12, cap=10)
    # U at (2, 4) materializes 2664 words of 76,860 letters in all, so the
    # letter budget of 10 x the cap binds first
    assert len(generate_u_words(2, 4, cap=7686)) == count_u(2, 4)
    with pytest.raises(
        CapExceeded, match=r"^grammar expansion needs more than 76850 letters,"
    ):
        generate_u_words(2, 4, cap=7685)


def test_lower_bound_is_charged_first_and_never_past_the_count(monkeypatch):
    # a run that fits the cap is never refused by the bound, so no answer
    # changes; a run whose bound is past the cap is refused before expanding
    class FirstCharge(Exception):
        pass

    class Spy(Budget):
        def charge(self, count, length):
            raise FirstCharge(count, length)

    monkeypatch.setattr(grammar, "Budget", Spy)
    for gen, count in ((generate_u_words, count_u), (generate_d_words, count_d)):
        for m in range(1, 9):
            for n in range(1, 13):
                with pytest.raises(FirstCharge) as caught:
                    gen(m, n)
                bound, length = caught.value.args
                assert 1 <= bound <= count(m, n), (gen.__name__, m, n)
                assert length == period(m) * n


@pytest.mark.parametrize(
    "gen, count, m, n, cap",
    [
        pytest.param(generate_d_words, count_d, 2, 4, 4385, id="D-2-4"),
        pytest.param(generate_u_words, count_u, 1, 8, 10463, id="U-1-8"),
        pytest.param(generate_u_words, count_u, 3, 3, 8004, id="U-3-3"),
        pytest.param(generate_u_words, count_u, 2, 5, 91167, id="U-2-5"),
        pytest.param(generate_d_words, count_d, 2, 5, 51375, id="D-2-5"),
    ],
)
def test_cap_threshold(gen, count, m, n, cap):
    # the lowest cap each list fits in: every charge of the expansion adds up
    # to it, and the letter budget binds first at every size
    assert len(gen(m, n, cap=cap)) == count(m, n)
    with pytest.raises(CapExceeded, match=f"more than {10 * (cap - 1)} letters,"):
        gen(m, n, cap=cap - 1)


def test_output_digests_past_the_brute_sizes():
    # sha256 of the newline-joined lists, at sizes the brute force cannot reach
    # and at the bench's grammar-only sizes (1, 10), (2, 6) and (3, 4)
    want = {
        (1, 8): (
            "8be0c12dc2f870e1c6f763f31125f5c94fc8cf70709f135069276789ac08a0f2",
            "07733ea11222157a254cffba6ac1e306742a2d86430ca7ec77e10840d269b68a",
        ),
        (2, 5): (
            "ae4e25bec277b9bae35aa715a67bd125df701eae0b0743a37113932eed552d95",
            "9d4a990fa6210446f5ec2f6178ad37bd1b12dec6b7180250d43f42721f207d4f",
        ),
        (3, 3): (
            "34474f57d5cedd90337ee82d71199eead4ba560ea88da07b7dde9557ded1f947",
            "9a2fdc92d1774beebb7c35c41f3f274d597a0fe6c9e791f998d148aa7d6ede97",
        ),
        (1, 10): (
            "4ca1f616b95b4ac0c471ec4c7179d7f962c12365e32fca094a23409b5aa3688e",
            "2eda85105b5d6c14521a46d5c1d6f44dec09599575d6fe752844aaf2c207d4c9",
        ),
        (2, 6): (
            "27a2b6d838f711b43f70b1c0ee1ead1529f4a4c0ed253432b6be06f0c33def38",
            "f05620ba7f86b7387bcddf0415300f9a25d43eafcd9a3b541e8edff1521ca385",
        ),
        (3, 4): (
            "7f99a2d179b766f0e7cdb85cb3368bc84f8cc68321dc11b6c550d35888d2667e",
            "af1ed1710976d0f9e8ee2c319121cbff61e880c7358ca78a7cfe7d4119530dc5",
        ),
    }
    for (m, n), digests in want.items():
        got = tuple(
            hashlib.sha256("\n".join(gen(m, n)).encode()).hexdigest()
            for gen in (generate_u_words, generate_d_words)
        )
        assert got == digests, (m, n)


def test_default_cap_covers_slope_5_2_at_size_6(monkeypatch):
    monkeypatch.delenv("DYCK_BRUTE_CAP", raising=False)
    assert len(generate_u_words(2, 6)) == count_u(2, 6)
    assert len(generate_d_words(2, 6)) == count_d(2, 6)


def test_generated_words_have_uniform_letter_counts():
    for m, n in [(1, 2), (2, 2)]:
        for w in generate_u_words(m, n) + generate_d_words(m, n):
            assert len(w) == (2 * m + 3) * n
            assert w.count("a") == 2 * n
            assert valuation(w, m) == 0
