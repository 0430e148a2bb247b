"""Cross-bifix-free code construction and verification."""

import json
import pickle
import random
import time
from pathlib import Path

import pytest

from ffdyck.codes import build_code, verify_cross_bifix_free
from ffdyck.words import CapExceeded, from_binary

DATA = Path(__file__).parent / "data"


def reference_words() -> dict[int, set[str]]:
    raw = json.loads((DATA / "slope32_reference_words.json").read_text())
    return {int(k): set(v) for k, v in raw.items()}


def test_build_code_slope32_matches_reference_listings():
    ref = reference_words()
    code = build_code(1, 4)
    by_len: dict[int, set[str]] = {}
    for w in code.words:
        by_len.setdefault(len(w), set()).add(w)
    assert by_len == ref
    assert len(code.words) == 2 + 3 + 7 + 19 == 31


def test_build_code_metadata():
    code = build_code(1, 2)
    assert code.m == 1
    assert code.slope == "3/2"
    assert code.lengths == {5: 2, 10: 3}
    assert code.to_json_obj()["words"] == sorted(code.words)


def test_code_set_is_an_immutable_value():
    first, second = build_code(1, 3), build_code(1, 3)
    assert first is not second and first == second and hash(first) == hash(second)
    assert first != build_code(1, 2) and first != build_code(2, 1)
    assert repr(first) == f"CodeSet(m=1, words={first.words!r})"
    assert pickle.loads(pickle.dumps(first)) == first
    with pytest.raises(AttributeError):
        first.m = 2
    with pytest.raises(AttributeError, match="cannot delete 'm'"):
        del first.m
    assert first.m == 1


def test_codewords_decode_into_d():
    from ffdyck.words import is_in_d

    for m, n_max in [(1, 3), (2, 2)]:
        code = build_code(m, n_max)
        for w in code.words:
            assert set(w) <= {"0", "1"}
            assert is_in_d(from_binary(w), m)


def test_verifier_flags_overlaps():
    ok, violation = verify_cross_bifix_free(["010", "011"])
    assert not ok
    # lexicographically first violation: 010 begins and ends with 0
    assert violation == ("010", "010", 1)


def test_verifier_accepts_small_sets():
    assert verify_cross_bifix_free(["00111", "01011"]) == (True, None)
    assert verify_cross_bifix_free([]) == (True, None)
    assert verify_cross_bifix_free(["00111"]) == (True, None)


def test_verifier_self_pair_bifix():
    ok, violation = verify_cross_bifix_free(["0110"])
    assert not ok
    assert violation == ("0110", "0110", 1)


@pytest.mark.parametrize(
    "ws",
    [
        pytest.param("0011", id="str"),
        pytest.param(None, id="None"),
        pytest.param({"01"}, id="set"),
        pytest.param([1, 2], id="int-items"),
        pytest.param(["01", None], id="None-item"),
        pytest.param([b"01"], id="bytes-item"),
        pytest.param(("01", b"1"), id="bytes-in-tuple"),
    ],
)
def test_verifier_rejects_what_is_not_a_list_of_words(ws):
    with pytest.raises(ValueError, match="ws must be a list or tuple of str words"):
        verify_cross_bifix_free(ws)


def naive_first_overlap(ws):
    ordered = sorted(set(ws))
    for w1 in ordered:
        for w2 in ordered:
            for k in range(1, min(len(w1) - 1, len(w2)) + 1):
                if w1[:k] == w2[-k:]:
                    return False, (w1, w2, k)
    return True, None


def test_verifier_matches_naive_triple_scan():
    rng = random.Random(2018)
    pool = list(build_code(1, 3).words) + list(build_code(2, 2).words)
    verdicts = set()
    for _ in range(300):
        ws = rng.sample(pool, rng.randint(0, 8))
        for _ in range(rng.choice([0, 0, 1, 2])):
            ws.append("".join(rng.choice("01") for _ in range(rng.randint(1, 7))))
        if ws and rng.random() < 0.3:
            ws.append(rng.choice(ws))
        want = naive_first_overlap(ws)
        assert verify_cross_bifix_free(ws) == want, ws
        verdicts.add(want[0])
    assert verdicts == {True, False}


def test_verifier_names_a_late_violation_in_one_pass():
    # "11" overlaps every word ending in 1, yet sorts after all of them; the
    # answer pairs it with the least word, and an ordered scan of all pairs
    # of this 923-word set would take seconds to reach it.
    ws = build_code(2, 4).words
    start = time.perf_counter()
    got = verify_cross_bifix_free(ws + ("11",))
    assert time.perf_counter() - start < 1.0
    assert got == (False, ("11", min(ws), 1))


def test_verifier_charges_its_prefixes_to_the_cap(monkeypatch):
    # a 10^5-letter word has 5 * 10^9 letters of prefixes, past 10 x the
    # default cap: refused before the dict is built
    monkeypatch.delenv("DYCK_BRUTE_CAP", raising=False)
    start = time.perf_counter()
    refused = "^cross-bifix-free verifier needs more than "
    with pytest.raises(CapExceeded, match=refused + "100000000 letters,"):
        verify_cross_bifix_free(["0" + "1" * 99_999])
    assert time.perf_counter() - start < 1.0
    # a word of 22 letters has 21 prefixes of 1 + 2 + ... + 21 = 231 letters
    word = "0" + "1" * 21
    monkeypatch.setenv("DYCK_BRUTE_CAP", "24")
    assert verify_cross_bifix_free([word]) == (True, None)
    for cap, spent in (("23", "230 letters, 10 x the"), ("15", "15 prefixes, the")):
        monkeypatch.setenv("DYCK_BRUTE_CAP", cap)
        with pytest.raises(CapExceeded, match=refused + spent):
            verify_cross_bifix_free([word])
