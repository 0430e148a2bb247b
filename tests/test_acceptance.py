"""Acceptance gate: every release criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  All arithmetic is exact, so every comparison is plain equality; the
stated wall-clock budgets are asserted alongside.

A criterion that is a cross-module invariant runs its `selfcheck` check at
full level by name (criteria 3, 4, 7, 8 and 9) and restates none of it;
criteria 7 and 8 add only the figures no check asserts: the ten-edge word,
the 175 words of lengths 7 to 21 and the 31-word slope-3/2 code.
"""

import json
import os
import subprocess
import sys
import time
from math import comb
from pathlib import Path

import ffdyck
from ffdyck import selfcheck
from ffdyck.cli import main as cli_main
from ffdyck.codes import build_code
from ffdyck.counting import count_d, count_u
from ffdyck.grammar import generate_u_words, primitive_u_words
from ffdyck.trees import tree_to_word, word_to_tree

DATA = Path(__file__).parent / "data"
# The child process imports the same ffdyck as this test, installed or not.
PACKAGE_ROOT = str(Path(ffdyck.__file__).resolve().parent.parent)


class criterion:
    """Times a criterion body, prints its pass/fail line, enforces the budget."""

    def __init__(self, label: str, budget: float | None = None):
        self.label = label
        self.budget = budget

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"{status}: {self.label} ({elapsed:.2f}s)")
        if exc_type is None and self.budget is not None:
            assert elapsed < self.budget, (
                f"{self.label}: took {elapsed:.2f}s, budget {self.budget}s"
            )
        return False


def test_criterion_1_catalan_specialization():
    with criterion("1 slope-3/2 counts are Catalan and Catalan sums", budget=1.0):
        catalan = [comb(2 * n, n) // (n + 1) for n in range(11)]
        assert [count_u(1, n) for n in range(1, 11)] == [
            1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796,
        ]
        for n in range(1, 11):
            assert count_d(1, n) == catalan[n] + catalan[n - 1]


def test_criterion_2_slope52_sequences():
    with criterion("2 slope-5/2 U and D sequences", budget=1.0):
        assert [count_u(2, n) for n in range(1, 8)] == [
            3, 19, 153, 1390, 13581, 139315, 1479855,
        ]
        assert [count_d(2, n) for n in range(1, 8)] == [
            3, 13, 94, 810, 7667, 76998, 805560,
        ]  # OEIS A274052


def test_criterion_3_three_way_oracle_agreement():
    with criterion("3 Bell = series = colored DP, and D vs series", budget=10.0):
        selfcheck.check_three_way_u_counts("full")
        selfcheck.check_d_counts_vs_series("full")


def test_criterion_4_brute_force_ground_truth():
    with criterion("4 brute-force counts match closed forms", budget=60.0):
        selfcheck.check_brute_counts("full")


def test_criterion_5_exact_word_listings(capsys):
    listings: dict[int, list[str]] = {}
    for n in (1, 2, 3, 4):
        code = cli_main(
            ["generate", "--m", "1", "--n", str(n), "--language", "D",
             "--alphabet", "01"]
        )
        out = capsys.readouterr().out
        assert code == 0
        listings[5 * n] = out.split()
    with capsys.disabled():
        with criterion("5 slope-3/2 D listings reproduced bit-exactly"):
            reference = {
                int(k): set(v)
                for k, v in json.loads(
                    (DATA / "slope32_reference_words.json").read_text()
                ).items()
            }
            sizes = {5: 2, 10: 3, 15: 7, 20: 19}
            for length, got in listings.items():
                assert len(got) == sizes[length]
                assert set(got) == reference[length], length


def test_criterion_6_building_blocks():
    with criterion("6 primitive building blocks per slope"):
        assert len(primitive_u_words(1, 1)) == 1
        assert primitive_u_words(2, 1) == ["abbbabb", "abbbbab", "babbbab"]
        assert primitive_u_words(2, 2) == ["abbbabbbabbbab"]
        lens = [len(primitive_u_words(3, j)) for j in (1, 2, 3)]
        assert lens == [6, 5, 1]
        table = set((DATA / "slope72_building_blocks.txt").read_text().split())
        union = {
            w for j in (1, 2, 3) for w in primitive_u_words(3, j)
        }
        assert union == table


def test_criterion_7_tree_bijection():
    with criterion("7 slope-5/2 tree bijection round-trips", budget=10.0):
        selfcheck.check_tree_roundtrip_words("full")
        selfcheck.check_tree_counts("full")
        assert sum(len(generate_u_words(2, n)) for n in (1, 2, 3)) == 175
        ten_edge_word = "abbbbaabbbabbbaababbbabbbbabbbbbabb"
        tree = word_to_tree(ten_edge_word)
        assert tree.edge_count == 10
        assert tree_to_word(tree) == ten_edge_word


def test_criterion_8_cross_bifix_free():
    with criterion("8 codes are cross-bifix-free with split valuations", budget=5.0):
        selfcheck.check_cross_bifix_codes("full")
        assert len(build_code(1, 4).words) == 31


def test_criterion_9_series_identities():
    with criterion("9 closed series relations to tau-order 40", budget=5.0):
        selfcheck.check_l_series_closed_relations("full")
        selfcheck.check_l1_factorization("full")


def test_criterion_10_full_selfcheck_command():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")]))
    with criterion("10 selfcheck --level full passes with zero failures"):
        result = subprocess.run(
            [sys.executable, "-m", "ffdyck", "selfcheck", "--level", "full"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert "FAIL" not in result.stdout
        assert "all checks passed" in result.stdout
