"""Every selfcheck check at full level, one case each, and the runner.

The cross-module invariants live in `selfcheck.CHECKS` and nowhere else:
each runs here as its own case, named by the check, so
`pytest -k lattice-reading` runs that one check and a failure names it.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import ffdyck
from ffdyck import counting, selfcheck, trees, words


@pytest.mark.parametrize(
    "check", [pytest.param(fn, id=name) for name, fn in selfcheck.CHECKS]
)
def test_check_at_full_level(check):
    check("full")


def test_quick_level_passes_and_reports_every_check():
    lines: list[str] = []
    assert selfcheck.run("quick", emit=lines.append)
    passes = [line for line in lines if line.startswith("PASS")]
    assert len(passes) == len(selfcheck.CHECKS)
    assert lines[-1].endswith("all checks passed")


def test_skewed_count_is_caught_and_named(monkeypatch):
    real = counting.ROUTES["U", "bell"]

    def skewed(m: int, n: int) -> int:
        value = real(m, n)
        return value + 1 if (m, n) == (2, 1) else value

    monkeypatch.setitem(counting.ROUTES, ("U", "bell"), skewed)
    lines: list[str] = []
    assert not selfcheck.run("quick", emit=lines.append)
    joined = "\n".join(lines)
    assert "FAIL" in joined
    assert "U counts disagree at m=2, n=1: {'bell': 4," in joined


def test_unknown_level_rejected():
    with pytest.raises(ValueError):
        selfcheck.run("medium")
    with pytest.raises(ValueError, match="unknown selfcheck format 'xml'"):
        selfcheck.run("quick", fmt="xml")


@pytest.mark.parametrize(
    "error", [trees.MalformedTraversal, words.CapExceeded, counting.NonIntegerResult]
)
def test_a_check_that_raises_fails_and_the_rest_run(monkeypatch, error):
    def broken(word):
        raise error("replay lost its place")

    monkeypatch.setattr(trees, "word_to_tree", broken)
    lines: list[str] = []
    assert not selfcheck.run("quick", emit=lines.append)
    failed = [line for line in lines if line.startswith("FAIL")]
    assert len(lines) == len(selfcheck.CHECKS) + 1 and len(failed) == 3
    assert all(line.endswith(f": {error.__name__}: replay lost its place") for line in failed)


def test_zero_binomial_fails_binomial_pascal(monkeypatch):
    # the zero function keeps Pascal's rule; C(n, 0) = C(n, n) = 1 does not
    monkeypatch.setattr(selfcheck, "binomial", lambda n, k: 0)
    with pytest.raises(AssertionError, match=r"^C\(0,0\) or C\(0,0\) is not 1$"):
        selfcheck.check_binomial_pascal("quick")


def test_optimized_python_is_refused():
    # python -O strips the asserts the checks are made of: every check would pass
    env = dict(os.environ, PYTHONPATH=str(Path(ffdyck.__file__).resolve().parent.parent))
    argv = [sys.executable, "-O", "-m", "ffdyck", "selfcheck"]
    done = subprocess.run(argv, env=env, capture_output=True, text=True)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("error: ") and len(done.stderr.splitlines()) == 1
