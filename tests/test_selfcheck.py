"""Every selfcheck check at full level, one case each, and the runner.

The cross-module invariants live in `selfcheck.CHECKS` and nowhere else:
each runs here as its own case, named by the check, so
`pytest -k lattice-reading` runs that one check and a failure names it.
"""

import pytest

from ffdyck import counting, selfcheck


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
