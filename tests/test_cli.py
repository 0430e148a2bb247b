"""CLI behaviour: outputs, determinism, exit codes."""

import io
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

import ffdyck
from ffdyck import counting, selfcheck
from ffdyck.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_bell(capsys):
    code, out, _ = run_cli(capsys, "count", "--m", "2", "--n", "3", "--language", "U")
    assert code == 0 and out.strip() == "153"


def test_count_series(capsys):
    code, out, _ = run_cli(
        capsys, "count", "--m", "1", "--n", "2", "--language", "D", "--method", "series"
    )
    assert code == 0 and out.strip() == "3"


def test_count_colored(capsys):
    code, out, _ = run_cli(
        capsys, "count", "--m", "2", "--n", "4", "--language", "U", "--method", "colored"
    )
    assert code == 0 and out.strip() == "1390"


@pytest.mark.parametrize("language, method", list(counting.ROUTES))
def test_count_size_zero(capsys, language, method):
    # the empty word is the one word of size 0 in both languages
    argv = f"count --m 2 --n 0 --language {language} --method {method}".split()
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and out == "1\n"


def test_count_routes_agree_at_large_slope(capsys):
    outs = set()
    for method in [m for lang, m in counting.ROUTES if lang == "U" and m != "brute"]:
        argv = f"count --m 100000 --n 2 --language U --method {method}".split()
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        outs.add(out)
    assert len(outs) == 1 and int(outs.pop()) > 0


def test_codes_n_max_bound_message(capsys):
    code, out, err = run_cli(capsys, "codes", "--m", "1", "--n-max", "0")
    assert (code, out) == (2, "")
    assert err == "error: --n-max must be >= 1, got 0\n"


@pytest.mark.parametrize("language", ["D", "U"])
def test_generate_size_zero(capsys, language):
    # the empty word is the one word of size 0 in both languages: one empty line
    code, out, _ = run_cli(capsys, "generate", "--m", "2", "--n", "0", "--language", language)
    assert code == 0 and out == "\n"


def test_text_only_stdout(monkeypatch):
    # a stdout with no binary layer, as in redirect_stdout(io.StringIO())
    out = io.StringIO()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["generate", "--m", "2", "--n", "1", "--language", "U"]) == 0
    assert out.getvalue() == "abbbabb\nabbbbab\nbabbbab\n"


def test_generate_u_default_alphabet(capsys):
    code, out, _ = run_cli(capsys, "generate", "--m", "2", "--n", "1", "--language", "U")
    assert code == 0
    assert out.splitlines() == ["abbbabb", "abbbbab", "babbbab"]


def test_generate_json_format(capsys):
    code, out, _ = run_cli(
        capsys, "generate", "--m", "1", "--n", "1", "--language", "U", "--format", "json"
    )
    assert code == 0
    assert json.loads(out) == ["abbab"]


def test_generate_deterministic(capsys):
    argv = ("generate", "--m", "2", "--n", "2", "--language", "D")
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second
    assert first.splitlines() == sorted(first.splitlines())


def test_verify_report(capsys):
    code, out, _ = run_cli(capsys, "verify", "--m", "1", "--word", "abbab")
    assert code == 0
    report = json.loads(out)
    assert report == {
        "valuation": 0,
        "min_prefix": -1,
        "is_dyck": False,
        "is_factor_free": True,
        "in_U": True,
        "in_D": False,
    }


def test_verify_d_word(capsys):
    _, out, _ = run_cli(capsys, "verify", "--m", "1", "--word", "aabbb")
    report = json.loads(out)
    assert report["in_D"] is True and report["in_U"] is False


def test_verify_binary_alphabet(capsys):
    _, out, _ = run_cli(capsys, "verify", "--m", "1", "--word", "01011", "--alphabet", "01")
    assert json.loads(out)["in_D"] is True


def test_verify_all_b_word(capsys):
    _, out, _ = run_cli(capsys, "verify", "--m", "2", "--word", "bbbbbbb")
    report = json.loads(out)
    assert report["valuation"] == -14 and report["in_U"] is False


def test_tree_encode(capsys):
    code, out, _ = run_cli(capsys, "tree", "--encode", "babbbab")
    assert code == 0
    assert json.loads(out) == {
        "color": "blue",
        "children": [
            {"color": "none", "children": []},
            {"color": "none", "children": []},
        ],
    }


def test_tree_decode_round_trip(capsys):
    _, encoded, _ = run_cli(capsys, "tree", "--encode", "abbbabbbabbbab")
    assert json.loads(encoded)["color"] == "none"
    code, out, _ = run_cli(capsys, "tree", "--decode", encoded.strip())
    assert code == 0 and out.strip() == "abbbabbbabbbab"


def test_tree_encode_rejects_non_u_word(capsys):
    code, _, err = run_cli(capsys, "tree", "--encode", "aabbbbb")
    assert code == 2 and "not a U-word" in err


def test_tree_round_trips_the_empty_word(capsys):
    code, encoded, err = run_cli(capsys, "tree", "--encode", "")
    assert code == 0 and err == ""
    assert encoded == '{"color": "none", "children": []}\n'
    code, out, err = run_cli(capsys, "tree", "--decode", encoded.strip())
    assert code == 0 and err == "" and out == "\n"


def test_tree_decode_rejects_bad_tree(capsys):
    bad = json.dumps({"color": "none", "children": [{"color": "none", "children": []}]})
    code, _, err = run_cli(capsys, "tree", "--decode", bad)
    assert code == 2 and "outdegree" in err


def test_deep_tree_cli_round_trip(capsys):
    # a 1200-deep blue chain: 8400 letters, nested deeper than the recursion limit
    word = "ba" * 1200 + "bbbab" * 1200
    code, encoded, err = run_cli(capsys, "tree", "--encode", word)
    assert code == 0 and err == ""
    assert encoded.startswith('{"color": "blue", "children": [' * 1200)
    code, out, err = run_cli(capsys, "tree", "--decode", encoded.strip())
    assert code == 0 and err == "" and out == word + "\n"


def test_codes_text_output(capsys):
    code, out, _ = run_cli(capsys, "codes", "--m", "1", "--n-max", "1")
    assert code == 0
    assert out == "00111\n01011\n"


def test_codes_json_output_and_verify(capsys):
    code, out, err = run_cli(
        capsys, "codes", "--m", "1", "--n-max", "2", "--format", "json", "--verify"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["slope"] == "3/2"
    assert len(payload["words"]) == 5
    assert "verified" in err


def test_codes_verify_failure_exits_1(capsys, monkeypatch):
    from ffdyck import codes

    violation = ("00111", "00111", 1)
    monkeypatch.setattr(codes, "verify_cross_bifix_free", lambda ws: (False, violation))
    code, out, err = run_cli(capsys, "codes", "--m", "1", "--n-max", "1", "--verify")
    assert code == 1 and out == "00111\n01011\n"
    assert err == f"cross-bifix violation: {violation}\n"


def test_cap_exceeded_exit_code(capsys, monkeypatch):
    monkeypatch.setenv("DYCK_BRUTE_CAP", "1")
    code, _, err = run_cli(
        capsys, "count", "--m", "1", "--n", "2", "--language", "U", "--method", "brute"
    )
    assert code == 3 and "cap" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("count", "--m", "1", "--n", "2", "--language", "U", "--method", "brute"),
        ("generate", "--m", "1", "--n", "1", "--language", "U"),
    ],
)
def test_non_integer_cap_exits_2(capsys, monkeypatch, argv):
    monkeypatch.setenv("DYCK_BRUTE_CAP", "abc")
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.splitlines() == ["error: DYCK_BRUTE_CAP must be an integer, got 'abc'"]


def test_selfcheck_json(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, "selfcheck", "--level", "quick", "--format", "json")
    assert code == 0
    *checks, summary = [json.loads(line) for line in out.splitlines()]
    assert [r["check"] for r in checks] == [name for name, _ in selfcheck.CHECKS]
    assert all(r["status"] == "pass" and r["message"] == "" for r in checks)
    assert all(r["seconds"] >= 0 for r in checks)
    assert summary == {
        "level": "quick",
        "status": "pass",
        "checks": len(checks),
        "failed": 0,
        "seconds": summary["seconds"],
    }
    # a failing check is named with its message, and the exit code is 1
    real = counting.ROUTES["U", "bell"]
    monkeypatch.setitem(
        counting.ROUTES, ("U", "bell"), lambda m, n: real(m, n) + ((m, n) == (2, 1))
    )
    code, out, _ = run_cli(capsys, "selfcheck", "--level", "quick", "--format", "json")
    records = [json.loads(line) for line in out.splitlines()]
    failed = [r for r in records[:-1] if r["status"] == "fail"]
    assert code == 1 and failed and records[-1]["failed"] == len(failed)
    assert any("U counts disagree at m=2, n=1: {'bell': 4," in r["message"] for r in failed)
    assert records[-1]["status"] == "fail"


@pytest.mark.parametrize(
    "argv, env, want",
    [
        pytest.param("count --m 0 --n 1 --language U", {}, 2, id="count-m0"),
        pytest.param("generate --m 0 --n 1 --language D", {}, 2, id="generate-m0"),
        pytest.param("verify --m 0 --word abbab", {}, 2, id="verify-m0"),
        pytest.param("codes --m 0 --n-max 1", {}, 2, id="codes-m0"),
        pytest.param("codes --m 1 --n-max 0", {}, 2, id="codes-n-max0"),
        pytest.param("count --m 2 --n -1 --language D", {}, 2, id="count-n-1"),
        pytest.param(
            "count --m 2 --n 1 --language D --method colored", {}, 2, id="count-colored-d"
        ),
        pytest.param(
            "count --m 2 --n 1 --language U --method foo", {}, 2, id="count-method-foo"
        ),
        pytest.param("generate --m 2 --n -1 --language U", {}, 2, id="generate-n-1"),
        pytest.param("verify --m 1 --word 0a1", {}, 2, id="verify-ab"),
        pytest.param("verify --m 1 --word 0a1 --alphabet 01", {}, 2, id="verify-01"),
        pytest.param("tree --encode 0a1", {}, 2, id="tree-encode"),
        pytest.param("tree --encode " + "ab" * 20000, {}, 2, id="tree-encode-long-non-u"),
        pytest.param("tree --decode nope", {}, 2, id="tree-decode-not-json"),
        pytest.param(
            'tree --decode {"children":[{}]}', {}, 2, id="tree-decode-outdegree-1"
        ),
        pytest.param(
            "count --m 1 --n 3000 --language U --method brute", {}, 3, id="brute-n3000"
        ),
        pytest.param(
            "count --m 1 --n 1000000 --language U --method brute",
            {},
            3,
            id="brute-n1000000",
        ),
        pytest.param(
            "count --m 1 --n 2 --language U --method brute",
            {"DYCK_BRUTE_CAP": "1"},
            3,
            id="brute-past-cap",
        ),
        pytest.param(
            "codes --m 1 --n-max 4 --verify",
            {"DYCK_BRUTE_CAP": "100"},
            3,
            id="codes-verify-past-cap",
        ),
        pytest.param(
            "count --m 1 --n 2 --language D --method brute",
            {"DYCK_BRUTE_CAP": "1.5"},
            2,
            id="cap-not-integer",
        ),
        pytest.param(
            "generate --m 1 --n 1 --language U",
            {"DYCK_BRUTE_CAP": "-1"},
            2,
            id="cap-negative",
        ),
    ],
)
def test_hostile_argv(capsys, monkeypatch, argv, env, want):
    # main returns the exit code itself: any exception, SystemExit included,
    # escaping it fails the test
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    code, out, err = run_cli(capsys, *argv.split())
    assert code == want and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert len(err.encode()) < 200


@pytest.mark.parametrize(
    "argv",
    [
        "generate --m 100000 --n 1 --language U",
        "generate --m 100000 --n 1 --language D",
        "codes --m 100000 --n-max 1",
    ],
)
def test_grammar_refuses_a_large_slope_before_it_expands(capsys, monkeypatch, argv):
    # the output's lower bound is charged first: these ran for over 20 s
    monkeypatch.delenv("DYCK_BRUTE_CAP", raising=False)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv.split())
    assert time.perf_counter() - start < 1
    assert code == 3 and out == ""
    assert err.startswith("error: grammar expansion needs more than ")


def test_grammar_letter_budget_stops_a_huge_generate():
    # At length 351 every word is 351 letters: the word cap alone let this run
    # grow to gigabytes.  The child's address space is capped so that a
    # regression fails here instead of exhausting the machine.
    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    env = {k: v for k, v in os.environ.items() if k != "DYCK_BRUTE_CAP"}
    env["PYTHONPATH"] = str(Path(ffdyck.__file__).resolve().parent.parent)
    argv = "generate --m 2 --n 50 --language U".split()
    done = subprocess.run(
        [sys.executable, "-m", "ffdyck", *argv],
        env=env,
        capture_output=True,
        text=True,
        preexec_fn=limit_memory,
        timeout=10,
    )
    assert done.returncode == 3 and done.stdout == ""
    assert len(done.stderr.splitlines()) == 1 and done.stderr.startswith("error: ")


@pytest.mark.parametrize(
    "argv, lines_read, unbuffered",
    [
        pytest.param("generate --m 2 --n 5 --language U", 1, "", id="generate-head-1"),
        pytest.param(
            "generate --m 2 --n 5 --language U", 1, "1", id="generate-head-1-unbuffered"
        ),
        pytest.param("selfcheck --format json", 0, "", id="selfcheck-closed"),
    ],
)
def test_closed_stdout_exits_141_quietly(argv, lines_read, unbuffered):
    # `| head -1`: the reader closes the pipe after one line.  The generate
    # output (489 kB) outruns the pipe, so its later writes meet the closed
    # end; selfcheck's is small, so the pipe is closed before it writes.
    # Unbuffered, the raw write that meets the close takes part of the bytes
    # and returns, and the rest must not be dropped without an error.
    env = {
        k: v
        for k, v in os.environ.items()
        if k not in ("DYCK_BRUTE_CAP", "PYTHONUNBUFFERED")
    }
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    env["PYTHONPATH"] = str(Path(ffdyck.__file__).resolve().parent.parent)
    with subprocess.Popen(
        [sys.executable, "-m", "ffdyck", *argv.split()],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    ) as proc:
        for _ in range(lines_read):
            assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=30) == 141
    assert err == b""
