"""The four workloads as seeded batches of ops, each op gated by an independent check.

An op is one request: a call into the library (or, for `cli`, one child
process) plus a check of its result against an answer that does not come
from the route under test.  Calls go through module attributes at call time,
so the tracer's wrappers see them.
"""

from __future__ import annotations

import json
import os
import random
import re
import subprocess
import sys
from math import factorial

import inputs
import reference

# Brute-force and grammar caps are passed explicitly so the environment
# cannot change the work.
CAP = 10**8


class Op:
    __slots__ = ("kind", "call", "check", "props", "tolerate", "pair")

    def __init__(self, kind, call, check, props=None, tolerate=(), pair=None):
        self.kind = kind
        self.call = call
        self.check = check
        self.props = props or {}
        # Exceptions of a known defect: counted as failed, not as wrong.
        self.tolerate = tolerate
        # Ops sharing a pair key must return equal results.
        self.pair = pair


class Workload:
    def __init__(self, name: str, ops: list[Op], properties: dict, child_flags: list[str] | None = None):
        self.name = name
        self.ops = ops
        self.properties = properties
        # Interpreter flags for child processes; the runner sets them per batch.
        self.child_flags = child_flags if child_flags is not None else []


def _shares(values: list, weights: list[int] | None = None) -> dict:
    total = sum(weights) if weights else len(values)
    out: dict = {}
    for i, v in enumerate(values):
        out[v] = out.get(v, 0) + (weights[i] if weights else 1)
    return {k: round(c / total, 4) for k, c in sorted(out.items())}


def _edges(tree) -> int:
    """Edge count of a ColoredTree without recursion."""
    total, stack = 0, [tree]
    while stack:
        node = stack.pop()
        total += len(node.children)
        stack.extend(node.children)
    return total


# ---------------------------------------------------------------- count


def build_count(F, rng: random.Random, root: str) -> Workload:
    """Exact-count requests over every route, skewed toward small n."""
    u_ref = {m: [reference.count("U", m, n) for n in range(401)] for m in (1, 2, 3)}
    d_ref = {m: [reference.count("D", m, n) for n in range(81)] for m in (1, 2, 3)}
    stirling = reference.stirling2_table(40)
    ops: list[Op] = []

    def add(kind, n, m, call, want):
        ops.append(Op(kind, call, lambda got, want=want: got == want, {"route": kind, "n": n, "m": m}))

    # (route, strata, lowest n, highest n, skew).  Stratum i runs at m = 1 + i % 3
    # and n sits at the stratum's centre: a unit change of a small n moves an
    # op's cost by tens of percent, so the seed sets only the order and the
    # L_i index, and the cost profile is the same on every seed.
    plan = [
        ("bell_u", 9, 1, 80, 2.0),
        ("bell_d", 9, 1, 60, 2.0),
        ("series_u", 9, 1, 80, 1.5),
        ("series_d", 9, 1, 80, 1.5),
        ("colored", 12, 1, 400, 2.0),
    ]
    for route, strata, lo, hi, skew in plan:
        for i, n in enumerate(inputs.stratified(rng, strata, lo, hi, skew, jitter=0.0)):
            m = 1 + i % 3
            if route == "bell_u":
                add(route, n, m, lambda m=m, n=n: F.counting.count_u(m, n), u_ref[m][n])
            elif route == "bell_d":
                add(route, n, m, lambda m=m, n=n: F.counting.count_d(m, n), d_ref[m][n])
            elif route == "series_u":
                add(route, n, m, lambda m=m, n=n: list(F.series.u_series(m, n)), u_ref[m][: n + 1])
            elif route == "series_d":
                add(route, n, m, lambda m=m, n=n: list(F.series.d_series(m, n)), d_ref[m][: n + 1])
            else:
                add(route, n, m, lambda m=m, n=n: F.counting.count_colored_dyck(m, n), u_ref[m][n])
    for order in inputs.stratified(rng, 4, 10, 240, 1.5, jitter=0.0):
        for m in (1, 2, 3):
            i = rng.randint(1, 2 * m + 1)
            want = reference.l_series(m, i, order)
            add("series_l", order // (2 * m + 3), m,
                lambda m=m, i=i, o=order: list(F.series.l_series(m, i, o)), want)
    for n in inputs.stratified(rng, 12, 1, 400, 1.0, jitter=0.0):
        add("slope52", n, 2, lambda n=n: F.counting.count_u_slope52(n), u_ref[2][n])
    # The cost of B_{n,k} depends on k as much as on n, so k is a fixed share of n.
    for n in inputs.stratified(rng, 4, 2, 60, 1.5, jitter=0.0):
        for m in (1, 2, 3):
            k = max(1, round(n * m / 4))
            xs = [factorial(j) * F.counting.ascent_weight(m, j) for j in range(1, n + 1)]
            add("bell_partial", n, m, lambda n=n, k=k, xs=xs: F.bell.bell_partial(n, k, xs),
                reference.bell_weighted(m, n, k))
    for i, n in enumerate(inputs.stratified(rng, 6, 2, 40, 1.0, jitter=0.0)):
        k = max(1, round(n * (1 + i % 3) / 4))
        add("bell_partial", n, 0, lambda n=n, k=k: F.bell.bell_partial(n, k, [1] * n), stirling[n][k])
    rng.shuffle(ops)

    buckets = [(1, 10), (11, 20), (21, 40), (41, 80), (81, 160), (161, 400)]
    hist = {f"{a}-{b}": sum(1 for op in ops if a <= op.props["n"] <= b) / len(ops) for a, b in buckets}
    props = {
        "route_share": _shares([op.kind for op in ops]),
        "n_histogram": {k: round(v, 4) for k, v in hist.items()},
    }
    return Workload("count", ops, props)


# ------------------------------------------------------------ enumerate

GRAMMAR_ONLY = [(1, 10), (2, 6), (3, 4)]
PAIRED = [(1, 4), (1, 6), (2, 3), (2, 4), (3, 2), (3, 3)]
CODES = [(1, 5), (2, 3), (3, 3), (2, 4)]
CODE_SAMPLE = 400
ROUNDTRIP_CHUNK = 100


def build_enumerate(F, rng: random.Random, root: str) -> Workload:
    """Requests that build whole languages: grammar, brute search, codes, trees."""
    ops: list[Op] = []
    sizes = {"grammar": 0, "brute": 0, "codes": 0, "roundtrip": 0}

    def check_list(lang: str, m: int, n: int, sample_seed: int):
        want = reference.count(lang, m, n)
        is_member = F.words.is_in_u if lang == "U" else F.words.is_in_d

        def check(got) -> bool:
            if len(got) != want or any(a >= b for a, b in zip(got, got[1:])):
                return False
            if lang == "U" and len(got) != F.counting.count_colored_dyck(m, n):
                return False
            picks = random.Random(sample_seed).sample(got, min(64, len(got)))
            return all(len(w) == (2 * m + 3) * n and is_member(w, m) for w in picks)

        return check

    for m, n in GRAMMAR_ONLY + PAIRED:
        for lang in ("U", "D"):
            fname = "generate_u_words" if lang == "U" else "generate_d_words"
            pair = (lang, m, n) if (m, n) in PAIRED else None
            ops.append(Op(
                "grammar", lambda f=fname, m=m, n=n: getattr(F.grammar, f)(m, n, cap=CAP),
                check_list(lang, m, n, rng.randrange(2**32)),
                {"m": m, "n": n, "lang": lang, "words": reference.count(lang, m, n)}, pair=pair))
            sizes["grammar"] += reference.count(lang, m, n)
            if pair:
                fname = "brute_enumerate_u" if lang == "U" else "brute_enumerate_d"
                ops.append(Op(
                    "brute", lambda f=fname, m=m, n=n: getattr(F.words, f)(m, n, cap=CAP),
                    check_list(lang, m, n, rng.randrange(2**32)),
                    {"m": m, "n": n, "lang": lang, "words": reference.count(lang, m, n)}, pair=pair))
                sizes["brute"] += reference.count(lang, m, n)

    for m, n_max in CODES:
        want = {(2 * m + 3) * n: reference.count("D", m, n) for n in range(1, n_max + 1)}
        sample_seed = rng.randrange(2**32)

        def codes_call(m=m, n_max=n_max, sample_seed=sample_seed):
            code = F.codes.build_code(m, n_max, cap=CAP)
            words = list(code.words)
            sample = random.Random(sample_seed).sample(words, min(CODE_SAMPLE, len(words)))
            return code, F.codes.verify_cross_bifix_free(sample)

        def codes_check(got, m=m, want=want, sample_seed=sample_seed) -> bool:
            code, verdict = got
            ws = code.words
            if verdict != (True, None) or code.m != m or code.lengths != want:
                return False
            if any(a >= b for a, b in zip(ws, ws[1:])):
                return False
            picks = random.Random(sample_seed).sample(ws, min(64, len(ws)))
            return all(F.words.is_in_d(F.words.from_binary(w), m) for w in picks)

        total = sum(want.values())
        ops.append(Op("codes", codes_call, codes_check,
                      {"m": m, "n": n_max, "words": total, "verified": min(CODE_SAMPLE, total)}))
        sizes["codes"] += total

    # Round trips over all of U at m=2, n <= 4, one request per chunk of
    # about ROUNDTRIP_CHUNK words.
    for n in range(1, 5):
        all_words = F.grammar.generate_u_words(2, n, cap=CAP)
        for start in range(0, len(all_words), ROUNDTRIP_CHUNK):
            ws = all_words[start : start + ROUNDTRIP_CHUNK]

            def roundtrip_call(ws=ws):
                out = []
                for w in ws:
                    tree = F.trees.word_to_tree(w)
                    out.append((tree, F.trees.tree_to_word(tree)))
                return out

            def roundtrip_check(got, ws=ws, n=n) -> bool:
                return len(got) == len(ws) and all(
                    back == w and _edges(tree) == 2 * n for w, (tree, back) in zip(ws, got)
                )

            ops.append(Op("roundtrip", roundtrip_call, roundtrip_check,
                          {"m": 2, "n": n, "words": len(ws), "cls": "shallow"}))
            sizes["roundtrip"] += len(ws)

    rng.shuffle(ops)
    props = {
        "request_share": _shares([op.kind for op in ops]),
        "words_materialized_per_batch": sizes,
    }
    return Workload("enumerate", ops, props)


# ----------------------------------------------------------- membership

DEEP = 450  # derivation depth from which slope-5/2 round trips may hit the recursion limit


def build_membership(F, rng: random.Random, root: str) -> Workload:
    """Few long words, shallow and tall, members and spliced non-members."""
    ops: list[Op] = []
    entries = []  # (class, m, word, depth, verdicts {fn: expected})

    def member_u(cls, m, w, depth):
        entries.append((cls, m, w, depth, {"is_in_u": True, "is_factor_free": True, "is_in_d": False}))

    for m in (1, 2, 3):
        per = 2 * m + 3
        for length in inputs.stratified(rng, 6, 700, 8400, 1.0):
            w, depth = inputs.u_word(m, length // per, rng, tall=False)
            member_u("shallow", m, w, depth)
        # Tall words and the hosts below sit at fixed lengths and offsets, so
        # the seed does not move their quadratic scans, which set op_tail_ms.
        for length in inputs.stratified(rng, 3, 700, 8400, 1.0, jitter=0.0):
            w, depth = inputs.u_word(m, length // per, rng, tall=True)
            member_u("tall", m, w, depth)
        for length in inputs.stratified(rng, 2, 700, 8400, 1.0):
            n = length // per
            u1, _ = inputs.u_word(m, n // 2, rng, tall=False)
            u2, _ = inputs.u_word(m, n - n // 2, rng, tall=False)
            entries.append(("shallow", m, inputs.d_word(m, u1, u2), 0,
                            {"is_in_u": False, "is_factor_free": True, "is_in_d": True}))
        # Non-members: a short D-word spliced into shallow and tall hosts.  The
        # scan cost grows with the splice offset, so each host gets a fixed
        # offset stratum.
        hosts = [(length, tall) for tall in (False, True)
                 for length in inputs.stratified(rng, 2, 700, 8400, 1.0, jitter=0.0)]
        offsets = inputs.stratified(rng, len(hosts), 0, 1000, 1.0, jitter=0.0)
        for (length, tall), offset in zip(hosts, offsets):
            host, depth = inputs.u_word(m, length // per, rng, tall=tall)
            a, _ = inputs.u_word(m, rng.randint(0, 3), rng, tall=False)
            b, _ = inputs.u_word(m, rng.randint(0, 3), rng, tall=False)
            word = inputs.splice(host, inputs.d_word(m, a, b), len(host) * offset // 1000)
            entries.append(("nonmember", m, word, depth,
                            {"is_in_u": False, "is_factor_free": False, "is_in_d": False}))

    for cls, m, w, depth, verdicts in entries:
        for fname, want in verdicts.items():
            ops.append(Op(fname, lambda f=fname, w=w, m=m: getattr(F.words, f)(w, m),
                          lambda got, want=want: got is want,
                          {"cls": cls, "m": m, "letters": len(w)}))
        if m == 2 and cls != "nonmember" and not verdicts["is_in_d"]:

            def roundtrip(w=w):
                tree = F.trees.word_to_tree(w)
                return tree, F.trees.tree_to_word(tree)

            def roundtrip_check(got, w=w) -> bool:
                tree, back = got
                return back == w and _edges(tree) == 2 * (len(w) // 7)

            tolerate = (RecursionError,) if depth > DEEP else ()
            ops.append(Op("roundtrip", roundtrip, roundtrip_check,
                          {"cls": cls, "m": 2, "letters": len(w), "depth": depth}, tolerate))

    for m in (1, 2, 3):
        per = 2 * m + 3
        for _ in range(2):
            w, _ = inputs.u_word(m, rng.randint(1, 50 // per), rng, tall=False)
            ops.append(Op("lattice", lambda w=w, m=m: F.words.is_in_u_lattice(w, m),
                          lambda got: got is True, {"cls": "shallow", "m": m, "letters": len(w)}))
            host, _ = inputs.u_word(m, rng.randint(1, 50 // per - 1), rng, tall=False)
            bad = inputs.splice(host, inputs.d_word(m, "", ""), rng.randrange(len(host) + 1))
            ops.append(Op("lattice", lambda w=bad, m=m: F.words.is_in_u_lattice(w, m),
                          lambda got: got is False, {"cls": "nonmember", "m": m, "letters": len(bad)}))
    rng.shuffle(ops)

    classes = [e[0] for e in entries]
    props = {
        "word_share": _shares(classes),
        "letter_share": _shares(classes, [len(e[2]) for e in entries]),
        "letters_per_class": {c: sum(len(e[2]) for e in entries if e[0] == c) for c in sorted(set(classes))},
        "d_member_words": sum(1 for e in entries if e[4]["is_in_d"]),
        "deep_roundtrips": sum(1 for op in ops if op.tolerate),
        "op_share": _shares([op.kind for op in ops]),
    }
    return Workload("membership", ops, props)


# ------------------------------------------------------------------ cli

_SECONDS = re.compile(rb"\(\d+\.\d\ds\)")


def child_env(root: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "DYCK_BRUTE_CAP"}
    env["PYTHONPATH"] = os.path.join(root, "src")
    env.pop("PYTHONSTARTUP", None)
    return env


def build_cli(F, rng: random.Random, root: str) -> Workload:
    """One child `python -m ffdyck` process per op, stdout compared byte for byte."""
    env = child_env(root)
    cmds: list[tuple[str, list[str], bytes]] = []

    def count(lang, m, n, method):
        argv = ["count", "--m", str(m), "--n", str(n), "--language", lang, "--method", method]
        cmds.append(("count", argv, f"{reference.count(lang, m, n)}\n".encode()))

    # Sizes are fixed: with only 16 commands a batch, a seeded size would move
    # the latency percentiles from seed to seed.  The seed sets the words fed
    # to verify and tree, and the order of the commands.
    count("U", 2, 36, "bell")
    count("D", 2, 28, "bell")
    count("U", 2, 50, "series")
    count("D", 3, 50, "series")
    count("U", 3, 200, "colored")
    count("U", 2, 3, "brute")
    count("D", 2, 3, "brute")

    # Fixed sizes: the largest child sets the peak memory reported for cli.
    gm, gn = 2, 5
    us = F.grammar.generate_u_words(gm, gn, cap=CAP)
    cmds.append(("generate", ["generate", "--m", str(gm), "--n", str(gn), "--language", "U"],
                  "".join(w + "\n" for w in us).encode()))
    ds = [F.words.to_binary(w) for w in F.grammar.generate_d_words(gm, gn, cap=CAP)]
    cmds.append(("generate", ["generate", "--m", str(gm), "--n", str(gn), "--language", "D",
                              "--alphabet", "01", "--format", "json"], (json.dumps(ds) + "\n").encode()))

    for vm in (1, 3):
        w, _ = inputs.u_word(vm, 30, rng, tall=rng.random() < 0.5)
        if rng.random() < 0.5:
            w = inputs.splice(w, inputs.d_word(vm, "", ""), rng.randrange(len(w) + 1))
        prof = F.words.prefix_profile(w, vm)
        report = {
            "valuation": prof[-1],
            "min_prefix": min(prof),
            "is_dyck": F.words.is_dyck(w, vm),
            "is_factor_free": F.words.is_factor_free(w, vm),
            "in_U": F.words.is_in_u(w, vm),
            "in_D": F.words.is_in_d(w, vm),
        }
        cmds.append(("verify", ["verify", "--m", str(vm), "--word", w], (json.dumps(report) + "\n").encode()))

    w, _ = inputs.u_word(2, 60, rng, tall=False)
    tree_json = json.dumps(F.trees.word_to_tree(w).to_json_obj())
    cmds.append(("tree", ["tree", "--encode", w], (tree_json + "\n").encode()))
    w2, _ = inputs.u_word(2, 60, rng, tall=False)
    cmds.append(("tree", ["tree", "--decode", json.dumps(F.trees.word_to_tree(w2).to_json_obj())],
                 (w2 + "\n").encode()))

    for cm, nmax, fmt in [(1, 4, "text"), (2, 3, "json")]:
        code = F.codes.build_code(cm, nmax, cap=CAP)
        out = json.dumps(code.to_json_obj()) + "\n" if fmt == "json" else "".join(c + "\n" for c in code.words)
        cmds.append(("codes", ["codes", "--m", str(cm), "--n-max", str(nmax), "--format", fmt, "--verify"],
                     out.encode()))

    lines = [f"PASS {name} (#s)" for name, _ in F.selfcheck.CHECKS]
    lines.append("selfcheck full: all checks passed")
    cmds.append(("selfcheck", ["selfcheck", "--level", "full"], "".join(s + "\n" for s in lines).encode()))
    rng.shuffle(cmds)

    flags: list[str] = []
    ops = []
    for kind, argv, want in cmds:
        ops.append(Op(kind, _child(argv, env, root, flags),
                      lambda got, want=want, kind=kind: _cli_ok(got, want, kind),
                      {"command": kind, "argv": argv[:1]}))
    props = {"command_share": _shares([k for k, _, _ in cmds]), "commands": len(cmds)}
    return Workload("cli", ops, props, flags)


def _child(argv: list[str], env: dict, root: str, flags: list[str]):
    def call():
        return subprocess.run(
            [sys.executable, *flags, "-m", "ffdyck", *argv],
            cwd=root, env=env, capture_output=True, timeout=120, check=False,
        )

    return call


def _cli_ok(got: subprocess.CompletedProcess, want: bytes, kind: str) -> bool:
    out = _SECONDS.sub(b"(#s)", got.stdout) if kind == "selfcheck" else got.stdout
    return got.returncode == 0 and out == want


def import_seconds(stderr: bytes) -> float:
    """Cumulative import time of the top-level ffdyck modules from -X importtime."""
    total = 0
    for line in stderr.decode(errors="replace").splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line.split("|")
        if len(parts) != 3:
            continue
        name = parts[2]
        if name.startswith(" ffdyck") and not name.startswith("  "):
            total += int(parts[1])
    return total / 1e6


BUILDERS = {
    "count": build_count,
    "enumerate": build_enumerate,
    "membership": build_membership,
    "cli": build_cli,
}
