"""Cross-module invariant suite behind the `selfcheck` CLI command.

Each check is a plain function raising AssertionError with a descriptive
message on the first violated instance, so `run` refuses to run under
`python -O`, which strips asserts.  The quick level trims every range
to n <= 2 (or the equivalent); the full level runs the complete verification
ranges.  All checks are deterministic.
"""

from __future__ import annotations

import itertools
import time
from math import comb, factorial
from typing import Callable, Iterable, Sequence

from . import codes, counting, grammar, series, trees, words
from .bell import bell_partial, binomial

BRUTE_RANGES_FULL = [(1, 1), (1, 2), (1, 3), (1, 4), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]
BRUTE_RANGES_QUICK = [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1)]


def check_binomial_pascal(level: str) -> None:
    top = 64 if level == "full" else 16
    for n in range(top + 1):
        assert binomial(n, 0) == binomial(n, n) == 1, f"C({n},0) or C({n},{n}) is not 1"
        for k in range(1, n + 1):
            lhs = binomial(n, k)
            rhs = binomial(n - 1, k - 1) + binomial(n - 1, k)
            assert lhs == rhs, f"Pascal rule fails at C({n},{k})"
    assert binomial(3, 5) == 0 and binomial(3, -1) == 0, "C(3,5) or C(3,-1) is not 0"


def check_bell_stirling(level: str) -> None:
    top = 12 if level == "full" else 8
    ones = [1] * top
    # Stirling numbers of the second kind, row by row, by their own recurrence
    # S(n, k) = k S(n-1, k) + S(n-1, k-1)
    stirling = [1]
    for n in range(top + 1):
        for k in range(n + 1):
            got = bell_partial(n, k, ones)
            want = stirling[k]
            assert got == want, f"B({n},{k})(1,1,...) = {got} != S({n},{k}) = {want}"
        stirling = [0] + [k * stirling[k] + stirling[k - 1] for k in range(1, n + 1)] + [1]


def check_bell_two_argument(level: str) -> None:
    top = 12 if level == "full" else 8
    for c1, c2 in [(1, 1), (2, 3)]:
        xs = [c1, 2 * c2] + [0] * (top - 2)
        for n in range(top + 1):
            for j in range((n + 1) // 2, n + 1):
                got = bell_partial(n, j, xs)
                want = (
                    factorial(n)
                    // factorial(j)
                    * comb(j, n - j)
                    * c1 ** (2 * j - n)
                    * c2 ** (n - j)
                )
                assert got == want, (
                    f"two-argument Bell identity fails at n={n}, j={j}, c=({c1},{c2})"
                )


def check_bell_convolution(level: str) -> None:
    top = 10 if level == "full" else 6
    for m in (1, 2, 3):
        zs = [factorial(j) * counting.ascent_weight(m, j) for j in range(1, top + 1)]
        for n in range(1, top + 1):
            for k in range(n):
                lhs = bell_partial(n, k + 1, zs)
                rhs = sum(
                    comb(n - 1, ell) * zs[n - ell - 1] * bell_partial(ell, k, zs)
                    for ell in range(k, n)
                )
                assert lhs == rhs, f"Bell convolution fails at m={m}, n={n}, k={k}"


def _routes_agree(language: str, sizes: Iterable[tuple[int, int]], skip: str = "") -> None:
    """The routes of counting.ROUTES for the language, bar `skip`, agree at each (m, n)."""
    for m, n in sizes:
        got = {
            method: count(m, n)
            for (lang, method), count in counting.ROUTES.items()
            if lang == language and method != skip
        }
        assert len(set(got.values())) == 1, f"{language} counts disagree at m={m}, n={n}: {got}"


def check_three_way_u_counts(level: str) -> None:
    top = 20 if level == "full" else 2
    _routes_agree("U", itertools.product((1, 2, 3), range(top + 1)), skip="brute")


def check_d_counts_vs_series(level: str) -> None:
    top = 20 if level == "full" else 2
    _routes_agree("D", itertools.product((1, 2, 3), range(top + 1)), skip="brute")


def check_slope52_simplification(level: str) -> None:
    top = 20 if level == "full" else 2
    for n in range(1, top + 1):
        a = counting.count_u_slope52(n)
        b = counting.count_u(2, n)
        assert a == b, f"slope-5/2 closed form disagrees at n={n}: {a} != {b}"


def check_catalan_closed_forms(level: str) -> None:
    top = 15 if level == "full" else 2
    catalan = [comb(2 * n, n) // (n + 1) for n in range(top + 1)]
    for n in range(1, top + 1):
        assert counting.count_u(1, n) == catalan[n], f"count_u(1,{n}) != Catalan"
        assert counting.count_d(1, n) == catalan[n] + catalan[n - 1], (
            f"count_d(1,{n}) != C_n + C_(n-1)"
        )


def series_sum(
    order: int, base: Sequence[int], terms: Sequence[tuple[int, int, int]]
) -> tuple[int, ...]:
    """Coefficients 0..order of sum c * t^s * base^e over the (c, s, e) terms.

    The powers of base come from a truncated product written here, so the
    series checks rest on no arithmetic of the solvers they check.
    """
    base = list(base[: order + 1]) + [0] * (order + 1 - len(base))
    powers = [[1] + [0] * order]
    for _ in range(max(e for _, _, e in terms)):
        last = powers[-1]
        powers.append(
            [sum(last[i] * base[k - i] for i in range(k + 1)) for k in range(order + 1)]
        )
    total = [0] * (order + 1)
    for c, s, e in terms:
        for k in range(order + 1 - s):
            total[s + k] += c * powers[e][k]
    return tuple(total)


def check_l_series_closed_relations(level: str) -> None:
    order = 40 if level == "full" else 15
    for m in (1, 2, 3):
        l1 = series.l_series(m, 1, order)
        terms1 = [(binomial(m + j, m - j), j + m + 1, 2 * j) for j in range(m + 1)]
        rhs1 = series_sum(order, l1, terms1)
        assert l1 == rhs1, f"L_1 closed relation fails for m={m}"
        l2 = series.l_series(m, 2, order)
        terms2 = [(binomial(m + j, m - j - 1), j + m + 1, 2 * j + 1) for j in range(m)]
        rhs2 = series_sum(order, l1, terms2)
        assert l2 == rhs2, f"L_2 closed relation fails for m={m}"


def check_l1_factorization(level: str) -> None:
    order = 40 if level == "full" else 15
    for m in (1, 2, 3):
        per = 2 * m + 3
        l1 = series.l_series(m, 1, order)
        u = series.u_series(m, order // per + 1)
        # tau^(m+1) U(tau^(2m+3)): the coefficient u_k moves to index m+1 + per*k
        terms = [(c, m + 1 + per * k, 0) for k, c in enumerate(u)]
        expected = series_sum(order, u, terms)
        assert l1 == expected, f"L_1 != tau^(m+1) * U(tau^(2m+3)) for m={m}"


def check_u_functional_equation(level: str) -> None:
    order = 30 if level == "full" else 10
    for m in (1, 2, 3):
        u = series.u_series(m, order)
        terms = [(binomial(m + j, m - j), j, 2 * j) for j in range(m + 1)]
        rhs = series_sum(order, u, terms)
        assert u == rhs, f"U series does not satisfy its functional equation, m={m}"
        terms = [(1, 0, 0), (1, 1, 2)]
        terms += [(binomial(m + j - 1, m - j), j, 2 * j - 1) for j in range(1, m + 1)]
        assert series.d_series(m, order) == series_sum(order, u, terms), f"D formula fails, m={m}"
    u1 = series.u_series(1, order)
    assert u1 == series_sum(order, u1, [(1, 0, 0), (1, 1, 2)]), "m=1: U != 1 + t U^2"
    d1 = series.d_series(1, order)
    assert d1 == series_sum(order, u1, [(1, 0, 1), (1, 1, 1)]), "m=1: D != (1+t) U"


def _brute_ranges(level: str) -> list[tuple[int, int]]:
    return BRUTE_RANGES_FULL if level == "full" else BRUTE_RANGES_QUICK


def check_brute_counts(level: str) -> None:
    for language in "UD":
        _routes_agree(language, _brute_ranges(level))


def check_size_zero(level: str) -> None:
    # the empty word is the one word of size 0 in U and in D, by every route
    for m in (1, 2, 3):
        lists = [grammar.generate_u_words(m, 0), grammar.generate_d_words(m, 0)]
        lists += [words.brute_enumerate_u(m, 0), words.brute_enumerate_d(m, 0)]
        assert lists == [[""]] * 4, f"size-0 grammar and brute lists at m={m}: {lists}"
        counts = {key: count(m, 0) for key, count in counting.ROUTES.items()}
        assert set(counts.values()) == {1}, f"size-0 counts at m={m}: {counts}, not all 1"
    leaf = trees.word_to_tree("")
    assert leaf == trees.LEAF == trees.enumerate_trees(0)[0], f"size-0 tree {leaf!r}"
    assert trees.tree_to_word(trees.LEAF) == "", "the leaf spells a nonempty word"


def check_grammar_vs_brute(level: str) -> None:
    for m, n in _brute_ranges(level):
        gu = grammar.generate_u_words(m, n)
        bu = words.brute_enumerate_u(m, n)
        assert gu == bu, f"grammar vs brute U words differ at m={m}, n={n}"
        gd = grammar.generate_d_words(m, n)
        bd = words.brute_enumerate_d(m, n)
        assert gd == bd, f"grammar vs brute D words differ at m={m}, n={n}"


def check_unambiguity_counts(level: str) -> None:
    for m, n in _brute_ranges(level):
        gu = grammar.generate_u_words(m, n)
        assert len(gu) == counting.count_u(m, n), (
            f"U grammar expansion count off at m={m}, n={n} (duplicate derivations?)"
        )
        assert len(set(gu)) == len(gu), f"duplicate U derivations at m={m}, n={n}"
        gd = grammar.generate_d_words(m, n)
        assert len(gd) == counting.count_d(m, n), (
            f"D grammar expansion count off at m={m}, n={n} (duplicate derivations?)"
        )
        assert len(set(gd)) == len(gd), f"duplicate D derivations at m={m}, n={n}"


def _primitive_by_insertion(m: int, j: int) -> list[str]:
    """Size-j U-words that are no insertion of a smaller one, by exhaustive filter.

    A word w is discarded when w = p + u + s with p ending in a, u a nonempty
    U-word, and p + s again a nonempty U-word; what survives are the
    building blocks that `grammar.primitive_u_words` builds in closed form.
    """
    per = words.period(m)
    shorter = {k: set(grammar.generate_u_words(m, k)) for k in range(1, j)}

    def is_insertion(w: str) -> bool:
        for k in range(1, j):
            inner_len = per * k
            hosts = shorter[j - k]
            for start in range(1, len(w) - inner_len + 1):
                if w[start - 1] != "a":
                    continue
                if w[start : start + inner_len] in shorter[k]:
                    if w[:start] + w[start + inner_len :] in hosts:
                        return True
        return False

    return [w for w in grammar.generate_u_words(m, j) if not is_insertion(w)]


def check_primitive_blocks(level: str) -> None:
    tops = {1: 1, 2: 2, 3: 3} if level == "full" else {1: 1, 2: 2}
    for m, jtop in tops.items():
        for j in range(1, jtop + 1):
            got = grammar.primitive_u_words(m, j)
            want = counting.ascent_weight(m, j)
            assert len(got) == want, (
                f"primitive word count at m={m}, j={j}: {len(got)} != {want}"
            )
            assert got == _primitive_by_insertion(m, j), (
                f"closed-form primitive words differ from the insertion filter"
                f" at m={m}, j={j}"
            )
    for j, want in [(1, ["abbbabb", "abbbbab", "babbbab"]), (2, ["abbbabbbabbbab"])]:
        got = grammar.primitive_u_words(2, j)
        assert got == want, f"primitive words at m=2, j={j}: {got} != {want}"


def check_u_word_shape(level: str) -> None:
    for m, n in _brute_ranges(level):
        for w in words.brute_enumerate_u(m, n):
            prof = words.prefix_profile(w, m)
            assert prof[-1] == 0, f"U word with nonzero valuation: {w}"
            assert -2 * m < min(prof) < 0, f"U word out of the prefix band: {w}"
            assert words.is_factor_free(w, m), f"U word with a Dyck factor: {w}"


def check_d_word_shape(level: str) -> None:
    for m, n in _brute_ranges(level):
        for w in words.brute_enumerate_d(m, n):
            prof = words.prefix_profile(w, m)
            assert prof[-1] == 0, f"D word with nonzero valuation: {w}"
            assert min(prof) == 0, f"D word with a negative prefix: {w}"
            assert words.is_factor_free(w, m), f"D word with a Dyck factor: {w}"


def check_lattice_reading(level: str) -> None:
    for m in (1, 2):
        top = 2 * m + 10 if level == "full" else 2 * m + 5
        for length in range(top + 1):
            for tup in itertools.product("ab", repeat=length):
                w = "".join(tup)
                assert words.is_in_u(w, m) == words.is_in_u_lattice(w, m), (
                    f"lattice reading disagrees on {w!r} at m={m}"
                )


def check_tree_roundtrip_words(level: str) -> None:
    top = 3 if level == "full" else 2
    for n in range(1, top + 1):
        for w in grammar.generate_u_words(2, n):
            t = trees.word_to_tree(w)
            assert t.edge_count == 2 * n, f"tree of {w} has {t.edge_count} edges"
            back = trees.tree_to_word(t)
            assert back == w, f"word round-trip failed: {w} -> {back}"


def check_tree_roundtrip_trees(level: str) -> None:
    top = 3 if level == "full" else 2
    for n in range(1, top + 1):
        for t in trees.enumerate_trees(n):
            w = trees.tree_to_word(t)
            assert words.is_in_u(w, 2), f"tree decoded to a non-U word: {w}"
            assert len(w) == 7 * n, f"tree decoded to length {len(w)}, not {7 * n}"
            back = trees.word_to_tree(w)
            assert back == t, f"tree round-trip failed for {t.canonical()}"


def check_tree_counts(level: str) -> None:
    top = 4 if level == "full" else 2
    for n in range(1, top + 1):
        got = len(trees.enumerate_trees(n))
        want = counting.count_u(2, n)
        assert got == want, f"tree count at n={n}: {got} != {want}"


def check_cross_bifix_codes(level: str) -> None:
    plans = [(1, 4), (2, 3)] if level == "full" else [(1, 2), (2, 1)]
    for m, n_max in plans:
        code = codes.build_code(m, n_max)
        per_length = code.lengths
        for n in range(1, n_max + 1):
            length = (2 * m + 3) * n
            want = counting.count_d(m, n)
            assert per_length.get(length, 0) == want, (
                f"code size at m={m}, length={length}: {per_length.get(length, 0)} != {want}"
            )
        ok, violation = codes.verify_cross_bifix_free(list(code.words))
        assert ok, f"cross-bifix violation in code m={m}: {violation}"
        for cw in code.words:
            w = words.from_binary(cw)
            for cut in range(1, len(w)):
                left = words.valuation(w[:cut], m)
                right = words.valuation(w[cut:], m)
                assert left > 0 > right, (
                    f"split valuation violated for {cw} at {cut}: {left}, {right}"
                )


def run(
    level: str = "quick", emit: Callable[[str], None] = print, fmt: str = "text"
) -> bool:
    """Run every check at the given level; report one line per check.

    The text lines read "PASS name (1.23s)" or "FAIL name: message", then a
    summary line.  A check that raises any other exception than
    AssertionError fails with a message led by the exception's type, and the
    rest still run.  With fmt "json" each line is a JSON object instead: one
    {"check", "status", "seconds", "message"} record per check (status "pass"
    or "fail", message "" on a pass), then one {"level", "status", "checks",
    "failed", "seconds"} summary of the run.
    """
    if level not in ("quick", "full"):
        raise ValueError(f"unknown selfcheck level {level!r}")
    if fmt not in ("text", "json"):
        raise ValueError(f"unknown selfcheck format {fmt!r}")
    if not __debug__:
        raise ValueError("selfcheck checks are assert statements, which python -O strips")
    if fmt == "json":
        import json
    failed = 0
    total = 0.0
    for name, fn in CHECKS:
        start = time.perf_counter()
        try:
            fn(level)
        except AssertionError as exc:
            message = str(exc)
        except Exception as exc:
            message = f"{type(exc).__name__}: {exc}"
        else:
            message = None
        seconds = time.perf_counter() - start
        total += seconds
        failed += message is not None
        if fmt == "json":
            record = {
                "check": name,
                "status": "pass" if message is None else "fail",
                "seconds": round(seconds, 6),
                "message": message or "",
            }
            emit(json.dumps(record))
        elif message is None:
            emit(f"PASS {name} ({seconds:.2f}s)")
        else:
            emit(f"FAIL {name}: {message}")
    if fmt == "json":
        summary = {
            "level": level,
            "status": "fail" if failed else "pass",
            "checks": len(CHECKS),
            "failed": failed,
            "seconds": round(total, 6),
        }
        emit(json.dumps(summary))
    else:
        emit(f"selfcheck {level}: {'FAILURES detected' if failed else 'all checks passed'}")
    return not failed


# the module's check_* functions in definition order, named without "check_"
CHECKS: list[tuple[str, Callable[[str], None]]] = [
    (name.removeprefix("check_").replace("_", "-"), fn)
    for name, fn in list(globals().items())
    if name.startswith("check_") and fn.__module__ == __name__
]
