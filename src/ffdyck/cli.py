"""Command-line interface.

Subcommands: count, generate, verify, tree, codes, selfcheck.  Output is
deterministic for identical invocations and all word lists are sorted.  At
size 0 both languages list the empty word alone, so `count --n 0` prints 1.
Exit codes: 0 success, 1 selfcheck failure, 2 invalid arguments or a
non-integer or negative DYCK_BRUTE_CAP, 3 the brute-force cap exceeded by any
enumerator (brute search, grammar or trees) or by the `codes --verify`
verifier (cap set by the DYCK_BRUTE_CAP variable), 141 stdout closed before all
output was written (`| head`), with nothing on stderr, the status a shell
gives a process ended by SIGPIPE, under PYTHONUNBUFFERED too.  Values are
checked by the library's input contract, not here: main turns its ValueError
into exit 2 and one "error:" line on stderr.  That covers tree input too: a
word outside U for --encode, and for --decode JSON that does not parse or a
tree that breaks the outdegree and color rules, and a word with a letter
outside 01 for --alphabet 01.  The CLI's own two rules, --n-max >= 1 (by
words.check_int) and a count --method that counting.ROUTES holds for the
--language, raise it too.

Output goes to stdout through `_write`, which loops until every byte is out;
word lists in text format are written in one call.

Each subcommand imports the library modules (and json) it runs, so a child
process loads only those: `count` never loads the grammar, the trees or the
selfcheck suite.  `tree` writes its JSON with an explicit stack and reads it
with json.loads in pieces of bounded depth, so it takes a tree of any depth.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import words


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ffdyck",
        description=(
            "Factor-free generalized Dyck words of slope (2m+1)/2: exact "
            "counting, generation, membership checks, the slope-5/2 tree "
            "bijection and cross-bifix-free codes."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", help="count words of length (2m+3)n")
    p_count.set_defaults(func=_cmd_count)
    p_count.add_argument("--m", type=int, required=True)
    p_count.add_argument("--n", type=int, required=True)
    p_count.add_argument("--language", choices=("U", "D"), required=True)
    p_count.add_argument("--method", default="bell")

    p_gen = sub.add_parser("generate", help="list all words of length (2m+3)n")
    p_gen.set_defaults(func=_cmd_generate)
    p_gen.add_argument("--m", type=int, required=True)
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--language", choices=("U", "D"), required=True)
    p_gen.add_argument("--alphabet", choices=("ab", "01"), default="ab")
    p_gen.add_argument("--format", choices=("text", "json"), default="text")

    p_verify = sub.add_parser("verify", help="membership report for one word")
    p_verify.set_defaults(func=_cmd_verify)
    p_verify.add_argument("--m", type=int, required=True)
    p_verify.add_argument("--word", required=True)
    p_verify.add_argument("--alphabet", choices=("ab", "01"), default="ab")

    p_tree = sub.add_parser(
        "tree", help="slope-5/2 word/tree conversion (m fixed to 2)"
    )
    p_tree.set_defaults(func=_cmd_tree)
    group = p_tree.add_mutually_exclusive_group(required=True)
    group.add_argument("--encode", metavar="WORD")
    group.add_argument("--decode", metavar="TREE_JSON")

    p_codes = sub.add_parser(
        "codes", help="cross-bifix-free binary code from D-words"
    )
    p_codes.set_defaults(func=_cmd_codes)
    p_codes.add_argument("--m", type=int, required=True)
    p_codes.add_argument("--n-max", type=int, required=True)
    p_codes.add_argument("--format", choices=("text", "json"), default="text")
    p_codes.add_argument(
        "--verify",
        action="store_true",
        help="also run the cross-bifix-free verifier on the emitted set",
    )

    p_self = sub.add_parser("selfcheck", help="run the cross-module invariant suite")
    p_self.set_defaults(func=_cmd_selfcheck)
    p_self.add_argument("--level", choices=("quick", "full"), default="quick")
    p_self.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="json: one record per check and a summary record, one a line",
    )

    return parser


def _write(text: str) -> None:
    """Write text to stdout, looping until every byte is out.

    Under PYTHONUNBUFFERED the text layer writes through to the raw file,
    whose write may take only part of the bytes when the reader closes the
    pipe, and drops the rest without an error.  The loop meets the closed
    pipe as a BrokenPipeError whatever the buffering.  A stdout with no
    binary layer (io.StringIO, say) takes the text as it is.
    """
    out = getattr(sys.stdout, "buffer", None)
    if out is None:
        sys.stdout.write(text)
        return
    sys.stdout.flush()
    data = memoryview(text.encode(sys.stdout.encoding, sys.stdout.errors))
    while data:
        data = data[out.write(data) :]


def _cmd_count(args: argparse.Namespace) -> int:
    from .counting import ROUTES

    count = ROUTES.get((args.language, args.method))
    if count is None:
        methods = ", ".join(method for lang, method in ROUTES if lang == args.language)
        raise ValueError(f"--language {args.language} counts by {methods}, not {args.method}")
    _write(f"{count(args.m, args.n)}\n")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    from . import grammar

    gen = grammar.generate_u_words if args.language == "U" else grammar.generate_d_words
    out = gen(args.m, args.n)
    if args.alphabet == "01":
        out = [words.to_binary(w) for w in out]
    if args.format == "json":
        import json

        _write(json.dumps(out) + "\n")
    else:
        _write("".join(w + "\n" for w in out))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    import json

    word = args.word if args.alphabet == "ab" else words.from_binary(args.word)
    profile = words.prefix_profile(word, args.m)
    report = {
        "valuation": profile[-1],
        "min_prefix": min(profile),
        "is_dyck": words.is_dyck(word, args.m),
        "is_factor_free": words.is_factor_free(word, args.m),
        "in_U": words.is_in_u(word, args.m),
        "in_D": words.is_in_d(word, args.m),
    }
    _write(json.dumps(report) + "\n")
    return 0


def _cmd_tree(args: argparse.Namespace) -> int:
    from . import trees

    if args.encode is not None:
        _write(trees.word_to_tree(args.encode).to_json_text() + "\n")
    else:
        _write(trees.tree_to_word(trees.ColoredTree.from_json_text(args.decode)) + "\n")
    return 0


def _cmd_codes(args: argparse.Namespace) -> int:
    words.check_int("--n-max", args.n_max, 1)
    from . import codes

    code = codes.build_code(args.m, args.n_max)
    # verified before it is written, so a verifier past the cap writes nothing
    ok, violation = codes.verify_cross_bifix_free(code.words) if args.verify else (True, None)
    if args.format == "json":
        import json

        _write(json.dumps(code.to_json_obj()) + "\n")
    else:
        _write("".join(w + "\n" for w in code.words))
    if args.verify:
        if not ok:
            print(f"cross-bifix violation: {violation}", file=sys.stderr)
            return 1
        print(f"cross-bifix-free: {len(code.words)} words verified", file=sys.stderr)
    return 0


def _cmd_selfcheck(args: argparse.Namespace) -> int:
    from . import selfcheck

    ok = selfcheck.run(args.level, emit=lambda line: _write(line + "\n"), fmt=args.format)
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        words.brute_cap()
        status = args.func(args)
        sys.stdout.flush()  # a closed pipe shows up here, not at exit
        return status
    except BrokenPipeError:
        # the reader stopped early (`| head`): send what is still buffered
        # to devnull so the flush at exit cannot fail, and exit as SIGPIPE
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141
    except ValueError as exc:
        # the library's input contract (bad tree JSON and non-U words
        # included) and the CLI's own value rules
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except words.CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
