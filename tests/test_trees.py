"""Colored-tree bijection for slope 5/2."""

import hashlib
import itertools
import json
import pickle
import random
import time

import pytest

from ffdyck import trees
from ffdyck.grammar import generate_u_words
from ffdyck.trees import (
    LEAF,
    ColoredTree,
    MalformedTree,
    NotInU,
    enumerate_trees,
    tree_to_word,
    word_to_tree,
)
from ffdyck.words import CapExceeded, is_in_u

TEN_EDGE_WORD = "abbbbaabbbabbbaababbbabbbbabbbbbabb"

BLUE = ColoredTree("blue", (LEAF, LEAF))
RED = ColoredTree("red", (LEAF, LEAF))
GREEN = ColoredTree("green", (LEAF, LEAF))
FOUR = ColoredTree(None, (LEAF, LEAF, LEAF, LEAF))


def test_building_blocks_encode():
    assert word_to_tree("babbbab") == BLUE
    assert word_to_tree("abbbbab") == RED
    assert word_to_tree("abbbabb") == GREEN
    assert word_to_tree("abbbabbbabbbab") == FOUR


def test_building_blocks_decode():
    assert tree_to_word(BLUE) == "babbbab"
    assert tree_to_word(RED) == "abbbbab"
    assert tree_to_word(GREEN) == "abbbabb"
    assert tree_to_word(FOUR) == "abbbabbbabbbab"
    assert tree_to_word(LEAF) == ""


def test_ten_edge_example_word():
    tree = word_to_tree(TEN_EDGE_WORD)
    assert tree.edge_count == 10
    assert tree.color == "red" and len(tree.children) == 2
    assert tree.children[0] == LEAF
    assert len(tree.children[1].children) == 4
    assert tree_to_word(tree) == TEN_EDGE_WORD
    assert hash(tree) == hash(TEN_EDGE_WORD)


def test_word_round_trips_length_28():
    words = generate_u_words(2, 4)
    assert len(words) == 1390
    for w in words:
        assert tree_to_word(word_to_tree(w)) == w


def test_enumerate_trees_sorted_and_distinct():
    ts = enumerate_trees(2)
    keys = [t.canonical() for t in ts]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)
    assert enumerate_trees(0) == [LEAF]


def test_enumeration_charges_the_trees_it_builds(monkeypatch):
    # n = 3 builds 3 + 19 + 153 = 175 trees on its way to the 153 it returns,
    # and they spell 3 * 7 + 19 * 14 + 153 * 21 = 3500 letters: the letter
    # budget of 10 x the cap binds first
    assert len(enumerate_trees(3, cap=350)) == 153
    with pytest.raises(CapExceeded, match="more than 3490 letters, 10 x the brute-force cap$"):
        enumerate_trees(3, cap=349)
    # n = 8 needs 17.8 M trees, past the default cap, and 982.6 M letters,
    # past 10 x a cap of 2 * 10**7: refused before any level is built
    built = []
    monkeypatch.setattr(trees, "_trees_with_edges", lambda *args: built.append(args))
    with pytest.raises(CapExceeded, match="more than 10000000 trees,"):
        enumerate_trees(8, cap=10**7)
    with pytest.raises(CapExceeded, match="more than 200000000 letters,"):
        enumerate_trees(8, cap=2 * 10**7)
    assert built == []


def test_tree_invariants_enforced():
    uncolored = r"^outdegree-2 node must be colored blue/red/green, got "
    with pytest.raises(MalformedTree, match=uncolored + "None$"):
        ColoredTree(None, (LEAF, LEAF))
    with pytest.raises(MalformedTree, match=r"^outdegree-4 node must be uncolored, got 'blue'$"):
        ColoredTree("blue", (LEAF, LEAF, LEAF, LEAF))
    with pytest.raises(MalformedTree, match=r"^outdegree 1 is not 0, 2 or 4$"):
        ColoredTree("blue", (LEAF,))
    with pytest.raises(MalformedTree, match=uncolored + "'mauve'$"):
        ColoredTree("mauve", (LEAF, LEAF))
    with pytest.raises(MalformedTree, match=r"^a child must be a tree, got str$"):
        ColoredTree("blue", ("x", "y"))
    with pytest.raises(MalformedTree, match=r"^children must be a sequence of trees, got int$"):
        ColoredTree("blue", 5)


def test_encode_rejects_non_u_words():
    assert word_to_tree("") == LEAF  # the empty word is in U
    with pytest.raises(NotInU):
        word_to_tree("aabbbbb")  # in D, not in U
    with pytest.raises(NotInU):
        word_to_tree("abbab")  # slope 3/2 word
    # the message names the length and where the replay stopped, not the word
    message = r"^not a U-word for slope 5/2: length 5, replay stopped at offset 3$"
    with pytest.raises(NotInU, match=message):
        word_to_tree("bbbab")
    with pytest.raises(NotInU) as info:
        word_to_tree("ab" * 20000)
    assert len(str(info.value)) < 120 and "40000" in str(info.value)


@pytest.mark.parametrize(
    "call, arg, error, message",
    [
        (ColoredTree.from_json_text, None, ValueError, "tree JSON must be a str, got NoneType"),
        (ColoredTree.from_json_text, b"{}", ValueError, "tree JSON must be a str, got bytes"),
        (tree_to_word, None, MalformedTree, "expected a tree, got NoneType"),
        (tree_to_word, "x", MalformedTree, "expected a tree, got str"),
    ],
    ids=["from_json_text-None", "from_json_text-bytes", "tree_to_word-None", "tree_to_word-str"],
)
def test_tree_inputs_follow_the_contract(call, arg, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call(arg)


def test_json_rendering_round_trip():
    tree = word_to_tree(TEN_EDGE_WORD)
    blob = json.dumps(tree.to_json_obj())
    assert ColoredTree.from_json_obj(json.loads(blob)) == tree
    leaf_obj = {"color": "none", "children": []}
    assert ColoredTree.from_json_obj(leaf_obj) == LEAF
    for n in (1, 2, 3):
        for w in generate_u_words(2, n):
            tree = word_to_tree(w)
            text = tree.to_json_text()
            assert text == json.dumps(tree.to_json_obj())
            assert ColoredTree.from_json_text(text) == tree


def test_json_rejects_bad_input():
    with pytest.raises(MalformedTree):
        ColoredTree.from_json_obj({"color": "purple", "children": []})
    with pytest.raises(MalformedTree):
        ColoredTree.from_json_obj([1, 2])
    with pytest.raises(MalformedTree):
        ColoredTree.from_json_obj({"color": "none", "children": [{}, {}]})
    with pytest.raises(MalformedTree, match="^children must be a list$"):
        ColoredTree.from_json_obj({"color": "blue", "children": ({}, {})})
    cyclic = {"color": "blue", "children": [{}]}
    cyclic["children"].append(cyclic)
    with pytest.raises(MalformedTree, match="contains itself"):
        ColoredTree.from_json_obj(cyclic)
    shared = {}  # one leaf object in two places is a tree, not a cycle
    assert ColoredTree.from_json_obj({"color": "red", "children": [shared, shared]}) == RED


def test_canonical_rendering():
    assert LEAF.canonical() == "L"
    assert BLUE.canonical() == "B(L,L)"
    assert FOUR.canonical() == "F(L,L,L,L)"
    assert ColoredTree("green", (BLUE, LEAF)).canonical() == "G(B(L,L),L)"


def test_deep_blue_chain_round_trip():
    # 1200 nested blue nodes: an 8400-letter U-word deeper than the recursion limit
    tree = LEAF
    for _ in range(1200):
        tree = ColoredTree("blue", (tree, LEAF))
    word = tree_to_word(tree)
    assert len(word) == 8400 and is_in_u(word, 2)
    back = word_to_tree(word)
    assert back is not tree and back == tree and hash(back) == hash(tree)
    assert tree_to_word(back) == word
    assert back.edge_count == 2400
    assert back.canonical().startswith("B(" * 1200 + "L,L)")
    assert repr(back) == f"ColoredTree({back.canonical()})"
    assert pickle.loads(pickle.dumps(back)) == tree
    assert ColoredTree.from_json_obj(back.to_json_obj()) == tree
    text = back.to_json_text()
    assert text.startswith('{"color": "blue", "children": [' * 1200)
    assert ColoredTree.from_json_text(text) == tree


@pytest.mark.parametrize("kind", [BLUE, RED, GREEN, FOUR], ids=lambda t: t.canonical()[0])
@pytest.mark.parametrize("through", ["first", "last"])
def test_deep_chain_word_round_trip(kind, through):
    # 1200 nodes of one kind nested through one child; a last-child chain
    # ends in one b-run of 1200 to 2400 letters that closes every node
    tree = LEAF
    for _ in range(1200):
        kids = list(kind.children)
        kids[0 if through == "first" else -1] = tree
        tree = ColoredTree(kind.color, tuple(kids))
    word = tree_to_word(tree)
    back = word_to_tree(word)
    assert back == tree and tree_to_word(back) == word
    assert back.edge_count == 1200 * len(kind.children)


def test_long_spliced_words_round_trip(spliced_u_word):
    rng = random.Random(2018)
    for tall in (False, True):
        n = rng.randint(100, 300)
        word = spliced_u_word(2, n, rng, tall)
        tree = word_to_tree(word)
        assert tree.edge_count == 2 * n
        assert tree_to_word(tree) == word


def rendering_digests(trees_):
    """First 16 hex digits of the sha256 of each rendering, one tree a line."""
    return tuple(
        hashlib.sha256("\n".join(map(render, trees_)).encode()).hexdigest()[:16]
        for render in (tree_to_word, ColoredTree.canonical, ColoredTree.to_json_text)
    )


@pytest.mark.parametrize(
    "n, digests",
    [
        (0, ("e3b0c44298fc1c14", "72dfcfb0c470ac25", "157780c16388793e")),
        (1, ("5d3812fad1861316", "9374013a9518fb36", "a8ea1f7ed03cc39b")),
        (2, ("52fd5dbff53efa1d", "586e7ac0cfbe60b1", "2f407e3fee353ae4")),
        (3, ("486441fa8bd23e36", "4137c93eecb1f349", "458bebca91daf3dc")),
        (4, ("f30b475e75427089", "a56e2def94b3d248", "432ffd82c6813415")),
    ],
)
def test_renderings_of_all_trees_are_pinned(n, digests):
    assert rendering_digests(enumerate_trees(n)) == digests


@pytest.mark.parametrize(
    "tall, digests",
    [
        (False, ("04038c65723cf8b2", "11e22f8d43e84e7f", "8d95efff84001a36")),
        (True, ("6ddc51e2631f007a", "0e31a749fc750539", "6bd7b21b4410a283")),
    ],
)
def test_renderings_of_spliced_words_are_pinned(spliced_u_word, tall, digests):
    rng = random.Random(2020 + tall)
    words = [spliced_u_word(2, rng.randint(100, 300), rng, tall) for _ in range(3)]
    parsed = [word_to_tree(word) for word in words]
    assert [tree_to_word(tree) for tree in parsed] == words
    assert rendering_digests(parsed) == digests


def test_replay_decides_membership(spliced_u_word):
    # word_to_tree reads back exactly the words is_in_u accepts: every word of
    # up to 14 letters, every word of 21 letters with six a's (n = 3), and
    # one-letter flips, deletions and adjacent swaps of long U-words
    decoded = []

    def misread(word):
        try:
            tree = word_to_tree(word)
        except NotInU:
            return is_in_u(word, 2)
        decoded.append(word)
        return tree_to_word(tree) != word or not is_in_u(word, 2)

    short = (
        "".join(letters)
        for length in range(15)
        for letters in itertools.product("ab", repeat=length)
    )
    six_a = (
        "".join("a" if i in at else "b" for i in range(21))
        for at in itertools.combinations(range(21), 6)
    )
    rng = random.Random(34)
    mutants = []
    for tall in (False, True):
        word = spliced_u_word(2, rng.randint(100, 300), rng, tall)
        for i in rng.sample(range(len(word) - 1), 100):
            flip = "b" if word[i] == "a" else "a"
            mutants += [
                word[:i] + flip + word[i + 1 :],
                word[:i] + word[i + 1 :],
                word[:i] + word[i + 1] + word[i] + word[i + 2 :],
            ]
    assert [w for w in itertools.chain(short, six_a) if misread(w)] == []
    assert len(decoded) == 1 + 3 + 19 + 153  # U at n = 0, 1, 2 and 3
    assert [w for w in mutants if misread(w)] == []


def test_tree_is_an_immutable_value():
    assert repr(BLUE) == "ColoredTree(B(L,L))" and repr(LEAF) == "ColoredTree(L)"
    for tree in (LEAF, BLUE, FOUR):
        assert pickle.loads(pickle.dumps(tree)) == tree
    assert ColoredTree(color="red", children=[LEAF, LEAF]).children == (LEAF, LEAF)
    with pytest.raises(AttributeError):
        BLUE.color = "red"
    with pytest.raises(AttributeError):
        del BLUE.children
    assert BLUE.color == "blue"


GOOD_JSON = [
    '{"color": "blue", "children": [{}, {"children": []}]}',
    ' {"children":[{},{}] ,"color":"red" }\n',
    '{"color": "\\u0067reen", "children": [{}, {}], "note": [1, -2.5e3, null]}',
    '{"color": "none", "color": "blue", "children": [{}, {}]}',
    '{"color": "none", "children": [{}, {}, {}, {}]}',
    "{}",
]
BAD_JSON = [
    "",
    "nope",
    "{",
    '{"color": "blue", "children": [{}, {}],}',
    '{"color": "blue" "children": []}',
    '{"children": [{}, {}]} {}',
    '{"color": "blue", "children": [{}, {},]}',
    "{'color': 'none'}",
    '{"color": "bl\tue"}',
    '{"color": "purple"}',
    '{"children": [{}]}',
    "[]",
]


@pytest.mark.parametrize("text", GOOD_JSON)
def test_json_text_reads_what_json_loads_reads(text):
    assert ColoredTree.from_json_text(text) == ColoredTree.from_json_obj(json.loads(text))


@pytest.mark.parametrize("text", BAD_JSON)
def test_json_text_rejects_bad_input(text):
    with pytest.raises(ValueError):
        ColoredTree.from_json_text(text)


# Texts that are not trees, for the JSON reader alone: brackets and escaped
# quotes inside strings, duplicate keys holding containers, the constants
# json.loads accepts past the JSON grammar, and unbalanced or stray text.
READER_JSON = [
    '{"note": "]}[{\\"", "children": ["[", "}", "\\\\", "\\"]"]}',
    '{"k": [1, {"a": [2]}], "k": {"b": [3, {}]}, "k2": { }}',
    '[NaN, -Infinity, {"n": Infinity}, [], { }]',
    "]",
    "[]]",
    '["a" "b"]',
    '"',
    '["\\"]',
]


@pytest.mark.parametrize("cut", [1, 2, 100])
@pytest.mark.parametrize("depth", [0, 99, 100, 101, 201])
@pytest.mark.parametrize("open_, close", [("[", "]"), ('{"k": ', "}")], ids=["list", "dict"])
def test_reader_matches_json_loads(monkeypatch, cut, depth, open_, close):
    # json.loads itself reads each of these texts: they nest at most 202 deep,
    # so it can judge the piecewise reader at every cut
    monkeypatch.setattr(trees, "_CUT", cut)
    for bare in GOOD_JSON + BAD_JSON + READER_JSON:
        text = open_ * depth + bare + close * depth
        try:
            want = repr(json.loads(text))
        except ValueError:
            with pytest.raises(ValueError, match="^invalid JSON: "):
                trees._parse_json(text)
        else:
            assert repr(trees._parse_json(text)) == want, bare


def test_reader_is_deep_and_linear():
    # far past the recursion limit, and unterminated: json.loads gives both
    # texts up in one call
    value = trees._parse_json("[" * 100_000 + "]" * 100_000)
    depth = 1
    while value:
        (value,) = value
        depth += 1
    assert depth == 100_000
    # an unterminated string is one stray quote: the scan stops there
    start = time.perf_counter()
    with pytest.raises(ValueError, match="^invalid JSON: unterminated string$"):
        trees._parse_json('"' + '\\"' * 100_000)
    assert time.perf_counter() - start < 0.5

