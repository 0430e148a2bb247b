"""Bijection between slope-5/2 U-words and colored rooted trees.

A U-word of length 7n (m = 2) corresponds to a rooted ordered tree with 2n
edges whose internal nodes have outdegree 2 or 4, every outdegree-2 node
carrying one of three colors.  The correspondence identifies four building
blocks with one-node trees:

    babbbab  <->  blue node   (down "ba",  gap "bbba",  up "b")
    abbbbab  <->  red node    (down "a",   gap "bbbba", up "b")
    abbbabb  <->  green node  (down "a",   gap "bbba",  up "bb")
    abbbabbbabbbab  <->  outdegree-4 node (down "a", gaps "bbba", up "b")

and longer words arise by inserting words into these blocks right after a
letter a.  Serializing a tree is a counterclockwise traversal emitting the
edge labels above; parsing a word replays the traversal left to right.

Parsing reads the word's b-runs, `word.split("a")`, in one pass.  Each a
ends a down token or a gap token and opens one child slot; each b-run holds
the up tokens of the nodes it closes, then the b's of the token its a ends.
A run of 0 or 1 b's before an a fills the slot with a new node ("a", or "ba"
coloring it blue).  A longer run leaves the slot a leaf, and open nodes
close until 3 b's remain (a plain gap) or 4 remain under an uncolored node
with no child yet (the red gap).  The run after the last a must close every
open node and be used up exactly: the same loop reads it with 2 len(word) + 5
b's added, more than its closes can spend, and the word is read when no node
is open and just those b's remain.  A node closes inline, with `_node` its
only call: it spends two b's and turns green when it is uncolored with two
children, and one b otherwise.  These cases are mutually exclusive, so the
parse is deterministic, and it is the membership test: a run that fits no
gap, a node that `_node` rejects or b's left at the end mean that the word
traverses no tree, so it is not in U.  The round trips over every word and
tree with n <= 3 (selfcheck), all of U at n = 4, deep chains of each node
kind and seeded words with n = 100 to 300, and agreement with `is_in_u` on
every word of up to 14 letters and of n = 3, pin the reading down.  NotInU
names the word's length and the offset where the replay stopped (the a that
ends the failing run, or the end of the word), never the word; that offset
is worked out only after the replay has failed.

The JSON text is written by the same walk and read by `json.loads` in
pieces of bounded depth (`_parse_json`), so it too works at any depth; the
dict form is that text read back.
"""

from __future__ import annotations

import re
from typing import Any

from .words import Budget, check_args, check_word, shown

COLORS = ("blue", "red", "green")

# (down, gap, up) per node color, None for the 4-node: the edge labels of the
# word, the brackets of the canonical rendering and the JSON text around the
# children
_WORD_TOKENS = {
    "blue": ("ba", "bbba", "b"),
    "red": ("a", "bbbba", "b"),
    "green": ("a", "bbba", "bb"),
    None: ("a", "bbba", "b"),
}
_CANON_TOKENS = {
    "blue": ("B(", ",", ")"),
    "red": ("R(", ",", ")"),
    "green": ("G(", ",", ")"),
    None: ("F(", ",", ")"),
}
_JSON_TOKENS = {
    color: (f'{{"color": "{color or "none"}", "children": [', ", ", "]}")
    for color in (*COLORS, None)
}
_JSON_LEAF = '{"color": "none", "children": []}'


class NotInU(ValueError):
    """The word handed to the encoder is not a slope-5/2 U-word."""


class MalformedTree(ValueError):
    """A tree value violates the outdegree/color invariants."""


class ColoredTree:
    """Rooted ordered tree with outdegrees 0, 2 or 4; 2-nodes carry a color.

    Immutable.  Trees and U-words are in bijection, so the word is the tree's
    identity: equality, hash, repr and pickling all go through a
    non-recursive walk, and work at any depth.  Children that are not a
    sequence of trees raise MalformedTree.
    """

    __slots__ = ("color", "children")

    color: str | None
    children: tuple["ColoredTree", ...]

    def __new__(
        cls, color: str | None = None, children: tuple["ColoredTree", ...] = ()
    ) -> "ColoredTree":
        try:
            kids = tuple(children)
        except TypeError:
            raise MalformedTree(
                f"children must be a sequence of trees, got {type(children).__name__}"
            ) from None
        for kid in kids:
            if not isinstance(kid, ColoredTree):
                raise MalformedTree(f"a child must be a tree, got {type(kid).__name__}")
        return _node(color, kids)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"ColoredTree is immutable: cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"ColoredTree is immutable: cannot delete {name!r}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ColoredTree):
            return NotImplemented
        return tree_to_word(self) == tree_to_word(other)

    def __hash__(self) -> int:
        return hash(tree_to_word(self))

    def __repr__(self) -> str:
        return f"ColoredTree({self.canonical()})"

    def __reduce__(self) -> tuple:
        return word_to_tree, (tree_to_word(self),)

    @property
    def edge_count(self) -> int:
        # every two edges spell seven letters
        return 2 * len(tree_to_word(self)) // 7

    def canonical(self) -> str:
        """Preorder rendering: L leaf, B/R/G colored 2-node, F 4-node."""
        return _render(self, "L", _CANON_TOKENS)

    def to_json_obj(self) -> dict[str, Any]:
        """Nested {"color", "children"} dicts; an uncolored node has color "none"."""
        return _parse_json(self.to_json_text())

    def to_json_text(self) -> str:
        """`json.dumps(self.to_json_obj())`, written by the walk that spells the word."""
        return _render(self, _JSON_LEAF, _JSON_TOKENS)

    @classmethod
    def from_json_obj(cls, obj: Any) -> "ColoredTree":
        """Read `to_json_obj` output; a missing color is "none", missing children [].

        The nodes are visited in the order of a recursive reading, so the first
        malformed node found is the one a recursive reading would report.  Each
        node is charged to one `words.Budget` as it is read, as an item with no
        letters: a child list that repeats one object is read as the unshared
        tree it spells, so a few shared dicts past the brute-force cap raise
        CapExceeded before their nodes are built.
        """
        budget = Budget("tree JSON reader", "nodes", None)
        built: list[ColoredTree] = []
        on_path: set[int] = set()  # ids of the JSON nodes being read
        # a JSON node to read, paired with None, or a node read, paired with
        # (color, child count) to build it from the end of `built`
        todo: list[tuple[Any, tuple[str | None, int] | None]] = [(obj, None)]
        while todo:
            item, read = todo.pop()
            if read is not None:
                color, deg = read
                kids = tuple(built[len(built) - deg :])
                del built[len(built) - deg :]
                built.append(_node(color, kids))
                on_path.discard(id(item))
                continue
            if not isinstance(item, dict):
                raise MalformedTree(
                    f"tree node must be an object, got {type(item).__name__}"
                )
            if id(item) in on_path:
                raise MalformedTree("tree node contains itself")
            budget.charge(1, 0)
            color = item.get("color", "none")
            if color not in COLORS and color != "none":
                raise MalformedTree(f"unknown color {shown(color)}")
            children = item.get("children", [])
            if not isinstance(children, list):
                raise MalformedTree("children must be a list")
            on_path.add(id(item))
            todo.append((item, (None if color == "none" else color, len(children))))
            todo.extend((child, None) for child in reversed(children))
        return built[0]

    @classmethod
    def from_json_text(cls, text: str) -> "ColoredTree":
        """`from_json_obj(json.loads(text))` by `_parse_json`; bad JSON raises ValueError."""
        if not isinstance(text, str):
            raise ValueError(f"tree JSON must be a str, got {type(text).__name__}")
        return cls.from_json_obj(_parse_json(text))


# the slot descriptors' setters, which get past the immutable __setattr__
_set_color = ColoredTree.color.__set__
_set_children = ColoredTree.children.__set__


def _node(
    color: str | None, kids: tuple[ColoredTree, ...] | list[ColoredTree]
) -> ColoredTree:
    """The node of `color` over `kids`, which must be trees; checks outdegree and color.

    The readers and the enumeration build each node from trees they built
    before, so they call this and skip the per-child test of `ColoredTree()`.
    """
    deg = len(kids)
    if deg not in (0, 2, 4):
        raise MalformedTree(f"outdegree {deg} is not 0, 2 or 4")
    if deg == 2:
        if color not in COLORS:
            raise MalformedTree(
                f"outdegree-2 node must be colored blue/red/green, got {shown(color)}"
            )
    elif color is not None:
        raise MalformedTree(f"outdegree-{deg} node must be uncolored, got {shown(color)}")
    self = object.__new__(ColoredTree)
    _set_color(self, color)
    _set_children(self, tuple(kids))
    return self


LEAF = _node(None, ())


_CUT = 100  # json.loads reads containers at most this deep at a time

# A run of text with no bracket outside its strings, an empty object, one
# bracket, or a quote that opens no complete string (a stray quote).
_JSON_BRACKETS = re.compile(
    r'(?:[^][{}"]+|"(?:[^"\\]|\\.)*")+|(\{[ \t\n\r]*\}|[][{}])|(")', re.S
)


def _parse_json(text: str) -> Any:
    """The value of one JSON text, as `json.loads` reads it, at any depth.

    A bracket scan hands `json.loads` pieces of bounded depth; it tracks the
    bracket depth only.  A container that opens at a positive depth that is
    a multiple of _CUT is read by `json.loads` on its own once it closes; in
    the text around it, it stands as {}, and so does every empty object,
    which the hook could not tell from one.  An object_hook gives each {}
    back its value, in the order they close, and returns any other object as
    it is.  Each piece is the text with whole values put in place of values,
    so every piece reads exactly when the text does, and no call nests
    deeper than _CUT.
    """
    import json

    parts: list[str] = []  # the text of the open piece, {} for each value cut
    values: list[Any] = []  # the values of its {}, in order
    stack: list[tuple[list[str], list[Any]]] = []  # the pieces around it
    depth = 0

    def read(piece: list[str], cut: list[Any]) -> Any:
        later = iter(cut)
        try:
            return json.loads("".join(piece), object_hook=lambda o: o or next(later))
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid JSON: {exc.msg}") from None

    for match in _JSON_BRACKETS.finditer(text):
        bracket, stray = match.groups()
        if stray:
            raise ValueError("invalid JSON: unterminated string")
        if not bracket:
            parts.append(match[0])
        elif len(bracket) > 1:  # an empty object
            parts.append("{}")
            values.append({})
        elif bracket in "[{":
            if depth > 0 and depth % _CUT == 0:
                stack.append((parts, values))
                parts, values = [], []
            parts.append(bracket)
            depth += 1
        else:
            parts.append(bracket)
            depth -= 1
            if depth > 0 and depth % _CUT == 0:
                piece = read(parts, values)
                parts, values = stack.pop()
                parts.append("{}")
                values.append(piece)
    # a container still open at the end leaves its piece unclosed: read fails
    return read(parts, values)


def _render(
    tree: ColoredTree, leaf: str, tokens: dict[str | None, tuple[str, str, str]]
) -> str:
    """Preorder walk with an explicit stack, so any depth renders.

    An inner node emits its color's down token, its children separated by the
    gap token, then the up token; a leaf emits `leaf`.  A leaf child's text
    goes out with the token before it, so the walk visits inner nodes only
    and the word's empty leaves cost no push.
    """
    parts: list[str] = []
    # inner nodes to visit and text to emit
    todo: list[ColoredTree | str] = [tree if tree.children else leaf]
    while todo:
        item = todo.pop()
        if type(item) is str:
            parts.append(item)
            continue
        down, gap, up = tokens[item.color]
        todo.append(up)
        for child in item.children[:0:-1]:
            if child.children:
                todo += (child, gap)
            else:
                todo.append(gap + leaf)
        first = item.children[0]
        if first.children:
            parts.append(down)
            todo.append(first)
        else:
            parts.append(down + leaf)
    return "".join(parts)


def tree_to_word(tree: ColoredTree) -> str:
    """Counterclockwise traversal of the tree, emitting the edge labels."""
    if not isinstance(tree, ColoredTree):
        raise MalformedTree(f"expected a tree, got {type(tree).__name__}")
    return _render(tree, "", _WORD_TOKENS)


def word_to_tree(word: str) -> ColoredTree:
    """Replay a word into its slope-5/2 colored tree (the leaf for ""); NotInU if it cannot."""
    check_word(word)
    runs = list(map(len, word.split("a")))
    # the run after the last a closes every open node: a close spends at most
    # two b's, so `end` more b's keep it above 4 until no node is open, and it
    # is used up when `end` remain
    end = 2 * len(word) + 5
    runs[-1] += end
    stack: list[list[Any]] = []  # open nodes, innermost last: [color, children]
    rest = iter(runs)
    try:
        for run in rest:
            if run < 2:
                stack.append(["blue" if run else None, []])
                continue
            # the slot is a leaf: close nodes until 3 b's remain (a plain gap)
            # or 4 under an uncolored node with no child yet (the red gap)
            node = LEAF
            while stack and (run > 4 or (run == 4 and (stack[-1][0] or stack[-1][1]))):
                color, kids = stack.pop()
                kids.append(node)
                if color is None and len(kids) == 2:
                    node = _node("green", kids)
                    run -= 2
                else:
                    node = _node(color, kids)
                    run -= 1
            if not stack or run not in (3, 4):
                break  # the word is read, or the run fits no gap here
            stack[-1][1].append(node)
            if run == 4:
                stack[-1][0] = "red"
        if run == end:
            return node
    except MalformedTree:  # the replay built a node that breaks the rules
        pass
    # the offset where the replay stopped: the a that ends its failing run, or
    # the end of the word for the last run
    taken = len(runs) - sum(1 for _ in rest)
    stop = min(len(word), sum(runs[:taken]) + taken - 1)
    raise NotInU(f"not a U-word for slope 5/2: length {len(word)}, replay stopped at offset {stop}")


# (color, outdegree) of each inner-node kind
_KINDS = (("blue", 2), ("red", 2), ("green", 2), (None, 4))


def _forests(
    k: int, edges: int, smaller: dict[int, tuple[ColoredTree, ...]]
) -> list[tuple[ColoredTree, ...]]:
    """k-tuples of trees from `smaller` whose edge counts sum to `edges`."""
    if k == 0:
        return [()] if edges == 0 else []
    out: list[tuple[ColoredTree, ...]] = []
    for first in range(0, edges + 1, 2):
        rests = _forests(k - 1, edges - first, smaller)
        out.extend((tree, *rest) for tree in smaller[first] for rest in rests)
    return out


def _trees_with_edges(
    edges: int, smaller: dict[int, tuple[ColoredTree, ...]]
) -> tuple[ColoredTree, ...]:
    """Trees with `edges` >= 2 edges, sorted; smaller[e] holds those with e < edges."""
    out = [
        _node(color, kids)
        for color, deg in _KINDS
        for kids in _forests(deg, edges - deg, smaller)
    ]
    return tuple(sorted(out, key=ColoredTree.canonical))


def enumerate_trees(n: int, cap: int | None = None) -> list[ColoredTree]:
    """All colored trees with 2n edges, sorted by canonical rendering.

    The count_u(2, k) trees of each level k = 1..n and the 7k letters each
    spells are charged before any is built.  The table lives for this call only.
    """
    from .counting import count_u

    check_args(2, n)
    budget = Budget("tree enumeration", "trees", cap)
    for k in range(1, n + 1):
        budget.charge(count_u(2, k), 7 * k)
    by_edges = {0: (LEAF,)}
    for edges in range(2, 2 * n + 1, 2):
        by_edges[edges] = _trees_with_edges(edges, by_edges)
    return list(by_edges[2 * n])
