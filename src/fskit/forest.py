"""Coloured binary trees, caret words, pruning and permutations.

Trees are immutable recursive values.  Interior vertices carry a colour
(a lowercase token); leaves carry ``None``.  A caret word is the
textual/DSL form of a tree: a sequence of ``(colour, leaf_index)`` pairs
applied left to right, each gluing a coloured caret onto the indicated
leaf (1-based, leaves counted left to right).  ``a1 a1 a3`` is the
complete depth-2 tree on colour a.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import Optional


class ForestError(Exception):
    pass


class IndexOutOfRange(ForestError):
    pass


@dataclass(frozen=True)
class Tree:
    """A finite rooted full binary tree, every interior vertex coloured."""

    colour: Optional[str] = None
    left: Optional["Tree"] = None
    right: Optional["Tree"] = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    def __post_init__(self):
        if (self.left is None) != (self.right is None):
            raise ForestError("interior vertex needs both children")


LEAF = Tree()

CaretWord = tuple[tuple[str, int], ...]


def caret(colour: Optional[str]) -> Tree:
    return Tree(colour, LEAF, LEAF)


def leaf_count(t: Tree) -> int:
    if t.is_leaf:
        return 1
    return leaf_count(t.left) + leaf_count(t.right)


def caret_count(t: Tree) -> int:
    return leaf_count(t) - 1


def is_monochromatic(t: Tree, colour: str) -> bool:
    return colour_count(t).keys() <= {colour}


# ---------------------------------------------------------------------------
# caret words


def graft(t: Tree, i: int, colour: str) -> Tree:
    """Glue a coloured caret onto the i-th leaf of t (1-based)."""
    n = leaf_count(t)
    if not 1 <= i <= n:
        raise IndexOutOfRange(f"leaf index {i} out of range 1..{n}")
    if t.is_leaf:
        return caret(colour)
    nl = leaf_count(t.left)
    if i <= nl:
        return Tree(t.colour, graft(t.left, i, colour), t.right)
    return Tree(t.colour, t.left, graft(t.right, i - nl, colour))


def build_tree(word: CaretWord) -> Tree:
    t = LEAF
    for colour, i in word:
        t = graft(t, i, colour)
    return t


_TOKEN = re.compile(r"([a-z]+)([0-9]+)$")


def parse_caret_word(text: str) -> CaretWord:
    """Parse whitespace-separated tokens like ``a1 a1 a3``."""
    word = []
    for tok in text.split():
        m = _TOKEN.match(tok)
        if not m:
            raise ForestError(f"bad caret token {tok!r}")
        colour, idx = m.group(1), int(m.group(2))
        if idx < 1:
            raise ForestError(f"leaf index must be >= 1 in {tok!r}")
        word.append((colour, idx))
    return tuple(word)


# ---------------------------------------------------------------------------
# leaves and paths


def leaf_addresses(t: Tree) -> tuple[str, ...]:
    if t.is_leaf:
        return ("",)
    return tuple("0" + a for a in leaf_addresses(t.left)) + tuple(
        "1" + a for a in leaf_addresses(t.right)
    )


def leaf_path(t: Tree, i: int) -> tuple[tuple[str, int], ...]:
    """Root-to-leaf trace of (colour, direction) pairs for the i-th leaf."""
    n = leaf_count(t)
    if not 1 <= i <= n:
        raise IndexOutOfRange(f"leaf index {i} out of range 1..{n}")
    if t.is_leaf:
        return ()
    nl = leaf_count(t.left)
    if i <= nl:
        return ((t.colour, 0),) + leaf_path(t.left, i)
    return ((t.colour, 1),) + leaf_path(t.right, i - nl)


# ---------------------------------------------------------------------------
# pruning, vines, colour counts


class End(enum.Enum):
    FIRST = "first"
    LAST = "last"


def prune_word(t: Tree, end: End) -> tuple[str, ...]:
    """Colours read from the root to the first (all-0 path) or last
    (all-1 path) leaf."""
    out = []
    while not t.is_leaf:
        out.append(t.colour)
        t = t.left if end is End.FIRST else t.right
    return tuple(out)


def right_vine(n: int, colour: Optional[str] = None) -> Tree:
    """Right-vine with n carets; leaves 1^{i-1}0 for i <= n and 1^n."""
    t = LEAF
    for _ in range(n):
        t = Tree(colour, LEAF, t)
    return t


def colour_count(t: Tree) -> dict[str, int]:
    counts: dict[str, int] = {}

    def rec(sub: Tree) -> None:
        if sub.is_leaf:
            return
        counts[sub.colour] = counts.get(sub.colour, 0) + 1
        rec(sub.left)
        rec(sub.right)

    rec(t)
    return counts


# ---------------------------------------------------------------------------
# permutations


def identity_perm(n: int) -> tuple[int, ...]:
    return tuple(range(1, n + 1))


def is_permutation(images: tuple[int, ...]) -> bool:
    return sorted(images) == list(range(1, len(images) + 1))
