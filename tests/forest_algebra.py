"""Forests of coloured trees, glued leaf to root, and the address of one
leaf.  Tests glue trees with `compose`, and `leaf_address` is an
independent per-leaf reference for `fskit.forest.leaf_addresses`."""

from __future__ import annotations

from fskit.forest import ForestError, IndexOutOfRange, Tree, leaf_count

Forest = tuple[Tree, ...]


class ShapeMismatch(ForestError):
    pass


def leaf_address(t: Tree, i: int) -> str:
    """Address of the i-th leaf as a word over {0,1}; lexicographically
    increasing in i."""
    n = leaf_count(t)
    if not 1 <= i <= n:
        raise IndexOutOfRange(f"leaf index {i} out of range 1..{n}")
    if t.is_leaf:
        return ""
    nl = leaf_count(t.left)
    if i <= nl:
        return "0" + leaf_address(t.left, i)
    return "1" + leaf_address(t.right, i - nl)


def forest_leaves(f: Forest) -> int:
    return sum(leaf_count(t) for t in f)


def compose(f: Forest, g: Forest) -> Forest:
    """Glue the i-th tree of g to the i-th leaf of f."""
    if forest_leaves(f) != len(g):
        raise ShapeMismatch(
            f"cannot compose: {forest_leaves(f)} leaves vs {len(g)} roots"
        )
    it = iter(g)

    def glue(t: Tree) -> Tree:
        if t.is_leaf:
            return next(it)
        return Tree(t.colour, glue(t.left), glue(t.right))

    return tuple(glue(t) for t in f)
