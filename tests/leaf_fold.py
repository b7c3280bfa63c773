"""Each leaf's pointed-tree transformation as its own fold down the
root-to-leaf path, sharing nothing between leaves or calls.
`fskit.dynamics.evaluate_fraction` builds every leaf's map in one walk of
the tree, sharing prefixes, and takes the maps of paths of at most
`_MEMO_DEPTH` carets from a per-process memo; tests check it against
these folds, on trees deeper than the memo too."""

from __future__ import annotations

from fskit.dynamics import caret_map
from fskit.eppm import IDENTITY, Eppm, NotBijective, canonicalize, compose, invert, make_eppm
from fskit.forest import Tree, leaf_count, leaf_path
from fskit.presentation import TwoColourRightVine


def beta_path(cls: TwoColourRightVine, t: Tree, leaf: int) -> Eppm:
    """beta(t, leaf): the pointed-tree transformation, composed along the
    root-to-leaf path with the root caret outermost."""
    acc = IDENTITY
    for colour, direction in leaf_path(t, leaf):
        acc = compose(acc, caret_map(cls, colour, direction))
    return acc


def fold_fraction(
    cls: TwoColourRightVine, t: Tree, perm: tuple[int, ...], s: Tree
) -> Eppm:
    """alpha([t, pi, s]) from one beta_path fold per leaf of t and of s."""
    pieces, fams, limits = [], [], []
    for j in range(1, leaf_count(s) + 1):
        branch = compose(beta_path(cls, t, perm[j - 1]), invert(beta_path(cls, s, j)))
        pieces.extend(branch.pieces)
        fams.extend(branch.families)
        limits.extend(branch.limits)
    f = canonicalize(make_eppm(pieces, fams, limits))
    if not f.bijective:
        raise NotBijective("fraction did not evaluate to a total bijection")
    return f
