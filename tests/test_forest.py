import random

import pytest
from hypothesis import given, strategies as st

from fskit.forest import (
    LEAF,
    End,
    ForestError,
    IndexOutOfRange,
    Tree,
    build_tree,
    caret,
    colour_count,
    leaf_addresses,
    leaf_count,
    leaf_path,
    parse_caret_word,
    prune_word,
    right_vine,
)

from conftest import random_tree
from forest_algebra import ShapeMismatch, compose, leaf_address


def read_back(t):
    """The canonical (preorder) caret word of t; inverse of build_tree."""
    out = []

    def rec(sub, pos):
        if sub.is_leaf:
            return
        out.append((sub.colour, pos))
        rec(sub.left, pos)
        rec(sub.right, pos + leaf_count(sub.left))

    rec(t, 1)
    return tuple(out)


def test_build_tree_trivial():
    assert build_tree(()) == LEAF
    assert build_tree((("a", 1),)) == caret("a")


def test_build_tree_depth_two():
    t = build_tree(parse_caret_word("a1 a1 a3"))
    assert t == Tree("a", caret("a"), caret("a"))
    assert leaf_addresses(t) == ("00", "01", "10", "11")


def test_build_tree_bad_index():
    with pytest.raises(IndexOutOfRange):
        build_tree((("a", 1), ("a", 3)))


def test_malformed_trees_and_words_are_refused():
    with pytest.raises(ForestError, match="both children"):
        Tree("a", LEAF, None)
    with pytest.raises(ForestError, match="bad caret token 'A1'"):
        parse_caret_word("a1 A1")
    with pytest.raises(ForestError, match="leaf index must be >= 1 in 'a0'"):
        parse_caret_word("a1 a0")
    with pytest.raises(IndexOutOfRange, match="leaf index 3 out of range 1..2"):
        leaf_path(caret("a"), 3)


def test_caret_word_round_trip():
    rng = random.Random(1)
    for _ in range(100):
        t = random_tree(rng, rng.randint(0, 12))
        assert build_tree(read_back(t)) == t


def test_read_back_canonical_examples():
    assert read_back(build_tree(parse_caret_word("a1 a1 a3"))) == parse_caret_word(
        "a1 a1 a3"
    )
    assert read_back(right_vine(3, "b")) == parse_caret_word("b1 b2 b3")


def test_leaf_address_caret():
    assert leaf_address(caret("a"), 1) == "0"
    assert leaf_address(caret("a"), 2) == "1"


def test_leaf_address_right_vine():
    rho = right_vine(3, "b")
    assert [leaf_address(rho, i) for i in range(1, 5)] == ["0", "10", "110", "111"]


def test_leaf_address_increasing():
    rng = random.Random(2)
    for _ in range(50):
        t = random_tree(rng, rng.randint(1, 10))
        addrs = leaf_addresses(t)
        assert list(addrs) == sorted(addrs)
        assert all(leaf_address(t, i + 1) == a for i, a in enumerate(addrs))


def test_leaf_address_of_built_tree():
    t = build_tree(parse_caret_word("a1 a1 a3"))
    assert leaf_address(t, 3) == "10"


def test_leaf_path():
    assert leaf_path(caret("a"), 2) == (("a", 1),)
    rho = right_vine(3, "b")
    assert leaf_path(rho, 3) == (("b", 1), ("b", 1), ("b", 0))
    t = build_tree(parse_caret_word("a1 a1 a3"))
    assert leaf_path(t, 2) == (("a", 0), ("a", 1))


def test_compose_identity():
    rng = random.Random(3)
    f = (random_tree(rng, 4), random_tree(rng, 2))
    n = leaf_count(f[0]) + leaf_count(f[1])
    assert compose(f, (LEAF,) * n) == f
    assert compose((LEAF,) * 2, f) == f


def test_compose_single_gluing():
    got = compose((caret("a"),), (caret("b"), LEAF))
    assert got == (Tree("a", caret("b"), LEAF),)


def test_compose_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        compose((caret("a"),), (LEAF,))


def test_compose_associative():
    rng = random.Random(4)
    for _ in range(30):
        f = tuple(random_tree(rng, rng.randint(0, 3)) for _ in range(rng.randint(1, 3)))
        g = tuple(random_tree(rng, rng.randint(0, 3)) for _ in range(sum(map(leaf_count, f))))
        h = tuple(random_tree(rng, rng.randint(0, 2)) for _ in range(sum(map(leaf_count, g))))
        assert compose(compose(f, g), h) == compose(f, compose(g, h))


def test_prune_word():
    t = Tree("a", caret("b"), caret("c"))
    assert prune_word(t, End.FIRST) == ("a", "b")
    assert prune_word(t, End.LAST) == ("a", "c")
    assert prune_word(LEAF, End.FIRST) == ()
    assert prune_word(LEAF, End.LAST) == ()


def test_prune_word_concatenates_under_gluing():
    rng = random.Random(6)
    for _ in range(20):
        t = random_tree(rng, rng.randint(1, 5))
        s = random_tree(rng, rng.randint(1, 5))
        glued_first = graft_tree_at(t, 1, s)
        assert prune_word(glued_first, End.FIRST) == prune_word(t, End.FIRST) + prune_word(s, End.FIRST)
        glued_last = graft_tree_at(t, leaf_count(t), s)
        assert prune_word(glued_last, End.LAST) == prune_word(t, End.LAST) + prune_word(s, End.LAST)


def graft_tree_at(t, i, s):
    forest = [LEAF] * leaf_count(t)
    forest[i - 1] = s
    return compose((t,), tuple(forest))[0]


def test_vines():
    assert right_vine(0, "a") == LEAF
    assert leaf_addresses(right_vine(2, "a")) == ("0", "10", "11")


def test_colour_count():
    assert colour_count(LEAF) == {}
    t = build_tree(parse_caret_word("a1 a1 a3"))
    assert colour_count(t) == {"a": 3}
    rng = random.Random(7)
    for _ in range(20):
        u = random_tree(rng, rng.randint(0, 5))
        v = random_tree(rng, rng.randint(0, 5))
        glued = graft_tree_at(u, 1, v)
        combined = colour_count(glued)
        expected = colour_count(u).copy()
        for k, n in colour_count(v).items():
            expected[k] = expected.get(k, 0) + n
        assert combined == expected


@given(st.integers(1, 30))
def test_vine_addresses(n):
    rho = right_vine(n, "a")
    assert leaf_address(rho, n + 1) == "1" * n
    for i in range(1, n + 1):
        assert leaf_address(rho, i) == "1" * (i - 1) + "0"


def test_permutation_helpers():
    from fskit.forest import identity_perm, is_permutation

    assert identity_perm(3) == (1, 2, 3)
    assert is_permutation((2, 1, 3))
    assert not is_permutation((2, 2, 3))
