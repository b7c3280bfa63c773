"""The slab normal form: equal maps get equal forms, so equality is ==.

`equals_by_region_walk` (tests/region_walk.py) is the equality decision
fskit used before the normal form, by domain walks and an identity test;
it never compares normal forms, so it is the reference here.
"""

from __future__ import annotations

import random
import time

import pytest

from hypothesis import given, settings, strategies as st

from conftest import (
    CLEARY2_TEXT,
    J3_TEXT,
    NONSIMPLE4_TEXT,
    RHO2_TEXT,
    random_signed_word,
    random_tree,
    split_at_root,
    unrolled,
    vine_class,
)
from fskit.dynamics import evaluate_fraction, evaluate_word, parse_element
from fskit.eppm import (
    IDENTITY,
    Family,
    Piece,
    canonicalize,
    compose,
    equals,
    invert,
    make_eppm,
)
from fskit.forest import leaf_count
from fskit.sequences import ev_periodic
from region_walk import equals_by_region_walk

CLASSES = {
    "j3": vine_class(J3_TEXT),
    "nonsimple4": vine_class(NONSIMPLE4_TEXT),
    "cleary2": vine_class(CLEARY2_TEXT),
    "rho2": vine_class(RHO2_TEXT),
}
# the presentations of the algebra workload
FRACTION_CLASSES = ("cleary2", "j3", "nonsimple4")


def random_fraction(cls, rng: random.Random):
    s = random_tree(rng, rng.randint(1, 3))
    t = random_tree(rng, leaf_count(s) - 1)
    perm = list(range(1, leaf_count(s) + 1))
    rng.shuffle(perm)
    return evaluate_fraction(cls, t, tuple(perm), s)


def product(maps):
    acc = IDENTITY
    for m in maps:
        acc = compose(acc, m)
    return acc


def inverse_product(maps):
    """P o f_k^-1 o ... o f_1^-1 for P the product of maps."""
    acc = product(maps)
    for m in reversed(maps):
        acc = compose(acc, invert(m))
    return acc


@pytest.mark.parametrize("name", FRACTION_CLASSES)
def test_equals_matches_region_walk(name):
    # 100 products, three pairs each: P against its re-bracketing Q and
    # P o P^-1 against the identity (equal), P against P with its last
    # factor replaced (different, unless the new factor acts the same)
    cls = CLASSES[name]
    rng = random.Random(f"region walk {name}")
    answers = []
    for _ in range(100):
        maps = [random_fraction(cls, rng) for _ in range(rng.randint(2, 5))]
        p = product(maps)
        q = compose(product(maps[:-2]), compose(maps[-2], maps[-1]))
        swapped = product(maps[:-1] + [random_fraction(cls, rng)])
        for f, g in ((p, q), (inverse_product(maps), IDENTITY), (p, swapped)):
            walk = equals_by_region_walk(f, g)
            assert walk == (canonicalize(f) == canonicalize(g)) == equals(f, g)
            answers.append(walk)
    assert answers.count(False) >= 50 and answers.count(True) >= 200


@pytest.mark.parametrize("name", FRACTION_CLASSES)
@pytest.mark.parametrize("k", [1, 4, 8, 16, 32])
def test_product_with_its_inverse_is_identity(name, k):
    cls = CLASSES[name]
    rng = random.Random(f"inverse {name} {k}")
    for _ in range(3):
        maps = [random_fraction(cls, rng) for _ in range(k)]
        p = product(maps)
        assert compose(p, invert(p)) == IDENTITY
        assert inverse_product(maps) == IDENTITY


@pytest.mark.parametrize("name", ["j3", "nonsimple4"])
def test_large_product_with_its_inverse_in_budget(name):
    # a product of 128 random fractions, over a hundred atoms; its compose
    # with its inverse stays under 1 s
    cls = CLASSES[name]
    rng = random.Random(f"large {name}")
    p = product([random_fraction(cls, rng) for _ in range(128)])
    q = invert(p)
    start = time.perf_counter()
    identity = compose(p, q)
    elapsed = time.perf_counter() - start
    assert identity == IDENTITY
    assert elapsed < 1.0, elapsed


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(CLASSES)), seed=st.integers(0, 2**32 - 1))
def test_other_writings_have_the_same_form(name, seed):
    # products of fractions (often with nested accumulation points) and
    # signed words (partial maps), written with a split root and with
    # unrolled family layers
    cls = CLASSES[name]
    rng = random.Random(seed)
    h = product(
        [
            random_fraction(cls, rng)
            if rng.random() < 0.7
            else evaluate_word(cls, random_signed_word(rng, rng.randint(1, 5)))
            for _ in range(3)
        ]
    )
    assert canonicalize(split_at_root(h)) == h
    assert canonicalize(unrolled(h, rng.randint(1, 3))) == h


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(CLASSES)), seed=st.integers(0, 2**32 - 1))
def test_compose_reads_the_maps_not_their_writing(name, seed):
    # another writing moves the family bases of f or g, and so the roof
    # under which compose folds g's layers into families
    cls = CLASSES[name]
    rng = random.Random(seed)

    def element():
        return product(
            [
                random_fraction(cls, rng)
                if rng.random() < 0.7
                else evaluate_word(cls, random_signed_word(rng, rng.randint(1, 5)))
                for _ in range(rng.randint(1, 3))
            ]
        )

    f, g = element(), element()
    h = compose(f, g)
    assert compose(unrolled(f, rng.randint(1, 3)), g) == h
    assert compose(f, unrolled(g, rng.randint(1, 3))) == h
    assert compose(split_at_root(f), split_at_root(g)) == h


@pytest.mark.parametrize("name", FRACTION_CLASSES)
def test_canonicalize_is_idempotent(name):
    cls = CLASSES[name]
    rng = random.Random(f"idempotent {name}")
    for _ in range(20):
        p = product([random_fraction(cls, rng) for _ in range(rng.randint(1, 8))])
        # a fresh copy, so that the work is redone rather than skipped
        fresh = make_eppm(p.pieces, p.families, p.limits)
        assert canonicalize(fresh) == p
        assert canonicalize(p) is p


def test_equal_elements_print_the_same(j3):
    f = parse_element(j3, "B1^-1")
    g = parse_element(j3, "B1^-1 B1^-1 B1")
    assert f == g
    assert str(f) == "{(01->00); [1|1^2 -> e|1^2: 0->01, 100->10, 101->1100]}"


def test_families_at_one_point_fold_together():
    # [00000|1^2: 0->0, 100->100]* and [000001|1^2: 01->01] together are the
    # identity on the cone 00000
    f = make_eppm(
        families=[
            Family("00000", "00000", 2, 2, (("0", "0"), ("100", "100")), False),
            Family("000001", "000001", 2, 2, (("01", "01"),)),
        ]
    )
    assert canonicalize(f) == make_eppm(pieces=[Piece("00000", "00000")])
    # without the limit the slabs still fold into one family of step 1
    g = make_eppm(
        families=[
            Family("001", "001", 2, 2, (("0", "0"),), False),
            Family("0011", "0011", 2, 2, (("00", "00"), ("01", "01")), False),
        ]
    )
    assert canonicalize(g) == make_eppm(
        families=[Family("001", "001", 1, 1, (("0", "0"),), False)]
    )


def test_preperiod_is_minimal():
    # the slabs 0.1^n.0 -> 1^(2n+1).0 for n >= 1, the first three of them
    # written as pieces; slab 0 breaks the pattern
    fam = Family("0111", "1111111", 1, 2, (("0", "0"),))
    pieces = [Piece("00", "0"), Piece("010", "1110"), Piece("0110", "111110")]
    assert canonicalize(make_eppm(pieces, [fam])) == make_eppm(
        pieces=[Piece("00", "0")],
        families=[Family("01", "111", 1, 2, (("0", "0"),))],
    )


def test_limit_kept_only_where_uncovered():
    point = ev_periodic("0", "1")
    fam = Family("0", "0", 1, 1, (("0", "0"),), False)
    # the family's range point is the image: it carries the limit, so the
    # map is the piece 0 -> 0
    assert canonicalize(make_eppm(families=[fam], limits=[(point, point)])) == (
        make_eppm(pieces=[Piece("0", "0")])
    )
    # an image elsewhere stays an isolated limit
    other = ev_periodic("1", "0")
    assert canonicalize(make_eppm(families=[fam], limits=[(point, other)])) == (
        make_eppm(families=[fam], limits=[(point, other)])
    )
    # a limit inside a piece is dropped
    inner = ev_periodic("10", "1")
    assert canonicalize(
        make_eppm(pieces=[Piece("1", "1")], limits=[(inner, inner)])
    ) == make_eppm(pieces=[Piece("1", "1")])

