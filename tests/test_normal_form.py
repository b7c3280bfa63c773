"""The slab normal form: equal maps get equal forms, so equality is ==.

`equals_by_region_walk` (tests/region_walk.py) is the equality decision
fskit used before the normal form, by domain walks and an identity test;
it never compares normal forms, so it is the reference here, and its walk
is the reference for `region_subset` and `is_total`.
"""

from __future__ import annotations

import random
import time
from dataclasses import replace

import pytest

from hypothesis import given, settings, strategies as st

from conftest import (
    CLEARY2_TEXT,
    J3_TEXT,
    NONSIMPLE4_TEXT,
    RHO2_TEXT,
    random_fraction,
    random_point,
    random_signed_word,
    split_at_root,
    unrolled,
    vine_class,
)
from fskit.dynamics import evaluate_word, parse_element
from fskit.eppm import (
    IDENTITY,
    Family,
    Piece,
    canonicalize,
    compose,
    equals,
    evaluate,
    invert,
    is_total,
    make_eppm,
    region_subset,
    restrict,
    slabs,
)
from fskit.sequences import ev_periodic
import region_walk

CLASSES = {
    "j3": vine_class(J3_TEXT),
    "nonsimple4": vine_class(NONSIMPLE4_TEXT),
    "cleary2": vine_class(CLEARY2_TEXT),
    "rho2": vine_class(RHO2_TEXT),
}
# the presentations of the algebra workload
FRACTION_CLASSES = ("cleary2", "j3", "nonsimple4")


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
            walk = region_walk.equals_by_region_walk(f, g)
            assert walk == (canonicalize(f) == canonicalize(g)) == equals(f, g)
            answers.append(walk)
    assert answers.count(False) >= 50 and answers.count(True) >= 200


def random_word(rng: random.Random) -> str:
    return "".join(rng.choice("01") for _ in range(rng.randint(0, 4)))


def random_map(cls, rng: random.Random):
    """A product of 1-5 random fractions or a signed word, often made
    partial: inverted, restricted to a cone, composed with a prefix map on
    either side, cut down to a cone and one more point, or with a family's
    limit point taken out; then sometimes written with unrolled layers or a
    split root."""
    if rng.random() < 0.8:
        f = product([random_fraction(cls, rng) for _ in range(rng.randint(1, 5))])
    else:
        f = evaluate_word(cls, random_signed_word(rng, rng.randint(1, 6)))
    cut = rng.randrange(7)
    if cut == 1:
        f = invert(f)
    elif cut == 2:
        f = restrict(f, random_word(rng))
    elif cut == 3:
        f = compose(f, make_eppm(pieces=[Piece(random_word(rng), random_word(rng))]))
    elif cut == 4:
        f = compose(make_eppm(pieces=[Piece(random_word(rng), random_word(rng))]), f)
    elif cut == 5 and f.families:
        i = rng.randrange(len(f.families))
        fams = list(f.families)
        fams[i] = replace(fams[i], carries_limit=False)
        f = make_eppm(f.pieces, fams, f.limits)
    elif cut == 6:
        # often leaves the point as an isolated limit
        u, point = random_word(rng), ev_periodic(random_word(rng), "1")
        f = compose(f, make_eppm(pieces=[Piece(u, u)], limits=[(point, point)]))
    writing = rng.randrange(3)
    if writing == 1:
        f = unrolled(f, rng.randint(1, 3))
    elif writing == 2:
        f = split_at_root(f)
    return f


def test_slabs_unroll_to_the_family_pieces():
    # each entry (x, n, u, (z, a, q, rest)) of slabs(fam), unrolled at the
    # laps M = 0..3, is its block's piece at layers 0..3
    rng = random.Random("slabs")
    blocks = 0
    for cls in CLASSES.values():
        for _ in range(60):
            for fam in canonicalize(random_map(cls, rng)).families:
                entries = slabs(fam)
                assert len(entries) == len(fam.blocks)
                for block, (x, n, u, (z, a, q, rest)) in zip(fam.blocks, entries):
                    assert x == fam.dom_base.rstrip("1") and q == fam.ran_step
                    assert not z.endswith("1") and not rest.startswith("1")
                    for m in range(4):
                        dom = x + "1" * (n + m * fam.dom_step) + "0" + u
                        ran = z + "1" * (a + m * q) + rest
                        assert Piece(dom, ran) == fam.piece_at(m, block)
                blocks += len(entries)
    assert blocks >= 300


@pytest.mark.parametrize("name", sorted(CLASSES))
def test_region_subset_matches_region_walk(name):
    # 50 maps, each against the whole space, and 150 pairs: a map against
    # a random other, or against a restriction of itself, in both orders
    cls = CLASSES[name]
    rng = random.Random(f"region subset {name}")
    maps = [random_map(cls, rng) for _ in range(50)]
    totals = []
    for f in maps:
        total = is_total(f)
        assert total == region_walk.is_total(f)
        assert region_subset(f, IDENTITY)
        totals.append(total)
    subsets = []
    for _ in range(150):
        f = rng.choice(maps)
        g = rng.choice(maps) if rng.random() < 0.6 else restrict(f, random_word(rng))
        if rng.random() < 0.5:
            f, g = g, f
        subset = region_subset(f, g)
        assert subset == region_walk.region_subset(f, g)
        subsets.append(subset)
    assert 10 <= totals.count(True) <= 40
    assert 40 <= subsets.count(True) <= 110


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(CLASSES)), seed=st.integers(0, 2**32 - 1))
def test_region_subset_reads_the_maps_not_their_writing(name, seed):
    cls = CLASSES[name]
    rng = random.Random(seed)
    f, g = random_map(cls, rng), random_map(cls, rng)
    subset = region_subset(f, g)
    total = is_total(g)
    for write in (
        lambda h: unrolled(h, rng.randint(1, 3)),
        split_at_root,
        canonicalize,
    ):
        assert region_subset(write(f), g) == subset
        assert region_subset(f, write(g)) == subset
        assert is_total(write(g)) == total


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



def test_a_tail_range_reduces_into_its_run():
    # the siblings 1^n.00 -> 1^n.0 and 1^n.01 -> 1^n.1 merge into 1^n.0 ->
    # 1^n, a tail range that is all run: not injective, but a map
    f = make_eppm(families=[Family("", "", 1, 1, (("00", "0"), ("01", "1")))])
    normal = canonicalize(f)
    assert str(normal) == "{[e|1^1 -> e|1^1: 0->e]}"
    rng = random.Random(22)
    for _ in range(200):
        p = random_point(rng)
        assert evaluate(normal, p) == evaluate(f, p)
