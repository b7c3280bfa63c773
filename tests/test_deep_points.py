"""Deep-point gate: compose and canonicalize agree with the stream oracle
far down every family's 1-run.

The maps are products of random signed words and random fractions.  For
every family of a product (base db, step c, block d) the points
db.1^(m c).d.z are checked for m up to 200 and random eventually periodic
tails z, together with every family's limit point db.1^inf and every
isolated limit.  The same points of the factor applied first are checked
too: where a product has lost part of its domain, none of its own families
leads there.  The expected image comes from `stream_oracle`, which
applies the caret rules letter by letter and never imports fskit.eppm.

canonicalize is checked on two other writings of each product: the union
of its restrictions to the cones 0 and 1, and the product with every family
unrolled by a few layers into explicit pieces.  Both denote the same map,
so their canonical forms must agree with the oracle at the same points.

The products come from two sources: factors on one presentation, and such
a product composed after another presentation's B1^(+-1) behind a deep
A-prefix.  The prefix is cut just before a 1 inside one of the product's
family blocks, so the 1-run of the B1 family, whose steps are another
presentation's, runs into a piece of a family at another point.  Three
pinned compositions place the roof of compose through a family by one of
its three bounds alone, exactly on it.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

import stream_oracle
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
from fskit.dynamics import evaluate_fraction, evaluate_word, parse_signed_word
from fskit.eppm import IDENTITY, UndefinedAt, canonicalize, compose, evaluate
from fskit.forest import leaf_count
from fskit.sequences import ev_periodic

CLASSES = {
    name: vine_class(text)
    for name, text in (
        ("j3", J3_TEXT),
        ("nonsimple4", NONSIMPLE4_TEXT),
        ("cleary2", CLEARY2_TEXT),
        ("rho2", RHO2_TEXT),
    )
}
MAX_LAYER = 200


def word_part(cls, word):
    """A signed word as a factor: (its map, its oracle action on one point)."""
    return evaluate_word(cls, word), lambda p: stream_oracle.apply_word(cls, word, p)


def random_part(cls, rng: random.Random):
    """A random factor: (its map, its oracle action on one point)."""
    if rng.random() < 0.5:
        return word_part(cls, random_signed_word(rng, rng.randint(1, 4)))
    s = random_tree(rng, rng.randint(1, 4))
    t = random_tree(rng, leaf_count(s) - 1)
    perm = list(range(1, leaf_count(s) + 1))
    rng.shuffle(perm)
    perm = tuple(perm)
    return (
        evaluate_fraction(cls, t, perm, s),
        lambda p: stream_oracle.apply_fraction(cls, t, perm, s, p),
    )


def random_tail(rng: random.Random) -> tuple[str, str]:
    pre = "".join(rng.choice("01") for _ in range(rng.randint(0, 4)))
    per = "".join(rng.choice("01") for _ in range(rng.randint(1, 3)))
    return pre, per


def deep_points(f, rng: random.Random):
    """Points far down the families' 1-runs, limit points and isolated
    limits of f."""
    layers = sorted({0, 1, 2, MAX_LAYER, rng.randint(3, MAX_LAYER)})
    for fam in f.families:
        yield ev_periodic(fam.dom_base, "1")
        for d, _ in fam.blocks:
            for m in layers:
                pre, per = random_tail(rng)
                yield ev_periodic(fam.dom_base + "1" * (m * fam.dom_step) + d + pre, per)
    for p, _ in f.limits:
        yield p


def image(f, p):
    try:
        return evaluate(f, p)
    except UndefinedAt:
        return None


def oracle_image(actions, p):
    try:
        for act in reversed(actions):
            p = act(p)
    except stream_oracle.OracleUndefined:
        return None
    return p


def product_of(parts):
    product = IDENTITY
    for m, _ in parts:
        product = compose(product, m)
    return product


def check_against_oracle(parts, rng: random.Random):
    """The product of the parts' maps, its canonical rewritings and the
    oracle agree at the deep points of all three, and at those of the part
    applied first: where a product has lost pieces, only the part's own
    families still lead there."""
    product = product_of(parts)
    actions = [act for _, act in parts]
    variants = [
        product,
        canonicalize(split_at_root(product)),
        canonicalize(unrolled(product, rng.randint(1, 3))),
    ]
    points = [p for f in variants + [parts[-1][0]] for p in deep_points(f, rng)]
    for p in points:
        want = oracle_image(actions, p)
        for f in variants:
            assert image(f, p) == want, (str(p), str(f))


def b1_behind(cls, prefix: str, exp: int):
    """z -> prefix.B1^exp(z) on the cone prefix, as a part: the signed word
    A_prefix B1^exp A_prefix^-1."""
    a = tuple((f"A{bit}", 1) for bit in prefix)
    return word_part(cls, a + (("B1", exp),) + tuple((token, -1) for token, _ in reversed(a)))


@pytest.mark.parametrize("name", sorted(CLASSES))
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_compose_and_canonicalize_match_oracle_at_deep_points(name, seed):
    cls = CLASSES[name]
    rng = random.Random(seed)
    check_against_oracle([random_part(cls, rng) for _ in range(rng.randint(1, 4))], rng)


@pytest.mark.parametrize("name", sorted(CLASSES))
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_mixed_step_composition_matches_oracle_at_deep_points(name, seed):
    cls = CLASSES[name]
    rng = random.Random(seed)
    parts = [random_part(cls, rng) for _ in range(rng.randint(1, 4))]
    cuts = [
        fam.dom_base + "1" * (rng.randint(0, 4) * fam.dom_step) + d[:i]
        for fam in product_of(parts).families
        for d, _ in fam.blocks
        for i, bit in enumerate(d)
        if bit == "1"
    ]
    prefix = rng.choice(cuts) if cuts else "1" * rng.randint(8, 14) + "0"
    other = CLASSES[rng.choice([n for n in sorted(CLASSES) if n != name])]
    parts.append(b1_behind(other, prefix, rng.choice((1, -1))))
    check_against_oracle(parts, rng)


def test_mixed_step_composition_pinned(j3, cleary2):
    # a roof placed past the product's depth alone, 1^10.0.1, meets the
    # piece 1^10.011 of the product's family at 1^inf without covering it
    f = word_part(j3, parse_signed_word("B1 A1^-1 B1"))
    check_against_oracle([f, b1_behind(cleary2, "11111111110", 1)], random.Random(0))


@pytest.mark.parametrize(
    "f_name, f_word, g_name, g_word",
    [
        # rb = 0, c' = 1: the restriction of f to rb is the piece 01 -> 00,
        # and the roof 0.1 is exactly as long; f's family at 1 lies outside rb
        ("j3", "B1^-1", "cleary2", "A0 B1 A0^-1"),
        # rb = 1, c' = 1: f's family at the deeper point 10.1^inf makes the
        # roof 1.1, exactly len(10); f's piece 011 lies outside rb
        ("j3", "B1^-1 A0^-1 B1^-1", "cleary2", "A1 B1^-1 A1^-1"),
        # rb = e, c' = 2: f's family at the roof's own point has base 1 and
        # blocks with one leading 1 (100, 101), so the roof is 1^2
        ("j3", "A1 B1^-1 B1^-1", "j3", "B1 A1^-1"),
    ],
    ids=["deep-piece", "deeper-point", "own-point"],
)
def test_roof_edge_pinned(f_name, f_word, g_name, g_word):
    # each roof is placed by one bound alone and lands on it exactly; one
    # layer lower, compose gives another map
    f = word_part(CLASSES[f_name], parse_signed_word(f_word))
    g = word_part(CLASSES[g_name], parse_signed_word(g_word))
    check_against_oracle([f, g], random.Random(0))
