import random
from dataclasses import replace

import pytest

from fskit.dynamics import evaluate_fraction
from fskit.eppm import make_eppm, restrict
from fskit.forest import LEAF, Tree, graft, leaf_count
from fskit.presentation import (
    SkeinPresentation,
    TwoColourRightVine,
    classify,
    parse_presentation,
)


def presentation(text: str, name: str = "") -> SkeinPresentation:
    return parse_presentation(text, name)


def vine_class(text: str) -> TwoColourRightVine:
    cls = classify(parse_presentation(text))
    assert isinstance(cls, TwoColourRightVine)
    return cls


def is_vine_pair(cls: TwoColourRightVine) -> bool:
    """True when x itself is the right-vine (the degenerate x = rho case)."""
    return cls.leaves == tuple("1" * (i) + "0" for i in range(cls.n - 1)) + (
        "1" * (cls.n - 1),
    )


# the two flagship presentations
J3_TEXT = "colors a b\nrel a1 a1 a3 = b1 b2 b3\n"
NONSIMPLE4_TEXT = "colors a b\nrel a1 a1 a3 a4 = b1 b2 b3 b4\n"
CLEARY2_TEXT = "colors a b\nrel a1 a1 = b1 b2\n"
RHO2_TEXT = "colors a b\nrel a1 a2 = b1 b2\n"


@pytest.fixture(scope="session")
def j3():
    return vine_class(J3_TEXT)


@pytest.fixture(scope="session")
def nonsimple4():
    return vine_class(NONSIMPLE4_TEXT)


@pytest.fixture(scope="session")
def cleary2():
    return vine_class(CLEARY2_TEXT)


@pytest.fixture(scope="session")
def rho2():
    return vine_class(RHO2_TEXT)


def random_tree(rng: random.Random, carets: int, colours=("a", "b")) -> Tree:
    t = LEAF
    for _ in range(carets):
        t = graft(t, rng.randint(1, leaf_count(t)), rng.choice(colours))
    return t


def random_fraction(cls: TwoColourRightVine, rng: random.Random):
    """The map of a random fraction [t, perm, s] with s of 1 to 3 carets."""
    s = random_tree(rng, rng.randint(1, 3))
    t = random_tree(rng, leaf_count(s) - 1)
    perm = list(range(1, leaf_count(s) + 1))
    rng.shuffle(perm)
    return evaluate_fraction(cls, t, tuple(perm), s)


def random_point(rng: random.Random, max_len: int = 6):
    from fskit.sequences import ev_periodic

    pre = "".join(rng.choice("01") for _ in range(rng.randint(0, max_len)))
    per = "".join(rng.choice("01") for _ in range(rng.randint(1, max_len)))
    return ev_periodic(pre, per)


def expanded_pieces(f, depth: int):
    """All pieces of the Eppm f, with families unfolded while the dom prefix
    is at most `depth` long."""
    yield from f.pieces
    for fam in f.families:
        m = 0
        while True:
            emitted = False
            for block in fam.blocks:
                piece = fam.piece_at(m, block)
                if len(piece.dom) <= depth:
                    emitted = True
                    yield piece
            if not emitted:
                break
            m += 1


def random_signed_word(rng: random.Random, length: int):
    return tuple(
        (rng.choice(("A0", "A1", "B0", "B1")), rng.choice((1, -1)))
        for _ in range(length)
    )


def unrolled(f, layers: int):
    """f with each family's first `layers` layers written as pieces."""
    pieces = list(f.pieces)
    fams = []
    for fam in f.families:
        for m in range(layers):
            pieces.extend(fam.piece_at(m, block) for block in fam.blocks)
        fams.append(
            replace(
                fam,
                dom_base=fam.dom_base + "1" * (layers * fam.dom_step),
                ran_base=fam.ran_base + "1" * (layers * fam.ran_step),
            )
        )
    return make_eppm(pieces, fams, f.limits)


def split_at_root(f):
    """The union of f's restrictions to the cones 0 and 1."""
    halves = [restrict(f, "0"), restrict(f, "1")]
    return make_eppm(
        [p for h in halves for p in h.pieces],
        [fam for h in halves for fam in h.families],
        [lim for h in halves for lim in h.limits],
    )
