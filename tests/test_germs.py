"""Germs read off the normal form, against the rebase comparison they
replaced (tests/germ_rebase.py), the pruned germ relations at omega
checked on the dynamics, and germ equality at omega against the word
problem of the printed presentation (tests/amalgam_word.py)."""

from __future__ import annotations

import random

import pytest

from conftest import (
    CLEARY2_TEXT,
    J3_TEXT,
    NONSIMPLE4_TEXT,
    RHO2_TEXT,
    presentation,
    random_fraction,
    random_signed_word,
    split_at_root,
    unrolled,
    vine_class,
)
from fskit.dynamics import caret_map, evaluate_word, germ_at
from fskit.eppm import IDENTITY, UndefinedAt, canonicalize, compose, invert
from fskit.presentation import End, germ_presentation
from fskit.probe import kappa_omega
from fskit.sequences import parse_point
from amalgam_word import word_class
from germ_rebase import germs_equal_by_rebase

# right vines named by their a-words, beside the shared presentations
A122_TEXT = "colors a b\nrel a1 a2 a2 = b1 b2 b3\n"
A1131_TEXT = "colors a b\nrel a1 a1 a3 a1 = b1 b2 b3 b4\n"
A111_TEXT = "colors a b\nrel a1 a1 a1 = b1 b2 b3\n"
A1111_TEXT = "colors a b\nrel a1 a1 a1 a1 = b1 b2 b3 b4\n"
CLASSES = {
    "j3": vine_class(J3_TEXT),
    "nonsimple4": vine_class(NONSIMPLE4_TEXT),
    "cleary2": vine_class(CLEARY2_TEXT),
    "rho2": vine_class(RHO2_TEXT),
    "a122": vine_class(A122_TEXT),
    "a1131": vine_class(A1131_TEXT),
    "a111": vine_class(A111_TEXT),
    "a1111": vine_class(A1111_TEXT),
}
POINTS = [parse_point(t) for t in ("(1)", "0(1)", "10(1)", "00(1)", "010(1)")]


def corpus(cls, rng: random.Random):
    """Good-word maps, signed words and fractions, some followed by a map
    supported in the cone 0 (so their germs at (1) stay, while their normal
    forms change), and re-writings of a few."""
    a0 = caret_map(cls, "a", 0)
    maps = [IDENTITY]
    words = ["".join(rng.choice("ab") for _ in range(rng.randint(1, 4))) for _ in range(5)]
    maps += [kappa_omega(cls, w) for w in words]
    maps += [evaluate_word(cls, random_signed_word(rng, rng.randint(1, 4))) for _ in range(5)]
    maps += [random_fraction(cls, rng) for _ in range(4)]
    behind = [
        compose(a0, compose(h, invert(a0)))
        for h in (random_fraction(cls, rng), caret_map(cls, "b", 1))
    ]
    maps += [compose(f, h) for f in maps[:6] for h in behind]
    maps += [rewrite(f) for f in maps[:4] for rewrite in (lambda f: unrolled(f, 2), split_at_root)]
    return maps


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_germ_equality_agrees_with_rebase(seed):
    rng = random.Random(seed)
    equal_forms_differ = unequal = 0
    for cls in CLASSES.values():
        maps = corpus(cls, rng)
        for p in POINTS:
            germs = []
            for f in maps:
                try:
                    germs.append((germ_at(f, p), f))
                except UndefinedAt:
                    pass
            for i, (g1, f1) in enumerate(germs):
                for g2, f2 in germs[:i]:
                    if g1.target != g2.target:
                        assert g1 != g2
                        continue
                    same = g1 == g2
                    assert same is germs_equal_by_rebase(f1, f2, p), (p, str(f1), str(f2))
                    equal_forms_differ += same and canonicalize(f1) != canonicalize(f2)
                    unequal += not same
    assert equal_forms_differ and unequal


# the pruned relation a^p = b^q at omega, and whether the germ group at
# omega is abelian, for each presentation
OMEGA_GERMS = {
    "j3": (J3_TEXT, 2, 3, False),
    "nonsimple4": (NONSIMPLE4_TEXT, 3, 4, False),
    "cleary2": (CLEARY2_TEXT, 1, 2, True),
    "rho2": (RHO2_TEXT, 2, 2, True),
    "a122": (A122_TEXT, 2, 3, False),
    "a1131": (A1131_TEXT, 2, 4, False),
    "a111": (A111_TEXT, 1, 3, True),
    "a1111": (A1111_TEXT, 1, 4, True),
}


@pytest.mark.parametrize("name", list(OMEGA_GERMS))
def test_pruned_relation_holds_on_germs_at_omega(name):
    text, p, q, abelian = OMEGA_GERMS[name]
    cls = CLASSES[name]
    out = germ_presentation(presentation(text), End.LAST)
    assert out.relators == ((("a",) * p, ("b",) * q),)
    omega = parse_point("(1)")
    assert germ_at(kappa_omega(cls, "a"), omega) != germ_at(IDENTITY, omega)
    assert germ_at(kappa_omega(cls, "a" * p), omega) == germ_at(kappa_omega(cls, "b" * q), omega)
    ab = germ_at(kappa_omega(cls, "ab"), omega)
    ba = germ_at(kappa_omega(cls, "ba"), omega)
    assert (ab == ba) is abelian


def germ_at_omega(cls, word):
    """The germ at (1) of a word of ('a' | 'b', +-1) pairs, read as A1, B1."""
    signed = tuple(("A1" if letter == "a" else "B1", exp) for letter, exp in word)
    return germ_at(evaluate_word(cls, signed), parse_point("(1)"))


@pytest.mark.parametrize("name", ["j3", "cleary2", "a122", "a1131", "a111", "a1111"])
def test_germ_equality_at_omega_is_the_printed_word_problem(name):
    # there the germ group at omega is < a, b | a^p = b^q > itself
    _, p, q, _ = OMEGA_GERMS[name]
    rng = random.Random(name)
    words = [
        tuple((rng.choice("ab"), rng.choice((1, -1))) for _ in range(rng.randint(0, 7)))
        for _ in range(150)
    ]
    germs = [germ_at_omega(CLASSES[name], w) for w in words]
    classes = [word_class(w, p, q) for w in words]
    equal = 0
    for i in range(len(words)):
        for j in range(i):
            same = classes[i] == classes[j]
            assert (germs[i] == germs[j]) is same, (words[i], words[j])
            equal += same
    assert 0 < equal < len(words) * (len(words) - 1) // 2


A, B, B_ = ("a", 1), ("b", 1), ("b", -1)


@pytest.mark.parametrize(
    "name, word, other",
    [
        ("rho2", (A, B_) * 2, ()),
        ("rho2", (A, B), (B, A)),
        ("nonsimple4", (A, B) * 5, (A,) * 9),
    ],
)
def test_germ_group_at_omega_is_a_proper_quotient(name, word, other):
    # relations of the germs at omega that < a, b | a^p = b^q > lacks
    _, p, q, _ = OMEGA_GERMS[name]
    cls = CLASSES[name]
    assert word_class(word, p, q) != word_class(other, p, q)
    assert germ_at_omega(cls, word) == germ_at_omega(cls, other)


def test_j3_germs_at_omega_are_not_metabelian():
    # projective germs are affine, so they satisfy [[x, y], [z, w]] = 1
    def commutator(x, y):
        x_, y_ = (tuple((letter, -exp) for letter, exp in reversed(w)) for w in (x, y))
        return x + y + x_ + y_

    word = commutator(commutator((A,), (B,)), commutator((A,), (B_,)))
    assert germ_at_omega(CLASSES["j3"], word) != germ_at_omega(CLASSES["j3"], ())
