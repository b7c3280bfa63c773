"""Golden normal forms: for seeded maps on four presentations, the line

    <class> <map> <writing>: <str(canonicalize(m))> | total | bijective | F/T/V

where the map is a fraction, a signed word or a product of fractions, and
the writing is the map itself, its inverse, or its restriction to one of
the cones e, 0, 1, 10 and 110.  A refusal prints the error's class name in
place of the answer.  tests/golden/normal_forms.txt holds the lines, and a
test regenerates them and compares the bytes; to rewrite the file:

    PYTHONPATH=src python tests/normal_form_corpus.py > tests/golden/normal_forms.txt
"""

from __future__ import annotations

import random
import sys

from conftest import (
    CLEARY2_TEXT,
    J3_TEXT,
    NONSIMPLE4_TEXT,
    RHO2_TEXT,
    random_fraction,
    random_signed_word,
    vine_class,
)
from fskit.dynamics import classify_element, evaluate_word
from fskit.eppm import EppmError, IDENTITY, canonicalize, compose, invert, make_eppm, restrict

TEXTS = {"j3": J3_TEXT, "nonsimple4": NONSIMPLE4_TEXT, "cleary2": CLEARY2_TEXT, "rho2": RHO2_TEXT}
CONES = ("", "0", "1", "10", "110")


def _answer(ask) -> str:
    try:
        return str(ask())
    except EppmError as refusal:
        return type(refusal).__name__


def _line(label: str, m) -> str:
    m = make_eppm(m.pieces, m.families, m.limits)  # a fresh object: nothing cached
    return " | ".join(
        [
            f"{label}: {_answer(lambda: canonicalize(m))}",
            _answer(lambda: m.total),
            _answer(lambda: m.bijective),
            _answer(lambda: classify_element(m)),
        ]
    )


def corpus(name: str):
    """(label, map) for the seeded fractions, words and products on `name`."""
    cls = vine_class(TEXTS[name])
    rng = random.Random(f"golden {name}")
    for i in range(20):
        yield f"fraction {i}", random_fraction(cls, rng)
    for i in range(16):
        word = random_signed_word(rng, rng.randint(1, 6))
        yield f"word {i}", evaluate_word(cls, word)
    for i in range(12):
        acc = IDENTITY
        for _ in range(rng.randint(2, 5)):
            acc = compose(acc, random_fraction(cls, rng))
        yield f"product {i}", acc


def lines():
    for name in TEXTS:
        for label, f in corpus(name):
            yield _line(f"{name} {label} map", f)
            yield _line(f"{name} {label} inverse", invert(f))
            for w in CONES:
                yield _line(f"{name} {label} restrict {w or 'e'}", restrict(f, w))


def text() -> str:
    return "".join(line + "\n" for line in lines())


if __name__ == "__main__":
    sys.stdout.write(text())
