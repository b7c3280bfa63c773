"""The word problem of G = < a, b | a^p = b^q >, the germ group that
`fskit germs --end last` prints.  Test-only: germ equality at (1) is checked
against it.

z = a^p = b^q is central and G/<z> is the free product Z/p * Z/q.  The
weight a -> q, b -> p is a homomorphism G -> Z that sends z to pq, so it
tells the powers of z apart.  So an element is determined by its weight
together with its image in Z/p * Z/q, written as a reduced word: maximal
syllables of one letter, each exponent taken mod that letter's order and
none 0.
"""

from __future__ import annotations


def word_class(word, p: int, q: int) -> tuple[int, tuple[tuple[str, int], ...]]:
    """The complete invariant (weight, reduced syllables) of a word of
    (letter, exponent) pairs with letters 'a' and 'b'."""
    order = {"a": p, "b": q}
    weight = 0
    syllables: list[tuple[str, int]] = []
    for letter, exp in word:
        weight += exp * (q if letter == "a" else p)
        if syllables and syllables[-1][0] == letter:
            exp += syllables.pop()[1]
        exp %= order[letter]
        if exp:
            syllables.append((letter, exp))
    return weight, tuple(syllables)
