"""The good-word test as fskit ran it on whole words before good words were
grown letter by letter, kept as a brute-force reference for
`fskit.presentation.good_b_words` and `enumerate_good_words`."""

from fskit.presentation import TwoColourRightVine


def good_word_check(cls: TwoColourRightVine, w: str) -> bool:
    """A non-empty word a^i.w' is good when w' is empty (and i > 0) or w'
    starts with b and avoids a^{R_x} and b^M as subwords."""
    a, b = cls.colour_a, cls.colour_b
    if not w or any(ch not in (a, b) for ch in w):
        return False
    i = 0
    while i < len(w) and w[i] == a:
        i += 1
    rest = w[i:]
    if not rest:
        return True
    if rest[0] != b:  # cannot happen once the a-prefix is stripped
        return False
    return a * cls.R_x not in rest and b * cls.M not in rest


def is_trivial_good_word(cls: TwoColourRightVine, w: str) -> bool:
    return bool(w) and set(w) == {cls.colour_a}
