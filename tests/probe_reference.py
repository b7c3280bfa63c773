"""The collapse probe as fskit ran it before a-prefixed words were decided
by cancellation and other words refuted at witness points, kept as an
independent reference for it.

Every good word, a-prefixed or not, gets its own map: its prefix's map
extended by one letter, with the powers of a kept among the maps of each
length.  Every map is decided by `is_power_of_a1`.  It uses neither the
cancellation of A1 nor witness points, so it checks that skipping the
maps of a^i.w' and of refuted words changes no report.
"""

from __future__ import annotations

from typing import Optional

from fskit.dynamics import caret_map, is_power_of_a1
from fskit.eppm import Eppm, IDENTITY, compose
from fskit.presentation import TwoColourRightVine, enumerate_good_words
from fskit.probe import ProbeReport


def every_word_images(cls: TwoColourRightVine, max_len: int):
    """(w, kappa_omega(cls, w)) for every non-trivial good word w of length
    <= max_len, in enumeration order."""
    a = cls.colour_a
    level: dict[str, Eppm] = {"": IDENTITY}
    prev: dict[str, Eppm] = {}
    length = 0
    for word in enumerate_good_words(cls, max_len):
        if len(word) > length:
            length = len(word)
            prev = level
            level = {a * length: compose(prev[a * (length - 1)], caret_map(cls, a, 1))}
        image = compose(prev[word[:-1]], caret_map(cls, word[-1], 1))
        level[word] = image
        yield word, image


def every_word_probe(
    cls: TwoColourRightVine, max_len: int, presentation_name: str = ""
) -> ProbeReport:
    """The first collapse kappa_omega(w) = A1^j in enumeration order, with
    `seconds` left at 0."""
    tested = 0
    found: Optional[tuple[str, int]] = None
    for word, image in every_word_images(cls, max_len):
        tested += 1
        j = is_power_of_a1(image)
        if j is not None:
            found = (word, j)
            break
    outcome = "CollapseFound" if found else "NoCollapseUpTo"
    word, j = found or (None, None)
    return ProbeReport(presentation_name, max_len, outcome, word, j, tested)
