"""Good-word faithfulness probe.

kappa_omega reads a positive colour word into the composed last-leaf
dynamics (a -> A1, b -> B1).  A non-trivial good word whose image is a
power of A1 certifies that the canonical action is unfaithful (the
category has a proper left-cancellative quotient); absence of collapses
over all good words is the faithfulness criterion.  The probe searches
words in length-then-lex order and reports the first collapse, or that
none exists up to the given length.  A NoCollapse outcome is bounded
evidence, not a proof.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Iterator, Optional

from .dynamics import caret_map, compose, is_power_of_a1
from .eppm import Eppm, IDENTITY
from .presentation import TwoColourRightVine, enumerate_good_words


def kappa_omega(cls: TwoColourRightVine, word: str, start: Eppm = IDENTITY) -> Eppm:
    """Compose A1/B1 per letter onto `start`, leftmost letter outermost.

    This is a left fold, so kappa_omega(cls, v, kappa_omega(cls, u)) is
    kappa_omega(cls, u + v), the same Eppm."""
    if not word:
        raise ValueError("kappa_omega needs a non-empty word")
    acc = start
    for ch in word:
        acc = compose(acc, caret_map(cls, ch, 1))
    return acc


@dataclass(frozen=True)
class ProbeReport:
    presentation: str
    max_len: int
    outcome: str  # "CollapseFound" | "NoCollapseUpTo"
    collapse_word: Optional[str] = None
    collapse_power: Optional[int] = None
    tested: int = 0
    seconds: float = 0.0

    def to_json(self) -> str:
        data = {
            "presentation": self.presentation,
            "max_len": self.max_len,
            "outcome": self.outcome,
            "tested": self.tested,
            # kept for readers of the report format: every word is decided
            "inconclusive": [],
            "seconds": round(self.seconds, 3),
        }
        if self.collapse_word is not None:
            data["collapse"] = {"word": self.collapse_word, "j": self.collapse_power}
        return json.dumps(data, sort_keys=True)


def good_word_images(
    cls: TwoColourRightVine, max_len: int
) -> Iterator[tuple[str, Optional[Eppm]]]:
    """(w, kappa_omega(cls, w)) for the non-trivial good words w of length
    <= max_len that start with b, and (w, None) for the words w = a^i.w'
    with i > 0, all in enumeration order.

    No map is built for a^i.w': its image is A1^i kappa_omega(w'), and A1
    is injective, so it collapses exactly when w' does, and w' is shorter
    and listed before it.  Each map of a word starting with b is its
    prefix's map extended by one letter, the same Eppm as the per-word
    fold.  That prefix is empty or starts with b and is one letter shorter,
    so only the maps of the previous length are kept."""
    a = cls.colour_a
    # maps of the b-words of the current and the previous length
    level: dict[str, Eppm] = {"": IDENTITY}
    prev: dict[str, Eppm] = {}
    length = 0
    # the whole enumeration first, so that a trace times it apart from the maps
    words = list(enumerate_good_words(cls, max_len))
    for word in words:
        if word[0] == a:
            yield word, None
            continue
        if len(word) > length:
            length = len(word)
            prev, level = level, {}
        image = kappa_omega(cls, word[-1], prev[word[:-1]])
        level[word] = image
        yield word, image


def probe(
    cls: TwoColourRightVine,
    max_len: int,
    presentation_name: str = "",
) -> ProbeReport:
    """Search non-trivial good words of length <= max_len for a collapse
    kappa_omega(w) = A1^j, and report the first in enumeration order.

    Since kappa_omega(a^i.w') = A1^i kappa_omega(w') and A1 is injective, a
    collapse of a^i.w' to A1^j is a collapse of w' to A1^(j-i), and w' is a
    shorter non-trivial good word.  So the first reported collapse is the
    a-stripped form of any a-prefixed collapse: for a1 a1 a3 a4 = b1 b2 b3 b4
    it is babababab with j = 8, not ababababab with j = 9.  An a-prefixed
    word is therefore counted in `tested` and decided by its a-stripped
    word, which was tested before it, with no map built."""
    if max_len < 1:
        raise ValueError(f"max_len must be at least 1, got {max_len}")
    start = time.monotonic()
    tested = 0
    found: Optional[tuple[str, int]] = None
    for word, image in good_word_images(cls, max_len):
        tested += 1
        if image is None:  # decided by its a-stripped word, tested earlier
            continue
        j = is_power_of_a1(image)
        if j is not None:
            found = (word, j)
            break

    seconds = time.monotonic() - start
    outcome = "CollapseFound" if found else "NoCollapseUpTo"
    word, j = found or (None, None)
    return ProbeReport(presentation_name, max_len, outcome, word, j, tested, seconds)
