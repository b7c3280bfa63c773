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
from .eppm import Eppm, IDENTITY, evaluate
from .presentation import (
    TwoColourRightVine,
    enumerate_good_words,
    good_word_check,
    is_trivial_good_word,
)
from .sequences import ev_periodic


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
) -> Iterator[tuple[str, Eppm]]:
    """(w, kappa_omega(cls, w)) for the non-trivial good words w of length
    <= max_len in enumeration order.

    Each word's map is its prefix's map extended by one letter, the same
    Eppm as the per-word fold.  The prefix of a non-trivial good word is one
    of length one less, or a power of a, so only the maps of the previous
    length are kept."""
    a = cls.colour_a
    # maps of the words of the current and the previous length, the power
    # of a among them
    level: dict[str, Eppm] = {"": IDENTITY}
    prev: dict[str, Eppm] = {}
    length = 0
    # the whole enumeration first, so that a trace times it apart from the maps
    words = list(enumerate_good_words(cls, max_len))
    for word in words:
        if len(word) > length:
            length = len(word)
            prev = level
            level = {a * length: kappa_omega(cls, a, prev[a * (length - 1)])}
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
    it is babababab with j = 8, not ababababab with j = 9."""
    if max_len < 1:
        raise ValueError(f"max_len must be at least 1, got {max_len}")
    start = time.monotonic()
    tested = 0
    found: Optional[tuple[str, int]] = None
    for word, image in good_word_images(cls, max_len):
        tested += 1
        j = is_power_of_a1(image)
        if j is not None:
            found = (word, j)
            break

    seconds = time.monotonic() - start
    outcome = "CollapseFound" if found else "NoCollapseUpTo"
    word, j = found or (None, None)
    return ProbeReport(presentation_name, max_len, outcome, word, j, tested, seconds)


class WrongShape(Exception):
    pass


def certificate_check(cls: TwoColourRightVine, word: str) -> bool:
    """Witness-point check that kappa_omega(word) is no power of A1, for
    presentations with R_x = 2 (shape x = Y(s (x) Y)).

    A power of A1 sends (0)^inf to 1^j.(0)^inf and 0.(1)^inf to
    1^j.0.(1)^inf; the case analysis behind the simplicity proof guarantees
    one of the two witness images breaks that shape for every non-trivial
    good word."""
    if cls.R_x != 2:
        raise WrongShape(f"certificate needs R_x = 2, got {cls.R_x}")
    if not good_word_check(cls, word) or is_trivial_good_word(cls, word):
        raise ValueError(f"{word!r} is not a non-trivial good word")
    g = kappa_omega(cls, word)
    z1 = evaluate(g, ev_periodic("", "0"))
    z2 = evaluate(g, ev_periodic("0", "1"))
    # a power of A1 sends the witnesses to 1^j.(0)^inf and 1^j.0.(1)^inf
    z1_power_shape = z1.per == "0" and set(z1.pre) <= {"1"}
    z2_power_shape = z2.per == "1" and z2.pre.count("0") == 1
    return not (z1_power_shape and z2_power_shape)
