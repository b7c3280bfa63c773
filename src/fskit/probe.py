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
from typing import Optional

from .dynamics import caret_map, compose, is_power_of_a1
from .eppm import Eppm, IDENTITY
from .presentation import TwoColourRightVine, good_b_words


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


def probe(
    cls: TwoColourRightVine,
    max_len: int,
    presentation_name: str = "",
) -> ProbeReport:
    """Search non-trivial good words of length <= max_len for a collapse
    kappa_omega(w) = A1^j, and report the first in enumeration order
    (length-then-lex, as enumerate_good_words lists them).

    Only the b-words of good_b_words get a map: each is its prefix's map,
    kept from the previous length, extended by one letter.  A word a^i.w'
    with i > 0 has image A1^i kappa_omega(w'), and A1 is injective, so it
    collapses exactly when w' does, and w' is shorter and tested earlier.
    Such words come first at each length, one per shorter b-word, so they
    are counted in `tested` but not listed.  The first reported collapse is
    therefore the a-stripped form of any a-prefixed collapse: for
    a1 a1 a3 a4 = b1 b2 b3 b4 it is babababab with j = 8, not ababababab
    with j = 9.  The search stops at the first collapse, so a larger
    max_len costs nothing past its length."""
    if max_len < 1:
        raise ValueError(f"max_len must be at least 1, got {max_len}")
    start = time.monotonic()
    tested = 0
    shorter = 0  # b-words shorter than the current length
    images: dict[str, Eppm] = {"": IDENTITY}  # maps of the previous length
    found: Optional[tuple[str, int]] = None
    length = 0
    for length, words in enumerate(good_b_words(cls, max_len), 1):
        tested += shorter  # the words a^i.w' of this length
        level: dict[str, Eppm] = {}
        for word in words:
            tested += 1
            image = kappa_omega(cls, word[-1], images[word[:-1]])
            j = is_power_of_a1(image)
            if j is not None:
                found = (word, j)
                break
            level[word] = image
        if found:
            break
        shorter += len(words)
        images = level
    else:
        # the lengths past the last b-word hold only words a^i.w'
        tested += (max_len - length) * shorter

    seconds = time.monotonic() - start
    outcome = "CollapseFound" if found else "NoCollapseUpTo"
    word, j = found or (None, None)
    return ProbeReport(presentation_name, max_len, outcome, word, j, tested, seconds)
