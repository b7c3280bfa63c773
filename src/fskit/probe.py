"""Good-word faithfulness probe.

kappa_omega reads a positive colour word into the composed last-leaf
dynamics (a -> A1, b -> B1).  A non-trivial good word whose image is a
power of A1 certifies that the canonical action is unfaithful (the
category has a proper left-cancellative quotient); absence of collapses
over all good words is the faithfulness criterion.  The probe searches
words in length-then-lex order and reports the first collapse, or that
none exists up to the given length.  A NoCollapse outcome is bounded
evidence, not a proof.

Most words are refuted by their images at a few fixed witness points,
exact points that A1^j cannot send where the word does; only the words
that survive get an exact map.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Optional

from .dynamics import caret_map, compose, is_power_of_a1
from .eppm import Eppm, IDENTITY, evaluate
from .presentation import TwoColourRightVine, good_b_words
from .sequences import EvPeriodic, parse_point

# A1^j sends (0) to 1^j(0), which gives j, and any p to 1^j.p
WITNESS_POINTS = tuple(parse_point(text) for text in ("(0)", "(10)", "(110)", "0(1)"))


def kappa_omega(cls: TwoColourRightVine, word: str) -> Eppm:
    """Compose A1/B1 per letter onto the identity, leftmost letter
    outermost: a left fold."""
    if not word:
        raise ValueError("kappa_omega needs a non-empty word")
    acc = IDENTITY
    for ch in word:
        acc = compose(acc, caret_map(cls, ch, 1))
    return acc


class Witnesses:
    """The images of kappa_omega(cls, w) at WITNESS_POINTS, which can
    refute that w is a power of A1.

    kappa is a left fold, kappa(c.w') = caret(c) o kappa(w'), so a point's
    image cannot be carried on from a word's prefix, but it can from its
    suffix: the image under c.w' is the caret's image of that under w'.
    So each point keeps a memo of images keyed by suffix, which starts at
    "" -> the point.  image reads it from the longest stored suffix down
    and stores each longer suffix on the way back.  Words come in length
    order, so that suffix is usually one or two letters short of the word,
    and an image costs one or two steps.  A step is `evaluate` of the
    caret, a prepend for A1.  One point can recur under different
    suffixes, so each caret's images are memoised by point too."""

    def __init__(self, cls: TwoColourRightVine):
        self.memos: list[dict[str, EvPeriodic]] = [{"": p} for p in WITNESS_POINTS]
        self.carets = {ch: caret_map(cls, ch, 1) for ch in (cls.colour_a, cls.colour_b)}
        self.steps: dict[str, dict[EvPeriodic, EvPeriodic]] = {ch: {} for ch in self.carets}

    def image(self, i: int, word: str) -> EvPeriodic:
        """kappa_omega(cls, word) at WITNESS_POINTS[i]."""
        memo = self.memos[i]
        k = 0
        while word[k:] not in memo:  # "" is there
            k += 1
        image = memo[word[k:]]
        for k in reversed(range(k)):
            steps = self.steps[word[k]]
            if image not in steps:
                steps[image] = evaluate(self.carets[word[k]], image)
            image = steps[image]
            memo[word[k:]] = image
        return image

    def refute(self, word: str) -> bool:
        """Whether some point shows that kappa_omega(cls, word) is no power
        A1^j: the first point, (0), must go to 1^j(0), and every later one
        p to 1^j.p.  A later point is evaluated only when the earlier ones
        agree."""
        first = self.image(0, word)
        if first.per != "0" or "0" in first.pre:
            return True
        ones = first.pre
        return any(
            self.image(i, word) != p.prepend(ones)
            for i, p in enumerate(WITNESS_POINTS[1:], 1)
        )


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

    Only the b-words of good_b_words are looked at.  A word a^i.w' with
    i > 0 has image A1^i kappa_omega(w'), and A1 is injective, so it
    collapses exactly when w' does, and w' is shorter and tested earlier.
    Such words come first at each length, one per shorter b-word, so they
    are counted in `tested` but not listed.  The first reported collapse is
    therefore the a-stripped form of any a-prefixed collapse: for
    a1 a1 a3 a4 = b1 b2 b3 b4 it is babababab with j = 8, not ababababab
    with j = 9.

    A b-word is first read at the witness points, one point at a time,
    each image built from the word's suffixes (Witnesses).  A point
    where the word does not act as A1^j is an exact witness that it is no
    collapse, and it is skipped.  A word that no point refutes gets the
    exact check is_power_of_a1(kappa_omega(cls, word)).  The search stops
    at the first collapse, so a larger max_len costs nothing past its
    length."""
    if max_len < 1:
        raise ValueError(f"max_len must be at least 1, got {max_len}")
    start = time.monotonic()
    tested = 0
    shorter = 0  # b-words shorter than the current length
    witnesses = Witnesses(cls)
    found: Optional[tuple[str, int]] = None
    length = 0
    for length, words in enumerate(good_b_words(cls, max_len), 1):
        tested += shorter  # the words a^i.w' of this length
        for word in words:
            tested += 1
            if witnesses.refute(word):
                continue
            j = is_power_of_a1(kappa_omega(cls, word))
            if j is not None:
                found = (word, j)
                break
        if found:
            break
        shorter += len(words)
    else:
        # the lengths past the last b-word hold only words a^i.w'
        tested += (max_len - length) * shorter

    seconds = time.monotonic() - start
    outcome = "CollapseFound" if found else "NoCollapseUpTo"
    word, j = found or (None, None)
    return ProbeReport(presentation_name, max_len, outcome, word, j, tested, seconds)
