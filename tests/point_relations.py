"""Relations between eventually periodic points that tests check images
against: their letters, sharing a tail, and the lexicographic order."""

from __future__ import annotations

from fskit.sequences import EvPeriodic


def letter(p: EvPeriodic, i: int) -> str:
    """The letter of p at index i."""
    if i < len(p.pre):
        return p.pre[i]
    return p.per[(i - len(p.pre)) % len(p.per)]


def tail_equivalent(p: EvPeriodic, q: EvPeriodic) -> bool:
    """True iff p and q share a common suffix.

    With primitive periods, this holds exactly when the periods are
    rotations of each other (every rotation occurs as a suffix of both).
    """
    if len(p.per) != len(q.per):
        return False
    return q.per in p.per + p.per


def compare(p: EvPeriodic, q: EvPeriodic) -> int:
    """Lexicographic comparison (0 < 1); -1, 0, or 1."""
    if p == q:
        return 0
    bound = len(p.pre) + len(q.pre) + len(p.per) * len(q.per) + 1
    for i in range(bound):
        a, b = letter(p, i), letter(q, i)
        if a != b:
            return -1 if a < b else 1
    return 0
