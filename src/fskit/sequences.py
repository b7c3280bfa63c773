"""Eventually periodic binary sequences u.(v)^inf, exactly represented.

These are the computable points of the Cantor space {0,1}^N.  Values are
kept in a normal form (primitive period, minimal preperiod) so that two
sequences are equal iff their representations are identical.  The literal
syntax is ``u(v)``, e.g. ``01(10)`` for 01.101010...; ``(0)`` and ``(1)``
are the endpoints o and omega.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction


class PointSyntaxError(ValueError):
    pass


def _primitive(v: str) -> str:
    n = len(v)
    return next((v[:d] for d in range(1, n) if n % d == 0 and v == v[:d] * (n // d)), v)


@dataclass(frozen=True)
class EvPeriodic:
    """Normalized eventually periodic sequence pre.(per)^inf."""

    pre: str
    per: str

    def __str__(self) -> str:
        return f"{self.pre}({self.per})"

    def prefix(self, n: int) -> str:
        laps = max(0, -(-(n - len(self.pre)) // len(self.per)))  # ceil
        return (self.pre + self.per * laps)[:n]

    def starts_with(self, w: str) -> bool:
        return self.prefix(len(w)) == w

    def drop(self, n: int) -> "EvPeriodic":
        """The sequence with its first n letters removed.  It needs no
        normalising: a suffix of a minimal preperiod is minimal, and a
        rotation of a primitive period is primitive."""
        if n <= len(self.pre):
            return EvPeriodic(self.pre[n:], self.per)
        k = (n - len(self.pre)) % len(self.per)
        return EvPeriodic("", self.per[k:] + self.per[:k])

    def prepend(self, w: str) -> "EvPeriodic":
        if self.pre and not w.strip("01"):  # pre's last letter keeps it normal
            return EvPeriodic(w + self.pre, self.per)
        return ev_periodic(w + self.pre, self.per)

    def is_constant(self, ch: str) -> bool:
        return self.pre == "" and self.per == ch

    def leading_run(self, ch: str) -> int:
        """Length of the maximal prefix of copies of ch; requires the
        sequence not to be constant ch."""
        if self.is_constant(ch):
            raise ValueError("constant sequence has no finite leading run")
        run = len(self.pre) - len(self.pre.lstrip(ch))
        if run < len(self.pre):
            return run
        return run + len(self.per) - len(self.per.lstrip(ch))  # per is not ch alone

    def has_tail(self, ch: str) -> bool:
        return self.per == ch

    def to_fraction(self) -> Fraction:
        """The value sum p_k / 2^k of the sequence in [0, 1]."""
        u, v = self.pre, self.per
        head = Fraction(int(u, 2) if u else 0, 2 ** len(u))
        tail = Fraction(int(v, 2), 2 ** len(v) - 1) / 2 ** len(u)
        return head + tail


def ev_periodic(pre: str, per: str) -> EvPeriodic:
    if not per or (pre + per).strip("01"):
        raise PointSyntaxError(f"bad sequence {pre!r}({per!r})")
    per = _primitive(per)
    while pre and pre[-1] == per[-1]:
        pre = pre[:-1]
        per = per[-1] + per[:-1]  # a rotation of a primitive word is primitive
    return EvPeriodic(pre, per)


_POINT_RE = re.compile(r"^([01]*)\(([01]+)\)$")


def parse_point(text: str) -> EvPeriodic:
    m = _POINT_RE.match(text.strip())
    if not m:
        raise PointSyntaxError(f"bad point literal {text!r}; expected u(v)")
    return ev_periodic(m.group(1), m.group(2))
