"""Readers of a rendered `PlMap`: its breakpoints, its exact fixed points,
and a parser for the CSV that `fskit.plrender.emit_csv` writes.  Tests
read plots with them; fskit itself only writes plots."""

from __future__ import annotations

from fractions import Fraction
from typing import Union

from fskit.plrender import CSV_HEADER, Dyadic, PlMap, PlPiece

from fraction_render import from_fraction, value


def breakpoints(m: PlMap) -> list[tuple[Dyadic, int, int]]:
    """Interior boundaries where slope or intercept jumps, as
    (point, left_slope_exp, right_slope_exp)."""
    out = []
    for a, b in zip(m.pieces, m.pieces[1:]):
        if a.right != b.left:
            continue
        if a.slope_exp != b.slope_exp or a.intercept != b.intercept:
            out.append((a.right, a.slope_exp, b.slope_exp))
    return out


FixedSet = Union[tuple[str, Fraction, Fraction], tuple[str, Fraction]]


def fixed_points(m: PlMap) -> list[FixedSet]:
    """Exact solutions of piece(x) = x: ("interval", l, r) for identity
    pieces, ("point", x) with x an exact rational otherwise."""
    out: list[FixedSet] = []
    for p in m.pieces:
        slope = Fraction(2) ** p.slope_exp
        if slope == 1 and p.intercept.num == 0:
            out.append(("interval", value(p.left), value(p.right)))
        elif slope != 1:
            x = value(p.intercept) / (1 - slope)
            if value(p.left) <= x < value(p.right):
                out.append(("point", x))
    return out


def parse_csv(text: str) -> PlMap:
    lines = [ln for ln in text.strip().splitlines() if ln]
    if lines[0] != CSV_HEADER:
        raise ValueError("bad CSV header")
    pieces = []
    for ln in lines[1:]:
        left_s, right_s, se, inum, iexp = ln.split(",")
        pieces.append(
            PlPiece(
                from_fraction(Fraction(left_s)),
                from_fraction(Fraction(right_s)),
                int(se),
                Dyadic(int(inum), int(iexp)),
            )
        )
    return PlMap(tuple(pieces), ())
