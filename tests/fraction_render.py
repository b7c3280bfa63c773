"""The rendering path over `Fraction`: a cone's ends and a piece's
intercept as exact rationals, pieces sorted by their left end's value,
circle continuity checked mod 1 on rationals, and SVG coordinates rounded
from `Fraction`.  `fskit.plrender` computes the same plots on integer
numerators over powers of two; tests check the two agree byte for byte,
and read rendered dyadics and pieces as rationals through `value` and
`apply`."""

from __future__ import annotations

from fractions import Fraction

from fskit import dynamics
from fskit.eppm import Eppm, NotOrderPreserving, canonicalize
from fskit.plrender import (
    Dyadic,
    NotCyclicOrderPreserving,
    PlMap,
    PlPiece,
    dyadic,
)


def from_fraction(fr: Fraction) -> Dyadic:
    den = fr.denominator
    exp = den.bit_length() - 1
    if 2**exp != den:
        raise ValueError(f"{fr} is not dyadic")
    return dyadic(fr.numerator, exp)


def value(d: Dyadic) -> Fraction:
    return Fraction(d.num, 2**d.exp)


def apply(p: PlPiece, x: Fraction) -> Fraction:
    """p(x) = 2^slope_exp.x + intercept."""
    return Fraction(2) ** p.slope_exp * x + value(p.intercept)


def cone_left(prefix: str) -> Fraction:
    """j(prefix.0^inf): the left endpoint of the cone's dyadic interval."""
    if not prefix:
        return Fraction(0)
    return Fraction(int(prefix, 2), 2 ** len(prefix))


def cone_width(prefix: str) -> Fraction:
    return Fraction(1, 2 ** len(prefix))


def _piece_to_pl(dom: str, ran: str) -> PlPiece:
    left = cone_left(dom)
    slope_exp = len(dom) - len(ran)
    intercept = cone_left(ran) - Fraction(2) ** slope_exp * left
    return PlPiece(
        from_fraction(left),
        from_fraction(left + cone_width(dom)),
        slope_exp,
        from_fraction(intercept),
    )


def _expand(f: Eppm, depth: int) -> tuple[list[PlPiece], list[Dyadic]]:
    if depth < 0:
        raise ValueError(f"depth must be at least 0, got {depth}")
    pl: list[PlPiece] = []
    accumulation: list[Dyadic] = []
    for p in f.pieces:
        pl.append(_piece_to_pl(p.dom, p.ran))
    for fam in f.families:
        # draw a piece in the slab x.1^n.0 of the point x.1^inf (x not
        # ending in 1) iff len(x) + n <= depth: what is elided lives strictly
        # below the resolution, and the plot depends only on the map
        for d, r in fam.blocks:
            # len(x) + n for the block's piece at layer 0
            reach = len(fam.dom_base) + len(d) - len(d.lstrip("1"))
            for m in range((depth - reach) // fam.dom_step + 1):
                piece = fam.piece_at(m, (d, r))
                pl.append(_piece_to_pl(piece.dom, piece.ran))
        sup = cone_left(fam.dom_base) + cone_width(fam.dom_base)
        accumulation.append(from_fraction(sup))
    pl.sort(key=lambda q: value(q.left))
    return pl, sorted(dict.fromkeys(accumulation), key=value)


def to_interval_map(f: Eppm, depth: int = 12) -> PlMap:
    f = canonicalize(f)
    if not dynamics.is_order_preserving(f):
        raise NotOrderPreserving("interval rendering needs an order-preserving map")
    pieces, accumulation = _expand(f, depth)
    return PlMap(tuple(pieces), tuple(accumulation))


def to_circle_map(f: Eppm, depth: int = 12) -> PlMap:
    f = canonicalize(f)
    if not dynamics.is_cyclic_order_preserving(f):
        raise NotCyclicOrderPreserving("circle rendering needs a cyclic-order map")
    pieces, accumulation = _expand(f, depth)
    m = PlMap(tuple(pieces), tuple(accumulation))
    _validate_circle_continuity(m)
    return m


def _validate_circle_continuity(m: PlMap) -> None:
    """Adjacent rendered pieces of a T-type map must join continuously
    modulo 1 (gaps from truncation are skipped)."""
    for a, b in zip(m.pieces, m.pieces[1:]):
        if a.right != b.left:
            continue
        left_val = apply(a, value(a.right)) % 1
        right_val = apply(b, value(b.left)) % 1
        if left_val != right_val:
            raise NotCyclicOrderPreserving(
                f"discontinuity at {a.right}: {from_fraction(left_val)} vs "
                f"{from_fraction(right_val)}"
            )


def _round_half_even_scaled(fr: Fraction, digits: int = 9) -> int:
    scaled = fr * 10**digits
    n, d = scaled.numerator, scaled.denominator
    q, r = divmod(n, d)
    if 2 * r > d or (2 * r == d and q % 2):
        q += 1
    return q


def _svg_coord(fr: Fraction) -> str:
    q = _round_half_even_scaled(fr)
    sign = "-" if q < 0 else ""
    digits = str(abs(q)).rjust(10, "0")
    return f"{sign}{digits[:-9]}.{digits[-9:]}"


def emit_svg(m: PlMap, width: int = 512, height: int = 512) -> str:
    """Deterministic standalone SVG of the graph on [0,1]^2."""
    if width < 1 or height < 1:
        raise ValueError(f"plot size must be at least 1x1, got {width}x{height}")

    def x(fr: Fraction) -> str:
        return _svg_coord(fr * width)

    def y(fr: Fraction) -> str:
        return _svg_coord((1 - fr) * height)

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" '
        'fill="white" stroke="black" stroke-width="1"/>',
        f'<line x1="{x(Fraction(0))}" y1="{y(Fraction(0))}" '
        f'x2="{x(Fraction(1))}" y2="{y(Fraction(1))}" '
        'stroke="#cccccc" stroke-width="1" stroke-dasharray="4 4"/>',
    ]
    for p in m.pieces:
        x0, x1 = value(p.left), value(p.right)
        y0, y1 = apply(p, x0), apply(p, x1)
        lines.append(
            f'<line x1="{x(x0)}" y1="{y(y0)}" x2="{x(x1)}" y2="{y(y1)}" '
            'stroke="black" stroke-width="2"/>'
        )
    for a in m.accumulation_points:
        lines.append(
            f'<circle cx="{x(value(a))}" cy="{y(Fraction(0))}" r="3" '
            'fill="none" stroke="red" stroke-width="1"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
