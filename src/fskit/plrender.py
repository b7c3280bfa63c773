"""Exact piecewise-linear rendering on the unit interval and circle.

The Cantor space maps onto [0,1] by j(p) = sum p_k/2^k; a prefix piece
(u -> v) becomes the affine map of slope 2^{|u|-|v|} sending the dyadic
interval below u onto the one below v.  Tail families contribute pieces
until the rendered width drops under 2^-depth; beyond that the pieces are
elided and the accumulation point is recorded.  Everything is exact: all
endpoints and images are integer numerators over powers of two, and
slopes are powers of two.  Neither floats nor `Fraction` enter the data
path; SVG output serialises coordinates at 9 decimal digits, rounded half
to even.
"""

from __future__ import annotations

from dataclasses import dataclass

from .eppm import Eppm, EppmError, NotOrderPreserving, canonicalize, slabs
from . import dynamics


class NotCyclicOrderPreserving(EppmError):
    pass


@dataclass(frozen=True)
class Dyadic:
    """num / 2^exp, normalized so exp == 0 or num is odd."""

    num: int
    exp: int

    def __post_init__(self):
        if self.exp < 0 or (self.exp > 0 and self.num % 2 == 0):
            raise ValueError(f"unnormalized dyadic {self.num}/2^{self.exp}")

    # a / 2^e < b / 2^f exactly when a.2^f < b.2^e
    def __lt__(self, other: "Dyadic") -> bool:
        return self.num << other.exp < other.num << self.exp

    def __str__(self) -> str:
        return decimal_string(self)


def dyadic(num: int, exp: int = 0) -> Dyadic:
    if num == 0:
        return Dyadic(0, 0)
    # strip the common factors of two: num's trailing zero bits, up to exp
    shift = max(0, min(exp, (num & -num).bit_length() - 1))
    return Dyadic(num >> shift, exp - shift)


def decimal_string(d: Dyadic) -> str:
    """Exact decimal form; dyadics have terminating decimals."""
    if d.exp == 0:
        return str(d.num)
    scaled = d.num * 5**d.exp
    sign = "-" if scaled < 0 else ""
    digits = str(abs(scaled)).rjust(d.exp + 1, "0")
    return f"{sign}{digits[:-d.exp]}.{digits[-d.exp:]}"


@dataclass(frozen=True)
class PlPiece:
    left: Dyadic
    right: Dyadic
    slope_exp: int
    intercept: Dyadic  # x -> 2^slope_exp * x + intercept on [left, right)


@dataclass(frozen=True)
class PlMap:
    pieces: tuple[PlPiece, ...]
    accumulation_points: tuple[Dyadic, ...]


def _cone_piece(dom: str, ran: str) -> PlPiece:
    """The cone map dom -> ran: [u, u + 1) / 2^|dom| onto [v, v + 1) /
    2^|ran|, with intercept (v - u) / 2^|ran|, u and v read in binary."""
    u, v = int(dom or "0", 2), int(ran or "0", 2)
    return PlPiece(
        dyadic(u, len(dom)),
        dyadic(u + 1, len(dom)),
        len(dom) - len(ran),
        dyadic(v - u, len(ran)),
    )


def _expand(f: Eppm, depth: int) -> PlMap:
    if depth < 0:
        raise ValueError(f"depth must be at least 0, got {depth}")
    cones = [(p.dom, p.ran) for p in f.pieces]
    accumulation: set[Dyadic] = set()
    for fam in f.families:
        # draw slab n of the point x.1^inf iff len(x) + n <= depth: what is
        # elided lives strictly below the resolution, and the plot depends
        # only on the map
        p = fam.dom_step
        for x, n, u, (z, a, q, rest) in slabs(fam):
            for m in range((depth - len(x) - n) // p + 1):
                cones.append((x + "1" * (n + m * p) + "0" + u, z + "1" * (a + m * q) + rest))
        accumulation.add(_cone_piece(fam.dom_base, "").right)
    # the doms are prefix-free, so their string order is left-end order
    cones.sort()
    return PlMap(tuple(_cone_piece(dom, ran) for dom, ran in cones), tuple(sorted(accumulation)))


def to_interval_map(f: Eppm, depth: int = 12) -> PlMap:
    f = canonicalize(f)
    if not dynamics.is_order_preserving(f):
        raise NotOrderPreserving("interval rendering needs an order-preserving map")
    return _expand(f, depth)


def to_circle_map(f: Eppm, depth: int = 12) -> PlMap:
    f = canonicalize(f)
    if not dynamics.is_cyclic_order_preserving(f):
        raise NotCyclicOrderPreserving("circle rendering needs a cyclic-order map")
    m = _expand(f, depth)
    _validate_circle_continuity(m)
    return m


def _image(p: PlPiece, x: Dyadic) -> tuple[int, int]:
    """p(x) = 2^slope_exp.x + intercept as (numerator, exponent)."""
    x_exp, c = x.exp - p.slope_exp, p.intercept
    e = max(x_exp, c.exp)
    return (x.num << (e - x_exp)) + (c.num << (e - c.exp)), e


def _validate_circle_continuity(m: PlMap) -> None:
    """Adjacent rendered pieces of a T-type map must join continuously
    modulo 1 (gaps from truncation are skipped)."""
    for a, b in zip(m.pieces, m.pieces[1:]):
        if a.right != b.left:
            continue
        (n1, e1), (n2, e2) = _image(a, a.right), _image(b, b.left)
        e = max(e1, e2)
        if ((n1 << (e - e1)) - (n2 << (e - e2))) % (1 << e):
            raise NotCyclicOrderPreserving(
                f"discontinuity at {a.right}: {dyadic(n1 % (1 << e1), e1)} vs "
                f"{dyadic(n2 % (1 << e2), e2)}"
            )


# ---------------------------------------------------------------------------
# deterministic CSV / SVG emission


CSV_HEADER = "left,right,slope_exp,intercept_num,intercept_exp"


def emit_csv(m: PlMap) -> str:
    lines = [CSV_HEADER]
    for p in m.pieces:
        lines.append(
            f"{decimal_string(p.left)},{decimal_string(p.right)},"
            f"{p.slope_exp},{p.intercept.num},{p.intercept.exp}"
        )
    return "\n".join(lines) + "\n"


def _svg_coord(num: int, exp: int) -> str:
    """num / 2^exp at 9 decimals, rounded half to even."""
    den = 1 << exp
    q, r = divmod(num * 10**9, den)
    if 2 * r > den or (2 * r == den and q % 2):
        q += 1
    sign = "-" if q < 0 else ""
    digits = str(abs(q)).rjust(10, "0")
    return f"{sign}{digits[:-9]}.{digits[-9:]}"


def emit_svg(m: PlMap, width: int = 512, height: int = 512) -> str:
    """Deterministic standalone SVG of the graph on [0,1]^2."""
    if width < 1 or height < 1:
        raise ValueError(f"plot size must be at least 1x1, got {width}x{height}")

    # the point num / 2^exp of [0, 1] as an x or a y coordinate
    def x(num: int, exp: int) -> str:
        return _svg_coord(num * width, exp)

    def y(num: int, exp: int) -> str:
        return _svg_coord(((1 << exp) - num) * height, exp)

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" '
        'fill="white" stroke="black" stroke-width="1"/>',
        f'<line x1="{x(0, 0)}" y1="{y(0, 0)}" x2="{x(1, 0)}" y2="{y(1, 0)}" '
        'stroke="#cccccc" stroke-width="1" stroke-dasharray="4 4"/>',
    ]
    for p in m.pieces:
        lo, hi = p.left, p.right
        lines.append(
            f'<line x1="{x(lo.num, lo.exp)}" y1="{y(*_image(p, lo))}" '
            f'x2="{x(hi.num, hi.exp)}" y2="{y(*_image(p, hi))}" '
            'stroke="black" stroke-width="2"/>'
        )
    for a in m.accumulation_points:
        lines.append(
            f'<circle cx="{x(a.num, a.exp)}" cy="{y(0, 0)}" r="3" '
            'fill="none" stroke="red" stroke-width="1"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
