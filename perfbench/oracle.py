"""Independent answers for the benchmark's checks.

Nothing here imports fskit.eppm, fskit.dynamics, fskit.probe or
fskit.plrender.  Points are evaluated by the stream oracle of the test
suite (tests/stream_oracle.py), which applies the caret rules letter by
letter to exact eventually periodic sequences; good words come from their
definition; piecewise-linear pieces come from pushing whole cones through
the same caret rules (``fraction_pieces``).
"""

from __future__ import annotations

import importlib.util
import itertools
import math
import re
from fractions import Fraction
from pathlib import Path

from fskit.forest import build_tree, parse_caret_word
from fskit.sequences import EvPeriodic, ev_periodic


def load_stream_oracle(root: Path):
    path = root / "tests" / "stream_oracle.py"
    spec = importlib.util.spec_from_file_location("stream_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def random_point(rng) -> EvPeriodic:
    pre = "".join(rng.choice("01") for _ in range(rng.randint(0, 6)))
    per = "".join(rng.choice("01") for _ in range(rng.randint(1, 6)))
    return ev_periodic(pre, per)


# ---------------------------------------------------------------------------
# good words and collapse verdicts


def good_words(a: str, b: str, r_x: int, m: int, max_len: int) -> list[str]:
    """Non-trivial good words a^i.w' (w' starts with b and avoids a^{R_x}
    and b^M) of length <= max_len, in length-then-lex order with a < b."""
    out = []
    for length in range(1, max_len + 1):
        for letters in itertools.product((a, b), repeat=length):
            w = "".join(letters)
            rest = w.lstrip(a)
            if rest and a * r_x not in rest and b * m not in rest:
                out.append(w)
    return out


def kappa_image(oracle, cls, word: str, p: EvPeriodic) -> EvPeriodic:
    signed = tuple(("A1" if ch == cls.colour_a else "B1", 1) for ch in word)
    return oracle.apply_word(cls, signed, p)


def power_of_a1_witness(oracle, cls, word: str, points) -> tuple[bool, int]:
    """(refuted, j): refuted when some point shows kappa(word) is no power
    of A1; otherwise j is the power every point agreed on."""
    image = kappa_image(oracle, cls, word, ev_periodic("", "0"))
    if image.per != "0" or image.pre.strip("1"):
        return True, -1
    j = len(image.pre)
    for p in points:
        if kappa_image(oracle, cls, word, p) != p.prepend("1" * j):
            return True, -1
    return False, j


def expected_probe_report(oracle, cls, max_len: int, points) -> dict:
    """The report an exact probe must give: the first good word the oracle
    cannot refute on `points` is the collapse, with its power j."""
    words = good_words(cls.colour_a, cls.colour_b, cls.R_x, cls.M, max_len)
    for tested, word in enumerate(words, 1):
        refuted, j = power_of_a1_witness(oracle, cls, word, points)
        if not refuted:
            return {
                "outcome": "CollapseFound",
                "tested": tested,
                "collapse": {"word": word, "j": j},
                "inconclusive": [],
            }
    return {"outcome": "NoCollapseUpTo", "tested": len(words), "inconclusive": []}


def check_probe_report(report: dict, expected: dict) -> str | None:
    for key in ("outcome", "tested", "collapse", "inconclusive"):
        if report.get(key) != expected.get(key):
            return f"{key}: got {report.get(key)!r}, expected {expected.get(key)!r}"
    return None


# ---------------------------------------------------------------------------
# fractions


_FRACTION = re.compile(r"^\[([^|]*)\|([^|]*)\|([^|]*)\]$")


class FractionLiteral:
    """A fraction literal [t | perm | s] with its trees, for the oracle."""

    def __init__(self, literal: str):
        m = _FRACTION.match(literal)
        if not m:
            raise ValueError(f"bad fraction literal {literal!r}")
        self.literal = literal
        self.t_word = parse_caret_word(m.group(1))
        self.s_word = parse_caret_word(m.group(3))
        self.t = build_tree(self.t_word)
        self.s = build_tree(self.s_word)
        n = len(self.s_word) + 1
        text = m.group(2).strip()
        self.perm = tuple(range(1, n + 1)) if text == "id" else tuple(
            int(x) for x in text.split()
        )

    def apply(self, oracle, cls, p: EvPeriodic) -> EvPeriodic:
        return oracle.apply_fraction(cls, self.t, self.perm, self.s, p)


def random_caret_word(rng, carets: int) -> tuple[tuple[str, int], ...]:
    return tuple((rng.choice("ab"), rng.randint(1, i + 1)) for i in range(carets))


def fraction_literal(t_word, perm, s_word) -> str:
    def fmt(word):
        return " ".join(f"{c}{i}" for c, i in word)

    perm_text = "id" if perm == tuple(range(1, len(perm) + 1)) else " ".join(
        map(str, perm)
    )
    return f"[{fmt(t_word)} | {perm_text} | {fmt(s_word)}]"


def product_image(oracle, cls, factors, p: EvPeriodic) -> EvPeriodic:
    """(f_1 o ... o f_k)(p): the rightmost factor acts first."""
    for f in reversed(factors):
        p = f.apply(oracle, cls, p)
    return p


# ---------------------------------------------------------------------------
# piecewise-linear pieces by pushing cones through the caret rules


def _leaf_paths(word) -> list[tuple[tuple[str, int], ...]]:
    """Root-to-leaf (colour, direction) paths of the tree a caret word grows."""
    leaves: list[tuple[tuple[str, int], ...]] = [()]
    for colour, i in word:
        path = leaves[i - 1]
        leaves[i - 1 : i] = [path + ((colour, 0),), path + ((colour, 1),)]
    return leaves


class _NeedMore(Exception):
    """The cone is too coarse to decide the next step."""


class _Undefined(Exception):
    """The step is undefined on the whole cone."""


class ConePusher:
    """Applies caret maps to whole cones x.Z (x a finite word, Z any tail)."""

    def __init__(self, cls):
        self.cls = cls

    def stacked_leaf(self, i: int) -> str:
        n = self.cls.n
        j, k = divmod(i - 1, n - 1)
        return "1" * (self.cls.R_x * j) + self.cls.leaves[k]

    def _find_leaf(self, x: str) -> int:
        ones = len(x) - len(x.lstrip("1"))
        if ones == len(x):
            raise _NeedMore
        n, r = self.cls.n, self.cls.R_x
        need_more = False
        for j in range(ones // r + 1):
            rest = x[r * j :]
            for k, leaf in enumerate(self.cls.leaves[: n - 1], 1):
                if rest.startswith(leaf):
                    return j * (n - 1) + k
                if leaf.startswith(rest):
                    need_more = True
        if need_more:
            raise _NeedMore
        raise ValueError(f"no stacked leaf prefixes {x!r}")

    def _peel(self, x: str, w: str) -> str:
        if x.startswith(w):
            return x[len(w) :]
        if w.startswith(x):
            raise _NeedMore
        raise _Undefined

    def step(self, colour: str, direction: int, inverse: bool, x: str) -> str:
        cls = self.cls
        if colour == cls.colour_a:
            w = str(direction)
            return self._peel(x, w) if inverse else w + x
        if direction == 0:
            w = "0" * cls.L_x
            return self._peel(x, w) if inverse else w + x
        i = self._find_leaf(x)
        if inverse and i < 2:
            raise _Undefined
        leaf = self.stacked_leaf(i)
        return self.stacked_leaf(i - 1 if inverse else i + 1) + x[len(leaf) :]


def fraction_pieces(cls, frac: FractionLiteral, max_len: int):
    """Pieces (u, v) with frac(u.z) = v.z, covering every point outside
    cones longer than max_len (which lie at accumulation points)."""
    pusher = ConePusher(cls)
    s_paths, t_paths = _leaf_paths(frac.s_word), _leaf_paths(frac.t_word)
    pieces = []
    todo = [""]
    while todo:
        u = todo.pop()
        try:
            pieces.append((u, _push(pusher, frac, s_paths, t_paths, u)))
        except _NeedMore:
            if len(u) < max_len:
                todo.extend((u + "1", u + "0"))
    return pieces


def _push(pusher, frac, s_paths, t_paths, u: str) -> str:
    for j, s_path in enumerate(s_paths, 1):
        x = u
        try:
            for colour, direction in s_path:  # peel from the root outwards
                x = pusher.step(colour, direction, True, x)
        except _Undefined:
            continue
        for colour, direction in reversed(t_paths[frac.perm[j - 1] - 1]):
            x = pusher.step(colour, direction, False, x)
        return x
    raise ValueError(f"cone {u!r} lies in no cone of the source tree")


def has_even_integer_intercept(u: str, v: str) -> bool:
    """Whether the affine map of the piece u -> v on [0, 1] has a non-zero
    even integer intercept: (int(v) - int(u)) / 2^|v| in 2Z minus 0."""
    diff = int(v or "0", 2) - int(u or "0", 2)
    return diff != 0 and diff % 2 ** (len(v) + 1) == 0


# ---------------------------------------------------------------------------
# rendered SVG


_LINE = re.compile(
    r'<line x1="([-0-9.]+)" y1="([-0-9.]+)" x2="([-0-9.]+)" y2="([-0-9.]+)" '
    r'stroke="black"'
)
_CIRCLE = re.compile(r'<circle cx="([-0-9.]+)"')


def svg_coord(value: Fraction) -> str:
    """A coordinate at 9 decimal digits, rounded half to even."""
    scaled = value * 10**9
    q, r = divmod(scaled.numerator, scaled.denominator)
    if 2 * r > scaled.denominator or (2 * r == scaled.denominator and q % 2):
        q += 1
    sign = "-" if q < 0 else ""
    digits = str(abs(q)).rjust(10, "0")
    return f"{sign}{digits[:-9]}.{digits[-9:]}"


def _cone_of(x1: str, x2: str, width: int) -> str:
    """The dyadic cone whose interval prints as [x1, x2]."""
    lo, hi = Fraction(x1) / width, Fraction(x2) / width
    if not 0 <= lo < hi <= 1:
        raise ValueError(f"piece [{x1}, {x2}] is not inside [0, {width}]")
    depth = max(0, round(-math.log2(hi - lo)))
    index = round(lo * 2**depth)
    u = format(index, f"0{depth}b") if depth else ""
    if svg_coord(Fraction(index, 2**depth) * width) != x1 or svg_coord(
        Fraction(index + 1, 2**depth) * width
    ) != x2:
        raise ValueError(f"piece [{x1}, {x2}] is not a dyadic cone")
    return u


def check_svg(svg: str, oracle, cls, frac: FractionLiteral, kind: str, depth: int,
              width: int = 512, height: int = 512) -> str | None:
    """None when the SVG draws frac exactly, else what is wrong.

    Each drawn piece must be a dyadic cone u whose end points are the oracle
    images of u.(0) and u.(1), with a power-of-two slope; pieces are
    disjoint and sorted; interval maps are monotone and continuous at their
    joins, circle maps continuous mod 1; every gap is at most 2^-depth
    wide and ends at a drawn accumulation point."""
    lines = _LINE.findall(svg)
    if not lines:
        return "no pieces drawn"
    accumulation = {Fraction(cx) / width for cx in _CIRCLE.findall(svg)}
    previous = None  # (right end, image of the right end)
    for x1, y1, x2, y2 in lines:
        try:
            u = _cone_of(x1, x2, width)
        except ValueError as exc:
            return str(exc)
        lo = ev_periodic(u, "0")
        hi = ev_periodic(u, "1")
        f_lo = frac.apply(oracle, cls, lo).to_fraction()
        f_hi = frac.apply(oracle, cls, hi).to_fraction()
        if (y1, y2) != (svg_coord((1 - f_lo) * height), svg_coord((1 - f_hi) * height)):
            return f"piece {u or 'e'}: drawn ({y1}, {y2}), oracle images ({f_lo}, {f_hi})"
        slope = (f_hi - f_lo) * 2 ** len(u)
        if slope <= 0 or slope.numerator & (slope.numerator - 1) or (
            slope.denominator & (slope.denominator - 1)
        ):
            return f"piece {u or 'e'}: slope {slope} is not a power of two"
        left, right = lo.to_fraction(), hi.to_fraction()
        if previous is None:
            gap_start = Fraction(0)
        else:
            gap_start, f_prev = previous
            if left < gap_start:
                return f"piece {u or 'e'} overlaps or precedes its predecessor"
            if left == gap_start:
                joined = f_prev == f_lo if kind == "interval" else (f_prev - f_lo) % 1 == 0
                if not joined:
                    return f"discontinuity at {left}: {f_prev} vs {f_lo}"
            elif kind == "interval" and f_lo < f_prev:
                return f"not monotone at {left}"
        if left > gap_start and not _gap_ok(gap_start, left, accumulation, depth):
            return f"gap [{gap_start}, {left}] is not an elided accumulation"
        previous = (right, f_hi)
    if previous[0] < 1 and not _gap_ok(previous[0], Fraction(1), accumulation, depth):
        return f"gap [{previous[0]}, 1] is not an elided accumulation"
    return None


def _gap_ok(start: Fraction, end: Fraction, accumulation, depth: int) -> bool:
    return end - start <= Fraction(1, 2**depth) and end in accumulation
