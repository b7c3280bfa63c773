"""Skein presentations and their presentation-level invariants.

A presentation is a colour list plus relations, each relation a pair of
coloured trees with the same number of leaves.  The first colour is the
distinguished one.  The DSL is line-based::

    colors a b
    rel a1 a1 a3 = b1 b2 b3    # comments allowed

Presentations of the two-colour shape  x(a) = rho(b)  with rho a right-vine
are classified into :class:`TwoColourRightVine`, which is what the dynamics
engine consumes; everything else is :class:`General` and is supported only
by the presentation-level operations here (validation, abelianisation,
germ presentations).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Union

from . import smith
from .forest import (
    End,
    Tree,
    build_tree,
    caret_count,
    colour_count,
    is_monochromatic,
    leaf_addresses,
    leaf_count,
    parse_caret_word,
    prune_word,
    right_vine,
)


class PresentationError(Exception):
    pass


class LeafCountMismatch(PresentationError):
    pass


class UnknownColour(PresentationError):
    pass


class UnsupportedClass(PresentationError):
    """Raised by dynamics entry points on presentations outside the
    two-colour right-vine class."""


@dataclass(frozen=True)
class SkeinPresentation:
    colours: tuple[str, ...]
    relations: tuple[tuple[Tree, Tree], ...]
    name: str = ""

    @property
    def distinguished(self) -> str:
        return self.colours[0]


@dataclass(frozen=True)
class TwoColourRightVine:
    """The supported dynamics class <a,b | x(a) = rho(b)>."""

    colour_a: str
    colour_b: str
    n: int  # leaves of x (and of rho)
    M: int  # carets of x (and of rho)
    L_x: int  # length of the left side of x
    R_x: int  # length of the right side of x
    leaves: tuple[str, ...]  # addresses of the leaves of x


class General:
    """Marker for presentations outside the supported dynamics class."""

    def __repr__(self):
        return "General"


GENERAL = General()

Classification = Union[TwoColourRightVine, General]


# ---------------------------------------------------------------------------
# DSL


def parse_presentation(text: str, name: str = "") -> SkeinPresentation:
    colours: tuple[str, ...] = ()
    relations = []
    saw_colors = False
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        if head == "colors":
            if saw_colors:
                raise PresentationError(f"line {lineno}: duplicate colors line")
            colours = tuple(rest.split())
            if not colours or len(set(colours)) != len(colours):
                raise PresentationError(f"line {lineno}: bad colour list")
            saw_colors = True
        elif head == "rel":
            if "=" not in rest:
                raise PresentationError(f"line {lineno}: rel needs '='")
            lhs, rhs = rest.split("=", 1)
            relations.append(
                (build_tree(parse_caret_word(lhs)), build_tree(parse_caret_word(rhs)))
            )
        else:
            raise PresentationError(f"line {lineno}: unknown directive {head!r}")
    if not saw_colors:
        raise PresentationError("missing colors line")
    return SkeinPresentation(colours, tuple(relations), name)


# ---------------------------------------------------------------------------
# validation and classification


def validate(p: SkeinPresentation) -> None:
    """Check the type invariants; raises on the first violation."""
    if not p.colours:
        raise PresentationError("empty colour list")
    declared = set(p.colours)
    for k, (u, v) in enumerate(p.relations, 1):
        used = colour_count(u).keys() | colour_count(v).keys()
        if not used <= declared:
            raise UnknownColour(
                f"relation {k} uses undeclared colour(s) {sorted(used - declared)}"
            )
        if leaf_count(u) != leaf_count(v):
            raise LeafCountMismatch(
                f"relation {k}: {leaf_count(u)} vs {leaf_count(v)} leaves"
            )


def classify(p: SkeinPresentation) -> Classification:
    """Extract the two-colour right-vine data, or General."""
    validate(p)
    if len(p.colours) != 2 or len(p.relations) != 1:
        return GENERAL
    a, b = p.colours
    u, v = p.relations[0]
    # normalize side order: x is the a-monochromatic side
    for x, rho in ((u, v), (v, u)):
        if (
            not x.is_leaf
            and is_monochromatic(x, a)
            and rho == right_vine(caret_count(rho), b)
            and leaf_count(x) == leaf_count(rho)
        ):
            leaves = leaf_addresses(x)
            return TwoColourRightVine(
                colour_a=a,
                colour_b=b,
                n=leaf_count(x),
                M=caret_count(x),
                L_x=len(leaves[0]),
                R_x=len(leaves[-1]),
                leaves=leaves,
            )
    return GENERAL


def require_class(p: SkeinPresentation) -> TwoColourRightVine:
    cls = classify(p)
    if not isinstance(cls, TwoColourRightVine):
        raise UnsupportedClass(
            "dynamics requires a two-colour presentation x(a) = rho(b) with "
            "rho a right-vine"
        )
    return cls


# ---------------------------------------------------------------------------
# abelianisation (T/V-type groups)


@dataclass(frozen=True)
class AbelianInvariants:
    rank: int
    torsion: tuple[int, ...]  # divisibility chain, each >= 2

    def __str__(self) -> str:
        parts = [f"Z/{d}" for d in self.torsion]
        if self.rank == 1:
            parts.append("Z")
        elif self.rank > 1:
            parts.append(f"Z^{self.rank}")
        return " + ".join(parts) if parts else "0"


def abelianisation(p: SkeinPresentation) -> AbelianInvariants:
    """Invariant factors of Z^S modulo the colour-count differences of the
    relations and the distinguished colour."""
    validate(p)
    cols = list(p.colours)
    rows = []
    for u, v in p.relations:
        cu, cv = colour_count(u), colour_count(v)
        rows.append([cu.get(c, 0) - cv.get(c, 0) for c in cols])
    rows.append([1 if c == p.distinguished else 0 for c in cols])
    factors = smith.invariant_factors(rows)
    torsion = tuple(d for d in factors if d >= 2)
    rank = len(cols) - len(factors)
    return AbelianInvariants(rank, torsion)


# ---------------------------------------------------------------------------
# germ presentations by pruning


@dataclass(frozen=True)
class GroupPresentationOut:
    generators: tuple[str, ...]
    relators: tuple[tuple[tuple[str, ...], tuple[str, ...]], ...]

    def __str__(self) -> str:
        def word(w: tuple[str, ...]) -> str:
            if not w:
                return "1"
            out = []
            i = 0
            while i < len(w):
                j = i
                while j < len(w) and w[j] == w[i]:
                    j += 1
                out.append(w[i] if j - i == 1 else f"{w[i]}^{j - i}")
                i = j
            return " ".join(out)

        rels = ", ".join(f"{word(lhs)} = {word(rhs)}" for lhs, rhs in self.relators)
        gens = ", ".join(self.generators)
        return f"< {gens} | {rels} >" if rels else f"< {gens} | >"


def germ_presentation(p: SkeinPresentation, end: End) -> GroupPresentationOut:
    """Presentation of the germ group at o (FIRST) or omega (LAST), obtained
    by pruning every relation along the chosen side.  Presents the actual
    germ group of the canonical action when the category is simple."""
    validate(p)
    relators = tuple(
        (prune_word(u, end), prune_word(v, end)) for u, v in p.relations
    )
    return GroupPresentationOut(p.colours, relators)


# ---------------------------------------------------------------------------
# good words


def good_b_words(cls: TwoColourRightVine, max_len: int) -> Iterator[list[str]]:
    """The good words that start with b, one list per length 1, 2, ...,
    max_len, each in lex order (letters ordered a < b by the colour order
    of the presentation).

    A good word a^i.w' has w' empty or starting with b and avoiding a^{R_x}
    and b^M.  Each word here is one of the previous length plus a letter,
    kept unless it ends in a^{R_x} or b^M: its parent avoids both, so that
    is the whole test.  A length with no such word ends the walk, as every
    longer one would extend one of them.  Each list is built only when
    asked for."""
    a, b = cls.colour_a, cls.colour_b
    forbidden = (a * cls.R_x, b * cls.M)
    level = [b]
    for _ in range(max_len):
        level = [w for w in level if not w.endswith(forbidden)]
        if not level:
            return
        yield level
        level = [w + ch for w in level for ch in (a, b)]


def enumerate_good_words(cls: TwoColourRightVine, max_len: int) -> Iterator[str]:
    """Non-trivial good words of length <= max_len, in length-then-lex order
    (letters ordered a < b by the colour order of the presentation).

    At each length the words a^i.w' with i > 0 come first, one for each
    shorter b-word w' of good_b_words, longest a-prefix first; then the
    b-words of that length.  As kappa(a^i.w') = A1^i kappa(w'), the
    collapse probe (fskit.probe.probe) tests only the b-words and counts
    the others."""
    a = cls.colour_a
    levels = good_b_words(cls, max_len)
    shorter: list[str] = []
    for length in range(1, max_len + 1):
        for w in shorter:
            yield a * (length - len(w)) + w
        level = next(levels, [])
        yield from level
        shorter += level
