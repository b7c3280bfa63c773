"""The canonical actions on the Cantor space, realised as Eppms.

For a presentation <a,b | x(a) = rho(b)> with rho a right-vine, the four
pointed carets act on binary sequences by

    A0: z -> 0.z      A1: z -> 1.z      B0: z -> 0^{L_x}.z

and B1 shifts along the leaves w_i of the infinite tree built by stacking
copies of x on its own last leaf: B1(w_i.q) = w_{i+1}.q, fixing 1^inf.
Group elements are evaluated either from signed generator words or from
tree-pair fractions [t, pi, s], and all operations (equality, supports,
germs, order tests) happen on the exact Eppm representation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cache
from typing import Optional, Union

from .eppm import (
    Eppm,
    EppmError,
    Family,
    IDENTITY,
    NotBijective,
    NotOrderPreserving,
    NotTotal,
    Piece,
    UndefinedAt,
    atom_at,
    canonicalize,
    compose,
    invert,
    make_eppm,
    slabs,
)
from .forest import (
    Tree,
    build_tree,
    identity_perm,
    is_permutation,
    leaf_count,
    parse_caret_word,
)
from .presentation import TwoColourRightVine, UnsupportedClass
from .sequences import EvPeriodic, ev_periodic


@cache
def caret_map(cls: TwoColourRightVine, colour: str, direction: int) -> Eppm:
    """The pointed-caret transformation beta(Y_colour, direction); memoised,
    as every argument and the returned Eppm are immutable."""
    if colour == cls.colour_a:
        return make_eppm(pieces=[Piece("", str(direction))])
    if colour != cls.colour_b:
        raise UnsupportedClass(f"unknown colour {colour!r}")
    if direction == 0:
        return make_eppm(pieces=[Piece("", "0" * cls.L_x)])
    n, r = cls.n, cls.R_x
    blocks = []
    for k in range(1, n - 1):
        blocks.append((cls.leaves[k - 1], cls.leaves[k]))
    blocks.append((cls.leaves[n - 2], "1" * r + cls.leaves[0]))
    fam = Family("", "", r, r, tuple(sorted(blocks)))
    return canonicalize(make_eppm(families=[fam]))


def generator_map(cls: TwoColourRightVine, token: str) -> Eppm:
    colour = cls.colour_a if token[0] == "A" else cls.colour_b
    return caret_map(cls, colour, int(token[1]))


SignedWord = tuple[tuple[str, int], ...]


def evaluate_word(cls: TwoColourRightVine, word: SignedWord) -> Eppm:
    """Fold caret maps over a signed generator word, leftmost outermost."""
    acc = IDENTITY
    for token, exp in word:
        m = generator_map(cls, token)
        if exp == -1:
            m = invert(m)
        elif exp != 1:
            raise ValueError(f"bad exponent {exp}")
        acc = compose(acc, m)
    return acc


_TOKEN_RE = re.compile(r"^(A0|A1|B0|B1)(\^-1)?$")


def parse_signed_word(text: str) -> SignedWord:
    word = []
    for tok in text.split():
        m = _TOKEN_RE.match(tok)
        if not m:
            raise ValueError(f"bad generator token {tok!r}")
        word.append((m.group(1), -1 if m.group(2) else 1))
    return tuple(word)


def _total_form(f: Eppm, error: EppmError) -> Eppm:
    """The normal form of f, which caches its answers.  Raises `error`
    unless f is total, or, when `error` is a NotBijective, a bijection."""
    try:
        f = canonicalize(f)
    except EppmError as refusal:  # two piece doms meet: f is no function
        raise error from refusal
    if not (f.bijective if isinstance(error, NotBijective) else f.total):
        raise error
    return f


# ---------------------------------------------------------------------------
# fractions [t, pi, s]


# paths of at most this many carets have their maps memoised: at most
# 4 + 16 + 64 + 256 = 340 entries per class
_MEMO_DEPTH = 4


@cache
def _path_map(cls: TwoColourRightVine, path: tuple[tuple[str, int], ...]) -> Eppm:
    """beta along a non-empty path of (colour, direction) carets, root caret
    outermost; memoised, as caret_map is.  Only _leaf_maps calls it, on
    paths of at most _MEMO_DEPTH carets, which bounds the memo."""
    head = _path_map(cls, path[:-1]) if len(path) > 1 else IDENTITY
    return compose(head, caret_map(cls, *path[-1]))


def _leaf_maps(cls: TwoColourRightVine, t: Tree) -> list[Eppm]:
    """beta(t, leaf) for every leaf of t, left to right: the caret maps
    composed down the root-to-leaf path, root caret outermost, each path
    prefix composed once.  A node at most _MEMO_DEPTH carets deep takes its
    map from the per-process memo _path_map; a deeper node composes one
    caret onto its parent's map."""
    out, stack = [], [(t, (), IDENTITY)]
    while stack:
        node, path, acc = stack.pop()
        if node.is_leaf:
            out.append(acc)
            continue
        for direction, child in ((1, node.right), (0, node.left)):
            if len(path) < _MEMO_DEPTH:
                step = path + ((node.colour, direction),)
                stack.append((child, step, _path_map(cls, step)))
            else:
                caret = caret_map(cls, node.colour, direction)
                stack.append((child, path, compose(acc, caret)))
    return out


def evaluate_fraction(
    cls: TwoColourRightVine,
    t: Tree,
    perm: tuple[int, ...],
    s: Tree,
) -> Eppm:
    """alpha([t, pi, s]): on Cone(s, j) acts as beta(t, pi(j)) o beta(s, j)^-1.

    The permutation is stored as the image list of 1..n, so Cone(s, j) maps
    onto Cone(t, perm[j-1]).
    """
    n = leaf_count(s)
    if leaf_count(t) != n:
        raise NotBijective(f"fraction shape mismatch: {leaf_count(t)} vs {n} leaves")
    if len(perm) != n or not is_permutation(perm):
        raise NotBijective(f"perm {perm} is not a permutation of 1..{n}")
    beta_t, beta_s = _leaf_maps(cls, t), _leaf_maps(cls, s)
    pieces: list[Piece] = []
    fams, limits = [], []
    for j in range(n):
        branch = compose(beta_t[perm[j] - 1], invert(beta_s[j]))
        pieces.extend(branch.pieces)
        fams.extend(branch.families)
        limits.extend(branch.limits)
    return _total_form(
        make_eppm(pieces, fams, limits),
        NotBijective("fraction did not evaluate to a total bijection"),
    )


_FRACTION_RE = re.compile(r"^\[([^|\]]*)\|([^|\]]*)\|([^|\]]*)\]$")


def parse_fraction(text: str) -> tuple[Tree, tuple[int, ...], Tree]:
    m = _FRACTION_RE.match(text.strip())
    if not m:
        raise ValueError(f"bad fraction literal {text!r}")
    t = build_tree(parse_caret_word(m.group(1)))
    s = build_tree(parse_caret_word(m.group(3)))
    perm_text = m.group(2).strip()
    if perm_text == "id":
        perm = identity_perm(leaf_count(s))
    else:
        try:
            perm = tuple(int(x) for x in perm_text.split())
        except ValueError:
            bad = f"bad permutation {perm_text!r} in fraction literal {text!r}"
            raise ValueError(bad) from None
    return t, perm, s


def parse_element(cls: TwoColourRightVine, text: str) -> Eppm:
    """Either a signed generator word or a fraction literal."""
    text = text.strip()
    if text.startswith("["):
        t, perm, s = parse_fraction(text)
        return evaluate_fraction(cls, t, perm, s)
    return evaluate_word(cls, parse_signed_word(text))


# ---------------------------------------------------------------------------
# power-of-A1 detection


def is_power_of_a1(f: Eppm) -> Optional[int]:
    """j >= 0 with f = A1^j, else None.  A1^j is the single piece e -> 1^j,
    with no families and no limits, and that is its own normal form; equal
    maps have equal normal forms, so f = A1^j exactly when canonicalize(f)
    is that piece."""
    normal = canonicalize(f)
    j = len(normal.pieces[0].ran) if normal.pieces else 0
    return j if normal == make_eppm(pieces=[Piece("", "1" * j)]) else None


# ---------------------------------------------------------------------------
# order and cyclic order


def _before(a: Union[str, EvPeriodic], b: Union[str, EvPeriodic]) -> bool:
    """Whether a lies entirely before b: two cones' words, or one and a point."""
    if isinstance(a, EvPeriodic):
        a = a.prefix(len(b))
    elif isinstance(b, EvPeriodic):
        b = b.prefix(len(a))
    return not a.startswith(b) and not b.startswith(a) and a < b


def _order_class(f: Eppm) -> str:
    """'F' if the checked total normal form f keeps the order of the
    Cantor space, 'T' if it keeps the cyclic order, else 'V'.

    Two families at one accumulation point have range runs that grow at
    different rates or head for different points, so they cross infinitely
    often; so does a family whose ranges, blocks sorted by dom, are out of
    order within a layer or from one layer to the next.  Otherwise each
    atom, in domain order, has a least range and a cover: a piece's range
    for both, a family's least block's range and its range base, which
    holds every layer and the limit.  An isolated limit p -> q comes right
    after the family at p, as p is the largest point of that family's cone,
    and q is both.  A descent is a cover not wholly before the next atom's
    least range, wrapping round."""
    atoms = [((p.dom, 0), p.ran, p.ran) for p in f.pieces]
    first: dict[EvPeriodic, str] = {}  # the least dom of the family at a point
    for fam in f.families:
        blocks = fam.blocks  # canonicalize writes them sorted by dom
        rans = [r for _, r in blocks] + ["1" * fam.ran_step + blocks[0][1]]
        if fam.limit_dom in first or not all(map(_before, rans, rans[1:])):
            return "V"
        d, r = blocks[0]
        first[fam.limit_dom] = fam.dom_base + d
        atoms.append(((first[fam.limit_dom], 0), fam.ran_base + r, fam.ran_base))
    atoms += [((first[p], 1), q, q) for p, q in f.limits]
    atoms.sort()  # by domain: the keys differ
    descents = [
        not _before(cover, least)
        for (_, _, cover), (_, least, _) in zip(atoms, atoms[1:] + atoms[:1])
    ]
    if not any(descents[:-1]):
        return "F"
    return "T" if sum(descents) <= 1 else "V"


def is_order_preserving(f: Eppm) -> bool:
    f = _total_form(f, NotTotal("order test requires a total map"))
    return _order_class(f) == "F"


def is_cyclic_order_preserving(f: Eppm) -> bool:
    f = _total_form(f, NotTotal("cyclic order test requires a total map"))
    return _order_class(f) != "V"


def classify_element(f: Eppm) -> str:
    """'F', 'T' or 'V': the least of the three groups holding the bijection
    f."""
    f = _total_form(
        f, NotBijective("F/T/V membership requires a bijection of the Cantor space")
    )
    return _order_class(f)


# ---------------------------------------------------------------------------
# support


@dataclass(frozen=True)
class FixedLadder:
    """Fixed points base.1^{m step}.suffix.(tail)^inf for every m >= 0."""

    base: str
    step: int
    suffix: str
    tail: str


@dataclass(frozen=True)
class Support:
    """Where a total map is the identity, read off its normal form, so that
    every writing of the map gets the same Support.

    fixed_cones lists only cones on which f is the identity: the domains of
    the pieces dom -> dom, and a family's piece dom -> dom at a single
    layer.  moved_cones lists the other pieces' domains and, once each, the
    bases of the families: no family base is fixed, since the normal form
    writes the identity on a whole cone as one piece.  fixed_points holds
    the fixed points of pieces, of family limits, of isolated limits and of
    a family's pieces at a single layer; a family block that fixes a point
    at every layer is a fixed ladder, and one that is the identity at every
    layer is a fixed cone ladder (base, step, suffix): the cones
    base.1^{m step}.suffix for every m >= 0."""

    fixed_cones: tuple[str, ...]
    fixed_points: tuple[EvPeriodic, ...]
    fixed_ladders: tuple[FixedLadder, ...]
    moved_cones: tuple[str, ...]
    fixed_cone_ladders: tuple[tuple[str, int, str], ...]


def _extension(piece: Piece) -> Optional[tuple[str, str]]:
    """(w, t) with {dom, ran} = {w, w.t}, if one of the piece's dom and ran
    extends the other: the piece is then the identity on the cone w when t
    is empty, and else fixes just the point w.t^inf in it."""
    w, longer = sorted((piece.dom, piece.ran), key=len)
    return (w, longer[len(w) :]) if longer.startswith(w) else None


def _lined_up_layer(x: str, n: int, p: int, z: str, a: int, q: int) -> Optional[int]:
    """The one layer M >= 0, if any, at which a family block's dom
    x.1^(n + M.p).0... and ran z.1^(a + M.q).0... can extend one another,
    given (z, q) != (x, p).  As neither x nor z ends in 1, either x == z
    and the two runs are as long, or one of x and z extends the other by a
    1-run as long as the other's run, then a 0."""
    if x == z:
        gap, step = a - n, p - q
    elif z.startswith(x):
        gap, step = z.index("0", len(x)) - len(x) - n, p
    elif x.startswith(z):
        gap, step = x.index("0", len(z)) - len(z) - a, q
    else:
        return None
    m, r = divmod(gap, step)
    return m if r == 0 and m >= 0 else None


def support(f: Eppm) -> Support:
    """The Support of f, a family block at a time through eppm.slabs: with
    (z, q) == (x, p) its dom and ran extend one another alike at every
    layer, and else at most at the layer where their 1-runs line up.
    Raises NotBijective where a block's ranges nest (an empty rest)."""
    f = _total_form(f, NotTotal("support requires a total map"))
    fixed_cones: list[str] = []
    fixed_points: list[EvPeriodic] = []
    ladders: list[FixedLadder] = []
    cone_ladders: list[tuple[str, int, str]] = []
    moved: list[str] = []
    fixed_points += [p for p, q in f.limits if p == q]

    def fix(piece: Piece) -> None:
        ext = _extension(piece)
        if ext is None:
            return
        w, t = ext
        if t:
            fixed_points.append(ev_periodic(w, t))
        else:
            fixed_cones.append(w)

    for piece in f.pieces:
        fix(piece)
        if piece.dom != piece.ran:
            moved.append(piece.dom)

    for fam in f.families:
        moved.append(fam.dom_base)
        if fam.carries_limit and fam.limit_dom == fam.limit_ran:
            fixed_points.append(fam.limit_dom)
        p = fam.dom_step
        for block, (x, n, _, (z, a, q, rest)) in zip(fam.blocks, slabs(fam)):
            if not rest:
                raise NotBijective(f"support requires an injective map: block {block[0]} nests")
            if (z, q) != (x, p):
                m = _lined_up_layer(x, n, p, z, a, q)
                if m is not None:
                    fix(fam.piece_at(m, block))
                continue
            ext = _extension(fam.piece_at(0, block))
            if ext is not None and ext[1]:
                ladders.append(FixedLadder(fam.dom_base, p, block[0], ext[1]))
            elif ext is not None:
                cone_ladders.append((fam.dom_base, p, block[0]))

    return Support(
        tuple(sorted(fixed_cones)),
        tuple(sorted(dict.fromkeys(fixed_points), key=lambda e: (e.pre, e.per))),
        tuple(sorted(dict.fromkeys(ladders), key=lambda l: (l.base, l.suffix))),
        tuple(sorted(dict.fromkeys(moved))),
        tuple(sorted(cone_ladders)),
    )


# ---------------------------------------------------------------------------
# singular points and germs


def singular_points(f: Eppm) -> tuple[EvPeriodic, ...]:
    """Tail-1^inf points where f is not locally a single prefix piece:
    the limit points of the non-collapsible families of the canonical form."""
    f = _total_form(f, NotTotal("singular points are defined for total maps"))
    pts = {fam.limit_dom for fam in f.families}
    return tuple(sorted(pts, key=lambda e: (e.pre, e.per)))


@dataclass(frozen=True)
class Germ:
    """The germ of f at a tail-1^inf point p = x.1^inf, read off its normal
    form, so that two germs are equal exactly when they are ==.

    Near p, f acts on the slabs x.1^n.0 periodically in n, with a least
    period P: a reduced piece x.1^n.0.u -> z.1^a.rest of slab n, with z
    not ending in 1 and rest not starting with 1, recurs at slab n + P
    with its run a grown by its family's range step q.  So its entry (n mod P, u, z, q, rest,
    a.P - q.n) does not depend on n, and the sorted entries with the two
    points and P determine f on a neighbourhood of p."""

    source: EvPeriodic
    target: EvPeriodic
    period: int
    tail: tuple[tuple[int, str, str, int, str, int], ...]


def germ_at(f: Eppm, p: EvPeriodic) -> Germ:
    """The germ of f at a point with tail (1)^inf.

    Near p the normal form acts through the one piece that covers p, the
    period-1 tail x.1^n.0 -> z.1^(n + shift).0 with z.1^inf the image of
    p, or else through its families at p, which share one period.  Raises
    UndefinedAt where f is undefined at p, and ValueError where the form
    sends p to an isolated limit, as where f is defined at p alone."""
    if not p.has_tail("1"):
        raise ValueError("germ_at expects a tail-(1)^inf point")
    f = canonicalize(f)
    atom = atom_at(f, p)
    if atom is None:
        raise UndefinedAt(p)
    if isinstance(atom, Piece):
        q = p.drop(len(atom.dom)).prepend(atom.ran)
        shift = len(atom.ran) - len(atom.dom) + len(p.pre) - len(q.pre)
        return Germ(p, q, 1, ((0, "", q.pre, 1, "0", shift),))
    if not isinstance(atom, Family):
        raise ValueError(f"f has no germ at {p}: it sends {p} to an isolated limit")
    fams = [fam for fam in f.families if fam.limit_dom == p]
    period = atom.dom_step  # the families at one point share one dom step
    tail = [
        (n % period, u, z, step, rest, a * period - step * n)
        for fam in fams
        for _, n, u, (z, a, step, rest) in slabs(fam)
    ]
    return Germ(p, atom.limit_ran, period, tuple(sorted(tail)))


# ---------------------------------------------------------------------------
# the bi-order on order-preserving elements


def bi_order_compare(f: Eppm, g: Eppm) -> str:
    """Compare f and g in the bi-order of the order-preserving group:
    'less', 'equal', or 'greater'.  f > g iff f o g^-1 exceeds the identity,
    decided by the slope at the first deviating cone.  Every point before
    that cone is fixed, so its image starts where the cone starts: one of
    dom and ran extends the other by 0s, and ran is the shorter exactly
    when the slope there is above 1."""
    forms = []
    for m in (f, g):
        m = _total_form(
            m, NotBijective("the bi-order requires a bijection of the Cantor space")
        )
        if _order_class(m) != "F":
            raise NotOrderPreserving("bi-order needs order-preserving inputs")
        forms.append(m)
    f, g = forms
    if f == g:
        return "equal"
    h = compose(f, invert(g))
    deviation = _first_deviation(h)
    if deviation is None:
        raise EppmError("unequal maps but no piece deviates from the identity")
    dom, ran = deviation
    return "greater" if len(dom) > len(ran) else "less"


def _first_deviation(h: Eppm) -> Optional[tuple[str, str]]:
    """The (dom, ran) of the generated piece with lexicographically least
    domain where h differs from the identity, taking each family block at
    its first deviating layer.

    That layer is 0 or 1, or there is none: with equal steps, a block that
    is the identity at layers 0 and 1 is the identity at every layer (two
    words p.1^{mk}.s that agree at m = 0 and 1 agree for every m), and with
    unequal steps dom and ran have equal lengths at one layer at most."""
    candidates = [(p.dom, p.ran) for p in h.pieces if p.dom != p.ran]
    for fam in h.families:
        for block in fam.blocks:
            for m in (0, 1):
                piece = fam.piece_at(m, block)
                if piece.dom != piece.ran:
                    candidates.append((piece.dom, piece.ran))
                    break
    return min(candidates, default=None)
