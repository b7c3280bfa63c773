"""Tail-periodic piecewise prefix maps on the Cantor space, exactly.

An Eppm is a partial continuous map on {0,1}^N given by finitely many
prefix-replacement pieces (u |-> v means u.z |-> v.z on the cone u),
finitely many tail families, and finitely many isolated limit assignments.
canonicalize alone checks that such data is a function.

A tail family with bases (db, rb), steps (c, c') and blocks (d_j, r_j)
denotes the pieces

    db . 1^{mc} . d_j  |->  rb . 1^{mc'} . r_j      for every m >= 0,

together with the limit assignment db.1^inf |-> rb.1^inf when it carries
its limit.  Families are how breakpoint accumulation at tail-1^inf points
stays finite data.  A family produced by composition may not carry its
limit; the point's image then lives in the isolated-limits table until
canonicalize folds it back.

canonicalize builds a unique normal form in one pass (see "normal form"
below), so two Eppms denote the same partial map exactly when their
normal forms are ==, and that is all equals does.  Domains are decided on
the normal form too: f is total exactly when the normal form of the
identity on dom(f) is the identity (is_total), and dom(f) lies in dom(g)
exactly when the identity on dom(f), composed with the identity on dom(g),
keeps the form of the identity on dom(f) (region_subset).
Composition through a family is exact: f is restricted once to the
family's range cone, and the layers are unrolled only down to a roof
placed from what acts there.  Below it one piece covers the roof, or only
the families at the roof's own point act, and one lap of their common step
gives the output families (see _compose_through_family).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from math import lcm
from typing import Iterable, Optional, Union

from .sequences import EvPeriodic, ev_periodic


class EppmError(Exception):
    pass


class UndefinedAt(EppmError):
    def __init__(self, point):
        super().__init__(f"map undefined at {point}")
        self.point = point


class NotTotal(EppmError):
    pass


class NotBijective(EppmError):
    pass


class NotOrderPreserving(EppmError):
    pass


def _ones(n: int) -> str:
    return "1" * n


def _lead_ones(w: str) -> int:
    return len(w) - len(w.lstrip("1"))


@dataclass(frozen=True)
class Piece:
    """The prefix replacement dom.z |-> ran.z."""

    dom: str
    ran: str


@dataclass(frozen=True)
class Family:
    dom_base: str
    ran_base: str
    dom_step: int
    ran_step: int
    blocks: tuple[tuple[str, str], ...]
    carries_limit: bool = True

    def piece_at(self, m: int, block: tuple[str, str]) -> Piece:
        d, r = block
        return Piece(
            self.dom_base + _ones(m * self.dom_step) + d,
            self.ran_base + _ones(m * self.ran_step) + r,
        )

    @property
    def limit_dom(self) -> EvPeriodic:
        return ev_periodic(self.dom_base, "1")

    @property
    def limit_ran(self) -> EvPeriodic:
        return ev_periodic(self.ran_base, "1")


Atom = Union[Piece, Family]
LimitPair = tuple[EvPeriodic, EvPeriodic]


@dataclass(frozen=True)
class Eppm:
    pieces: tuple[Piece, ...] = ()
    families: tuple[Family, ...] = ()
    limits: tuple[LimitPair, ...] = ()
    # set on canonicalize's results, so that a normal form is not rebuilt
    normal: bool = field(default=False, init=False, repr=False, compare=False)

    # answers computed at most once per object, and not fields
    @cached_property
    def total(self) -> bool:
        try:
            return is_total(canonicalize(self))
        except EppmError:  # canonicalize refuses: f is not a function
            return False

    @cached_property
    def bijective(self) -> bool:
        if not self.total:
            return False
        f = canonicalize(self)
        inv = invert(f)
        # dom(inv)'s identity merges equal limits: their images are checked here
        images = {fam.limit_dom: fam.limit_ran for fam in f.families if fam.carries_limit}
        images.update(f.limits)
        try:
            return (
                len(set(images.values())) == len(images)
                and not any(in_domain(Eppm(inv.pieces, inv.families), q) for _, q in f.limits)
                and is_total(inv)
            )
        except EppmError:  # the inverse is not a function: f is not injective
            return False

    @property
    def atoms(self) -> tuple[Atom, ...]:
        return self.pieces + self.families

    def __str__(self) -> str:
        parts = [f"({p.dom or 'e'}->{p.ran or 'e'})" for p in self.pieces]
        for f in self.families:
            blocks = ", ".join(f"{d or 'e'}->{r or 'e'}" for d, r in f.blocks)
            star = "" if f.carries_limit else "*"
            parts.append(
                f"[{f.dom_base or 'e'}|1^{f.dom_step} -> "
                f"{f.ran_base or 'e'}|1^{f.ran_step}: {blocks}]{star}"
            )
        for p, q in self.limits:
            parts.append(f"{{{p}->{q}}}")
        return "{" + "; ".join(parts) + "}"


IDENTITY = Eppm(pieces=(Piece("", ""),))


def make_eppm(
    pieces: Iterable[Piece] = (),
    families: Iterable[Family] = (),
    limits: Iterable[LimitPair] = (),
) -> Eppm:
    return Eppm(tuple(pieces), tuple(families), tuple(limits))


# ---------------------------------------------------------------------------
# restriction to a cone


def restrict_piece(p: Piece, w: str) -> Optional[Piece]:
    if p.dom.startswith(w):
        return p
    if w.startswith(p.dom):
        return Piece(w, p.ran + w[len(p.dom) :])
    return None


def restrict_family(f: Family, w: str) -> tuple[list[Piece], list[Family]]:
    """The pieces and families of f inside the cone w, pieces in (layer,
    block) order."""
    db, c, cp = f.dom_base, f.dom_step, f.ran_step
    if db.startswith(w):
        return [], [f]
    if not w.startswith(db):
        return [], []
    delta = w[len(db) :]
    ones = _lead_ones(delta)
    if ones == len(delta):
        m0 = -(-ones // c)  # ceil
        pieces = []
        for m in range(m0):
            for block in f.blocks:
                r = restrict_piece(f.piece_at(m, block), w)
                if r is not None:
                    pieces.append(r)
        rest = replace(
            f, dom_base=db + _ones(m0 * c), ran_base=f.ran_base + _ones(m0 * cp)
        )
        return pieces, [rest]
    return [r for p in _layer_pieces(f, ones) if (r := restrict_piece(p, w)) is not None], []


def _layer_pieces(f: Family, ones: int) -> list[Piece]:
    """The pieces of f that can meet a cone db.1^ones.0..., in (layer,
    block) order.  A block d with l < len(d) leading 1s starts 1^(mc + l).0
    at layer m, so only layer (ones - l)/c can meet the cone; a block of 1s
    alone would hold every later layer and the family's limit."""
    db, c = f.dom_base, f.dom_step
    hits: list[tuple[int, tuple[str, str]]] = []
    for block in f.blocks:
        d = block[0]
        lead = _lead_ones(d)
        if lead == len(d):
            raise EppmError(f"cone {db + d or 'e'} holds the accumulation point of its family")
        if lead <= ones and (ones - lead) % c == 0:
            hits.append(((ones - lead) // c, block))
    if len(hits) > 1:  # a stable sort: blocks stay in order within a layer
        hits.sort(key=lambda hit: hit[0])
    return [f.piece_at(m, block) for m, block in hits]


def restrict(f: Eppm, w: str) -> Eppm:
    pieces = [r for p in f.pieces if (r := restrict_piece(p, w)) is not None]
    fams: list[Family] = []
    for fam in f.families:
        ps, fs = restrict_family(fam, w)
        pieces.extend(ps)
        fams.extend(fs)
    limits = tuple((p, q) for p, q in f.limits if p.starts_with(w))
    return Eppm(tuple(pieces), tuple(fams), limits)


# ---------------------------------------------------------------------------
# evaluation


def atom_at(f: Eppm, p: EvPeriodic) -> Union[Atom, LimitPair, None]:
    """What f acts by at p: the piece covering p, written or generated by a
    family; else the family whose limit p is; else the isolated limit (p,
    q); else None."""
    for piece in f.pieces:
        if p.starts_with(piece.dom):
            return piece
    for fam in f.families:
        if not p.starts_with(fam.dom_base):
            continue
        rest = p.drop(len(fam.dom_base))
        if rest.is_constant("1"):
            if fam.carries_limit:
                return fam
            continue
        # p lies in the cone db.1^run.0, which only these pieces can meet
        for piece in _layer_pieces(fam, rest.leading_run("1")):
            if p.starts_with(piece.dom):
                return piece
    return next((pair for pair in f.limits if p == pair[0]), None)


def evaluate(f: Eppm, p: EvPeriodic) -> EvPeriodic:
    atom = atom_at(f, p)
    if atom is None:
        raise UndefinedAt(p)
    if isinstance(atom, Piece):
        return p.drop(len(atom.dom)).prepend(atom.ran)
    return atom.limit_ran if isinstance(atom, Family) else atom[1]


def in_domain(f: Eppm, p: EvPeriodic) -> bool:
    return atom_at(f, p) is not None


# ---------------------------------------------------------------------------
# inversion


def invert(f: Eppm) -> Eppm:
    """Every atom of f with its sides swapped, the inverse of f if f is
    injective.  canonicalize refuses the result if it is not a function."""
    pieces = tuple(Piece(p.ran, p.dom) for p in f.pieces)
    fams = tuple(
        Family(
            fam.ran_base,
            fam.dom_base,
            fam.ran_step,
            fam.dom_step,
            tuple((r, d) for d, r in fam.blocks),
            fam.carries_limit,
        )
        for fam in f.families
    )
    limits = tuple((q, p) for p, q in f.limits)
    return Eppm(pieces, fams, limits)


# ---------------------------------------------------------------------------
# composition: compose(f, g) applies g first, then f


def compose(f: Eppm, g: Eppm) -> Eppm:
    """The map x -> f(g(x)) on its natural domain."""
    pieces: list[Piece] = []
    fams: list[Family] = []
    limits: list[LimitPair] = []

    for p in g.pieces:
        _compose_through_piece(f, p, pieces, fams)
    for fam in g.families:
        _compose_through_family(f, fam, pieces, fams)

    # the points where no piece acts: g's limits, those its families carry
    # and its isolated ones, go through f; f's isolated limits back through g
    g_limits = [(fam.limit_dom, fam.limit_ran) for fam in g.families if fam.carries_limit]
    for lp, lq in g_limits + list(g.limits):
        try:
            limits.append((lp, evaluate(f, lq)))
        except UndefinedAt:
            pass
    g_inv = canonicalize(invert(g)) if f.limits else None
    for fq, fy in f.limits:
        try:
            limits.append((evaluate(g_inv, fq), fy))
        except UndefinedAt:
            pass

    return canonicalize(Eppm(tuple(pieces), tuple(fams), tuple(dict.fromkeys(limits))))


def _compose_through_piece(
    f: Eppm, g_piece: Piece, pieces: list[Piece], fams: list[Family]
) -> None:
    """Compose f through g_piece: f's atoms in the cone g_piece.ran, with
    that prefix of every dom renamed to g_piece.dom."""
    new, old = g_piece.dom, g_piece.ran
    sub = restrict(f, old)
    pieces.extend(Piece(new + p.dom[len(old) :], p.ran) for p in sub.pieces)
    fams.extend(
        replace(fam, dom_base=new + fam.dom_base[len(old) :]) for fam in sub.families
    )


def _compose_through_family(
    f: Eppm, g_fam: Family, pieces: list[Piece], fams: list[Family]
) -> None:
    """Compose f through the pieces of g_fam: its layers below m0 one by
    one, the rest under the roof rb.1^(m0 c') all at once.

    Only f's atoms in the cone rb act on g_fam's ranges, so f is first
    restricted to rb.  Write x = rb with its trailing 1s stripped.  A word
    rb.1^i.0... is off the roof cone once the roof is len(rb) + i + 1
    long, and rb.1^i once it is as long.  m0 is the least m >= 0 that
    makes the roof that long for every piece of the restriction and every
    deeper point y of its families at y.1^inf, and as long as len(base) +
    the longest leading 1-run of a block for its families at x.1^inf.
    Below the roof, then:

    - a piece meets the roof cone only by covering it;
    - a family base in the cone rb is y.1^k with y not ending in 1; if y
      is no longer than rb, y is x.  A deeper point y is rb.1^i.0..., so
      it has a 0 where the roof has a 1, and its family cannot meet the
      roof cone;
    - for a family at x, the 1-run of a cone roof.1^(rho c').r past the
      family's base is at least every block's leading run.  A block d
      with l leading 1s meets the cone in one layer at most,
      (run - l)/c_F when that is whole, and the layer is >= 0 at every
      rho.  One more lap of lcm(c', c_F) ones shifts every hit by
      lap/c_F layers, which is what _compose_family_tail needs.
    - A block of 1s alone, in f's domains or in g_fam's ranges, would
      break this, but it cannot occur: its cone at layer m would hold the
      cones of all later layers, so f would not be a function or g_fam
      not injective.

    So below the roof act the families at x, each of which reaches it, or
    else only the one piece of the restriction to rb whose dom prefixes
    the roof."""
    db, rb = g_fam.dom_base, g_fam.ran_base
    c, cp = g_fam.dom_step, g_fam.ran_step
    f = restrict(f, rb)
    x = rb.rstrip("1")

    def off_roof(w: str) -> int:
        return min(len(w), len(rb) + _lead_ones(w[len(rb) :]) + 1)

    depth = max((off_roof(p.dom) for p in f.pieces), default=0)
    at_x = []
    for fam in f.families:
        y = fam.dom_base.rstrip("1")
        if y != x:
            depth = max(depth, off_roof(y))
        else:
            at_x.append(fam)
            lead = max((_lead_ones(d) for d, _ in fam.blocks), default=0)
            depth = max(depth, len(fam.dom_base) + lead)
    m0 = max(0, -(-(depth - len(rb)) // cp))

    for m in range(m0):
        for block in g_fam.blocks:
            _compose_through_piece(f, g_fam.piece_at(m, block), pieces, fams)

    roof = rb + _ones(m0 * cp)
    for fam in at_x:
        _compose_family_tail(fam, g_fam, m0, fams)
    cover = next((p for p in f.pieces if roof.startswith(p.dom)), None)
    if not at_x and cover is not None:  # the one piece that covers the roof
        ran = cover.ran + roof[len(cover.dom) :]
        fams.append(Family(db + _ones(m0 * c), ran, c, cp, g_fam.blocks, carries_limit=False))


def _compose_family_tail(
    f_fam: Family, g_fam: Family, m0: int, fams: list[Family]
) -> None:
    """The families of f_fam after the layers m >= m0 of g_fam, the roof
    rb.1^(m0 c') lying in f_fam's 1-run (see _compose_through_family).

    A lap is lcm(c', c_F) ones.  One more lap in the 1-run of a cone below
    the roof moves each piece of f_fam that meets the cone up by lap/c_F
    layers, and no lower layer meets the moved cone, because the run past
    f_fam's base is at least every block's leading run.  So a piece p of
    f_fam in the cone of g_fam's layer m0 + rho, block (d, r), is one
    family over the laps M:

        db.1^((m0 + rho + M.lap/c') c).d.s  |->  rb_F.1^(M.lap/c_F.c'_F).t

    with p = (cone.s, rb_F.t).  canonicalize merges these families."""
    db, rb = g_fam.dom_base, g_fam.ran_base
    c, cp = g_fam.dom_step, g_fam.ran_step
    lap = lcm(cp, f_fam.dom_step)
    unfold = lap // cp
    ran_step = lap // f_fam.dom_step * f_fam.ran_step
    for rho in range(unfold):
        for d, r in g_fam.blocks:
            cone = rb + _ones((m0 + rho) * cp) + r
            for p in restrict_family(f_fam, cone)[0]:
                block = (
                    _ones(rho * c) + d + p.dom[len(cone) :],
                    p.ran[len(f_fam.ran_base) :],
                )
                fams.append(
                    Family(
                        db + _ones(m0 * c),
                        f_fam.ran_base,
                        unfold * c,
                        ran_step,
                        (block,),
                        carries_limit=False,
                    )
                )


# ---------------------------------------------------------------------------
# normal form
#
# Take an accumulation point P = x.1^inf, where x does not end in 1.  Slab n
# of P is the cone x.1^n.0, and P with its slabs partitions the cone x.  A
# slab is written in reduced form: every sibling merge applied, so that its
# pieces are the maximal cones on which the map is a prefix replacement.
# Past the families' bases the slab sequence repeats with a period, up to
# one growing 1-run in every range, so it has a unique minimal period and
# preperiod; the family form of that tail is then unique too.  Tail ranges
# are reduced symbolically, for every lap at once: an injective map gives
# the ranges of one piece disjoint cones at all laps, so its rest starts
# with 0, and two such ranges are siblings at every lap or at none.

# z.1^(a + q.M).rest at lap M >= 0, with z not ending in 1 and rest not
# starting with 1: a tail range whose run grows by q ones per lap
Run = tuple[str, int, int, str]


def _run(head: str, tail: str, step: int) -> Run:
    z = head.rstrip("1")
    lead = _lead_ones(tail)
    return z, len(head) - len(z) + lead, step, tail[lead:]


def _ran_parent(ran: str, bit: str) -> Optional[str]:
    return ran[:-1] if ran.endswith(bit) else None


def _run_parent(ran: Run, bit: str) -> Optional[Run]:
    z, a, q, rest = ran
    if rest:
        return (z, a, q, rest[:-1]) if rest[-1] == bit else None
    return (z, a - 1, q, "") if bit == "1" and a > 0 else None


def _reduce(pieces: dict, parent, root: str) -> dict:
    """Every sibling merge (u0 -> v0, u1 -> v1 into u -> v) of the pieces
    {dom: ran}, refused where in sorted order a dom prefixes the next (doms
    relative to the cone root); parent(ran, bit) drops a last letter `bit`
    of a range, or is None if the range does not end in it."""
    if len(pieces) < 2:
        return pieces
    todo = sorted(pieces)
    if any(map(str.startswith, todo[1:], todo)):
        u, w = next((u, w) for u, w in zip(todo, todo[1:]) if w.startswith(u))
        raise EppmError(f"the doms {root + u or 'e'} and {root + w or 'e'} of two pieces meet")
    out = dict(pieces)
    while todo:
        u = todo.pop()
        if not u or u not in out:
            continue
        twin = u[:-1] + ("0" if u[-1] == "1" else "1")
        if twin not in out:
            continue
        v = parent(out[u], u[-1])
        if v is None or v != parent(out[twin], twin[-1]):
            continue
        del out[u], out[twin]
        out[u[:-1]] = v
        todo.append(u[:-1])
    return out


def _slab_of(x: str, w: str) -> tuple[int, str]:
    """(n, u) with w = x.1^n.0.u."""
    rel = w[len(x) :]
    n = _lead_ones(rel)
    if n == len(rel):
        raise EppmError(f"cone {w or 'e'} holds the accumulation point {x or 'e'}.1^inf")
    return n, rel[n + 1 :]


def slabs(fam: Family) -> list[tuple[str, int, str, Run]]:
    """(x, n, u, (z, a, q, rest)) for each block of fam, in order: its pieces
    x.1^(n + M.p).0.u -> z.1^(a + M.q).rest, M >= 0, p the dom step."""
    x, ran = fam.dom_base.rstrip("1"), fam.ran_base
    return [(x, *_slab_of(x, fam.dom_base + d), _run(ran, r, fam.ran_step)) for d, r in fam.blocks]


def _point_form(
    x: str,
    fams: list[Family],
    inside: dict[str, str],
    walls: list[Family],
    image: Optional[EvPeriodic],
) -> tuple[dict[str, str], list[Family]]:
    """The normal form on the cone x: explicit pieces {dom: ran} and
    families.  `fams` are the families at x.1^inf, `inside` the pieces in
    the cone, `walls` the families of deeper points in it, and `image`
    the image of x.1^inf, if any."""
    period = lcm(*(fam.dom_step for fam in fams))
    # (dom step, first slab of the block, dom in the slab, ran run)
    items = [(fam.dom_step, n, u, run) for fam in fams for _, n, u, run in slabs(fam)]
    placed = [(*_slab_of(x, w), v) for w, v in inside.items()]
    walled = {_slab_of(x, fam.dom_base)[0] for fam in walls}
    # from slab `start` on, only the families act, periodically
    start = max(
        [n for _, n, _, _ in items] + [n + 1 for n, _, _ in placed] + [n + 1 for n in walled]
    )

    explicit: list[dict[str, str]] = [{} for _ in range(start)]
    for n, u, v in placed:
        explicit[n][u] = v
    pattern: list[dict[str, Run]] = [{} for _ in range(period)]
    for c, first, u, (z, a, q, rest) in items:
        for m, n in enumerate(range(first, start, c)):
            if u in explicit[n]:
                raise EppmError(f"two atoms act on the cone {x + _ones(n) + '0' + u}")
            explicit[n][u] = z + _ones(a + m * q) + rest
        for n in range(start + (first - start) % c, start + period, c):
            if u in pattern[n - start]:
                raise EppmError(f"two atoms act on the cone {x + _ones(n) + '0' + u}")
            pattern[n - start][u] = (z, a + (n - first) // c * q, q * period // c, rest)
    for fam in walls:  # a block may not hold a deeper family's cone or meet its layers
        n, u = _slab_of(x, fam.dom_base)
        cones = [x + _ones(n) + "0" + v for v in explicit[n] if v.startswith(u) or u.startswith(v)]
        if any(len(w) <= len(fam.dom_base) or any(restrict_family(fam, w)) for w in cones):
            raise EppmError(f"a piece meets the family at {fam.dom_base}")
    explicit = [_reduce(s, _ran_parent, x + _ones(n) + "0") for n, s in enumerate(explicit)]
    pattern = [_reduce(s, _run_parent, x + _ones(start + n) + "0") for n, s in enumerate(pattern)]

    def pattern_at(n: int, shift: int = 0) -> Optional[dict[str, Run]]:
        """The periodic pattern at slab n, each run moved on by shift/period
        laps; None where a run is not whole or is negative."""
        laps, rho = divmod(n - start, period)
        out = {}
        for u, (z, a, q, rest) in pattern[rho].items():
            grow, part = divmod(q * (laps * period + shift), period)
            if part or a + grow < 0:
                return None
            out[u] = (z, a + grow, q, rest)
        return out

    # the minimal period divides the families' common step, and the
    # minimal preperiod is found walking back from `start`
    p = next(
        (
            p
            for p in range(1, period)
            if period % p == 0
            and all(
                pattern_at(start + rho + p) == pattern_at(start + rho, p)
                for rho in range(period)
            )
        ),
        period,
    )
    first = start
    while first > 0 and first - 1 not in walled:
        laps, rho = divmod(first - 1 - start, period)
        slab = explicit[first - 1]
        if len(slab) != len(pattern[rho]) or not all(
            a + q * laps >= 0 and slab.get(u) == z + _ones(a + q * laps) + rest
            for u, (z, a, q, rest) in pattern[rho].items()
        ):
            break
        first -= 1

    pieces = {
        x + _ones(n) + "0" + u: v for n in range(first) for u, v in explicit[n].items()
    }
    groups: dict[tuple[str, int], list[tuple[str, int, str]]] = {}
    for rho in range(p):
        for u, (z, a, q, rest) in pattern_at(first + rho).items():
            groups.setdefault((z, q * p // period), []).append((_ones(rho) + "0" + u, a, rest))
    base = x + _ones(first)
    families = []
    for (z, q), members in sorted(groups.items()):
        # every block's leading 1s go into the range base
        t = min(a for _, a, _ in members)
        blocks = tuple(sorted((d, _ones(a - t) + rest) for d, a, rest in members))
        carries = image == EvPeriodic(z, "1")
        families.append(Family(base, z + _ones(t), p, q, blocks, carries))
    if len(families) == 1:
        fam = families[0]
        if fam.carries_limit and (p, fam.ran_step, fam.blocks) == (1, 1, (("0", "0"),)):
            # the tail and its limit are the single piece base -> ran base
            pieces[base] = fam.ran_base
            return pieces, []
    return pieces, families


def canonicalize(f: Eppm) -> Eppm:
    """The normal form of f: equal maps get equal forms.

    It has reduced pieces outside the family cones, one family per
    accumulation point, range point and range step, with minimal preperiod
    and period, limits only where no piece or family covers them, and
    everything sorted.  One pass over the accumulation points, deepest
    first, so that a nested point's family cone is a wall in its parent's
    slab.  The result is marked, so that canonicalizing it again costs
    nothing.  The one check that f is a function: raises EppmError where two
    atoms act on one cone, even equal ones, or one point gets two images."""
    if f.normal:
        return f
    images = dict(f.limits)
    carried = [(fam.limit_dom, fam.limit_ran) for fam in f.families if fam.carries_limit]
    for p, q in f.limits + tuple(carried):
        if images.setdefault(p, q) != q:
            raise EppmError(f"the point {p} gets two images {images[p]} and {q}")
    at_point: dict[str, list[Family]] = {}
    for fam in f.families:
        if fam.blocks:
            at_point.setdefault(fam.dom_base.rstrip("1"), []).append(fam)
    # a piece meets a piece, or holds a point, where in sorted order it prefixes the next
    doms = sorted([p.dom for p in f.pieces] + list(at_point))
    for u, w in zip(doms, doms[1:]) if any(map(str.startswith, doms[1:], doms)) else ():
        if w.startswith(u) and u not in at_point:
            if w in at_point:
                raise EppmError(f"cone {u or 'e'} holds the accumulation point {w or 'e'}.1^inf")
            raise EppmError(f"the doms {u or 'e'} and {w or 'e'} of two pieces meet")
    pieces = {p.dom: p.ran for p in f.pieces}

    families: list[Family] = []
    for x in sorted(at_point, key=lambda x: (-len(x), x)):
        inside = {w: pieces.pop(w) for w in [w for w in pieces if w.startswith(x)]}
        walls = [fam for fam in families if fam.dom_base.startswith(x)]
        point = EvPeriodic(x, "1")
        more_pieces, more_families = _point_form(
            x, at_point[x], inside, walls, images.get(point)
        )
        if not more_families or any(fam.carries_limit for fam in more_families):
            images.pop(point, None)  # a family or a piece covers the point
        pieces.update(more_pieces)
        families.extend(more_families)
    families.sort(key=lambda fam: (fam.dom_base, fam.dom_step, fam.blocks, fam.ran_base))

    out = Eppm(
        tuple(Piece(u, v) for u, v in sorted(_reduce(pieces, _ran_parent, "").items())),
        tuple(families),
    )
    if images:
        limits = sorted(
            ((p, q) for p, q in images.items() if not in_domain(out, p)),
            key=lambda pq: (pq[0].pre, pq[0].per),
        )
        for p, q in images.items() - set(limits):  # inside an atom
            if evaluate(out, p) != q:
                raise EppmError(f"the point {p} gets two images {evaluate(out, p)} and {q}")
        out = Eppm(out.pieces, out.families, tuple(limits))
    object.__setattr__(out, "normal", True)
    return out


# ---------------------------------------------------------------------------
# domains, on the normal form


def _domain(f: Eppm) -> Eppm:
    """The identity on dom(f)."""
    return Eppm(
        tuple(Piece(p.dom, p.dom) for p in f.pieces),
        tuple(
            replace(
                fam,
                ran_base=fam.dom_base,
                ran_step=fam.dom_step,
                blocks=tuple((d, d) for d, _ in fam.blocks),
            )
            for fam in f.families
        ),
        tuple((p, p) for p, _ in f.limits),
    )


def region_subset(f: Eppm, g: Eppm) -> bool:
    """Whether dom(f) is contained in dom(g): the identity on dom(f), cut
    down to dom(g), is still the identity on dom(f)."""
    df = _domain(f)
    return compose(_domain(g), df) == canonicalize(df)


def is_total(f: Eppm) -> bool:
    """Whether dom(f) is the whole space: the identity on dom(f) has the
    normal form of the identity."""
    return canonicalize(_domain(f)) == IDENTITY


# ---------------------------------------------------------------------------
# equality


def equals(f: Eppm, g: Eppm) -> bool:
    """Extensional equality of the represented partial maps: equal maps
    have equal normal forms."""
    return canonicalize(f) == canonicalize(g)
