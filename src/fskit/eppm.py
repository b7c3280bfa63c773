"""Tail-periodic piecewise prefix maps on the Cantor space, exactly.

An Eppm is a partial injective continuous map on {0,1}^N given by finitely
many prefix-replacement pieces (u |-> v means u.z |-> v.z on the cone u),
finitely many tail families, and finitely many isolated limit assignments.

A tail family with bases (db, rb), steps (c, c') and blocks (d_j, r_j)
denotes the pieces

    db . 1^{mc} . d_j  |->  rb . 1^{mc'} . r_j      for every m >= 0,

together with the limit assignment db.1^inf |-> rb.1^inf when it carries
its limit.  Families are how breakpoint accumulation at tail-1^inf points
stays finite data.  A family produced by composition may temporarily not
carry its limit (several families can share one accumulation point); the
point then lives in the isolated-limits table until canonicalisation
re-absorbs it.

Equality of maps is decided exactly: dom(f) = dom(g) via a finite-state
walk over cone refinements, and pointwise agreement via checking that
invert(g) o f is the identity on its domain, which only needs the symbolic
"prefix . 1-run . suffix" string comparison implemented in eq_runs.
Alignment that does not stabilise within the computed unfolding bound
raises RepresentationOverflow rather than guessing.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import lcm
from typing import Iterable, Optional, Union

from .sequences import EvPeriodic, ev_periodic


class EppmError(Exception):
    pass


class UndefinedAt(EppmError):
    def __init__(self, point):
        super().__init__(f"map undefined at {point}")
        self.point = point


class RepresentationOverflow(EppmError):
    pass


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

    @property
    def atoms(self) -> tuple[Atom, ...]:
        return self.pieces + self.families

    def is_empty(self) -> bool:
        return not (self.pieces or self.families or self.limits)

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
# symbolic string families:  p . 1^{m k} . s


def eq_runs(p1: str, k1: int, s1: str, p2: str, k2: int, s2: str) -> bool:
    """Whether p1.1^{m k1}.s1 == p2.1^{m k2}.s2 for every m >= 0."""
    if k1 != k2 or len(p1) + len(s1) != len(p2) + len(s2):
        return False
    bound = (len(p1) + len(s1) + len(p2) + len(s2)) // max(k1, 1) + 2
    for m in range(bound + 1):
        if p1 + _ones(m * k1) + s1 != p2 + _ones(m * k2) + s2:
            return False
    return True


def _insertion_range(y0: str, y1: str) -> Optional[tuple[int, int, int]]:
    """Positions L where y1 == y0[:L] + 1^delta + y0[L:]; returns
    (delta, Lmin, Lmax) or None."""
    delta = len(y1) - len(y0)
    if delta <= 0:
        return None
    lo = hi = None
    for L in range(len(y0) + 1):
        if (
            y1[:L] == y0[:L]
            and y1[L : L + delta] == _ones(delta)
            and y1[L + delta :] == y0[L:]
        ):
            if lo is None:
                lo = L
            hi = L
        elif lo is not None:
            break
    if lo is None:
        return None
    return delta, lo, hi


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
    # the cone is db.1^ones.0...: a block d with l < len(d) leading 1s starts
    # 1^(mc + l).0 at layer m, so only layer (ones - l)/c can meet it; an
    # all-1s block can meet it at every layer up to ones/c
    hits: list[tuple[int, int, Piece]] = []
    for i, block in enumerate(f.blocks):
        d = block[0]
        lead = _lead_ones(d)
        if lead == len(d):
            layers: Iterable[int] = range(ones // c + 1)
        elif lead <= ones and (ones - lead) % c == 0:
            layers = ((ones - lead) // c,)
        else:
            continue
        for m in layers:
            r = restrict_piece(f.piece_at(m, block), w)
            if r is not None:
                hits.append((m, i, r))
    hits.sort(key=lambda hit: hit[:2])
    return [r for _, _, r in hits], []


def restrict(f: Eppm, w: str) -> Eppm:
    pieces: list[Piece] = []
    fams: list[Family] = []
    for p in f.pieces:
        r = restrict_piece(p, w)
        if r is not None:
            pieces.append(r)
    for fam in f.families:
        ps, fs = restrict_family(fam, w)
        pieces.extend(ps)
        fams.extend(fs)
    limits = tuple((p, q) for p, q in f.limits if p.starts_with(w))
    return Eppm(tuple(pieces), tuple(fams), limits)


# ---------------------------------------------------------------------------
# evaluation


def evaluate(f: Eppm, p: EvPeriodic) -> EvPeriodic:
    for piece in f.pieces:
        if p.starts_with(piece.dom):
            return p.drop(len(piece.dom)).prepend(piece.ran)
    for fam in f.families:
        if not p.starts_with(fam.dom_base):
            continue
        rest = p.drop(len(fam.dom_base))
        if rest.is_constant("1"):
            if fam.carries_limit:
                return ev_periodic(fam.ran_base, "1")
            continue
        # p lies in the cone db.1^run.0, whose pieces restrict_family finds
        cone = fam.dom_base + _ones(rest.leading_run("1")) + "0"
        for piece in restrict_family(fam, cone)[0]:
            if p.starts_with(piece.dom):
                return p.drop(len(piece.dom)).prepend(piece.ran)
    for lp, lq in f.limits:
        if p == lp:
            return lq
    raise UndefinedAt(p)


def in_domain(f: Eppm, p: EvPeriodic) -> bool:
    try:
        evaluate(f, p)
        return True
    except UndefinedAt:
        return False


# ---------------------------------------------------------------------------
# inversion


def invert(f: Eppm) -> Eppm:
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


def _max_depth(f: Eppm) -> int:
    depth = 0
    for p in f.pieces:
        depth = max(depth, len(p.dom))
    for fam in f.families:
        longest = max((len(d) for d, _ in fam.blocks), default=0)
        depth = max(depth, len(fam.dom_base) + 2 * fam.dom_step + longest)
    return depth


def _pullback(atoms: Eppm, new: str, old: str) -> tuple[list[Piece], list[Family]]:
    """Rename the leading `old` of every dom base to `new` (all bases in
    `atoms` extend `old`)."""
    pieces = [Piece(new + p.dom[len(old) :], p.ran) for p in atoms.pieces]
    fams = [
        replace(fam, dom_base=new + fam.dom_base[len(old) :]) for fam in atoms.families
    ]
    return pieces, fams


def compose(f: Eppm, g: Eppm) -> Eppm:
    """The map x -> f(g(x)) on its natural domain."""
    pieces: list[Piece] = []
    fams: list[Family] = []
    limits: list[LimitPair] = []

    for p in g.pieces:
        _compose_through_piece(f, p, pieces, fams)
    for fam in g.families:
        _compose_through_family(f, fam, pieces, fams, limits)

    for lp, lq in g.limits:
        try:
            limits.append((lp, evaluate(f, lq)))
        except UndefinedAt:
            pass
    ginv = invert(g)
    for fq, fy in f.limits:
        try:
            limits.append((evaluate(ginv, fq), fy))
        except UndefinedAt:
            pass

    return canonicalize(Eppm(tuple(pieces), tuple(fams), tuple(dict.fromkeys(limits))))


def _compose_through_piece(
    f: Eppm, g_piece: Piece, pieces: list[Piece], fams: list[Family]
) -> None:
    sub = restrict(f, g_piece.ran)
    ps, fs = _pullback(sub, g_piece.dom, g_piece.ran)
    pieces.extend(ps)
    fams.extend(fs)


def _compose_through_family(
    f: Eppm,
    g_fam: Family,
    pieces: list[Piece],
    fams: list[Family],
    limits: list[LimitPair],
) -> None:
    db, rb = g_fam.dom_base, g_fam.ran_base
    c, cp = g_fam.dom_step, g_fam.ran_step
    m0 = max(0, -(-(_max_depth(f) - len(rb)) // cp)) + 1

    for m in range(m0):
        for block in g_fam.blocks:
            _compose_through_piece(f, g_fam.piece_at(m, block), pieces, fams)

    if g_fam.carries_limit:
        try:
            limits.append((ev_periodic(db, "1"), evaluate(f, ev_periodic(rb, "1"))))
        except UndefinedAt:
            pass

    roof = rb + _ones(m0 * cp)
    sub = restrict(f, roof)
    if not sub.pieces and not sub.families:
        return

    full = next((p for p in sub.pieces if p.dom == roof), None)
    if full is not None and not sub.families:
        fams.append(
            Family(
                db + _ones(m0 * c),
                full.ran,
                c,
                cp,
                g_fam.blocks,
                carries_limit=False,
            )
        )
        return

    _compose_family_tail(f, g_fam, m0, fams, pieces)


def _compose_family_tail(
    f: Eppm,
    g_fam: Family,
    m0: int,
    fams: list[Family],
    pieces: list[Piece],
) -> None:
    """General tail composition through families of f, by unfolding the
    g-family to a common step and verifying shift-coherence on samples."""
    db, rb = g_fam.dom_base, g_fam.ran_base
    c, cp = g_fam.dom_step, g_fam.ran_step
    steps = [fam.dom_step for fam in f.families] or [1]
    big = lcm(cp, *steps)
    unfold = big // cp
    dom_step_out = unfold * c

    # candidate blocks: (relative dom suffix, y0, delta, Lmin, Lmax)
    candidates = []
    for rho in range(unfold):
        for d, r in g_fam.blocks:
            samples = []
            for k in (0, 1, 2):
                m = m0 + rho + k * unfold
                cone_dom = db + _ones(m * c) + d
                cone_ran = rb + _ones(m * cp) + r
                sub = restrict(f, cone_ran)
                if sub.families:
                    raise RepresentationOverflow(
                        "family alignment did not stabilise at depth "
                        f"{len(cone_ran)}"
                    )
                samples.append(
                    (cone_dom, sorted((p.dom[len(cone_ran) :], p.ran) for p in sub.pieces))
                )
            tails0 = [t for t, _ in samples[0][1]]
            if [t for t, _ in samples[1][1]] != tails0 or [
                t for t, _ in samples[2][1]
            ] != tails0:
                raise RepresentationOverflow("tail structure is not layer-periodic")
            for idx, (tail, y0) in enumerate(samples[0][1]):
                y1 = samples[0 + 1][1][idx][1]
                y2 = samples[2][1][idx][1]
                ins = _insertion_range(y0, y1)
                if ins is None:
                    raise RepresentationOverflow("ran strings are not run-shifted")
                delta, lo, hi = ins
                if y2 != y0[:lo] + _ones(2 * delta) + y0[lo:]:
                    raise RepresentationOverflow("ran strings are not run-shifted")
                rel_dom = _ones((rho) * c) + d + tail
                candidates.append((rel_dom, y0, delta, lo, hi))

    dom_base_out = db + _ones(m0 * c)

    # group candidates into families sharing (delta, ran base)
    groups: dict[tuple[int, str], list[tuple[str, str, int, int]]] = {}
    for rel_dom, y0, delta, lo, hi in candidates:
        anchor = y0[:lo]
        key_base = anchor.rstrip("1")
        min_ext = lo - len(key_base)
        max_ext = hi - len(key_base)
        groups.setdefault((delta, key_base), []).append(
            (rel_dom, y0, min_ext, max_ext)
        )

    for (delta, key_base), members in sorted(groups.items()):
        members = sorted(members)
        ext = max(m[2] for m in members)
        if ext > min(m[3] for m in members):
            # incompatible extents: emit singleton families
            for rel_dom, y0, min_ext, _ in members:
                base = key_base + _ones(min_ext)
                fams.append(
                    Family(
                        dom_base_out,
                        base,
                        dom_step_out,
                        delta,
                        ((rel_dom, y0[len(base) :]),),
                        carries_limit=False,
                    )
                )
            continue
        base = key_base + _ones(ext)
        blocks = tuple((rel_dom, y0[len(base) :]) for rel_dom, y0, _, _ in members)
        fams.append(
            Family(dom_base_out, base, dom_step_out, delta, blocks, carries_limit=False)
        )


# ---------------------------------------------------------------------------
# canonical form


def _kraft_partition(suffixes: Iterable[str], extra: str) -> bool:
    """Whether the suffix cones plus the extra cone partition the full space
    (prefix-free with Kraft sum exactly 1)."""
    from fractions import Fraction

    words = list(suffixes) + [extra]
    for i, u in enumerate(words):
        for v in words[i + 1 :]:
            if u.startswith(v) or v.startswith(u):
                return False
    return sum(Fraction(1, 2 ** len(w)) for w in words) == 1


def _split_overflow_blocks(fam: Family) -> list[Family]:
    """Rewrite blocks whose dom suffix starts with 1^c into sibling families
    with a deeper dom base, so blocks live strictly inside one layer."""
    c, cp = fam.dom_step, fam.ran_step
    by_shift: dict[int, list[tuple[str, str]]] = {}
    for d, r in fam.blocks:
        k = _lead_ones(d) // c
        by_shift.setdefault(k, []).append((d[k * c :], r))
    if set(by_shift) == {0}:
        return [fam]
    out = []
    first = True
    for k in sorted(by_shift):
        out.append(
            Family(
                fam.dom_base + _ones(k * c),
                fam.ran_base,
                c,
                cp,
                tuple(sorted(by_shift[k])),
                carries_limit=fam.carries_limit and first,
            )
        )
        first = False
    return out


def _reduce_step(fam: Family) -> Family:
    """Fold an unfolded family back to its smallest step."""
    while True:
        c, cp = fam.dom_step, fam.ran_step
        for p in range(c, 1, -1):
            if c % p or cp % p:
                continue
            c0, cp0 = c // p, cp // p
            core = [(d, r) for d, r in fam.blocks if not d.startswith(_ones(c0))]
            expected = set()
            for rho in range(p):
                for d, r in core:
                    expected.add((_ones(rho * c0) + d, _ones(rho * cp0) + r))
            if core and expected == set(fam.blocks):
                fam = replace(
                    fam, dom_step=c0, ran_step=cp0, blocks=tuple(sorted(core))
                )
                break
        else:
            return fam


def _rebalance(fam: Family) -> Family:
    """Move 1-runs shared by all block suffixes into the bases (1s commute
    across the step run, so this is an equality of piece sets)."""
    if not fam.blocks:
        return fam
    t_d = min(_lead_ones(d) for d, _ in fam.blocks)
    t_r = min(_lead_ones(r) for _, r in fam.blocks)
    if t_d == 0 and t_r == 0:
        return fam
    blocks = tuple(sorted((d[t_d:], r[t_r:]) for d, r in fam.blocks))
    return replace(
        fam,
        dom_base=fam.dom_base + _ones(t_d),
        ran_base=fam.ran_base + _ones(t_r),
        blocks=blocks,
    )


def _merge_families(families: list[Family]) -> list[Family]:
    """Union the blocks of families sharing bases and steps."""
    grouped: dict[tuple, tuple[set, bool]] = {}
    for fam in families:
        key = (fam.dom_base, fam.ran_base, fam.dom_step, fam.ran_step)
        blocks, carries = grouped.get(key, (set(), False))
        blocks |= set(fam.blocks)
        grouped[key] = (blocks, carries or fam.carries_limit)
    return [
        Family(db, rb, c, cp, tuple(sorted(blocks)), carries)
        for (db, rb, c, cp), (blocks, carries) in sorted(grouped.items())
    ]


def _try_collapse(fam: Family) -> Optional[Piece]:
    """A family equal to a single prefix piece collapses to it."""
    if not fam.carries_limit or fam.dom_step != fam.ran_step:
        return None
    k = None
    for d, r in fam.blocks:
        if not r.endswith(d):
            return None
        head = r[: len(r) - len(d)]
        if head != _ones(len(head)):
            return None
        if k is None:
            k = len(head)
        elif k != len(head):
            return None
    if k is None:
        return None
    if not _kraft_partition((d for d, _ in fam.blocks), _ones(fam.dom_step)):
        return None
    return Piece(fam.dom_base, fam.ran_base + _ones(k))


def canonicalize(f: Eppm) -> Eppm:
    pieces = list(f.pieces)
    families: list[Family] = []
    limits = list(dict.fromkeys(f.limits))

    for fam in f.families:
        if not fam.blocks:
            if fam.carries_limit:
                limits.append((fam.limit_dom, fam.limit_ran))
            continue
        families.extend(_split_overflow_blocks(fam))
    families = [_reduce_step(fam) for fam in families]

    def pass_once() -> bool:
        nonlocal pieces, families, limits
        changed = False

        rebalanced = [_rebalance(fam) for fam in families]
        merged = _merge_families(rebalanced)
        if merged != families:
            families = merged
            changed = True

        # re-attach isolated limits to a matching limitless family
        for lp, lq in list(limits):
            owners = [
                i
                for i, fam in enumerate(families)
                if not fam.carries_limit
                and fam.limit_dom == lp
                and fam.limit_ran == lq
            ]
            if owners:
                families[owners[0]] = replace(families[owners[0]], carries_limit=True)
                limits.remove((lp, lq))
                changed = True
            else:
                covered = any(lp.starts_with(p.dom) for p in pieces) or any(
                    fam.carries_limit and lp == fam.limit_dom for fam in families
                )
                if covered:
                    limits.remove((lp, lq))
                    changed = True

        # collapse families that equal a single prefix piece
        kept: list[Family] = []
        for fam in families:
            piece = _try_collapse(fam)
            if piece is not None:
                pieces.append(piece)
                changed = True
            else:
                kept.append(fam)
        families = kept

        # absorb explicit pieces that form the next-lower layer of a family
        for i, fam in enumerate(families):
            c, cp = fam.dom_step, fam.ran_step
            if len(fam.dom_base) < c or len(fam.ran_base) < cp:
                continue
            if not fam.dom_base.endswith(_ones(c)) or not fam.ran_base.endswith(
                _ones(cp)
            ):
                continue
            down_db = fam.dom_base[:-c]
            down_rb = fam.ran_base[:-cp]
            needed = [Piece(down_db + d, down_rb + r) for d, r in fam.blocks]
            if all(p in pieces for p in needed):
                for p in needed:
                    pieces.remove(p)
                families[i] = replace(fam, dom_base=down_db, ran_base=down_rb)
                return True

        # merge sibling pieces (u0 -> v0, u1 -> v1) into (u -> v)
        seen: dict[str, Piece] = {p.dom: p for p in pieces}
        for p in list(pieces):
            if p.dom.endswith("0") and p.ran.endswith("0"):
                twin = seen.get(p.dom[:-1] + "1")
                if twin and twin.ran == p.ran[:-1] + "1":
                    pieces.remove(p)
                    pieces.remove(twin)
                    pieces.append(Piece(p.dom[:-1], p.ran[:-1]))
                    return True

        return changed

    for _ in range(10 * (len(pieces) + len(families) + len(limits)) + 10):
        if not pass_once():
            break

    pieces = sorted(dict.fromkeys(pieces), key=lambda p: (p.dom, p.ran))
    families = sorted(
        dict.fromkeys(families),
        key=lambda fam: (fam.dom_base, fam.dom_step, fam.blocks),
    )
    limits = sorted(dict.fromkeys(limits), key=lambda pq: (pq[0].pre, pq[0].per))
    return Eppm(tuple(pieces), tuple(families), tuple(limits))


# ---------------------------------------------------------------------------
# region comparison (domain shapes), via a finite-state cone walk


def _region_key(f: Eppm, w: str):
    pieces = tuple(sorted(p.dom[len(w) :] for p in f.pieces))
    fams = tuple(
        sorted(
            (
                fam.dom_base[len(w) :],
                fam.dom_step,
                tuple(sorted(d for d, _ in fam.blocks)),
                fam.carries_limit,
            )
            for fam in f.families
        )
    )
    pts = tuple(sorted((p.drop(len(w)).pre, p.drop(len(w)).per) for p, _ in f.limits))
    return pieces, fams, pts


def region_subset(f: Eppm, g: Eppm) -> bool:
    """Whether dom(f) is contained in dom(g)."""
    memo: dict = {}
    in_progress: dict = {}

    def walk(w: str, rf: Eppm, rg: Eppm) -> bool:
        if rf.is_empty():
            return True
        if any(p.dom == w for p in rg.pieces):
            return True  # g is defined on the whole cone
        if rg.is_empty():
            return False
        if not rf.pieces and not rf.families:
            # only isolated points of f remain below w
            return all(in_domain(g, p) for p, _ in rf.limits)
        key = (_region_key(rf, w), _region_key(rg, w))
        if key in memo:
            return memo[key]
        if key in in_progress:
            w0 = in_progress[key]
            cycle = w[len(w0) :]
            p = ev_periodic(w0, cycle) if cycle else ev_periodic(w0, "1")
            return (not in_domain(f, p)) or in_domain(g, p)
        in_progress[key] = w
        ok = walk(w + "0", restrict(rf, w + "0"), restrict(rg, w + "0")) and walk(
            w + "1", restrict(rf, w + "1"), restrict(rg, w + "1")
        )
        del in_progress[key]
        memo[key] = ok
        return ok

    return walk("", f, g)


def region_equal(f: Eppm, g: Eppm) -> bool:
    return region_subset(f, g) and region_subset(g, f)


def is_total(f: Eppm) -> bool:
    return region_subset(IDENTITY, f)


# ---------------------------------------------------------------------------
# identity test and equality


def is_identity_on_domain(f: Eppm) -> bool:
    for p in f.pieces:
        if p.dom != p.ran:
            return False
    for fam in f.families:
        for d, r in fam.blocks:
            if not eq_runs(
                fam.dom_base, fam.dom_step, d, fam.ran_base, fam.ran_step, r
            ):
                return False
        if fam.carries_limit and fam.limit_dom != fam.limit_ran:
            return False
    return all(p == q for p, q in f.limits)


def equals(f: Eppm, g: Eppm) -> bool:
    """Extensional equality of the represented partial maps."""
    if canonicalize(f) == canonicalize(g):
        return True
    if not region_equal(f, g):
        return False
    h = compose(invert(g), f)
    return is_identity_on_domain(h) and region_equal(h, f)
