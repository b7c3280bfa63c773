"""The equality decision fskit used before the slab normal form, kept as an
independent reference for it.

Two maps are equal when their domains agree, by the finite-state cone
walk `region_subset` in both directions, and invert(g) o f is the identity
on its domain, which needs only the symbolic string comparison `eq_runs`.
It never compares normal forms, so it also checks fskit's own
`region_subset` and `is_total`, which do.
"""

from __future__ import annotations

from fskit.eppm import IDENTITY, Eppm, _ones, compose, in_domain, invert, restrict
from fskit.sequences import ev_periodic


def eq_runs(p1: str, k1: int, s1: str, p2: str, k2: int, s2: str) -> bool:
    """Whether p1.1^{m k1}.s1 == p2.1^{m k2}.s2 for every m >= 0.

    Layers 0 and 1 decide it.  With k1 != k2 the lengths agree at one m
    at most.  With k1 == k2 = k, say p2 = p1.e (else swap the sides):
    layer 0 gives s1 = e.s2, and layer 1 then gives 1^k.e = e.1^k.  Words
    that commute are powers of one word, so e is a run of 1s, which
    commutes with every 1^(mk)."""
    return k1 == k2 and all(
        p1 + _ones(m * k1) + s1 == p2 + _ones(m * k2) + s2 for m in (0, 1)
    )


def _is_empty(f: Eppm) -> bool:
    return not (f.pieces or f.families or f.limits)


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
    """Whether dom(f) is contained in dom(g), by a memoised walk over cone
    refinements that stops at a repeated (f, g) shape below a cone."""
    memo: dict = {}
    in_progress: dict = {}

    def walk(w: str, rf: Eppm, rg: Eppm) -> bool:
        if _is_empty(rf):
            return True
        if any(p.dom == w for p in rg.pieces):
            return True  # g is defined on the whole cone
        if _is_empty(rg):
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


def is_total(f: Eppm) -> bool:
    return region_subset(IDENTITY, f)


def region_equal(f: Eppm, g: Eppm) -> bool:
    return region_subset(f, g) and region_subset(g, f)


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


def equals_by_region_walk(f: Eppm, g: Eppm) -> bool:
    """Extensional equality of the represented partial maps."""
    if not region_equal(f, g):
        return False
    h = compose(invert(g), f)
    return is_identity_on_domain(h) and region_equal(h, f)
