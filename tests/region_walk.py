"""The equality decision fskit used before the slab normal form, kept as an
independent reference for it.

Two maps are equal when their domains agree, by the finite-state cone
walk `region_subset` in both directions, and invert(g) o f is the identity
on its domain, which needs only the symbolic string comparison `eq_runs`.
It never compares normal forms.
"""

from __future__ import annotations

from fskit.eppm import Eppm, compose, eq_runs, invert, region_subset


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
