"""The germ comparison fskit used before germs were read off the normal
form, kept as an independent reference for it.

Two germs at p are equal when their maps, re-based at a common depth so
that p and its image both read as (1)^inf, agree on the cone 1^depth.
The depth goes past every piece, two layers and the longest block of every
family, then the longest step and both points' prefixes.  It never reads
the slab pattern that `germ_at` reads, so it checks that `Germ` is a
complete invariant.
"""

from __future__ import annotations

from fskit.eppm import (
    Eppm,
    Piece,
    canonicalize,
    compose,
    equals,
    evaluate,
    make_eppm,
    restrict,
)
from fskit.sequences import EvPeriodic


def rebase_depth(f: Eppm, p: EvPeriodic, q: EvPeriodic) -> int:
    f = canonicalize(f)
    depth = max(
        [len(piece.dom) for piece in f.pieces]
        + [
            len(fam.dom_base) + 2 * fam.dom_step + max(len(d) for d, _ in fam.blocks)
            for fam in f.families
        ],
        default=0,
    )
    return depth + max([fam.dom_step for fam in f.families] or [1]) + len(p.pre) + len(q.pre) + 2


def rebase_local(f: Eppm, p: EvPeriodic, q: EvPeriodic, depth: int) -> Eppm:
    """f in coordinates where p and q read as (1)^inf: strip the length-
    `depth` prefix of q from outputs and prepend the one of p to inputs."""
    w = p.prefix(depth)
    v = q.prefix(depth)
    return canonicalize(
        compose(
            make_eppm(pieces=[Piece(v, "")]),
            compose(f, make_eppm(pieces=[Piece("", w)])),
        )
    )


def germs_equal_by_rebase(f: Eppm, g: Eppm, p: EvPeriodic) -> bool:
    """Whether f and g, both defined at the tail-1^inf point p, agree on a
    neighbourhood of p."""
    q = evaluate(f, p)
    if q != evaluate(g, p):
        return False
    k = max(rebase_depth(f, p, q), rebase_depth(g, p, q))
    probe = "1" * k
    return equals(
        restrict(rebase_local(f, p, q, k), probe), restrict(rebase_local(g, p, q, k), probe)
    )
