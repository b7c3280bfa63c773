"""The measure of a map's domain cones, counted with multiplicity.

The cone w has measure 2^-|w|.  A map's sum runs over its pieces and over
every layer of every family block: the block d of a family with base db
and step c has the cones db.1^(mc).d, a geometric series in 2^-c.  Limits
are points and count 0.  So a total map that is a function, whose cones
cover the Cantor space once apart from countably many limit points, sums
to exactly 1, and a total map with two atoms on one cone counts that cone
twice and sums to more.  Two images at one point do not show here: a
point has measure 0.

This reads only the fields of a map, and shares no code with fskit.eppm.
"""

from __future__ import annotations

from fractions import Fraction


def cone_measure(f) -> Fraction:
    """The exact sum of 2^-|dom| over the atoms of f."""
    total = sum((Fraction(1, 2 ** len(p.dom)) for p in f.pieces), Fraction(0))
    for fam in f.families:
        layer = sum(Fraction(1, 2 ** (len(fam.dom_base) + len(d))) for d, _ in fam.blocks)
        total += layer / (1 - Fraction(1, 2**fam.dom_step))
    return total
