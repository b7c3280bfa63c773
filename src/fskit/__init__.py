"""fskit: exact computation with two-colour forest-skein presentations."""

from .forest import (
    End,
    Tree,
    build_tree,
    leaf_path,
    parse_caret_word,
    prune_word,
    right_vine,
)
from .presentation import (
    AbelianInvariants,
    SkeinPresentation,
    TwoColourRightVine,
    abelianisation,
    classify,
    germ_presentation,
    parse_presentation,
    validate,
)
from .eppm import Eppm, canonicalize, compose, equals, evaluate, invert
from .sequences import EvPeriodic, ev_periodic, parse_point

__all__ = [
    "End",
    "Tree",
    "build_tree",
    "leaf_path",
    "parse_caret_word",
    "prune_word",
    "right_vine",
    "AbelianInvariants",
    "SkeinPresentation",
    "TwoColourRightVine",
    "abelianisation",
    "classify",
    "germ_presentation",
    "parse_presentation",
    "validate",
    "Eppm",
    "canonicalize",
    "compose",
    "equals",
    "evaluate",
    "invert",
    "EvPeriodic",
    "ev_periodic",
    "parse_point",
]

__version__ = "0.1.0"
