"""Witness-point certificate that a good word does not collapse, for
presentations with R_x = 2.  Test-only: the probe decides every word
exactly, and the tests use this as an independent cross-check."""

from fskit.eppm import evaluate
from fskit.presentation import TwoColourRightVine
from fskit.probe import kappa_omega
from fskit.sequences import ev_periodic

from good_word_reference import good_word_check, is_trivial_good_word


class WrongShape(Exception):
    pass


def certificate_check(cls: TwoColourRightVine, word: str) -> bool:
    """Witness-point check that kappa_omega(word) is no power of A1, for
    presentations with R_x = 2 (shape x = Y(s (x) Y)).

    A power of A1 sends (0)^inf to 1^j.(0)^inf and 0.(1)^inf to
    1^j.0.(1)^inf; the case analysis behind the simplicity proof guarantees
    one of the two witness images breaks that shape for every non-trivial
    good word."""
    if cls.R_x != 2:
        raise WrongShape(f"certificate needs R_x = 2, got {cls.R_x}")
    if not good_word_check(cls, word) or is_trivial_good_word(cls, word):
        raise ValueError(f"{word!r} is not a non-trivial good word")
    g = kappa_omega(cls, word)
    z1 = evaluate(g, ev_periodic("", "0"))
    z2 = evaluate(g, ev_periodic("0", "1"))
    # a power of A1 sends the witnesses to 1^j.(0)^inf and 1^j.0.(1)^inf
    z1_power_shape = z1.per == "0" and set(z1.pre) <= {"1"}
    z2_power_shape = z2.per == "1" and z2.pre.count("0") == 1
    return not (z1_power_shape and z2_power_shape)
