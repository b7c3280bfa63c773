from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from fskit.sequences import EvPeriodic, PointSyntaxError, ev_periodic, parse_point

from point_relations import compare, letter, tail_equivalent


binary = st.text(alphabet="01", max_size=6)
binary1 = st.text(alphabet="01", min_size=1, max_size=6)


def test_normalization_absorbs_preperiod():
    assert ev_periodic("1", "1") == parse_point("(1)")
    assert ev_periodic("00", "10") == EvPeriodic("0", "01")
    assert ev_periodic("0", "01").pre == "0"


def test_primitive_period():
    assert ev_periodic("", "0101").per == "01"
    assert ev_periodic("", "1111") == parse_point("(1)")


@given(binary, binary1)
def test_normal_form_preserves_sequence(pre, per):
    p = ev_periodic(pre, per)
    reference = [
        (pre + per * 8)[i] for i in range(len(pre) + 4 * len(per))
    ]
    assert [letter(p, i) for i in range(len(reference))] == reference


@given(binary, binary1, binary, binary1)
def test_equality_is_extensional(pre1, per1, pre2, per2):
    p = ev_periodic(pre1, per1)
    q = ev_periodic(pre2, per2)
    depth = len(pre1) + len(pre2) + 2 * len(per1) * len(per2) + 2
    assert (p == q) == (p.prefix(depth) == q.prefix(depth))


@given(binary, binary1, st.integers(0, 10))
def test_drop_then_letters(pre, per, k):
    p = ev_periodic(pre, per)
    assert p.drop(k).prefix(10) == "".join(letter(p, k + i) for i in range(10))


@given(binary, binary1)
def test_drop_is_the_normal_form_of_the_rest(pre, per):
    # past max(n, |u|) letters the rest repeats with the period, so its
    # normal form is built from letters alone
    p = ev_periodic(pre, per)
    u, v = p.pre, p.per
    for n in range(len(u) + 3 * len(v) + 1):
        start = max(n, len(u))
        head = p.prefix(start)[n:]
        period = "".join(letter(p, i) for i in range(start, start + len(v)))
        assert p.drop(n) == ev_periodic(head, period), n


@given(binary, binary, binary1)
def test_prepend_is_the_normal_form_of_the_longer_sequence(w, pre, per):
    p = ev_periodic(pre, per)
    assert p.prepend(w) == ev_periodic(w + p.pre, p.per)
    # a word that is not binary is refused whatever the preperiod
    with pytest.raises(PointSyntaxError):
        p.prepend(w + "2")


@given(binary, binary1, st.sampled_from("01"))
def test_leading_run_counts_letters(pre, per, ch):
    p = ev_periodic(pre, per)
    if p.is_constant(ch):
        with pytest.raises(ValueError):
            p.leading_run(ch)
    else:
        run = p.leading_run(ch)
        assert p.prefix(run + 1) == ch * run + ("1" if ch == "0" else "0")


@given(binary, binary, binary1)
def test_prepend_drop_inverse(w, pre, per):
    p = ev_periodic(pre, per)
    assert p.prepend(w).drop(len(w)) == p


@pytest.mark.parametrize(
    "pre, per", [("", ""), ("01", ""), ("2", "0"), ("0", "12"), ("0 1", "1"), ("", " ")]
)
def test_bad_letters_and_empty_period_are_rejected(pre, per):
    with pytest.raises(PointSyntaxError):
        ev_periodic(pre, per)


@given(binary, binary1, st.text(alphabet="01", max_size=20))
def test_starts_with_and_prefix_agree_with_letters(pre, per, w):
    p = ev_periodic(pre, per)
    letters = "".join(letter(p, i) for i in range(len(w)))
    assert p.prefix(len(w)) == letters
    assert p.starts_with(w) == (w == letters)
    # a word read off the sequence itself, and the same word with its last
    # letter flipped
    assert p.starts_with(letters)
    if letters:
        flipped = letters[:-1] + ("0" if letters[-1] == "1" else "1")
        assert not p.starts_with(flipped)


def test_parse_point():
    assert parse_point("01(10)") == ev_periodic("01", "10")
    assert parse_point("(1)") == ev_periodic("", "1")
    assert parse_point("(0)") == ev_periodic("", "0")
    with pytest.raises(PointSyntaxError):
        parse_point("01")
    with pytest.raises(PointSyntaxError):
        parse_point("01()")


def test_tail_equivalence_examples():
    assert tail_equivalent(parse_point("0(1)"), parse_point("(1)"))
    assert tail_equivalent(parse_point("(01)"), parse_point("(10)"))
    assert not tail_equivalent(parse_point("(01)"), parse_point("(0)"))


@given(binary, binary, binary1)
def test_tail_equivalence_shift_invariant(u, pre, per):
    p = ev_periodic(pre, per)
    assert tail_equivalent(p.prepend(u), p)


def test_to_fraction():
    assert parse_point("(0)").to_fraction() == 0
    assert parse_point("(1)").to_fraction() == 1
    assert parse_point("1(0)").to_fraction() == Fraction(1, 2)
    assert parse_point("(01)").to_fraction() == Fraction(1, 3)
    assert parse_point("01(10)").to_fraction() == Fraction(1, 4) + Fraction(1, 4) * Fraction(2, 3)


def test_compare():
    assert compare(parse_point("(0)"), parse_point("(1)")) == -1
    assert compare(parse_point("(1)"), parse_point("(0)")) == 1
    assert compare(parse_point("01(0)"), parse_point("10(0)")) == -1
    assert compare(parse_point("(10)"), parse_point("(10)")) == 0


def test_leading_run():
    assert parse_point("110(0)").leading_run("1") == 2
    assert parse_point("0(1)").leading_run("1") == 0
    with pytest.raises(ValueError):
        parse_point("(1)").leading_run("1")
