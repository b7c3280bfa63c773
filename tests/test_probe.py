import json
import time
from dataclasses import replace

import pytest

import fskit.probe
from fskit.dynamics import caret_map, is_power_of_a1
from fskit.eppm import IDENTITY, Piece, compose, equals, evaluate, make_eppm
from fskit.presentation import enumerate_good_words, good_b_words
from fskit.probe import WITNESS_POINTS, Witnesses, kappa_omega, probe

from certificate import WrongShape, certificate_check
from good_word_reference import good_word_check
from conftest import (
    CLEARY2_TEXT,
    J3_TEXT,
    NONSIMPLE4_TEXT,
    RHO2_TEXT,
    vine_class,
)
from probe_reference import every_word_images, every_word_probe


def test_kappa_single_letters(j3):
    assert equals(kappa_omega(j3, "a"), caret_map(j3, "a", 1))
    assert equals(kappa_omega(j3, "b"), caret_map(j3, "b", 1))
    with pytest.raises(ValueError):
        kappa_omega(j3, "")


def test_kappa_is_morphism(j3):
    ab = kappa_omega(j3, "ab")
    assert equals(ab, compose(kappa_omega(j3, "a"), kappa_omega(j3, "b")))


def test_kappa_phi5(nonsimple4):
    assert kappa_omega(nonsimple4, "ab" * 5) == make_eppm(pieces=[Piece("", "1" * 9)])


def test_paper_collapse_is_found(nonsimple4):
    # the alternating word of length 10 collapses with j = 9, as computed
    # from the five-fold orbit of the cell's leaves
    assert is_power_of_a1(kappa_omega(nonsimple4, "ab" * 5)) == 9


def test_true_first_collapse(nonsimple4):
    # b(ab)^4 is good and collapses one letter earlier: A1.B1.Phi^4 = Phi^5
    # forces B1.Phi^4 = A1^8 by cancelling the injective A1
    word = "b" + "ab" * 4
    assert good_word_check(nonsimple4, word)
    assert is_power_of_a1(kappa_omega(nonsimple4, word)) == 8
    # no good word of length <= 8 collapses
    for w in enumerate_good_words(nonsimple4, 8):
        assert is_power_of_a1(kappa_omega(nonsimple4, w)) is None, w


def test_probe_nonsimple(nonsimple4):
    report = probe(nonsimple4, 10, presentation_name="nonsimple4")
    assert report.outcome == "CollapseFound"
    assert report.collapse_word == "babababab"
    assert report.collapse_power == 8
    # the reported collapse re-verifies
    assert good_word_check(nonsimple4, report.collapse_word)
    j = report.collapse_power
    assert equals(
        kappa_omega(nonsimple4, report.collapse_word),
        make_eppm(pieces=[Piece("", "1" * j)]),
    )


def test_probe_simple_category(j3):
    report = probe(j3, 8, presentation_name="j3")
    assert report.outcome == "NoCollapseUpTo"
    assert report.collapse_word is None
    assert report.tested == 103


def test_probe_vine_pair(rho2):
    # x = rho forces B1 = A1, so "b" collapses immediately
    report = probe(rho2, 1)
    assert report.outcome == "CollapseFound"
    assert report.collapse_word == "b"
    assert report.collapse_power == 1


@pytest.mark.parametrize("name, max_len", [("nonsimple4", 9), ("j3", 10)])
def test_prefix_shared_images_match_fold(name, max_len, request):
    # each b-word is one of the previous length plus a letter, and extending
    # that word's map by the letter gives the per-word fold
    cls = request.getfixturevalue(name)
    previous = {""}
    for words in good_b_words(cls, max_len):
        for word in words:
            assert word[:-1] in previous, word
            prefix = kappa_omega(cls, word[:-1]) if len(word) > 1 else IDENTITY
            extended = compose(prefix, caret_map(cls, word[-1], 1))
            assert extended == kappa_omega(cls, word), word
        previous = set(words)


@pytest.mark.parametrize("name", ["j3", "nonsimple4"])
def test_a_prefixed_word_is_a1_power_after_its_stripped_word(name, request):
    # the lemma behind deciding a^i.w' by w': w' is listed first, and
    # kappa(a^i.w') = A1^i kappa(w') on normal forms
    cls = request.getfixturevalue(name)
    a = cls.colour_a
    a1 = caret_map(cls, a, 1)
    words = list(enumerate_good_words(cls, 9))
    position = {w: k for k, w in enumerate(words)}
    prefixed = [w for w in words if w.startswith(a)]
    assert prefixed
    for word in prefixed:
        stripped = word.lstrip(a)
        assert position[stripped] < position[word], word
        expected = kappa_omega(cls, stripped)
        for _ in range(len(word) - len(stripped)):
            expected = compose(a1, expected)
        assert kappa_omega(cls, word) == expected, word


@pytest.mark.parametrize(
    "text, max_len, outcome",
    [
        (J3_TEXT, 10, "NoCollapseUpTo"),
        (NONSIMPLE4_TEXT, 8, "NoCollapseUpTo"),
        (NONSIMPLE4_TEXT, 10, "CollapseFound"),
        (CLEARY2_TEXT, 12, "NoCollapseUpTo"),
        (RHO2_TEXT, 4, "CollapseFound"),
        ("colors b a\nrel b1 b1 b3 b4 = a1 a2 a3 a4\n", 10, "CollapseFound"),
        ("colors a b\nrel a1 a1 a2 a4 = b1 b2 b3 b4\n", 9, "NoCollapseUpTo"),
        ("colors a b\nrel a1 a1 a3 a4 a5 = b1 b2 b3 b4 b5\n", 9, "CollapseFound"),
        (NONSIMPLE4_TEXT, 14, "CollapseFound"),
        ("colors a b\nrel a1 = b1\n", 5, "NoCollapseUpTo"),
    ],
    ids=["j3", "nonsimple4-8", "nonsimple4-10", "cleary2", "rho2",
         "nonsimple4-relabelled", "j4", "nonsimple5", "nonsimple4-14", "recoloured"],
)
def test_probe_matches_every_word_reference(text, max_len, outcome):
    # deciding a^i.w' by w' gives the report of mapping every word
    cls = vine_class(text)
    report = probe(cls, max_len)
    assert report.outcome == outcome
    reference = every_word_probe(cls, max_len)
    assert replace(report, seconds=0.0) == reference


@pytest.mark.parametrize("name", ["j3", "nonsimple4", "rho2"])
def test_witness_points_refute_no_collapse(name, request):
    # the rules the probe's filter relies on, on every good word up to
    # length 9, against the maps of the every-word reference: the suffix
    # memo gives each point's exact image, a refuted word is no power of
    # A1, and a collapse is never refuted
    cls = request.getfixturevalue(name)
    witnesses = Witnesses(cls)
    refuted = collapses = 0
    for word, image in every_word_images(cls, 9):
        for i, p in enumerate(WITNESS_POINTS):
            assert witnesses.image(i, word) == evaluate(image, p), (word, str(p))
        j = is_power_of_a1(image)
        if witnesses.refute(word):
            refuted += 1
            assert j is None, word
        if j is not None:
            collapses += 1
            assert not witnesses.refute(word), word
    # j3 has no collapse; on rho2 B1 = A1, so every word collapses
    assert (refuted > 0) == (name != "rho2")
    assert (collapses > 0) == (name != "j3")


def test_witnesses_carry_images_on_from_the_longest_stored_suffix(j3):
    # a step is a read of a caret's images; carried on from the longest
    # stored suffix, j3's b-words up to length 20 take 1,730 steps, and
    # rebuilt from the bare point every time they take 18,490
    steps = 0

    class Counting(dict):
        def __getitem__(self, point):
            nonlocal steps
            steps += 1
            return super().__getitem__(point)

    witnesses = Witnesses(j3)
    witnesses.steps = {ch: Counting() for ch in witnesses.steps}
    for words in good_b_words(j3, 20):
        for word in words:
            assert witnesses.refute(word), word
    assert steps == 1730


@pytest.mark.parametrize(
    "name, max_len, words", [("nonsimple4", 10, ["bbababb", "babababab"]), ("j3", 12, [])]
)
def test_probe_builds_maps_only_for_unrefuted_words(name, max_len, words, request, monkeypatch):
    # every other b-word is refuted at a witness point, so only these get
    # the exact check; the last one is nonsimple4's collapse
    checked = []

    def counting(f):
        checked.append(f)
        return is_power_of_a1(f)

    monkeypatch.setattr(fskit.probe, "is_power_of_a1", counting)
    cls = request.getfixturevalue(name)
    report = probe(cls, max_len)
    assert len(checked) == len(words)
    assert checked == [kappa_omega(cls, w) for w in words]
    assert report.collapse_word == (words[-1] if words else None)


def test_deep_probe_stops_at_the_collapse(nonsimple4):
    # the walk ends at the collapse of length 9, so length 22 costs no more
    start = time.monotonic()
    deep = probe(nonsimple4, 22, presentation_name="nonsimple4")
    seconds = time.monotonic() - start
    shallow = probe(nonsimple4, 10, presentation_name="nonsimple4")
    assert (deep.collapse_word, deep.collapse_power, deep.tested) == ("babababab", 8, 462)
    assert replace(deep, max_len=10, seconds=0.0) == replace(shallow, seconds=0.0)
    assert seconds < 2.0


def test_probe_follows_colour_order():
    # nonsimple4 with its colours named the other way round: the words are
    # renamed, and the report is the same as nonsimple4's up to the renaming
    relabelled = vine_class("colors b a\nrel b1 b1 b3 b4 = a1 a2 a3 a4\n")
    report = probe(relabelled, 10)
    assert (report.outcome, report.tested) == ("CollapseFound", 462)
    assert (report.collapse_word, report.collapse_power) == ("ababababa", 8)


def test_probe_json_round_trip(j3):
    report = probe(j3, 4, presentation_name="j3")
    data = json.loads(report.to_json())
    assert data["outcome"] == "NoCollapseUpTo"
    assert data["max_len"] == 4
    assert data["tested"] == report.tested
    assert data["inconclusive"] == []


def test_certificate_requires_shape(nonsimple4):
    with pytest.raises(WrongShape):
        certificate_check(nonsimple4, "b")


def test_certificate_b(j3):
    assert certificate_check(j3, "b")


def test_certificate_all_short_good_words(j3):
    for w in enumerate_good_words(j3, 6):
        assert certificate_check(j3, w), w


def test_certificate_rejects_trivial(j3):
    with pytest.raises(ValueError):
        certificate_check(j3, "a")


def test_probe_and_certificate_agree(j3):
    # certificate says "not a power" for every good word; the probe finds no
    # collapse: the two never disagree where both apply
    report = probe(j3, 6)
    assert report.outcome == "NoCollapseUpTo"
