import random

import pytest

from fskit.forest import End
from fskit.presentation import (
    GENERAL,
    AbelianInvariants,
    LeafCountMismatch,
    SkeinPresentation,
    TwoColourRightVine,
    UnknownColour,
    abelianisation,
    classify,
    enumerate_good_words,
    germ_presentation,
    good_b_words,
    parse_presentation,
    validate,
)

from conftest import (
    CLEARY2_TEXT,
    J3_TEXT,
    NONSIMPLE4_TEXT,
    is_vine_pair,
    presentation,
    vine_class,
)
from good_word_reference import good_word_check, is_trivial_good_word


def g_class_text(n: int) -> str:
    """x = Y(t (x) I) with t the right-vine on n-1 carets: n carets total."""
    word = "a1 " + " ".join(f"a{i}" for i in range(1, n))
    vine = " ".join(f"b{i}" for i in range(1, n + 1))
    return f"colors a b\nrel {word} = {vine}\n"


def j_class_text(m: int) -> str:
    """x = Y(s (x) Y) with s the right-vine on m-2 carets: m carets total."""
    word = "a1 " + " ".join(f"a{i}" for i in range(1, m - 1)) + f" a{m}"
    vine = " ".join(f"b{i}" for i in range(1, m + 1))
    return f"colors a b\nrel {word} = {vine}\n"


def h_class_text(k: int) -> str:
    """k colours, relations i(I (x) j) = j(i (x) I) for i < j."""
    colours = [chr(ord("a") + i) for i in range(k)]
    lines = ["colors " + " ".join(colours)]
    for i in range(k):
        for j in range(i + 1, k):
            lines.append(f"rel {colours[i]}1 {colours[j]}2 = {colours[j]}1 {colours[i]}1")
    return "\n".join(lines) + "\n"


def test_validate_ok():
    validate(presentation(J3_TEXT))
    validate(presentation("colors a\n"))  # Thompson <a | >


def test_validate_leaf_mismatch():
    with pytest.raises(LeafCountMismatch):
        validate(presentation("colors a b\nrel a1 = b1 b2\n"))


def test_validate_unknown_colour():
    with pytest.raises(UnknownColour):
        validate(presentation("colors a b\nrel a1 c1 = b1 b2\n"))


def test_parse_rejects_garbage():
    from fskit.presentation import PresentationError

    with pytest.raises(PresentationError):
        parse_presentation("rel a1 = a1\n")
    with pytest.raises(PresentationError):
        parse_presentation("colors a\nfoo\n")
    for text, message in (
        ("colors a b\ncolors a b\n", "line 2: duplicate colors line"),
        ("colors a a\n", "line 1: bad colour list"),
        ("colors\n", "line 1: bad colour list"),
        ("colors a b\nrel a1 b1\n", "line 2: rel needs '='"),
    ):
        with pytest.raises(PresentationError, match=message):
            parse_presentation(text)
    with pytest.raises(PresentationError, match="empty colour list"):
        validate(SkeinPresentation((), ()))


def test_classify_j3():
    cls = vine_class(J3_TEXT)
    assert (cls.L_x, cls.R_x, cls.M, cls.n) == (2, 2, 3, 4)
    assert cls.leaves == ("00", "01", "10", "11")


def test_classify_nonsimple4():
    cls = vine_class(NONSIMPLE4_TEXT)
    assert (cls.L_x, cls.R_x, cls.M, cls.n) == (2, 3, 4, 5)
    assert cls.leaves == ("00", "01", "10", "110", "111")


def test_classify_swapped_sides():
    cls = vine_class("colors a b\nrel b1 b2 b3 = a1 a1 a3\n")
    assert (cls.L_x, cls.R_x, cls.M) == (2, 2, 3)


def test_classify_general():
    assert classify(presentation(h_class_text(3))) is GENERAL
    assert classify(presentation("colors a\n")) is GENERAL
    # not a right-vine on the b side
    assert classify(presentation("colors a b\nrel a1 a1 = b1 b1\n")) is GENERAL


def test_classify_x_equals_rho():
    cls = vine_class("colors a b\nrel a1 a2 = b1 b2\n")
    assert is_vine_pair(cls)
    assert not is_vine_pair(vine_class(J3_TEXT))


def test_abelianisation_values():
    # caret-cell J category: three carets per side
    assert abelianisation(presentation(J3_TEXT)) == AbelianInvariants(0, (3,))
    # Cleary: two carets
    assert abelianisation(presentation(CLEARY2_TEXT)) == AbelianInvariants(0, (2,))
    # G/J families parameterized by caret count
    for n in range(2, 7):
        assert abelianisation(presentation(g_class_text(n))) == AbelianInvariants(0, (n,))
    for m in range(4, 9):
        assert abelianisation(presentation(j_class_text(m))) == AbelianInvariants(0, (m,))
    # H_k: k colours, chi-trivial relations
    for k in range(2, 6):
        assert abelianisation(presentation(h_class_text(k))) == AbelianInvariants(k - 1, ())
    # Thompson <a | >: trivial
    assert abelianisation(presentation("colors a\n")) == AbelianInvariants(0, ())
    # free colours: each one past the distinguished one adds a Z
    assert str(abelianisation(presentation("colors a b\n"))) == "Z"
    assert str(abelianisation(presentation("colors a b c\n"))) == "Z^2"


def test_abelianisation_invariance():
    rng = random.Random(0)
    p = presentation(h_class_text(3))
    rels = list(p.relations)
    rng.shuffle(rels)
    swapped = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in rels]
    q = type(p)(p.colours, tuple(swapped))
    assert abelianisation(p) == abelianisation(q)


def test_germ_presentation_j_class():
    out = germ_presentation(presentation(J3_TEXT), End.LAST)
    assert out.generators == ("a", "b")
    assert out.relators == ((("a", "a"), ("b", "b", "b")),)
    assert str(out) == "< a, b | a^2 = b^3 >"
    for m in range(4, 9):
        out = germ_presentation(presentation(j_class_text(m)), End.LAST)
        assert out.relators == ((("a", "a"), ("b",) * m),)


def test_germ_presentation_g_class():
    for n in range(2, 7):
        out = germ_presentation(presentation(g_class_text(n)), End.LAST)
        assert out.relators == ((("a",), ("b",) * n),)
    out = germ_presentation(presentation(CLEARY2_TEXT), End.LAST)
    assert str(out) == "< a, b | a = b^2 >"


def test_germ_presentation_first_leaf():
    out = germ_presentation(presentation(J3_TEXT), End.FIRST)
    assert out.relators == ((("a", "a"), ("b",)),)
    # a relation between two leaves prunes to empty words, printed as 1
    out = germ_presentation(presentation("colors a b\nrel =\n"), End.FIRST)
    assert str(out) == "< a, b | 1 = 1 >"


def test_good_word_check(j3):
    assert good_word_check(j3, "a")
    assert is_trivial_good_word(j3, "a")
    assert good_word_check(j3, "abba")
    assert not good_word_check(j3, "")
    # R_x = 2: no aa after the b-prefix starts
    assert not good_word_check(j3, "abaab")
    # M = 3: no bbb
    assert not good_word_check(j3, "abbba")
    assert good_word_check(j3, "aab")  # long a-prefix is fine


def test_enumerate_good_words(j3):
    assert list(enumerate_good_words(j3, 1)) == ["b"]
    assert list(enumerate_good_words(j3, 2)) == ["b", "ab", "ba", "bb"]


def brute_force_good(cls, length):
    out = []
    for bits in range(2 ** length):
        word = "".join(
            cls.colour_b if (bits >> i) & 1 else cls.colour_a for i in range(length)
        )
        if good_word_check(cls, word) and not is_trivial_good_word(cls, word):
            out.append(word)
    return sorted(out)


def test_enumerate_matches_brute_force(j3, nonsimple4, cleary2, rho2):
    relabelled = vine_class("colors b a\nrel b1 b1 b3 b4 = a1 a2 a3 a4\n")
    # M = 1 forbids b itself, so there is no good word at all
    recoloured = vine_class("colors a b\nrel a1 = b1\n")
    assert list(enumerate_good_words(recoloured, 6)) == []
    for cls in (j3, nonsimple4, cleary2, rho2, relabelled, recoloured):
        for length in range(1, 7):
            expected = brute_force_good(cls, length)
            got = sorted(w for w in enumerate_good_words(cls, 6) if len(w) == length)
            assert got == expected
        # listed in length-then-lex order, with colour_a before colour_b
        words = list(enumerate_good_words(cls, 6))
        rank = str.maketrans(cls.colour_a + cls.colour_b, "01")
        assert words == sorted(words, key=lambda w: (len(w), w.translate(rank)))


def test_good_b_words_are_lazy(j3, nonsimple4):
    for cls in (j3, nonsimple4):
        assert next(good_b_words(cls, 10**9)) == ["b"]


def test_good_b_words_match_brute_force(j3, nonsimple4, cleary2, rho2):
    # cleary2 has R_x = 1 and M = 2, so its only b-word is b
    for cls in (j3, nonsimple4, cleary2, rho2):
        levels = list(good_b_words(cls, 8))
        expected = [
            [w for w in brute_force_good(cls, length) if w[0] == cls.colour_b]
            for length in range(1, 9)
        ]
        assert levels == expected[: len(levels)]
        assert not any(expected[len(levels) :])


def test_good_b_words_end_when_a_length_has_none():
    # R_x = 1 forbids a after the first b, and M = 3 forbids bbb
    cls = vine_class("colors a b\nrel a1 a1 a1 = b1 b2 b3\n")
    assert list(good_b_words(cls, 10**9)) == [["b"], ["bb"]]
    assert list(good_b_words(vine_class("colors a b\nrel a1 = b1\n"), 10**9)) == []


def test_good_words_prefix_closed(j3):
    for w in enumerate_good_words(j3, 6):
        if len(w) >= 2:
            head = w[:-1]
            assert good_word_check(j3, head)


def test_germ_relator_lengths_match_side_depths():
    # relator word lengths equal the left/right side depths of the trees
    from fskit.forest import leaf_addresses

    for text in (J3_TEXT, NONSIMPLE4_TEXT, CLEARY2_TEXT):
        p = presentation(text)
        (u, v) = p.relations[0]
        out_last = germ_presentation(p, End.LAST)
        (lhs, rhs) = out_last.relators[0]
        assert len(lhs) == len(leaf_addresses(u)[-1])
        assert len(rhs) == len(leaf_addresses(v)[-1])
        out_first = germ_presentation(p, End.FIRST)
        (lhs, rhs) = out_first.relators[0]
        assert len(lhs) == len(leaf_addresses(u)[0])
        assert len(rhs) == len(leaf_addresses(v)[0])


def test_parse_comments_and_blank_lines():
    p = parse_presentation(
        "# a comment\ncolors a b\n\nrel a1 a1 a3 = b1 b2 b3  # inline\n"
    )
    assert p.colours == ("a", "b")
    assert len(p.relations) == 1


def test_single_caret_relation():
    # a1 = b1 recolours one caret: x = rho = Y, the smallest vine pair
    p = presentation("colors a b\nrel a1 = b1\n")
    cls = classify(p)
    assert isinstance(cls, TwoColourRightVine)
    assert (cls.L_x, cls.R_x, cls.M, cls.n) == (1, 1, 1, 2)
    assert is_vine_pair(cls)
    assert abelianisation(p) == AbelianInvariants(0, ())
