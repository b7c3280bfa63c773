import random
from dataclasses import replace
from functools import cmp_to_key

import pytest

from fskit import dynamics, eppm, plrender
from fskit.dynamics import (
    FixedLadder,
    Support,
    bi_order_compare,
    caret_map,
    classify_element,
    evaluate_fraction,
    evaluate_word,
    germ_at,
    is_cyclic_order_preserving,
    is_order_preserving,
    is_power_of_a1,
    parse_element,
    parse_fraction,
    parse_signed_word,
    singular_points,
    support,
)
from fskit.eppm import (
    EppmError,
    Family,
    IDENTITY,
    NotBijective,
    NotOrderPreserving,
    NotTotal,
    Piece,
    UndefinedAt,
    canonicalize,
    compose,
    equals,
    evaluate,
    invert,
    is_total,
    make_eppm,
    restrict,
)
from fskit.forest import (
    LEAF,
    build_tree,
    identity_perm,
    leaf_count,
    leaf_path,
    parse_caret_word,
)
from fskit.presentation import UnsupportedClass
from fskit.sequences import ev_periodic, parse_point

import stream_oracle
from forest_algebra import compose as compose_forest
from leaf_fold import beta_path, fold_fraction
from point_relations import compare, tail_equivalent
from conftest import (
    random_fraction,
    random_point,
    random_signed_word,
    random_tree,
    split_at_root,
    unrolled,
)


def tree(text):
    return build_tree(parse_caret_word(text))


def fraction_yb_ya(cls):
    return evaluate_fraction(cls, tree("b1"), (1, 2), tree("a1"))


# ---------------------------------------------------------------------------
# words and the paper's collapse computation


def test_parse_signed_word():
    assert parse_signed_word("A0 B1^-1") == (("A0", 1), ("B1", -1))
    with pytest.raises(ValueError):
        parse_signed_word("C1")


def test_phi_fifth_power_is_one_piece(nonsimple4):
    phi = evaluate_word(nonsimple4, (("A1", 1), ("B1", 1)))
    acc = IDENTITY
    for _ in range(5):
        acc = compose(acc, phi)
    assert acc == make_eppm(pieces=[Piece("", "1" * 9)])


def test_word_inverse_cancels(j3):
    # w.w^-1 is the partial identity on ran(w); it is the full identity
    # exactly when w evaluates to a total bijection
    from fskit.eppm import is_total
    from region_walk import is_identity_on_domain, region_equal

    rng = random.Random(0)
    for _ in range(30):
        w = random_signed_word(rng, rng.randint(1, 5))
        full = w + tuple((t, -e) for t, e in reversed(w))
        f = evaluate_word(j3, w)
        h = evaluate_word(j3, full)
        assert is_identity_on_domain(h)
        assert region_equal(h, invert(f))  # dom(w.w^-1) = ran(w)
        if is_total(f) and is_total(invert(f)):
            assert equals(h, IDENTITY)


# ---------------------------------------------------------------------------
# oracle agreement


def test_words_agree_with_oracle(j3, nonsimple4):
    rng = random.Random(1)
    for cls in (j3, nonsimple4):
        for _ in range(80):
            w = random_signed_word(rng, rng.randint(0, 6))
            f = evaluate_word(cls, w)
            for _ in range(6):
                p = random_point(rng)
                try:
                    expected = stream_oracle.apply_word(cls, w, p)
                except stream_oracle.OracleUndefined:
                    with pytest.raises(UndefinedAt):
                        evaluate(f, p)
                    continue
                assert evaluate(f, p) == expected


def test_b1_shift_law(j3, nonsimple4):
    rng = random.Random(2)
    for cls in (j3, nonsimple4):
        f = caret_map(cls, cls.colour_b, 1)
        for i in range(1, 51):
            w_i = stream_oracle.tree_leaf(cls, i)
            w_next = stream_oracle.tree_leaf(cls, i + 1)
            for _ in range(3):
                q = random_point(rng)
                assert evaluate(f, q.prepend(w_i)) == q.prepend(w_next)


def test_b1_preserves_tails(j3):
    rng = random.Random(3)
    f = caret_map(j3, j3.colour_b, 1)
    for _ in range(200):
        p = random_point(rng)
        if p.has_tail("1"):
            continue
        assert tail_equivalent(evaluate(f, p), p)
    assert evaluate(f, parse_point("(1)")) == parse_point("(1)")


# ---------------------------------------------------------------------------
# fractions


def test_fraction_identity(j3):
    rng = random.Random(4)
    for _ in range(15):
        t = random_tree(rng, rng.randint(1, 5))
        n = leaf_count(t)
        f = evaluate_fraction(j3, t, identity_perm(n), t)
        assert equals(f, IDENTITY)


def test_fraction_yb_ya(j3):
    f = fraction_yb_ya(j3)
    # one family at base e: slab 1^(2m).0 -> 1^(2m).00 and slab 1^(2m+1).0
    # -> 1^(2m).01, 1^(2m).10
    blocks = (("0", "00"), ("100", "01"), ("101", "10"))
    assert f == make_eppm(families=[Family("", "", 2, 2, blocks)])
    assert evaluate(f, parse_point("(0)")) == parse_point("(0)")
    assert evaluate(f, parse_point("(1)")) == parse_point("(1)")


def test_fraction_against_oracle(j3, nonsimple4):
    rng = random.Random(5)
    for cls in (j3, nonsimple4):
        for _ in range(40):
            s = random_tree(rng, rng.randint(1, 6))
            t = random_tree(rng, leaf_count(s) - 1)
            n = leaf_count(s)
            perm = list(range(1, n + 1))
            rng.shuffle(perm)
            perm = tuple(perm)
            f = evaluate_fraction(cls, t, perm, s)
            for _ in range(6):
                p = random_point(rng)
                assert evaluate(f, p) == stream_oracle.apply_fraction(cls, t, perm, s, p)


def test_fraction_matches_per_leaf_folds(j3, nonsimple4, cleary2, rho2):
    # one walk of each tree gives every leaf's map; the reference folds
    # each root-to-leaf path on its own, so both compose the same maps
    rng = random.Random("leaf folds")
    for cls in (j3, nonsimple4, cleary2, rho2):
        for _ in range(25):
            s = random_tree(rng, rng.randint(0, 7))
            t = random_tree(rng, leaf_count(s) - 1)
            perm = list(range(1, leaf_count(s) + 1))
            rng.shuffle(perm)
            maps = dynamics._leaf_maps(cls, t)
            assert maps == [beta_path(cls, t, j) for j in range(1, len(maps) + 1)]
            f = evaluate_fraction(cls, t, tuple(perm), s)
            assert f == fold_fraction(cls, t, tuple(perm), s)


def _depth(t):
    return max(len(leaf_path(t, j)) for j in range(1, leaf_count(t) + 1))


def test_leaf_maps_match_per_leaf_folds_past_the_memo_depth(j3, nonsimple4, cleary2, rho2):
    # nodes down to _MEMO_DEPTH take their maps from the memo, deeper ones
    # compose onto their parent's map; either way each leaf's map is its
    # own fold down the root-to-leaf path
    rng = random.Random("deep leaf folds")
    for cls in (j3, nonsimple4, cleary2, rho2):
        deep = 0
        while deep < 12:
            t = random_tree(rng, rng.randint(6, 8))
            if _depth(t) <= dynamics._MEMO_DEPTH:
                continue
            deep += 1
            maps = dynamics._leaf_maps(cls, t)
            assert maps == [beta_path(cls, t, j) for j in range(1, len(maps) + 1)]


def test_path_memo_is_bounded_and_per_class(j3, nonsimple4, monkeypatch):
    memo = dynamics._path_map
    keys = []
    monkeypatch.setattr(
        dynamics, "_path_map", lambda cls, path: keys.append((cls, path)) or memo(cls, path)
    )
    memo.cache_clear()
    rng = random.Random("path memo")
    trees = [random_tree(rng, 10) for _ in range(20)]
    assert max(_depth(t) for t in trees) > dynamics._MEMO_DEPTH
    for cls in (j3, nonsimple4):
        for t in trees:
            dynamics._leaf_maps(cls, t)
    # no key is longer than the memo depth, so a class has at most
    # 4 + 16 + 64 + 256 = 340 entries
    assert max(len(path) for _, path in keys) == dynamics._MEMO_DEPTH
    assert min(len(path) for _, path in keys) == 1
    # both classes walk the same trees, and each gets its own entries
    paths = {path for _, path in keys}
    assert set(keys) == {(cls, path) for cls in (j3, nonsimple4) for path in paths}
    assert memo.cache_info().currsize == len(set(keys)) == 2 * len(paths)
    b1 = (("b", 1),)
    assert memo(j3, b1) != memo(nonsimple4, b1)
    assert memo(j3, b1) == caret_map(j3, "b", 1)


def test_fraction_shape_mismatch(j3):
    with pytest.raises(NotBijective):
        evaluate_fraction(j3, tree("a1"), (1, 2, 3), tree("a1 a1"))


def test_parse_fraction():
    t, perm, s = parse_fraction("[b1 | id | a1]")
    assert leaf_count(t) == 2 and perm == (1, 2)
    t, perm, s = parse_fraction("[a1 | 2 1 | a1]")
    assert perm == (2, 1)
    with pytest.raises(ValueError, match="bad fraction literal"):
        parse_fraction("[a1 | id")


def test_words_and_carets_outside_the_class_are_refused(j3):
    with pytest.raises(ValueError, match="bad exponent 2"):
        evaluate_word(j3, (("A1", 2),))
    with pytest.raises(UnsupportedClass, match="unknown colour 'c'"):
        caret_map(j3, "c", 1)


# ---------------------------------------------------------------------------
# power-of-A1 detection


def test_is_power_of_a1(j3, nonsimple4):
    assert is_power_of_a1(IDENTITY) == 0
    a1 = caret_map(j3, "a", 1)
    assert is_power_of_a1(compose(a1, a1)) == 2
    assert is_power_of_a1(caret_map(j3, "b", 1)) is None
    phi = evaluate_word(nonsimple4, (("A1", 1), ("B1", 1)))
    acc = IDENTITY
    for _ in range(5):
        acc = compose(acc, phi)
    assert is_power_of_a1(acc) == 9
    # A1 cut into two pieces is still A1
    split = make_eppm(pieces=[Piece("0", "10"), Piece("1", "11")])
    assert is_power_of_a1(split) == 1
    # A1^2 on the cone 0 alone sends (0) to 11.(0), but is partial
    assert is_power_of_a1(restrict(compose(a1, a1), "0")) is None
    # fixes (0), but is not the identity
    g = parse_element(j3, "[a1 a1 | id | a1 a2]")
    assert evaluate(g, parse_point("(0)")) == parse_point("(0)")
    assert is_power_of_a1(g) is None
    # the test reads the normal form, and A1^j is its own
    for j in range(12):
        power = make_eppm(pieces=[Piece("", "1" * j)])
        assert canonicalize(power) == power
        assert is_power_of_a1(power) == j


# ---------------------------------------------------------------------------
# order and cyclic order


def test_identity_order():
    assert is_order_preserving(IDENTITY)
    assert is_cyclic_order_preserving(IDENTITY)
    assert classify_element(IDENTITY) == "F"


def test_fraction_order(j3):
    f = fraction_yb_ya(j3)
    assert is_order_preserving(f)
    assert classify_element(f) == "F"


def test_transposition_is_cyclic(j3):
    f = evaluate_fraction(j3, tree("a1"), (2, 1), tree("a1"))
    assert not is_order_preserving(f)
    assert is_cyclic_order_preserving(f)
    assert classify_element(f) == "T"


def test_v_type_element(j3):
    # swap two non-complementary cones: 3 leaves, permutation (1 2)
    f = evaluate_fraction(j3, tree("a1 a1"), (2, 1, 3), tree("a1 a1"))
    assert classify_element(f) == "V"


def test_non_bijections_have_no_class_and_no_order(j3):
    # A0 is total but not onto, an order-preserving injection; it, its
    # inverse and the identity on a cone are in none of F, T and V
    a0 = evaluate_word(j3, (("A0", 1),))
    assert is_order_preserving(a0)
    f = fraction_yb_ya(j3)
    for m in (a0, invert(a0), make_eppm(pieces=[Piece("0", "0")])):
        with pytest.raises(NotBijective):
            classify_element(m)
        with pytest.raises(NotBijective):
            bi_order_compare(m, f)
        with pytest.raises(NotBijective):
            bi_order_compare(f, m)


def test_family_with_unsorted_ranges_is_v_type():
    # a total bijection whose one family swaps its two blocks in every
    # layer: it reverses the order of infinitely many pairs of cones
    f = make_eppm(families=[Family("", "", 1, 1, (("00", "01"), ("01", "00")))])
    assert str(canonicalize(f)) == "{[e|1^1 -> e|1^1: 00->01, 01->00]}"
    assert not is_order_preserving(f)
    assert not is_cyclic_order_preserving(f)
    assert classify_element(f) == "V"
    # in order within a layer, but block 01 of layer m lands after block 00
    # of layer m + 1: 01(0) < 100(0) go to 11(0) > 1(0)
    g = make_eppm(families=[Family("", "", 1, 1, (("00", "0"), ("01", "11")))])
    assert evaluate(g, parse_point("01(0)")) == parse_point("11(0)")
    assert evaluate(g, parse_point("100(0)")) == parse_point("1(0)")
    assert not is_order_preserving(g)
    assert not is_cyclic_order_preserving(g)


def test_each_query_checks_totality_once(j3, monkeypatch):
    # parse_element checks each fraction's form, and the form caches that
    # answer, so no query on it runs is_total again; a form built by
    # compose is unchecked: one bijection gate, is_total on f and on its
    # inverse, per input
    v = parse_element(j3, "[a1 a1 | 2 1 3 | a1 a1]")
    f, g = parse_element(j3, "[b1 | id | a1]"), parse_element(j3, "[a1 | id | a1]")
    calls = []
    monkeypatch.setattr(eppm, "is_total", lambda m: calls.append(m) or is_total(m))
    assert classify_element(v) == "V"
    assert bi_order_compare(f, g) == "less"
    assert is_order_preserving(f) and is_cyclic_order_preserving(g)
    assert len(calls) == 0
    v, f, g = (compose(m, IDENTITY) for m in (v, f, g))
    assert classify_element(v) == "V"
    assert len(calls) == 2
    calls.clear()
    assert bi_order_compare(f, g) == "less"
    assert len(calls) == 4
    # a second read of either answer computes nothing
    calls.clear()
    assert f.total and f.bijective and v.total and v.bijective
    assert len(calls) == 0


def test_a_failed_gate_fails_again(j3):
    # a map that fails a gate caches the failed answer, and fails the gate
    # on every call, with the same error and message
    a1_inv = evaluate_word(j3, (("A1", -1),))
    gates = [
        (is_order_preserving, NotTotal, "order test requires a total map"),
        (support, NotTotal, "support requires a total map"),
        (classify_element, NotBijective, "F/T/V membership requires a bijection"),
    ]
    for query, error, message in gates:
        for _ in range(2):
            with pytest.raises(error, match=f"^{message}"):
                query(a1_inv)
    assert not a1_inv.total and not a1_inv.bijective
    # A0 is total but not onto: passing the order test's totality gate
    # does not stand in for the bijection gate
    a0 = evaluate_word(j3, (("A0", 1),))
    assert is_order_preserving(a0)
    assert a0.total and not a0.bijective
    for _ in range(2):
        with pytest.raises(NotBijective, match="^F/T/V membership requires a bijection"):
            classify_element(a0)
        with pytest.raises(NotBijective, match="^the bi-order requires a bijection"):
            bi_order_compare(fraction_yb_ya(j3), a0)
    assert not a0.bijective


def test_cached_answers_leave_equality_hash_and_text_alone(j3):
    checked = parse_element(j3, "[a1 | 2 1 | a1]")
    unchecked = compose(checked, IDENTITY)
    assert checked.total and checked.bijective
    assert checked == unchecked and hash(checked) == hash(unchecked)
    assert str(checked) == str(unchecked) and repr(checked) == repr(unchecked)


def test_bi_order_rejects_a_bijection_that_is_not_order_preserving(j3):
    with pytest.raises(NotOrderPreserving):
        bi_order_compare(parse_element(j3, "[a1 | 2 1 | a1]"), IDENTITY)
    with pytest.raises(NotOrderPreserving):
        bi_order_compare(IDENTITY, parse_element(j3, "[a1 | 2 1 | a1]"))


def test_f_type_fractions_all_order_preserving(j3, nonsimple4, cleary2, rho2):
    rng = random.Random(6)
    for cls in (j3, nonsimple4, cleary2, rho2):
        for _ in range(10):
            s = random_tree(rng, rng.randint(1, 5))
            t = random_tree(rng, leaf_count(s) - 1)
            f = evaluate_fraction(cls, t, identity_perm(leaf_count(s)), s)
            assert is_order_preserving(f)


# ---------------------------------------------------------------------------
# support


# the layers 1^m.0.z -> 0.1^m.0.z, and an isolated limit that fixes (1)
LIMIT_FIXES_OMEGA = make_eppm(
    families=[Family("", "0", 1, 1, (("0", "0"),), False)],
    limits=[(parse_point("(1)"), parse_point("(1)"))],
)


def test_support_identity():
    s = support(IDENTITY)
    assert s.fixed_cones == ("",)
    assert not s.moved_cones


def ladder_point(ladder, m):
    """The fixed point base.1^{m step}.suffix.(tail)^inf of a FixedLadder."""
    return ev_periodic(ladder.base + "1" * (m * ladder.step) + ladder.suffix, ladder.tail)


def test_support_yb_ya(j3):
    f = fraction_yb_ya(j3)
    s = support(f)
    assert parse_point("(1)") in s.fixed_points
    # (0) is the first point of the ladder 1^(2m).0.(0)^inf
    assert parse_point("(0)") in [ladder_point(ladder, 0) for ladder in s.fixed_ladders]
    assert s.fixed_ladders  # infinitely many fixed points accumulating at 1
    ladder = s.fixed_ladders[0]
    for m in range(5):
        p = ladder_point(ladder, m)
        assert evaluate(f, p) == p


def test_support_after_cancel(j3):
    f = fraction_yb_ya(j3)
    h = compose(f, invert(f))
    s = support(h)
    assert s.fixed_cones == ("",)
    assert not s.moved_cones


def test_support_lists_a_family_base_as_moved_only():
    # the first family is the identity on 1^m.00, but the second sends
    # 1^m.01 to 1^(2m).01, so the base cone e is moved, not fixed
    f = make_eppm(
        families=[
            Family("", "", 1, 1, (("00", "00"),)),
            Family("", "", 1, 2, (("01", "01"),)),
        ]
    )
    assert evaluate(f, parse_point("101(0)")) == parse_point("1101(0)")
    s = support(f)
    # the second family is the identity at its layer 0 alone, the first at
    # every layer: the cones 1^m.00
    assert s.fixed_cones == ("01",)
    assert s.fixed_cone_ladders == (("", 1, "00"),)
    assert s.moved_cones == ("",)
    assert s.fixed_points == (parse_point("(1)"),)
    assert evaluate(f, parse_point("11100(01)")) == parse_point("11100(01)")


def test_support_lists_a_fixed_isolated_limit():
    # the layers 1^m.0.z -> 0.1^m.0.z fix (0) alone; the isolated limit
    # fixes (1)
    s = support(LIMIT_FIXES_OMEGA)
    assert s.fixed_points == (parse_point("(0)"), parse_point("(1)"))
    for p in s.fixed_points:
        assert evaluate(LIMIT_FIXES_OMEGA, p) == p


def test_support_lists_fixed_points_on_a_single_layer(j3):
    # the family block 0 -> 00 of [1|1^2 -> 10|1^2: ...] fixes (0) at layer
    # 0 alone, and the block 100 -> 01 fixes 1(0) at layer 0 alone
    f = parse_element(j3, "[a1 a2 | 1 3 2 | b1 b2]")
    s = support(f)
    assert s.fixed_points == (parse_point("(0)"), parse_point("1(0)"))
    assert s.fixed_cones == s.fixed_ladders == s.fixed_cone_ladders == ()
    for p in s.fixed_points:
        assert evaluate(f, p) == p


def fixed_tail(dom, ran):
    """t with the piece dom -> ran fixing the point shorter.t^inf, "" if it
    is the identity on its cone, None if neither word extends the other."""
    short, long = sorted((dom, ran), key=len)
    return long[len(short) :] if long.startswith(short) else None


def support_by_scan(f, layers: int = 40):
    """support with every family block scanned over `layers` layers: a
    block that fixes a point with one tail, or is the identity, at every
    scanned layer is a ladder, and else each layer's fixed cone or point is
    listed."""
    f = canonicalize(f)
    cones, points, ladders, cone_ladders, moved = [], [], [], [], []

    def fix(dom, ran):
        t = fixed_tail(dom, ran)
        if t:
            points.append(ev_periodic(min(dom, ran, key=len), t))
        elif t == "":
            cones.append(dom)

    for p in f.pieces:
        fix(p.dom, p.ran)
        if p.dom != p.ran:
            moved.append(p.dom)
    for fam in f.families:
        moved.append(fam.dom_base)
        if fam.carries_limit and fam.limit_dom == fam.limit_ran:
            points.append(fam.limit_dom)
        for block in fam.blocks:
            pieces = [fam.piece_at(m, block) for m in range(layers)]
            tails = {fixed_tail(p.dom, p.ran) for p in pieces}
            if tails == {""}:
                cone_ladders.append((fam.dom_base, fam.dom_step, block[0]))
            elif len(tails) == 1 and None not in tails:
                ladders.append(FixedLadder(fam.dom_base, fam.dom_step, block[0], tails.pop()))
            else:
                for p in pieces:
                    fix(p.dom, p.ran)
    return Support(
        tuple(sorted(cones)),
        tuple(sorted(set(points), key=lambda e: (e.pre, e.per))),
        tuple(sorted(set(ladders), key=lambda l: (l.base, l.suffix))),
        tuple(sorted(set(moved))),
        tuple(sorted(cone_ladders)),
    )


def test_support_matches_layer_scan(j3, nonsimple4, cleary2, rho2):
    rng = random.Random(19)
    blocks = 0
    for cls in (j3, nonsimple4, cleary2, rho2):
        prev = IDENTITY
        for _ in range(60):
            s = random_tree(rng, rng.randint(1, 6))
            t = random_tree(rng, leaf_count(s) - 1)
            perm = list(range(1, leaf_count(s) + 1))
            rng.shuffle(perm)
            f = evaluate_fraction(cls, t, tuple(perm), s)
            for h in (f, compose(f, prev)):
                found = support(h)
                assert found == support_by_scan(h)
                blocks += sum(len(fam.blocks) for fam in canonicalize(h).families)
                for p in found.fixed_points:
                    assert evaluate(h, p) == p
            prev = f
    assert blocks > 1000


def test_support_refuses_a_family_whose_ranges_nest():
    # a total map that is not injective: block 0 -> e has the ranges
    # 1^M, which nest, and f fixes 1(10) and 11(110) on top of (0) and (1)
    f = make_eppm(families=[Family("", "", 2, 1, (("0", ""), ("10", "0")))])
    assert is_total(f)
    assert evaluate(f, parse_point("1(10)")) == parse_point("1(10)")
    with pytest.raises(NotBijective, match="injective"):
        support(f)


# total and onto, but 0(1) and 100(1) both go to 0(1): the piece's range
# is the first block's range at layer 0
PIECE_RANGE_IN_A_FAMILY_BLOCK = make_eppm(
    pieces=[Piece("0", "0")], families=[Family("1", "", 1, 2, (("00", "0"), ("01", "10")))]
)
# total and onto, and the two families' ranges are disjoint, but both carry
# a limit to (1)
TWO_LIMITS_TO_ONE_POINT = make_eppm(
    families=[Family("0", "", 1, 2, (("0", "0"),)), Family("1", "1", 1, 2, (("0", "0"),))]
)


@pytest.mark.parametrize(
    "f",
    [
        # the map above: canonicalize refuses its inverse, which is not a map
        make_eppm(families=[Family("", "", 2, 1, (("0", ""), ("10", "0")))]),
        # total and onto, but 00(1) and 10(1) both go to 0(1): the piece
        # ranges e and 0 meet, so canonicalize refuses the inverse
        make_eppm(pieces=[Piece("0", ""), Piece("10", "0"), Piece("11", "1")]),
        make_eppm(pieces=[Piece("0", ""), Piece("1", "")]),
        # 00(1) goes to both 0(1) and 1(1): canonicalize refuses the map
        # itself, so it is not total
        make_eppm(pieces=[Piece("0", "0"), Piece("00", "1"), Piece("1", "1")]),
        # 0(1) and 10(1) both go to 0(1), the piece's range meets the
        # family's layer 0
        make_eppm(pieces=[Piece("0", "0")], families=[Family("1", "", 1, 1, (("0", "0"),))]),
        PIECE_RANGE_IN_A_FAMILY_BLOCK,
        TWO_LIMITS_TO_ONE_POINT,
    ],
    ids=[
        "nested-family-ranges",
        "nested-piece-ranges",
        "equal-piece-ranges",
        "nested-piece-doms",
        "piece-range-in-a-family-layer",
        "piece-range-in-a-family-block",
        "two-limits-to-one-point",
    ],
)
def test_a_map_that_is_not_injective_is_not_a_bijection(f):
    # the bijection gate reports every refusal of the inverse as NotBijective
    assert not f.bijective
    with pytest.raises(EppmError):
        canonicalize(invert(f))
    with pytest.raises(NotBijective, match="^F/T/V membership requires a bijection"):
        classify_element(f)
    for pair in ((f, IDENTITY), (IDENTITY, f)):
        with pytest.raises(NotBijective, match="^the bi-order requires a bijection"):
            bi_order_compare(*pair)


@pytest.mark.parametrize(
    "f",
    [PIECE_RANGE_IN_A_FAMILY_BLOCK, TWO_LIMITS_TO_ONE_POINT],
    ids=["piece-range-in-a-family-block", "two-limits-to-one-point"],
)
def test_a_total_function_that_is_not_injective(f):
    # canonicalize accepts the map itself: only its inverse is refused
    assert canonicalize(f).total and f.total


def test_lined_up_layer_is_the_only_one():
    # a block x.1^(n+Mp).0.u -> z.1^(a+Mq).0.r with (z, q) != (x, p): dom
    # and ran extend one another at no layer but the lined-up one
    rng = random.Random(23)

    def word():
        return "".join(rng.choice("01") for _ in range(rng.randint(0, 5))).rstrip("1")

    hits = 0
    for _ in range(4000):
        x, z = word(), word()
        if rng.random() < 0.5:
            # z = x.1^k.0... or x = z.1^k.0..., the runs' other meeting
            z = x + "1" * rng.randint(0, 4) + "0" + word()
            if rng.random() < 0.5:
                x, z = z, x
        n, a = rng.randint(0, 6), rng.randint(0, 6)
        p, q = rng.randint(1, 3), rng.randint(1, 3)
        if (z, q) == (x, p):
            continue
        u, r = word(), "0" + word()
        m = dynamics._lined_up_layer(x, n, p, z, a, q)
        related = [
            k
            for k in range(30)
            if fixed_tail(x + "1" * (n + k * p) + "0" + u, z + "1" * (a + k * q) + r) is not None
        ]
        assert related in ([], [m])
        hits += bool(related)
    assert hits >= 300


def test_support_reads_the_map_not_its_writing(j3, nonsimple4, cleary2, rho2):
    # support canonicalizes first, so two writings of one map, a family
    # unrolled into pieces or split at the root, report the same fields
    rng = random.Random(11)
    for cls in (j3, nonsimple4, cleary2, rho2):
        for _ in range(40):
            s = random_tree(rng, rng.randint(1, 4))
            t = random_tree(rng, leaf_count(s) - 1)
            perm = list(range(1, leaf_count(s) + 1))
            rng.shuffle(perm)
            h = evaluate_fraction(cls, t, tuple(perm), s)
            assert support(h) == support(unrolled(h, 3)) == support(split_at_root(h))


# ---------------------------------------------------------------------------
# singular points


def test_singular_points(j3, rho2):
    assert singular_points(IDENTITY) == ()
    f = fraction_yb_ya(j3)
    assert singular_points(f) == (parse_point("(1)"),)
    b1j = caret_map(j3, "b", 1)
    assert singular_points(b1j) == (parse_point("(1)"),)
    b1r = caret_map(rho2, "b", 1)
    assert singular_points(b1r) == ()


def test_singular_points_vine_pair_fractions(rho2):
    rng = random.Random(7)
    for _ in range(25):
        s = random_tree(rng, rng.randint(1, 5))
        t = random_tree(rng, leaf_count(s) - 1)
        f = evaluate_fraction(rho2, t, identity_perm(leaf_count(s)), s)
        assert singular_points(f) == ()


# ---------------------------------------------------------------------------
# germs


def test_germ_identity():
    g = germ_at(IDENTITY, parse_point("(1)"))
    assert g.source == g.target == parse_point("(1)")
    assert germ_at(IDENTITY, parse_point("(1)")) == g


def test_germ_a1(j3):
    a1 = caret_map(j3, "a", 1)
    g = germ_at(a1, parse_point("(1)"))
    assert g.source == g.target == parse_point("(1)")
    assert g == germ_at(a1, parse_point("(1)"))
    assert g != germ_at(IDENTITY, parse_point("(1)"))


def test_germ_phi5_equals_a1_9(nonsimple4):
    phi = evaluate_word(nonsimple4, (("A1", 1), ("B1", 1)))
    acc = IDENTITY
    for _ in range(5):
        acc = compose(acc, phi)
    a1 = caret_map(nonsimple4, "a", 1)
    a19 = IDENTITY
    for _ in range(9):
        a19 = compose(a19, a1)
    assert germ_at(acc, parse_point("(1)")) == germ_at(a19, parse_point("(1)"))


def test_germ_at_an_isolated_limit_is_refused(j3):
    # each f is defined at 0(1) alone, with no piece or family near it, so
    # it has no germ there
    p, top = parse_point("0(1)"), parse_point("(1)")
    for ran in ("1", "10"):
        f = make_eppm(pieces=[Piece("1", ran)], limits=[(p, top)])
        assert evaluate(f, p) == top
        with pytest.raises(ValueError, match="isolated limit"):
            germ_at(f, p)
    with pytest.raises(UndefinedAt):
        germ_at(make_eppm(pieces=[Piece("1", "1")]), p)
    # B1's family without its limit, and (1) sent elsewhere: f jumps at (1)
    fam = replace(caret_map(j3, "b", 1).families[0], carries_limit=False)
    f = make_eppm(families=[fam], limits=[(top, p)])
    assert evaluate(f, top) == p
    with pytest.raises(ValueError, match="isolated limit"):
        germ_at(f, top)


def test_germ_at_needs_a_tail_1_point():
    with pytest.raises(ValueError, match="tail-"):
        germ_at(IDENTITY, parse_point("(0)"))


def test_germ_b1_differs_from_powers(j3):
    b = caret_map(j3, "b", 1)
    a1 = caret_map(j3, "a", 1)
    g = germ_at(b, parse_point("(1)"))
    for j in (0, 1, 2, 3):
        acc = IDENTITY
        for _ in range(j):
            acc = compose(acc, a1)
        assert g != germ_at(acc, parse_point("(1)"))


# ---------------------------------------------------------------------------
# bi-order


def test_bi_order_equal(j3):
    f = fraction_yb_ya(j3)
    assert bi_order_compare(f, f) == "equal"


def test_bi_order_without_deviation_raises(j3, monkeypatch):
    # unequal maps must deviate somewhere; if the search finds nothing the
    # comparison fails with an error rather than guessing
    monkeypatch.setattr(dynamics, "_first_deviation", lambda h: None)
    with pytest.raises(EppmError, match="deviates"):
        bi_order_compare(fraction_yb_ya(j3), IDENTITY)


def first_deviation_by_scan(h, layers: int = 40):
    """_first_deviation with every family block scanned over `layers`
    layers."""
    deviating = [p for p in h.pieces if p.dom != p.ran]
    for fam in h.families:
        for block in fam.blocks:
            for m in range(layers):
                piece = fam.piece_at(m, block)
                if piece.dom != piece.ran:
                    deviating.append(piece)
                    break
    if not deviating:
        return None
    first = min(deviating, key=lambda p: p.dom)
    return first.dom, first.ran


def test_first_deviation_matches_layer_scan(j3, nonsimple4):
    # one-block families written at random, half of them db.1^(mc).1^j.r
    # -> db.1^j.1^(mc').r, the identity at layer 0 and at every layer when
    # c = c'; then quotients of order-preserving elements
    rng = random.Random(11)

    def word():
        return "".join(rng.choice("01") for _ in range(rng.randint(0, 4)))

    def order_preserving(cls):
        s = random_tree(rng, rng.randint(1, 4))
        t = random_tree(rng, leaf_count(s) - 1)
        return evaluate_fraction(cls, t, identity_perm(leaf_count(s)), s)

    found = []
    for _ in range(3000):
        c = rng.randint(1, 3)
        cp = c if rng.random() < 0.8 else rng.randint(1, 3)
        db, d, rb, r = word(), word(), word(), word()
        if rng.random() < 0.5:
            j = rng.randint(0, 4)
            rb, d = db + "1" * j, "1" * j + r
        h = make_eppm(families=[Family(db, rb, c, cp, ((d, r),))])
        expected = first_deviation_by_scan(h)
        assert dynamics._first_deviation(h) == expected
        found.append(expected is not None)
    assert found.count(True) >= 500 and found.count(False) >= 500
    for cls in (j3, nonsimple4):
        for _ in range(20):
            h = compose(order_preserving(cls), invert(order_preserving(cls)))
            deviation = dynamics._first_deviation(h)
            assert deviation == first_deviation_by_scan(h)
            if deviation is not None:
                # the image starts where the first deviating cone starts
                short, long = sorted(deviation, key=len)
                assert len(short) < len(long) and long == short.ljust(len(long), "0")


def test_bi_order_yb_ya_less(j3):
    f = fraction_yb_ya(j3)
    assert bi_order_compare(f, IDENTITY) == "less"
    assert bi_order_compare(IDENTITY, f) == "greater"


def test_bi_order_antisymmetric_transitive(j3):
    rng = random.Random(8)
    elements = []
    while len(elements) < 5:
        s = random_tree(rng, rng.randint(1, 4))
        t = random_tree(rng, leaf_count(s) - 1)
        f = evaluate_fraction(j3, t, identity_perm(leaf_count(s)), s)
        elements.append(f)
    for f in elements:
        for g in elements:
            c1 = bi_order_compare(f, g)
            c2 = bi_order_compare(g, f)
            flip = {"less": "greater", "greater": "less", "equal": "equal"}
            assert c2 == flip[c1]
    # transitivity on triples
    for f in elements:
        for g in elements:
            for h in elements:
                if bi_order_compare(f, g) == "less" and bi_order_compare(g, h) == "less":
                    assert bi_order_compare(f, h) == "less"


def test_parse_element(j3):
    f = parse_element(j3, "[b1 | id | a1]")
    g = fraction_yb_ya(j3)
    assert equals(f, g)
    h = parse_element(j3, "A1 A1")
    assert equals(h, evaluate_word(j3, (("A1", 1), ("A1", 1))))


def test_germ_arrow_non_fixed_point(j3):
    # germ at a point the map moves: a germ arrow with distinct endpoints
    a1 = caret_map(j3, "a", 1)
    p = parse_point("0(1)")
    g = germ_at(a1, p)
    assert g.source == p
    assert g.target == parse_point("10(1)")
    assert g == germ_at(a1, p)


def _expanded_fraction(rng, cls, t, perm, s):
    """Grow [t, perm, s] by gluing the same small tree to a matching pair of
    leaves; the result represents the same group element."""
    n = leaf_count(s)
    j = rng.randint(1, n)
    extra = random_tree(rng, rng.randint(1, 3))
    m = leaf_count(extra)
    fs = [LEAF] * n
    fs[j - 1] = extra
    s2 = compose_forest((s,), tuple(fs))[0]
    ft = [LEAF] * n
    ft[perm[j - 1] - 1] = extra
    t2 = compose_forest((t,), tuple(ft))[0]

    def t2_index(old):
        return old + (m - 1 if old > perm[j - 1] else 0)

    perm2 = []
    for jj in range(1, n + 1):
        if jj == j:
            base = t2_index(perm[j - 1])
            perm2.extend(range(base, base + m))
        else:
            perm2.append(t2_index(perm[jj - 1]))
    return t2, tuple(perm2), s2


def test_fraction_expansion_invariance(j3, cleary2):
    # gluing the same forest below both trees does not change the element
    rng = random.Random(9)
    for cls in (j3, cleary2):
        for _ in range(20):
            s = random_tree(rng, rng.randint(1, 5))
            t = random_tree(rng, leaf_count(s) - 1)
            n = leaf_count(s)
            perm = list(range(1, n + 1))
            rng.shuffle(perm)
            perm = tuple(perm)
            f1 = evaluate_fraction(cls, t, perm, s)
            t2, perm2, s2 = _expanded_fraction(rng, cls, t, perm, s)
            f2 = evaluate_fraction(cls, t2, perm2, s2)
            assert equals(f1, f2)


def test_fraction_inverse_swaps_trees(j3):
    rng = random.Random(10)
    for _ in range(20):
        s = random_tree(rng, rng.randint(1, 5))
        t = random_tree(rng, leaf_count(s) - 1)
        n = leaf_count(s)
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        perm = tuple(perm)
        f = evaluate_fraction(j3, t, perm, s)
        inv_perm = tuple(perm.index(k) + 1 for k in range(1, n + 1))
        g = evaluate_fraction(j3, s, inv_perm, t)
        assert equals(invert(f), g)


def _boundary_points(h, depth=14):
    from conftest import expanded_pieces
    from fskit.sequences import ev_periodic

    pts = [ev_periodic("", "0"), ev_periodic("", "1")]
    for p in expanded_pieces(h, depth):
        pts.append(ev_periodic(p.dom, "0"))
        pts.append(ev_periodic(p.dom, "1"))
    uniq = sorted(set((q.pre, q.per) for q in pts))
    pts = [ev_periodic(a, b) for a, b in uniq]
    pts.sort(key=lambda q: q.prefix(48))
    return pts


def test_order_tests_match_pointwise_truth(j3, nonsimple4, cleary2, rho2):
    # cross-validate the symbolic order tests against evaluation at all
    # piece-boundary points: order-preserving iff no descent in the linear
    # reading, cyclic iff at most one descent in the cyclic reading
    rng = random.Random(314)
    for _ in range(60):
        cls = rng.choice((j3, nonsimple4, cleary2, rho2))
        s = random_tree(rng, rng.randint(1, 5))
        t = random_tree(rng, leaf_count(s) - 1)
        n = leaf_count(s)
        mode = rng.random()
        if mode < 0.4:
            perm = tuple(range(1, n + 1))
        elif mode < 0.7:
            shift = rng.randrange(n)
            perm = tuple((k + shift) % n + 1 for k in range(n))
        else:
            perm = list(range(1, n + 1))
            rng.shuffle(perm)
            perm = tuple(perm)
        h = evaluate_fraction(cls, t, perm, s)
        pts = _boundary_points(h)
        imgs = [evaluate(h, p) for p in pts]
        linear = sum(1 for a, b in zip(imgs, imgs[1:]) if compare(a, b) >= 0)
        cyclic = linear + (1 if compare(imgs[-1], imgs[0]) >= 0 else 0)
        assert is_order_preserving(h) == (linear == 0)
        assert is_cyclic_order_preserving(h) == (cyclic <= 1)


def _order_corpus(rng, cls):
    """Total maps: random fractions, rotations [t | k-cycle | s], products
    of two of these, and the signed words that are total."""

    def rotation():
        s = random_tree(rng, rng.randint(1, 4))
        t = random_tree(rng, leaf_count(s) - 1)
        n = leaf_count(s)
        k = rng.randrange(n)
        return evaluate_fraction(cls, t, tuple((j + k) % n + 1 for j in range(n)), s)

    def element():
        return rotation() if rng.random() < 0.5 else random_fraction(cls, rng)

    maps = [element() for _ in range(15)]
    maps += [compose(element(), element()) for _ in range(10)]
    words = (evaluate_word(cls, random_signed_word(rng, rng.randint(1, 5))) for _ in range(30))
    return maps + [w for w in words if is_total(w)]


def test_order_answers_match_seeded_points(j3, nonsimple4, cleary2, rho2):
    # an independent check of the order reading: where it answers F, seeded
    # points sorted by point_relations.compare have images in the same
    # order; where it answers T, their images make at most one descent
    # round the circle
    rng = random.Random(22)
    seen = {"F": 0, "T": 0, "V": 0}
    for cls in (j3, nonsimple4, cleary2, rho2):
        for f in _order_corpus(rng, cls):
            answer = "V"
            if is_cyclic_order_preserving(f):
                answer = "F" if is_order_preserving(f) else "T"
            if f.bijective:
                assert classify_element(f) == answer
            seen[answer] += 1
            pts = {random_point(rng) for _ in range(40)}
            pts |= {parse_point("(0)"), parse_point("(1)")}
            pts = sorted(pts, key=cmp_to_key(compare))
            imgs = [evaluate(f, p) for p in pts]
            descents = [compare(a, b) >= 0 for a, b in zip(imgs, imgs[1:] + imgs[:1])]
            if answer == "F":
                assert not any(descents[:-1]), (str(f), answer)
            elif answer == "T":
                assert sum(descents) <= 1, (str(f), answer)
    assert min(seen.values()) >= 20, seen


def test_order_counterexamples_have_witnesses():
    # read by each family's least range alone, these maps keep order; a
    # pair of points (or, for the cyclic order, three) whose images come
    # out of order shows that they do not
    def images(f, *points):
        """The images of points given in increasing order."""
        pts = [parse_point(p) for p in points]
        assert all(compare(p, q) < 0 for p, q in zip(pts, pts[1:]))
        return [str(evaluate(f, p)) for p in pts]

    # a bijection with two families at the point (1): their runs grow at
    # rates 2 and 4, so they cross
    a = make_eppm(
        families=[
            Family("", "", 1, 2, (("00", "0"),)),
            Family("", "1", 1, 4, (("010", "0"), ("011", "110"))),
        ]
    )
    assert is_total(a) and is_total(invert(a))
    assert images(a, "1011(0)", "1100(0)") == ["1111111(0)", "1111(0)"]
    assert classify_element(a) == "V"
    assert not is_order_preserving(a)
    with pytest.raises(NotOrderPreserving):
        bi_order_compare(a, IDENTITY)
    # the piece 1 -> 010 lands between the family's layers 0 and 1
    b = make_eppm(pieces=[Piece("1", "010")], families=[Family("0", "0", 1, 2, (("0", "0"),))])
    assert is_total(b)
    assert images(b, "0(1)", "1(0)") == ["0(1)", "01(0)"]
    # 001(0) < 0(1) < 1(0) go to 001(0) < 01(0) < 0(1): reversed round the circle
    assert images(b, "001(0)", "0(1)", "1(0)") == ["001(0)", "0(1)", "01(0)"]
    assert not is_order_preserving(b) and not is_cyclic_order_preserving(b)
    with pytest.raises(NotOrderPreserving):
        plrender.to_interval_map(b)
    # total but not injective: 1 -> 01 lands inside 0 -> 0
    c = make_eppm(pieces=[Piece("0", "0"), Piece("1", "01")])
    assert is_total(c)
    assert images(c, "01(0)", "1(0)") == ["01(0)", "01(0)"]
    assert not is_order_preserving(c) and not is_cyclic_order_preserving(c)
    # two families at the point (1) that head for 0(1) and (1): each keeps
    # order, and their ranges lie in the cones 0 and 1, but their slabs
    # alternate; only the first carries the limit, which (1) cannot have twice
    d = make_eppm(
        families=[
            Family("", "0", 1, 1, (("00", "0"),)),
            Family("", "1", 1, 1, (("01", "0"),), carries_limit=False),
        ]
    )
    assert is_total(d)
    assert images(d, "001(0)", "01(0)", "100(0)") == ["001(0)", "1(0)", "01(0)"]
    assert not is_order_preserving(d) and not is_cyclic_order_preserving(d)
    # two families that keep order, and isolated limits that swap 0(1) and
    # (1): read without its limits, this bijection keeps order
    g = make_eppm(
        families=[
            Family("0", "0", 1, 1, (("0", "0"),), False),
            Family("1", "1", 1, 1, (("0", "0"),), False),
        ],
        limits=[
            (parse_point("0(1)"), parse_point("(1)")),
            (parse_point("(1)"), parse_point("0(1)")),
        ],
    )
    assert images(g, "0(1)", "1(0)") == ["(1)", "1(0)"]
    assert classify_element(g) == "V"
    assert not is_order_preserving(g) and not is_cyclic_order_preserving(g)
    with pytest.raises(NotOrderPreserving):
        bi_order_compare(g, IDENTITY)
    # an isolated limit that keeps order: the layers stay below the image
    # (1) of their limit
    f = LIMIT_FIXES_OMEGA
    assert images(f, "0(1)", "10(0)", "(1)") == ["00(1)", "01(0)", "(1)"]
    assert is_order_preserving(f) and is_cyclic_order_preserving(f)


def test_germ_group_commutativity_dichotomy(j3):
    # at the top endpoint the J-class has a non-abelian germ group, so the
    # germs of A1.B1 and B1.A1 differ; the G-class germ group is infinite
    # cyclic, so they coincide
    from conftest import vine_class

    g3 = vine_class("colors a b\nrel a1 a1 a2 = b1 b2 b3\n")
    w = parse_point("(1)")
    for cls, expect_equal in ((j3, False), (g3, True)):
        a1 = caret_map(cls, "a", 1)
        b1 = caret_map(cls, "b", 1)
        gab = germ_at(compose(a1, b1), w)
        gba = germ_at(compose(b1, a1), w)
        assert (gab == gba) is expect_equal
        assert gab == gab and gba == gba


def _trefoil_class(word):
    """Word problem oracle for < a, b | a^2 = b^3 >: the pair of the weight
    a -> 3, b -> 2 and the image in PSL(2, Z) with a -> S, b -> U is a
    complete invariant (the centre is separated by the weight)."""

    def mul(m, n):
        return (
            m[0] * n[0] + m[1] * n[2],
            m[0] * n[1] + m[1] * n[3],
            m[2] * n[0] + m[3] * n[2],
            m[2] * n[1] + m[3] * n[3],
        )

    S = (0, -1, 1, 0)
    U = (0, -1, 1, -1)
    mat = (1, 0, 0, 1)
    weight = 0
    for ch in word:
        mat = mul(mat, S if ch == "a" else U)
        weight += 3 if ch == "a" else 2
    neg = tuple(-x for x in mat)
    return weight, min(mat, neg)


def test_germ_equality_matches_group_word_problem(j3):
    # for the simple caret-cell presentation, the germ group at the top
    # endpoint is < a, b | a^2 = b^3 >; germ equality of positive words must
    # coincide with the group's word problem and with exact map equality
    from fskit.probe import kappa_omega

    rng = random.Random(17)
    w = parse_point("(1)")
    words = ["a", "b", "aa", "bbb", "ab", "ba", "abb", "bba", "aab"]
    words += [
        "".join(rng.choice("ab") for _ in range(rng.randint(1, 6))) for _ in range(8)
    ]
    maps = {v: kappa_omega(j3, v) for v in words}
    germs = {v: germ_at(maps[v], w) for v in words}
    classes = {v: _trefoil_class(v) for v in words}
    for v1 in words:
        for v2 in words:
            oracle = classes[v1] == classes[v2]
            assert (germs[v1] == germs[v2]) is oracle, (v1, v2)
            assert equals(maps[v1], maps[v2]) is oracle, (v1, v2)
    assert len(set(germs.values())) == len(set(classes.values()))


def test_germ_at_conjugated_point(j3):
    # conjugating by A0 moves the accumulation point to 0.(1)^inf; germ
    # relations transport along: b-germs stay distinct from b^2-germs while
    # the conjugated prune identity a^2 = b^3 still holds
    a0 = caret_map(j3, "a", 0)
    a1 = caret_map(j3, "a", 1)
    b1 = caret_map(j3, "b", 1)
    p = parse_point("0(1)")

    def conj(g):
        return compose(a0, compose(g, invert(a0)))

    g_b = germ_at(conj(b1), p)
    g_bb = germ_at(conj(compose(b1, b1)), p)
    assert g_b.source == g_b.target == p
    assert g_b != g_bb
    g_a2 = germ_at(conj(compose(a1, a1)), p)
    g_b3 = germ_at(conj(compose(b1, compose(b1, b1))), p)
    assert g_a2 == g_b3
