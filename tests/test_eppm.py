import random
import re
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from fskit.dynamics import (
    caret_map,
    classify_element,
    evaluate_word,
    generator_map,
    is_order_preserving,
)
from fskit.eppm import (
    EppmError,
    Family,
    IDENTITY,
    NotBijective,
    NotTotal,
    Piece,
    UndefinedAt,
    atom_at,
    canonicalize,
    compose,
    equals,
    evaluate,
    in_domain,
    invert,
    is_total,
    make_eppm,
    region_subset,
    restrict,
    restrict_family,
    restrict_piece,
)
from fskit.sequences import ev_periodic, parse_point

from conftest import (
    J3_TEXT,
    expanded_pieces,
    random_fraction,
    random_point,
    random_signed_word,
    vine_class,
)
from region_walk import eq_runs, is_identity_on_domain, region_equal


def b1(cls):
    return caret_map(cls, cls.colour_b, 1)


def test_caret_maps_shape(j3):
    assert caret_map(j3, "a", 0) == make_eppm(pieces=[Piece("", "0")])
    assert caret_map(j3, "a", 1) == make_eppm(pieces=[Piece("", "1")])
    assert caret_map(j3, "b", 0) == make_eppm(pieces=[Piece("", "00")])
    fam = b1(j3).families[0]
    assert fam.dom_step == fam.ran_step == 2
    assert set(fam.blocks) == {("00", "01"), ("01", "10"), ("10", "1100")}
    assert fam.carries_limit


def test_caret_map_is_memoised(j3):
    assert caret_map(j3, "b", 1) is caret_map(j3, "b", 1)
    # an equal class built anew hits the same entry
    assert caret_map(vine_class(J3_TEXT), "b", 1) is caret_map(j3, "b", 1)


def test_b1_collapses_for_vine_pair(rho2):
    # x = rho forces B1 = A1: the family collapses to a single piece
    assert b1(rho2) == make_eppm(pieces=[Piece("", "1")])


def test_evaluate_b1(j3):
    f = b1(j3)
    assert evaluate(f, parse_point("(0)")) == parse_point("01(0)")
    assert evaluate(f, parse_point("01(0)")) == parse_point("10(0)")
    assert evaluate(f, parse_point("10(0)")) == parse_point("1100(0)")
    assert evaluate(f, parse_point("1100(0)")) == parse_point("1101(0)")
    assert evaluate(f, parse_point("(1)")) == parse_point("(1)")


def test_evaluate_undefined():
    f = make_eppm(pieces=[Piece("0", "")])
    assert evaluate(f, parse_point("01(0)")) == parse_point("1(0)")
    with pytest.raises(UndefinedAt):
        evaluate(f, parse_point("1(0)"))


def test_invert_b1_image(j3):
    g = invert(b1(j3))
    # image of B1 misses exactly the cone below 00
    assert not in_domain(g, parse_point("00(0)"))
    assert in_domain(g, parse_point("01(0)"))
    assert in_domain(g, parse_point("(1)"))
    assert evaluate(g, parse_point("01(0)")) == parse_point("(0)")


@pytest.mark.parametrize(
    "pieces, message",
    [
        ([Piece("0", ""), Piece("10", "0"), Piece("11", "1")], "e and 0"),
        ([Piece("0", ""), Piece("1", "")], "e and e"),
    ],
)
def test_invert_refuses_meeting_piece_ranges(pieces, message):
    # invert swaps the sides and checks nothing: the ranges that meet become
    # doms that meet, and canonicalize refuses the inverse
    f = make_eppm(pieces=pieces)
    assert not f.bijective
    with pytest.raises(EppmError, match=f"the doms {message} of two pieces meet"):
        canonicalize(invert(f))


@pytest.mark.parametrize(
    "pieces, message",
    [
        # 00 lies in the cone 0, and 00(1) would go to 1(1) or to 00(1)
        ([Piece("0", "0"), Piece("00", "1"), Piece("1", "1")], "0 and 00"),
        ([Piece("0", "0"), Piece("0", "1"), Piece("1", "")], "0 and 0"),
        ([Piece("", ""), Piece("1", "1")], "e and 1"),
        # the same piece twice acts twice on its cone too
        ([Piece("0", "1"), Piece("1", "0"), Piece("0", "1")], "0 and 0"),
    ],
)
def test_canonicalize_refuses_meeting_piece_doms(pieces, message):
    with pytest.raises(EppmError, match=f"the doms {message} of two pieces meet"):
        canonicalize(make_eppm(pieces=pieces))


# maps that are not functions, and where canonicalize says so
NOT_FUNCTIONS = {
    # 10 is the family's layer 0
    "piece-in-a-family-layer": (
        make_eppm(pieces=[Piece("10", "0")], families=[Family("1", "1", 1, 1, (("0", "0"),))]),
        "two atoms act on the cone 10",
    ),
    # the second family's layers are the first's even ones
    "two-families-at-one-point": (
        make_eppm(
            families=[Family("", "", 1, 1, (("0", "0"),)), Family("", "", 2, 2, (("0", "00"),))]
        ),
        "two atoms act on the cone 0",
    ),
    # the piece 1 holds the family's point 10(1)
    "piece-over-a-family-point": (
        make_eppm(pieces=[Piece("1", "1")], families=[Family("10", "10", 1, 2, (("0", "0"),))]),
        re.escape("cone 1 holds the accumulation point 10.1^inf"),
    ),
    # the layer 0 of the family at (1) is the cone of the family at 0(1)
    "family-layer-over-a-deeper-family": (
        make_eppm(
            families=[Family("", "", 1, 2, (("0", "0"),)), Family("0", "0", 1, 2, (("0", "0"),))]
        ),
        "a piece meets the family at 0",
    ),
    # the layer 0 of the family at (1) holds 001, the layer 0 of the family at 0(1)
    "family-layer-in-a-deeper-family-layer": (
        make_eppm(
            families=[
                Family("", "", 1, 1, (("000", "000"), ("001", "001"))),
                Family("0", "0", 1, 1, (("01", "01"),)),
            ]
        ),
        "a piece meets the family at 0",
    ),
    "carried-against-isolated-limit": (
        make_eppm(
            families=[Family("", "", 1, 1, (("0", "0"),))],
            limits=[(parse_point("(1)"), parse_point("(0)"))],
        ),
        re.escape("the point (1) gets two images (0) and (1)"),
    ),
    "isolated-limit-inside-a-piece": (
        make_eppm(pieces=[Piece("", "")], limits=[(parse_point("(0)"), parse_point("(1)"))]),
        re.escape("the point (0) gets two images (0) and (1)"),
    ),
    "two-isolated-limits": (
        make_eppm(
            pieces=[Piece("0", "0")],
            limits=[
                (parse_point("(1)"), parse_point("(1)")),
                (parse_point("(1)"), parse_point("0(1)")),
            ],
        ),
        re.escape("the point (1) gets two images 0(1) and (1)"),
    ),
}


@pytest.mark.parametrize("name", NOT_FUNCTIONS)
def test_canonicalize_refuses_a_map_that_is_not_a_function(name):
    f, message = NOT_FUNCTIONS[name]
    with pytest.raises(EppmError, match=f"^{message}$"):
        canonicalize(f)
    assert not f.total and not f.bijective
    with pytest.raises(NotTotal):
        is_order_preserving(f)
    with pytest.raises(NotBijective):
        classify_element(f)


def test_a_block_in_a_gap_of_a_deeper_family_is_kept():
    # the layer 0 of the family at (1) is the cone 000, where the family at
    # 0(1) does not act: the map is a function, and canonicalize keeps it
    f = make_eppm(
        families=[Family("", "", 1, 1, (("000", "000"),)), Family("0", "0", 1, 1, (("01", "01"),))]
    )
    normal = canonicalize(f)
    for p in ("000(1)", "0001(0)", "001(0)", "0101(0)", "0(1)", "1000(1)"):
        assert evaluate(normal, parse_point(p)) == evaluate(f, parse_point(p)) == parse_point(p)
    assert not in_domain(normal, parse_point("01(0)"))


def test_limits_that_agree_merge():
    point = parse_point("(0)")
    assert canonicalize(make_eppm(pieces=[Piece("", "")], limits=[(point, point)])) == IDENTITY
    fam = Family("", "", 1, 1, (("0", "0"),))
    one = parse_point("(1)")
    assert canonicalize(make_eppm(families=[fam], limits=[(one, one), (one, one)])) == IDENTITY


def test_compose_pulls_a_limit_back_only_through_an_injective_map():
    # g sends 0(1) and 1(1) both to (1), so f's limit at (1) has no one
    # preimage: the inverse of g is refused
    f = make_eppm(pieces=[Piece("0", "0")], limits=[(parse_point("(1)"), parse_point("(1)"))])
    g = make_eppm(pieces=[Piece("0", ""), Piece("1", "")])
    with pytest.raises(EppmError, match="the doms e and e of two pieces meet"):
        compose(f, g)


def test_invert_involution(j3):
    rng = random.Random(0)
    for _ in range(40):
        w = random_signed_word(rng, rng.randint(0, 6))
        f = evaluate_word(j3, w)
        assert canonicalize(invert(invert(f))) == canonicalize(f)


def test_compose_identity(j3):
    f = b1(j3)
    assert equals(compose(f, IDENTITY), f)
    assert equals(compose(IDENTITY, f), f)


def test_compose_restricts_once_per_family_of_g(j3, monkeypatch):
    # B1 o B1: f is restricted to the family's range cone once, and then
    # to each block of the one layer below the roof; the roof itself
    # needs no restriction of its own
    import fskit.eppm

    cones = []
    monkeypatch.setattr(fskit.eppm, "restrict", lambda f, w: cones.append(w) or restrict(f, w))
    f = b1(j3)
    compose(f, f)
    assert cones == ["", "01", "10", "1100"]


def test_compose_pointwise(j3, nonsimple4):
    rng = random.Random(1)
    for cls in (j3, nonsimple4):
        for _ in range(60):
            wf = random_signed_word(rng, rng.randint(0, 4))
            wg = random_signed_word(rng, rng.randint(0, 4))
            f = evaluate_word(cls, wf)
            g = evaluate_word(cls, wg)
            h = compose(f, g)
            for _ in range(8):
                p = random_point(rng)
                try:
                    expected = evaluate(f, evaluate(g, p))
                except UndefinedAt:
                    assert not in_domain(h, p)
                    continue
                assert evaluate(h, p) == expected
    # random points almost never hit a limit point, where compose reads what
    # g's families carry, g's isolated limits and f's isolated limits
    seen = {"carried": 0, "open": 0, "isolated": 0, "defined": 0, "undefined": 0}
    for cls in (j3, nonsimple4):
        for _ in range(40):
            f = _cut_at_a_limit(_random_map(cls, rng), rng)
            g = _cut_at_a_limit(_random_map(cls, rng), rng)
            for fam in g.families:
                seen["carried" if fam.carries_limit else "open"] += 1
            seen["isolated"] += len(f.limits) + len(g.limits)
            h = compose(f, g)
            points = [*_limit_points(f), *_limit_points(g), *_limit_points(h)]
            for q in _limit_points(f):
                try:
                    points.append(evaluate(invert(g), q))
                except UndefinedAt:
                    pass
            for p in points:
                try:
                    expected = evaluate(f, evaluate(g, p))
                except UndefinedAt:
                    assert not in_domain(h, p)
                    seen["undefined"] += 1
                    continue
                assert evaluate(h, p) == expected
                seen["defined"] += 1
    assert min(seen.values()) >= 10, seen


def _random_map(cls, rng: random.Random):
    """A random fraction, a short signed word, or the inverse of either."""
    if rng.random() < 0.6:
        f = random_fraction(cls, rng)
    else:
        f = evaluate_word(cls, random_signed_word(rng, rng.randint(1, 3)))
    return invert(f) if rng.random() < 0.3 else f


def _cut_at_a_limit(f, rng: random.Random):
    """f as it is, with one family's limit taken out (an open tail), or cut
    down to a cone and one point outside it (an isolated limit, where f is
    defined at the point)."""
    cut = rng.randrange(3)
    if cut == 1 and f.families:
        fams = list(f.families)
        i = rng.randrange(len(fams))
        fams[i] = replace(fams[i], carries_limit=False)
        return make_eppm(f.pieces, fams, f.limits)
    if cut == 2:
        u, v = ("".join(rng.choice("01") for _ in range(rng.randint(1, 4))) for _ in "uv")
        if u[0] == v[0]:
            v = str(1 - int(v[0])) + v[1:]
        point = ev_periodic(v, "1")
        sub = restrict(f, u)
        if in_domain(f, point):
            limit = (point, evaluate(f, point))
            sub = make_eppm(sub.pieces, sub.families, sub.limits + (limit,))
        return sub
    return f


def _limit_points(f):
    """The limit points of f's families and its isolated limits, and their
    images."""
    for fam in f.families:
        yield fam.limit_dom
        yield fam.limit_ran
    for p, q in f.limits:
        yield p
        yield q


def test_prune_identity_j3(j3):
    # A0^2 = B0 and A1^2 = B1^3
    a0, a1 = generator_map(j3, "A0"), generator_map(j3, "A1")
    b0 = generator_map(j3, "B0")
    assert equals(compose(a0, a0), b0)
    b1_ = b1(j3)
    b13 = compose(b1_, compose(b1_, b1_))
    a12 = compose(a1, a1)
    assert equals(a12, b13)
    assert not equals(a1, b1_)


def test_b1_squared_cleary(cleary2):
    # for the Cleary presentation A1 = B1^2
    f = b1(cleary2)
    assert equals(compose(f, f), generator_map(cleary2, "A1"))


def test_equals_differs(j3):
    assert not equals(b1(j3), generator_map(j3, "A1"))
    assert not equals(generator_map(j3, "A0"), generator_map(j3, "B0"))


def test_group_law_inverses(j3, nonsimple4):
    rng = random.Random(2)
    for cls in (j3, nonsimple4):
        for _ in range(40):
            w = random_signed_word(rng, rng.randint(1, 6))
            f = evaluate_word(cls, w)
            winv = tuple((t, -e) for t, e in reversed(w))
            g = evaluate_word(cls, winv)
            h = compose(g, f)
            assert is_identity_on_domain(h)


def test_compose_associative_extensionally(j3):
    rng = random.Random(3)
    for _ in range(25):
        maps = [
            evaluate_word(j3, random_signed_word(rng, rng.randint(0, 4)))
            for _ in range(3)
        ]
        f, g, h = maps
        assert equals(compose(compose(f, g), h), compose(f, compose(g, h)))


def test_restrict_family_partial_layers(j3):
    f = b1(j3)
    # restricting to the cone below 11 keeps only layers >= 1
    r = restrict(f, "11")
    assert not r.pieces
    assert len(r.families) == 1
    assert r.families[0].dom_base == "11"
    # restricting to 1 splits layer 0 partially
    r = restrict(f, "1")
    assert {p.dom for p in r.pieces} == {"10"}
    assert r.families[0].dom_base == "11"


def restrict_family_by_scan(f: Family, w: str):
    """restrict_family by scanning every layer of the 1-run up to the cone,
    the reference for the direct layer lookup."""
    db, c, cp = f.dom_base, f.dom_step, f.ran_step
    if db.startswith(w):
        return [], [f]
    if not w.startswith(db):
        return [], []
    delta = w[len(db) :]
    ones = len(delta) - len(delta.lstrip("1"))
    fams = []
    if ones == len(delta):
        m0 = -(-ones // c)
        layers = range(m0)
        fams.append(
            replace(
                f, dom_base=db + "1" * (m0 * c), ran_base=f.ran_base + "1" * (m0 * cp)
            )
        )
    else:
        layers = range(ones // c + 1)
    pieces = []
    for m in layers:
        for block in f.blocks:
            r = restrict_piece(f.piece_at(m, block), w)
            if r is not None:
                pieces.append(r)
    return pieces, fams


bit_words = st.text(alphabet="01", max_size=6)
families = st.builds(
    Family,
    dom_base=bit_words,
    ran_base=bit_words,
    dom_step=st.integers(1, 4),
    ran_step=st.integers(1, 4),
    blocks=st.lists(st.tuples(bit_words, bit_words), max_size=6).map(tuple),
    carries_limit=st.booleans(),
)


@settings(max_examples=400)
@given(family=families, ones=st.integers(0, 14), tail=bit_words, based=st.booleans())
# layers 0 and 1 both have a piece on the cone 110: the lower comes first
@example(family=Family("", "", 2, 1, (("0", "0"), ("110", "1"))), ones=2, tail="0", based=True)
def test_restrict_family_matches_layer_scan(family, ones, tail, based):
    # cones below the family's base and its 1-run, and arbitrary cones; past
    # the base, a cone with a 0 in it is refused by a block of 1s alone,
    # whose cone holds every later layer and the family's limit
    w = (family.dom_base + "1" * ones if based else "") + tail
    past_base = w.startswith(family.dom_base) and "0" in w[len(family.dom_base) :]
    if past_base and any("0" not in d for d, _ in family.blocks):
        with pytest.raises(EppmError):
            restrict_family(family, w)
    else:
        assert restrict_family(family, w) == restrict_family_by_scan(family, w)


def test_a_block_of_ones_alone_is_refused():
    # its cone 1 holds every later layer 1^(2m).1 and the limit (1), so no
    # one piece of the family acts at 110(0)
    fam = Family("", "", 2, 1, (("1", "0"),))
    with pytest.raises(EppmError, match="holds the accumulation point"):
        restrict_family(fam, "110")
    with pytest.raises(EppmError, match="holds the accumulation point"):
        evaluate(make_eppm(families=[fam]), parse_point("110(0)"))
    with pytest.raises(EppmError, match="holds the accumulation point"):
        canonicalize(make_eppm(families=[fam]))


def atom_at_by_restriction(f, p):
    """atom_at by building the whole layer of the point's cone with
    restrict_family and scanning it, the reference for reading the layer
    off the point's 1-run."""
    for piece in f.pieces:
        if p.starts_with(piece.dom):
            return piece
    for fam in f.families:
        if not p.starts_with(fam.dom_base):
            continue
        rest = p.drop(len(fam.dom_base))
        if rest.is_constant("1"):
            if fam.carries_limit:
                return fam
            continue
        cone = fam.dom_base + "1" * rest.leading_run("1") + "0"
        for piece in restrict_family(fam, cone)[0]:
            if p.starts_with(piece.dom):
                return piece
    return next((pair for pair in f.limits if p == pair[0]), None)


@settings(max_examples=400)
@given(
    family=families,
    ones=st.integers(0, 14),
    tail=bit_words,
    period=st.text(alphabet="01", min_size=1, max_size=4),
    based=st.booleans(),
    limit=st.booleans(),
    isolated=st.booleans(),
    piece=st.none() | st.tuples(bit_words, bit_words),
)
def test_atom_at_matches_the_restricted_layer(
    family, ones, tail, period, based, limit, isolated, piece
):
    # any family, with points in its cone and 1-run, its limit point and
    # points anywhere, behind a written piece or none, and an isolated
    # limit at the point or none: the same piece, family limit, isolated
    # limit or None, and a block of 1s alone refused with the same message
    pre = (family.dom_base + "1" * ones if based else "") + tail
    p = ev_periodic(family.dom_base, "1") if limit else ev_periodic(pre, period)
    f = make_eppm(
        pieces=[Piece(*piece)] if piece else [],
        families=[family],
        limits=[(p, ev_periodic("0", period))] if isolated else [],
    )
    try:
        expected = atom_at_by_restriction(f, p)
    except EppmError as refusal:
        with pytest.raises(EppmError, match=f"^{re.escape(str(refusal))}$"):
            atom_at(f, p)
    else:
        assert atom_at(f, p) == expected


def evaluate_by_scan(f, p):
    """evaluate by scanning every layer of a family's 1-run, the reference
    for the direct layer lookup."""
    for piece in f.pieces:
        if p.starts_with(piece.dom):
            return p.drop(len(piece.dom)).prepend(piece.ran)
    for fam in f.families:
        if not p.starts_with(fam.dom_base):
            continue
        rest = p.drop(len(fam.dom_base))
        if rest.is_constant("1"):
            if fam.carries_limit:
                return ev_periodic(fam.ran_base, "1")
            continue
        run = rest.leading_run("1")
        c = fam.dom_step
        for m in range(run // c + 1):
            layer = rest.drop(m * c)
            for d, r in fam.blocks:
                if d and layer.starts_with(d):
                    return layer.drop(len(d)).prepend(
                        fam.ran_base + "1" * (m * fam.ran_step) + r
                    )
    for lp, lq in f.limits:
        if p == lp:
            return lq
    raise UndefinedAt(p)


@st.composite
def valid_families(draw):
    """Families whose block doms hold a 0, are prefix-free and lie inside
    one layer (none starts with 1^dom_step), so their pieces are disjoint."""
    c = draw(st.integers(1, 4))
    doms: list[str] = []
    for d in draw(st.lists(st.text(alphabet="01", min_size=1, max_size=5), max_size=6)):
        if "0" in d and not d.startswith("1" * c) and not any(
            d.startswith(e) or e.startswith(d) for e in doms
        ):
            doms.append(d)
    rans = draw(st.lists(bit_words, min_size=len(doms), max_size=len(doms)))
    return Family(
        draw(bit_words),
        draw(bit_words),
        c,
        draw(st.integers(1, 4)),
        tuple(zip(doms, rans)),
        draw(st.booleans()),
    )


@settings(max_examples=400)
@given(
    family=valid_families(),
    ones=st.integers(0, 14),
    tail=bit_words,
    period=st.text(alphabet="01", min_size=1, max_size=4),
    based=st.booleans(),
    limit=st.booleans(),
)
def test_evaluate_matches_layer_scan(family, ones, tail, period, based, limit):
    # points in the family's cone and its 1-run, its limit point, and
    # points anywhere; an isolated limit too when the family has none
    pre = (family.dom_base + "1" * ones if based else "") + tail
    p = ev_periodic(family.dom_base, "1") if limit else ev_periodic(pre, period)
    limits = () if family.carries_limit else ((p, ev_periodic("0", period)),)
    f = make_eppm(families=[family], limits=limits)
    try:
        expected = evaluate_by_scan(f, p)
    except UndefinedAt:
        with pytest.raises(UndefinedAt):
            evaluate(f, p)
    else:
        assert evaluate(f, p) == expected


def test_region_subset_and_total(j3):
    f = b1(j3)
    assert is_total(f)
    assert not is_total(invert(f))
    assert region_subset(invert(f), IDENTITY)
    assert not region_subset(IDENTITY, invert(f))
    assert region_equal(f, IDENTITY)
    # partial maps: a cone, a family without its limit, an isolated point
    cone = make_eppm(pieces=[Piece("01", "1")])
    assert region_subset(cone, IDENTITY) and region_subset(cone, restrict(f, "0"))
    assert not region_subset(cone, restrict(f, "00"))
    assert not is_total(cone) and region_subset(make_eppm(), cone)
    open_tail = make_eppm(families=[replace(f.families[0], carries_limit=False)])
    point = ev_periodic("", "1")
    assert region_subset(open_tail, f) and not region_subset(f, open_tail)
    assert not is_total(open_tail)
    assert is_total(make_eppm(open_tail.pieces, open_tail.families, [(point, point)]))
    isolated = make_eppm(limits=[(point, ev_periodic("0", "1"))])
    assert region_subset(isolated, f) and not region_subset(isolated, open_tail)
    assert not region_subset(isolated, make_eppm(pieces=[Piece("0", "0")]))


def test_totality_is_decided_without_composing(j3, monkeypatch):
    # is_total reads the normal form of the identity on dom(f); a fault in
    # eppm.compose must not reach the bijection checks
    import fskit.eppm
    from fskit.dynamics import classify_element, parse_element

    def broken(f, g):
        raise AssertionError("is_total composed")

    monkeypatch.setattr(fskit.eppm, "compose", broken)
    f = b1(j3)
    assert is_total(f)
    assert not is_total(invert(f))
    element = parse_element(j3, "[b1 | id | a1]")
    assert str(element) == "{[e|1^2 -> e|1^2: 0->00, 100->01, 101->10]}"
    assert classify_element(element) == "F"


def test_canonicalize_merges_siblings():
    f = make_eppm(pieces=[Piece("0", "10"), Piece("1", "11")])
    assert canonicalize(f) == make_eppm(pieces=[Piece("", "1")])


def test_canonicalize_absorbs_layer():
    fam = Family("11", "11", 2, 2, (("00", "01"), ("01", "10"), ("10", "1100")))
    pieces = [Piece("00", "01"), Piece("01", "10"), Piece("10", "1100")]
    f = make_eppm(pieces=pieces, families=[fam])
    out = canonicalize(f)
    assert out.families[0].dom_base == ""
    assert not out.pieces


def validate_disjoint(f, depth: int = 64) -> None:
    """Check pairwise disjointness of expanded domains and ranges."""
    doms = [p.dom for p in expanded_pieces(f, depth)]
    rans = [p.ran for p in expanded_pieces(f, depth)]
    for words, side in ((doms, "domains"), (rans, "ranges")):
        for i, u in enumerate(words):
            for v in words[i + 1 :]:
                if u.startswith(v) or v.startswith(u):
                    raise EppmError(f"{side} overlap: {u!r} vs {v!r}")


def test_str_writes_isolated_limits():
    f = make_eppm(limits=[(parse_point("(1)"), parse_point("(0)"))])
    assert str(f) == "{{(1)->(0)}}"
    assert evaluate(f, parse_point("(1)")) == parse_point("(0)")


def test_validate_disjoint(j3, nonsimple4):
    rng = random.Random(4)
    for cls in (j3, nonsimple4):
        for _ in range(30):
            w = random_signed_word(rng, rng.randint(0, 5))
            validate_disjoint(evaluate_word(cls, w))


def test_eq_runs():
    assert eq_runs("1", 1, "0", "", 1, "10")
    assert not eq_runs("1", 1, "0", "", 1, "01")
    assert not eq_runs("", 1, "0", "", 2, "0")
    assert eq_runs("", 2, "00", "", 2, "00")


def test_eq_runs_matches_every_layer():
    # half the cases are p.1^j and 1^j.s written on the two sides, which
    # eq_runs should accept, then perturbed by a letter half the time
    rng = random.Random(6)

    def word():
        return "".join(rng.choice("01") for _ in range(rng.randint(0, 5)))

    answers = []
    for _ in range(5000):
        p1, s1, p2, s2 = word(), word(), word(), word()
        k1 = rng.randint(1, 4)
        k2 = k1 if rng.random() < 0.8 else rng.randint(1, 4)
        if rng.random() < 0.5:
            j = rng.randint(0, 6)
            p2, s2 = p1 + "1" * j, s1
            s1 = "1" * j + s1
            if rng.random() < 0.5:
                p2 += rng.choice("01")
                s2 = s2[1:]
        every = all(
            p1 + "1" * (m * k1) + s1 == p2 + "1" * (m * k2) + s2 for m in range(40)
        )
        assert eq_runs(p1, k1, s1, p2, k2, s2) == every
        answers.append(every)
    assert answers.count(True) >= 1000 and answers.count(False) >= 1000


def test_expanded_pieces_family(j3):
    f = b1(j3)
    doms = {p.dom for p in expanded_pieces(f, 6)}
    assert "00" in doms and "1100" in doms and "111100" in doms


def test_canonicalize_preserves_semantics(j3, nonsimple4):
    # the canonical moves (rebalance, merge, collapse, absorb) must not
    # change the represented partial map
    from leaf_fold import beta_path
    from fskit.forest import leaf_count

    rng = random.Random(11)
    for cls in (j3, nonsimple4):
        for _ in range(25):
            s = random_tree_local(rng, rng.randint(1, 6))
            t = random_tree_local(rng, leaf_count(s) - 1)
            n = leaf_count(s)
            perm = list(range(1, n + 1))
            rng.shuffle(perm)
            pieces, fams, lims = [], [], []
            for j in range(1, n + 1):
                br = compose(
                    beta_path(cls, t, perm[j - 1]), invert(beta_path(cls, s, j))
                )
                pieces += br.pieces
                fams += br.families
                lims += br.limits
            raw = make_eppm(pieces, fams, lims)
            canon = canonicalize(raw)
            pts = [random_point(rng, 7) for _ in range(20)]
            pts += [parse_point("(1)"), parse_point("0(1)"), parse_point("(0)")]
            for p in pts:
                assert in_domain(raw, p) == in_domain(canon, p)
                if in_domain(raw, p):
                    assert evaluate(raw, p) == evaluate(canon, p)


def random_tree_local(rng, carets):
    from conftest import random_tree

    return random_tree(rng, carets)
