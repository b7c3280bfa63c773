import random
from fractions import Fraction

import pytest

from fskit import plrender
from fskit.dynamics import evaluate_fraction, parse_element
from fskit.eppm import IDENTITY, NotOrderPreserving, evaluate
from fskit.forest import build_tree, leaf_count, parse_caret_word
from fskit.plrender import (
    Dyadic,
    NotCyclicOrderPreserving,
    PlMap,
    PlPiece,
    decimal_string,
    dyadic,
    emit_csv,
    emit_svg,
    to_circle_map,
    to_interval_map,
)
from fskit.sequences import ev_periodic

import fraction_render
from conftest import random_tree
from fraction_render import apply, cone_left, from_fraction, value
from plmap_reading import breakpoints, fixed_points, parse_csv


def tree(text):
    return build_tree(parse_caret_word(text))


def yb_ya(cls):
    return evaluate_fraction(cls, tree("b1"), (1, 2), tree("a1"))


def swap_halves(cls):
    return evaluate_fraction(cls, tree("a1"), (2, 1), tree("a1"))


def test_dyadic_normalization():
    assert dyadic(4, 2) == Dyadic(1, 0)
    assert dyadic(0, 5) == Dyadic(0, 0)
    assert dyadic(6, 3) == Dyadic(3, 2)
    # integers are normalized at exp 0, even ones too
    assert dyadic(-4, 1) == Dyadic(-2, 0)
    for num, exp in ((2, 1), (0, 3), (1, -1)):
        with pytest.raises(ValueError):
            Dyadic(num, exp)


def test_decimal_string():
    assert decimal_string(dyadic(0)) == "0"
    assert decimal_string(dyadic(1)) == "1"
    assert decimal_string(dyadic(1, 1)) == "0.5"
    assert decimal_string(dyadic(3, 3)) == "0.375"
    assert decimal_string(dyadic(-3, 1)) == "-1.5"


def test_identity_map():
    m = to_interval_map(IDENTITY, 12)
    assert len(m.pieces) == 1
    p = m.pieces[0]
    assert (p.left, p.right, p.slope_exp, p.intercept) == (
        dyadic(0),
        dyadic(1),
        0,
        dyadic(0),
    )
    assert breakpoints(m) == []
    assert fixed_points(m) == [("interval", Fraction(0), Fraction(1))]
    assert emit_csv(m) == "left,right,slope_exp,intercept_num,intercept_exp\n0,1,0,0,0\n"


def test_yb_ya_interval(j3):
    f = yb_ya(j3)
    m = to_interval_map(f, 12)
    first = m.pieces[0]
    assert first.left == dyadic(0) and first.right == dyadic(1, 1)
    assert first.slope_exp == -1
    bps = breakpoints(m)
    assert len(bps) > 10
    assert bps[0][0] == dyadic(1, 1)
    assert m.accumulation_points == (dyadic(1),)


def assert_pieces_match_evaluation(f, m):
    for piece in m.pieces:
        # left endpoint: the image of the cone's infimum point
        width = value(piece.right) - value(piece.left)
        depth = width.denominator.bit_length() - 1
        num = int(value(piece.left) * 2**depth)
        prefix = format(num, f"0{depth}b") if depth else ""
        image = evaluate(f, ev_periodic(prefix, "0"))
        assert apply(piece, value(piece.left)) == image.to_fraction()
        image_sup = evaluate(f, ev_periodic(prefix, "1"))
        assert apply(piece, value(piece.right)) == image_sup.to_fraction()


def test_yb_ya_pieces_match_evaluation(j3):
    f = yb_ya(j3)
    assert_pieces_match_evaluation(f, to_interval_map(f, 12))


@pytest.mark.parametrize(
    "name, element, render",
    [
        ("j3", "[a1 a1 a3 a4 | id | a1 a2 a2 a3]", to_interval_map),
        ("nonsimple4", "[a1 a2 | 3 1 2 | a1 b2]", to_circle_map),
    ],
)
def test_even_integer_intercept(name, element, render, request):
    # both maps have a piece x -> 4x - 2 (the cone 1010 -> 10)
    f = parse_element(request.getfixturevalue(name), element)
    m = render(f, 12)
    assert any(p.intercept == Dyadic(-2, 0) for p in m.pieces)
    assert_pieces_match_evaluation(f, m)
    assert emit_svg(m, 512, 512).startswith("<?xml")


def test_yb_ya_fixed_points_accumulate(j3):
    f = yb_ya(j3)
    m = to_interval_map(f, 14)
    pts = [x for kind, *rest in fixed_points(m) if kind == "point" for x in rest]
    assert Fraction(3, 4) in pts
    near_one = [x for x in pts if x > Fraction(15, 16)]
    assert len(near_one) >= 2  # accumulating at 1


def test_monotone(j3):
    f = yb_ya(j3)
    m = to_interval_map(f, 12)
    values = []
    for p in m.pieces:
        values.append((value(p.left), apply(p, value(p.left))))
    assert values == sorted(values)
    ys = [y for _, y in values]
    assert ys == sorted(ys)


def test_circle_map_rotation(j3):
    f = swap_halves(j3)
    m = to_circle_map(f, 12)
    assert len(m.pieces) == 2
    # x -> x + 1/2 (mod 1)
    assert apply(m.pieces[0], Fraction(0)) == Fraction(1, 2)
    assert apply(m.pieces[1], Fraction(1, 2)) == Fraction(0)
    assert all(p.slope_exp == 0 for p in m.pieces)


def test_interval_rejects_rotation(j3):
    with pytest.raises(NotOrderPreserving):
        to_interval_map(swap_halves(j3), 12)


def test_circle_map_of_f_type_fixes_zero(j3):
    m = to_circle_map(yb_ya(j3), 12)
    assert apply(m.pieces[0], Fraction(0)) == Fraction(0)


def test_breakpoints_grow_with_depth(j3):
    f = yb_ya(j3)
    shallow = len(breakpoints(to_interval_map(f, 8)))
    deep = len(breakpoints(to_interval_map(f, 14)))
    assert deep > shallow
    # a finite-PL map stabilises
    assert len(breakpoints(to_interval_map(IDENTITY, 8))) == len(
        breakpoints(to_interval_map(IDENTITY, 14))
    )


def test_csv_round_trip(j3):
    m = to_interval_map(yb_ya(j3), 10)
    again = parse_csv(emit_csv(m))
    assert again.pieces == m.pieces


def test_csv_deterministic(j3):
    a = emit_csv(to_interval_map(yb_ya(j3), 12))
    b = emit_csv(to_interval_map(yb_ya(j3), 12))
    assert a == b


def test_svg_deterministic_and_wellformed(j3):
    m = to_interval_map(yb_ya(j3), 12)
    svg = emit_svg(m, 512, 512)
    assert svg == emit_svg(m, 512, 512)
    assert svg.startswith('<?xml version="1.0"')
    assert 'viewBox="0 0 512 512"' in svg
    assert svg.rstrip().endswith("</svg>")
    assert svg.count("<line") == len(m.pieces) + 1  # pieces + diagonal


def test_cone_left():
    assert cone_left("") == 0
    assert cone_left("1") == Fraction(1, 2)
    assert cone_left("011") == Fraction(3, 8)
    assert from_fraction(Fraction(3, 8)) == dyadic(3, 3)


def test_golden_files(j3):
    from pathlib import Path

    golden = Path(__file__).parent / "golden"
    m = to_interval_map(yb_ya(j3), 12)
    assert emit_csv(m) == (golden / "yb_ya_j3_depth12.csv").read_text()
    assert emit_svg(m, 512, 512) == (golden / "yb_ya_j3_depth12.svg").read_text()
    m = to_circle_map(swap_halves(j3), 12)
    stem = "swap_halves_j3_circle_depth12"
    assert emit_csv(m) == (golden / f"{stem}.csv").read_text()
    assert emit_svg(m, 512, 512) == (golden / f"{stem}.svg").read_text()


def random_element(cls, kind, rng):
    """A fraction [t | perm | s] drawn as the kind needs it: the identity
    permutation for an interval map, a rotation of the leaves for a
    circle map."""
    s = random_tree(rng, rng.randint(0, 6))
    t = random_tree(rng, leaf_count(s) - 1)
    n = leaf_count(s)
    shift = rng.randrange(n) if kind == "circle" else 0
    return evaluate_fraction(cls, t, tuple((j + shift) % n + 1 for j in range(n)), s)


@pytest.mark.parametrize("kind", ["interval", "circle"])
@pytest.mark.parametrize("name", ["j3", "nonsimple4", "cleary2", "rho2"])
def test_matches_fraction_reference(name, kind, request):
    # the integer path and the Fraction one give the same PlMap, CSV and
    # SVG, at depths from 0 past the default and at odd sizes
    cls = request.getfixturevalue(name)
    render = to_circle_map if kind == "circle" else to_interval_map
    reference = getattr(fraction_render, render.__name__)
    rng = random.Random(f"fraction reference {name} {kind}")
    for _ in range(12):
        f = random_element(cls, kind, rng)
        depth = rng.choice((0, 3, 10, 12, 15))
        m = render(f, depth)
        assert m == reference(f, depth)
        assert emit_csv(m) == emit_csv(reference(f, depth))
        for width, height in ((512, 512), (3, 7), (511, 3)):
            assert emit_svg(m, width, height) == fraction_render.emit_svg(m, width, height)


def test_circle_continuity_matches_fraction_reference():
    # joins are compared mod 1: x -> x + 1/2 wraps at 1/2 and is
    # continuous; a jump of 1/4 at 1/2 or a gap to a truncated piece is
    # judged as the Fraction path judges it, with the same message
    half, quarter = dyadic(1, 1), dyadic(1, 2)
    rotation = (PlPiece(dyadic(0), half, 0, half), PlPiece(half, dyadic(1), 0, dyadic(-1, 1)))
    jump = (PlPiece(dyadic(0), half, 0, dyadic(0)), PlPiece(half, dyadic(1), 0, quarter))
    gap = (PlPiece(dyadic(0), quarter, 0, dyadic(0)), PlPiece(half, dyadic(1), 0, quarter))
    for pieces, message in ((rotation, None), (jump, "discontinuity at 0.5: 0.5 vs 0.75"), (gap, None)):
        m = PlMap(pieces, ())
        for check in (plrender._validate_circle_continuity, fraction_render._validate_circle_continuity):
            if message is None:
                check(m)
            else:
                with pytest.raises(NotCyclicOrderPreserving, match=message):
                    check(m)


def test_svg_rounds_ties_to_even(j3):
    # x = k/2^10 with k odd at an odd size s has 10th decimal 5 and nothing
    # after it: an exact tie at 9 decimals, rounded to the even neighbour
    m = PlMap((PlPiece(dyadic(1, 10), dyadic(3, 10), 0, dyadic(0)),), ())
    svg = emit_svg(m, 3, 7)
    assert svg == fraction_render.emit_svg(m, 3, 7)
    assert 'x1="0.002929688"' in svg  # 0.0029296875, up to even
    assert 'x2="0.008789062"' in svg  # 0.0087890625, down to even
    # a drawn element reaches the tie in both directions at depth 10 and
    # past, in its x coordinates and in its y = 1 - image ones
    f = yb_ya(j3)
    for depth in (10, 12):
        m = to_interval_map(f, depth)
        ends = [x for p in m.pieces for x in (value(p.left), value(p.right))]
        ends += [1 - apply(p, x) for p in m.pieces for x in (value(p.left), value(p.right))]
        for size in (3, 7, 511):
            scaled = [size * x * 10**9 for x in ends]
            ties = [int(t) for t in scaled if t.denominator == 2]
            assert {t % 2 for t in ties} == {0, 1}
            assert emit_svg(m, size, size) == fraction_render.emit_svg(m, size, size)


def test_circle_rejects_v_type(j3):
    from fskit.dynamics import evaluate_fraction

    f = evaluate_fraction(j3, tree("a1 a1"), (2, 1, 3), tree("a1 a1"))
    with pytest.raises(NotCyclicOrderPreserving):
        to_circle_map(f, 10)
