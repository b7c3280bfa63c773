"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines; every check is exact (no tolerances anywhere) and each criterion
carries its stated wall-clock budget.

Criterion 1 pins the first collapse for a1 a1 a3 a4 = b1 b2 b3 b4 at
max length 10 as (babababab, j = 8), not as the paper's witness
(ababababab, j = 9).  The reasons:

- the probe reports the *first* collapse over non-trivial good words in
  length-then-lex order;
- a good word is a^i.w' with i >= 0, where w' starts with b and avoids
  a^{R_x} and b^M (here R_x = 3, M = 4), so babababab is good, and being
  of length 9 it precedes every word of length 10;
- with Phi = A1 B1, Phi^5 = A1 . kappa(babababab) = A1^9, and A1 is
  injective, so cancelling A1 gives kappa(babababab) = A1^8;
- the paper's witness is a . babababab with j + 1.  In general
  kappa(a^i w') = A1^i kappa(w'), so a collapse of a^i w' is one of the
  shorter w' as well, which the search meets first.

The test also checks that the paper's witness collapses with j = 9, and
cross-checks the reported word on the stream oracle.
"""

import contextlib
import json
import random
import sys
import time
from pathlib import Path

import stream_oracle
from certificate import certificate_check
from conftest import (
    CLEARY2_TEXT,
    J3_TEXT,
    NONSIMPLE4_TEXT,
    RHO2_TEXT,
    is_vine_pair,
    random_point,
    random_signed_word,
    random_tree,
    vine_class,
)
from fskit.cli import main as cli_main
from fskit.dynamics import (
    caret_map,
    evaluate_fraction,
    evaluate_word,
    is_power_of_a1,
    singular_points,
)
from fskit.eppm import (
    IDENTITY,
    Piece,
    UndefinedAt,
    canonicalize,
    compose,
    equals,
    evaluate,
    invert,
    is_total,
    make_eppm,
)
from fskit.forest import End, leaf_count
from fskit.plrender import emit_csv, to_interval_map
from fskit.presentation import (
    AbelianInvariants,
    abelianisation,
    enumerate_good_words,
    germ_presentation,
    parse_presentation,
)
from fskit.sequences import ev_periodic, parse_point
from fraction_render import apply, value
from plmap_reading import breakpoints, fixed_points
from point_relations import tail_equivalent
from region_walk import is_identity_on_domain, region_equal

GOLDEN = Path(__file__).parent / "golden"

G3_TEXT = "colors a b\nrel a1 a1 a2 = b1 b2 b3\n"
J4_TEXT = "colors a b\nrel a1 a1 a2 a4 = b1 b2 b3 b4\n"
CLEARY3_TEXT = "colors a b\nrel a1 a1 a1 = b1 b2 b3\n"

CORPUS = {
    "j3": J3_TEXT,
    "nonsimple4": NONSIMPLE4_TEXT,
    "cleary2": CLEARY2_TEXT,
    "cleary3": CLEARY3_TEXT,
    "rho2": RHO2_TEXT,
    "g3": G3_TEXT,
    "j4": J4_TEXT,
    "recolour1": "colors a b\nrel a1 = b1\n",
}


def g_text(n: int) -> str:
    word = "a1 " + " ".join(f"a{i}" for i in range(1, n))
    vine = " ".join(f"b{i}" for i in range(1, n + 1))
    return f"colors a b\nrel {word} = {vine}\n"


def j_text(m: int) -> str:
    word = "a1 " + " ".join(f"a{i}" for i in range(1, m - 1)) + f" a{m}"
    vine = " ".join(f"b{i}" for i in range(1, m + 1))
    return f"colors a b\nrel {word} = {vine}\n"


def h_text(k: int) -> str:
    colours = [chr(ord("a") + i) for i in range(k)]
    lines = ["colors " + " ".join(colours)]
    for i in range(k):
        for j in range(i + 1, k):
            lines.append(
                f"rel {colours[i]}1 {colours[j]}2 = {colours[j]}1 {colours[i]}1"
            )
    return "\n".join(lines) + "\n"


@contextlib.contextmanager
def criterion(number: int, budget_seconds: float, label: str):
    # report on the real stdout so the line survives pytest's capture
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {label}", file=sys.__stdout__)
        raise
    elapsed = time.monotonic() - start
    assert elapsed < budget_seconds, (
        f"criterion {number} exceeded its budget: {elapsed:.1f}s >= {budget_seconds}s"
    )
    print(f"ACCEPTANCE {number}: PASS - {label} ({elapsed:.2f}s)", file=sys.__stdout__)


def b1_of(cls):
    return caret_map(cls, cls.colour_b, 1)


def power(f, k):
    acc = IDENTITY
    for _ in range(k):
        acc = compose(acc, f)
    return acc


# ---------------------------------------------------------------------------


def test_criterion_1_nonsimple_collapse(tmp_path, capsys):
    with criterion(1, 5.0, "non-simple collapse for a1 a1 a3 a4 = b1 b2 b3 b4"):
        cls = vine_class(NONSIMPLE4_TEXT)
        phi5 = power(evaluate_word(cls, (("A1", 1), ("B1", 1))), 5)
        assert phi5 == make_eppm(pieces=[Piece("", "1" * 9)])

        path = tmp_path / "nonsimple.fsp"
        path.write_text(NONSIMPLE4_TEXT)
        code = cli_main(["check-simple", str(path), "--max-len", "10"])
        out = capsys.readouterr().out
        assert code == 10
        report = json.loads(out)
        assert report["outcome"] == "CollapseFound"
        word, j = report["collapse"]["word"], report["collapse"]["j"]
        # the reported collapse re-verifies exactly
        from fskit.probe import kappa_omega

        assert equals(kappa_omega(cls, word), make_eppm(pieces=[Piece("", "1" * j)]))
        # the paper's length-10 witness also collapses with j = 9
        assert is_power_of_a1(kappa_omega(cls, "ab" * 5)) == 9
        # the first collapse is the paper's witness with its leading a
        # cancelled, one power of A1 lower; see the module docstring
        assert (word, j) == ("babababab", 8)
        assert "a" + word == "ab" * 5
        assert j + 1 == is_power_of_a1(kappa_omega(cls, "ab" * 5)) == 9
        # independent of fskit.eppm / fskit.dynamics: word maps p to 1^j.p
        rng = random.Random(1)
        signed = tuple(("A1" if ch == cls.colour_a else "B1", 1) for ch in word)
        for _ in range(200):
            p = random_point(rng)
            image = stream_oracle.apply_word(cls, signed, p)
            assert image == p.prepend("1" * j), str(p)


def test_criterion_2_simple_probe(tmp_path, capsys):
    with criterion(2, 30.0, "no collapse for a1 a1 a3 = b1 b2 b3 up to length 8"):
        cls = vine_class(J3_TEXT)
        path = tmp_path / "j3.fsp"
        path.write_text(J3_TEXT)
        code = cli_main(["check-simple", str(path), "--max-len", "8"])
        out = capsys.readouterr().out
        assert code == 0
        report = json.loads(out)
        assert report["outcome"] == "NoCollapseUpTo"
        assert report["inconclusive"] == []
        for w in enumerate_good_words(cls, 6):
            assert certificate_check(cls, w), w


def test_criterion_3_b1_shift_law():
    with criterion(3, 5.0, "B1 shift law and tail preservation"):
        rng = random.Random(3)
        for text in (J3_TEXT, NONSIMPLE4_TEXT):
            cls = vine_class(text)
            b1 = b1_of(cls)
            points = [random_point(rng) for _ in range(100)]
            for i in range(1, 51):
                w_i = stream_oracle.tree_leaf(cls, i)
                w_next = stream_oracle.tree_leaf(cls, i + 1)
                for q in points:
                    assert evaluate(b1, q.prepend(w_i)) == q.prepend(w_next)
        # tail preservation on 1000 random points not of tail (1)^inf
        cls = vine_class(J3_TEXT)
        b1 = b1_of(cls)
        checked = 0
        while checked < 1000:
            p = random_point(rng)
            if p.has_tail("1"):
                continue
            assert tail_equivalent(evaluate(b1, p), p)
            checked += 1
        assert evaluate(b1, parse_point("(1)")) == parse_point("(1)")


def test_criterion_4_prune_identities():
    with criterion(4, 5.0, "prune identities A0^L = B0 and A1^R = B1^M on the corpus"):
        assert len(CORPUS) >= 6
        for name, text in CORPUS.items():
            cls = vine_class(text)
            a0 = caret_map(cls, cls.colour_a, 0)
            a1 = caret_map(cls, cls.colour_a, 1)
            b0 = caret_map(cls, cls.colour_b, 0)
            b1 = b1_of(cls)
            assert equals(power(a0, cls.L_x), b0), name
            assert equals(power(a1, cls.R_x), power(b1, cls.M)), name
        # the caret cell's identity is A1^2 = B1^3, the Cleary one A1 = B1^2
        assert vine_class(J3_TEXT).R_x == 2 and vine_class(J3_TEXT).M == 3
        assert vine_class(CLEARY2_TEXT).R_x == 1 and vine_class(CLEARY2_TEXT).M == 2


def test_criterion_5_abelianisation():
    with criterion(5, 1.0, "abelianisation invariants across the families"):
        for n in range(2, 7):
            got = abelianisation(parse_presentation(g_text(n)))
            assert got == AbelianInvariants(0, (n,)), f"G with n_t={n}: {got}"
        for m in range(4, 9):
            got = abelianisation(parse_presentation(j_text(m)))
            assert got == AbelianInvariants(0, (m,)), f"J with m_s={m}: {got}"
        for k in range(2, 6):
            got = abelianisation(parse_presentation(h_text(k)))
            assert got == AbelianInvariants(k - 1, ()), f"H_{k}: {got}"
        assert abelianisation(parse_presentation("colors a\n")) == AbelianInvariants(
            0, ()
        )


def test_criterion_6_germ_presentations():
    with criterion(6, 1.0, "germ presentations by last-leaf pruning"):
        for m in range(4, 9):
            out = germ_presentation(parse_presentation(j_text(m)), End.LAST)
            assert str(out) == f"< a, b | a^2 = b^{m} >"
        for n in range(2, 7):
            out = germ_presentation(parse_presentation(g_text(n)), End.LAST)
            assert str(out) == f"< a, b | a = b^{n} >"


def test_criterion_7_oracle_equivalence():
    with criterion(7, 60.0, "Eppm evaluation matches the stream oracle"):
        rng = random.Random(7)
        classes = [vine_class(J3_TEXT), vine_class(NONSIMPLE4_TEXT)]
        # 500 random signed words of length <= 10
        for k in range(500):
            cls = classes[k % 2]
            w = random_signed_word(rng, rng.randint(1, 10))
            f = evaluate_word(cls, w)
            for _ in range(20):
                p = random_point(rng)
                try:
                    expected = stream_oracle.apply_word(cls, w, p)
                except stream_oracle.OracleUndefined:
                    try:
                        evaluate(f, p)
                        raise AssertionError(f"{w} defined at {p}, oracle not")
                    except UndefinedAt:
                        continue
                assert evaluate(f, p) == expected, (w, str(p))
        # 500 random fractions with trees of <= 8 carets
        for k in range(500):
            cls = classes[k % 2]
            s = random_tree(rng, rng.randint(1, 8))
            t = random_tree(rng, leaf_count(s) - 1)
            perm = list(range(1, leaf_count(s) + 1))
            rng.shuffle(perm)
            perm = tuple(perm)
            f = evaluate_fraction(cls, t, perm, s)
            for _ in range(20):
                p = random_point(rng)
                assert evaluate(f, p) == stream_oracle.apply_fraction(
                    cls, t, perm, s, p
                ), (t, perm, s, str(p))


def test_criterion_8_group_laws():
    with criterion(8, 30.0, "group laws at the canonical level"):
        rng = random.Random(8)
        cls = vine_class(J3_TEXT)
        # w.w^-1 for 200 random words: the partial identity on ran(w), and
        # the full identity whenever w represents a total bijection
        for _ in range(200):
            w = random_signed_word(rng, rng.randint(1, 10))
            f = evaluate_word(cls, w)
            h = evaluate_word(cls, w + tuple((t, -e) for t, e in reversed(w)))
            assert is_identity_on_domain(h)
            assert region_equal(h, invert(f))
            if is_total(f) and is_total(invert(f)):
                assert equals(h, IDENTITY)
        # associativity, extensionally, on 100 random triples
        for _ in range(100):
            f, g, h = (
                evaluate_word(cls, random_signed_word(rng, rng.randint(0, 5)))
                for _ in range(3)
            )
            assert equals(compose(compose(f, g), h), compose(f, compose(g, h)))
        # invert is an involution
        for _ in range(100):
            f = evaluate_word(cls, random_signed_word(rng, rng.randint(0, 6)))
            assert canonicalize(invert(invert(f))) == canonicalize(f)


def test_criterion_9_pl_rendering():
    with criterion(9, 5.0, "infinite-PL rendering of [Y_b, id, Y_a]"):
        from fskit.forest import build_tree, parse_caret_word

        cls = vine_class(J3_TEXT)
        f = evaluate_fraction(
            cls,
            build_tree(parse_caret_word("b1")),
            (1, 2),
            build_tree(parse_caret_word("a1")),
        )
        m = to_interval_map(f, 12)
        first = m.pieces[0]
        assert (value(first.left), value(first.right)) == (0, 0.5)
        assert first.slope_exp == -1
        bps = breakpoints(m)
        assert len(bps) > 10
        # all dyadic by construction (Dyadic type); unique accumulation at 1
        assert m.accumulation_points == tuple([m.accumulation_points[0]])
        assert value(m.accumulation_points[0]) == 1
        # fixed points accumulate at 1 within the window
        from fractions import Fraction

        pts = [x for kind, *rest in fixed_points(m) if kind == "point" for x in rest]
        assert sum(1 for x in pts if x > 1 - Fraction(1, 256)) >= 2
        # every rendered endpoint matches exact evaluation
        for piece in m.pieces:
            width = value(piece.right) - value(piece.left)
            depth = width.denominator.bit_length() - 1
            prefix = format(int(value(piece.left) * 2**depth), f"0{depth}b")
            lo = evaluate(f, ev_periodic(prefix, "0")).to_fraction()
            hi = evaluate(f, ev_periodic(prefix, "1")).to_fraction()
            assert apply(piece, value(piece.left)) == lo
            assert apply(piece, value(piece.right)) == hi
        # golden CSV, byte-identical across runs
        csv1 = emit_csv(m)
        csv2 = emit_csv(to_interval_map(f, 12))
        assert csv1 == csv2
        golden = GOLDEN / "yb_ya_j3_depth12.csv"
        assert csv1 == golden.read_text()


def test_criterion_10_fge_behaviour():
    with criterion(10, 10.0, "singular sets are finite, and empty iff x = rho"):
        rng = random.Random(10)
        for name, text in CORPUS.items():
            cls = vine_class(text)
            b1 = b1_of(cls)
            sing_b1 = singular_points(b1)
            if is_vine_pair(cls):
                assert sing_b1 == (), name
            else:
                assert sing_b1 == (parse_point("(1)"),), name
        # 50 random elements per corpus entry stay finite; all empty for x=rho
        for name, text in CORPUS.items():
            cls = vine_class(text)
            for _ in range(50):
                s = random_tree(rng, rng.randint(1, 5))
                t = random_tree(rng, leaf_count(s) - 1)
                perm = list(range(1, leaf_count(s) + 1))
                rng.shuffle(perm)
                f = evaluate_fraction(cls, t, tuple(perm), s)
                sing = singular_points(f)
                assert isinstance(sing, tuple)  # finite by representation
                assert all(q.has_tail("1") for q in sing)
                if is_vine_pair(cls):
                    assert sing == (), name
