"""Command-line front end.

Subcommands operate on a presentation file (DSL: `colors a b` then
`rel <caret word> = <caret word>` lines) and element expressions, which are
either signed generator words (`A1 B1^-1`) or fractions
(`[ b1 | id | a1 ]`).

Exit codes: 0 success; 1 usage or parse error, `error:` on stderr (a bad
option or point, a missing file, a directory or other path that cannot be
read or written, a fraction literal or generator token that does not
parse, check-simple --max-len < 1, plot --depth < 0 and svg plot --width
or --height < 1); 2 invalid input, `invalid:` on stderr (a presentation
that does not parse or validate, a malformed caret token or leaf index in
a fraction or a `rel` line, classify-element or compare on a map that is
not a bijection), and eval at a point outside the map's domain, which
prints `undefined at <p>`; 10 check-simple found a collapse.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from . import dynamics, plrender, probe as probe_mod
from .eppm import EppmError, UndefinedAt, canonicalize, equals, evaluate
from .forest import End, ForestError
from .presentation import (
    GENERAL,
    PresentationError,
    SkeinPresentation,
    abelianisation,
    classify,
    germ_presentation,
    parse_presentation,
    require_class,
    validate,
)
from .sequences import parse_point

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID = 2
EXIT_COLLAPSE = 10


def _element(p: SkeinPresentation, text: str):
    return dynamics.parse_element(require_class(p), text)


def cmd_validate(p: SkeinPresentation, args) -> int:
    validate(p)
    print("ok")
    return EXIT_OK


def cmd_classify(p: SkeinPresentation, args) -> int:
    cls = classify(p)
    if cls is GENERAL:
        print("General")
    else:
        print(
            f"TwoColourRightVine L_x={cls.L_x} R_x={cls.R_x} M={cls.M} n={cls.n} "
            f"leaves={','.join(cls.leaves)}"
        )
    return EXIT_OK


def cmd_abelianize(p: SkeinPresentation, args) -> int:
    inv = abelianisation(p)
    if args.json:
        print(json.dumps({"rank": inv.rank, "torsion": list(inv.torsion)}))
    else:
        print(f"abelianisation of the T/V-type groups: {inv}")
    return EXIT_OK


def cmd_germs(p: SkeinPresentation, args) -> int:
    end = End.FIRST if args.end == "first" else End.LAST
    out = germ_presentation(p, end)
    if args.json:
        print(
            json.dumps(
                {
                    "generators": list(out.generators),
                    "relators": [[list(l), list(r)] for l, r in out.relators],
                }
            )
        )
    else:
        print(str(out))
    return EXIT_OK


def cmd_check_simple(p: SkeinPresentation, args) -> int:
    cls = require_class(p)
    report = probe_mod.probe(cls, args.max_len, presentation_name=p.name)
    print(report.to_json())
    return EXIT_COLLAPSE if report.outcome == "CollapseFound" else EXIT_OK


def cmd_eval(p: SkeinPresentation, args) -> int:
    f = _element(p, args.element)
    point = parse_point(args.point)
    try:
        image = evaluate(f, point)
    except UndefinedAt:
        print(f"undefined at {point}")
        return EXIT_INVALID
    print(str(image))
    return EXIT_OK


def _two_elements(args):
    if len(args.elements) != 2:
        raise ValueError("need exactly two -e expressions")
    return args.elements


def cmd_equal(p: SkeinPresentation, args) -> int:
    e1, e2 = _two_elements(args)
    f = _element(p, e1)
    g = _element(p, e2)
    print("equal" if equals(f, g) else "different")
    return EXIT_OK


def cmd_canon(p: SkeinPresentation, args) -> int:
    print(str(canonicalize(_element(p, args.element))))
    return EXIT_OK


def cmd_classify_element(p: SkeinPresentation, args) -> int:
    print(dynamics.classify_element(_element(p, args.element)))
    return EXIT_OK


def cmd_singular(p: SkeinPresentation, args) -> int:
    pts = dynamics.singular_points(_element(p, args.element))
    if args.json:
        print(json.dumps([str(q) for q in pts]))
    else:
        print(" ".join(str(q) for q in pts) if pts else "none")
    return EXIT_OK


def cmd_compare(p: SkeinPresentation, args) -> int:
    e1, e2 = _two_elements(args)
    f = _element(p, e1)
    g = _element(p, e2)
    print(dynamics.bi_order_compare(f, g))
    return EXIT_OK


def cmd_plot(p: SkeinPresentation, args) -> int:
    f = _element(p, args.element)
    if args.kind == "circle":
        m = plrender.to_circle_map(f, args.depth)
    else:
        m = plrender.to_interval_map(f, args.depth)
    if args.format == "csv":
        text = plrender.emit_csv(m)
    else:
        text = plrender.emit_svg(m, args.width, args.height)
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


@cache
def build_parser() -> argparse.ArgumentParser:
    """Built on the first call and reused: parsing keeps no state in it."""
    top = argparse.ArgumentParser(
        prog="fskit",
        description="exact computation with two-colour forest-skein presentations",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        sp = sub.add_parser(name, **kwargs)
        sp.add_argument("presentation", help="presentation file (.fsp)")
        sp.set_defaults(fn=fn)
        return sp

    add("validate", cmd_validate, help="check the presentation invariants")
    add("classify", cmd_classify, help="classify into the supported dynamics class")

    sp = add("abelianize", cmd_abelianize, help="abelianisation of the T/V groups")
    sp.add_argument("--json", action="store_true")

    sp = add("germs", cmd_germs, help="germ-group presentation by pruning")
    sp.add_argument("--end", choices=("first", "last"), required=True)
    sp.add_argument("--json", action="store_true")

    sp = add("check-simple", cmd_check_simple, help="good-word collapse probe")
    sp.add_argument("--max-len", type=int, required=True)

    sp = add("eval", cmd_eval, help="evaluate an element at a point")
    sp.add_argument("-e", "--element", required=True)
    sp.add_argument("-p", "--point", required=True)

    sp = add("equal", cmd_equal, help="decide equality of two elements")
    sp.add_argument("-e", dest="elements", action="append", required=True)

    sp = add("canon", cmd_canon, help="canonical form of an element")
    sp.add_argument("-e", "--element", required=True)

    sp = add("classify-element", cmd_classify_element, help="F/T/V membership")
    sp.add_argument("-e", "--element", required=True)

    sp = add("singular", cmd_singular, help="singular points of an element")
    sp.add_argument("-e", "--element", required=True)
    sp.add_argument("--json", action="store_true")

    sp = add("compare", cmd_compare, help="bi-order comparison of two elements")
    sp.add_argument("-e", dest="elements", action="append", required=True)

    sp = add("plot", cmd_plot, help="exact piecewise-linear rendering")
    sp.add_argument("-e", "--element", required=True)
    sp.add_argument("--depth", type=int, default=12)
    sp.add_argument("--format", choices=("csv", "svg"), default="csv")
    sp.add_argument("--kind", choices=("interval", "circle"), default="interval")
    sp.add_argument("--width", type=int, default=512)
    sp.add_argument("--height", type=int, default=512)
    sp.add_argument("-o", "--output")

    return top


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        with open(args.presentation, "r", encoding="utf-8") as fh:
            p = parse_presentation(fh.read(), name=args.presentation)
        return args.fn(p, args)
    except (OSError, ValueError) as exc:
        # a PointSyntaxError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (PresentationError, ForestError, EppmError) as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return EXIT_INVALID
