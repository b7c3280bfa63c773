"""Self-test of the benchmark's checkers: each must reject a deliberately
corrupted answer, and accept the true one.

    python3 perfbench/selftest.py

Exits 0 when every checker behaves, 1 otherwise.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
from fskit import eppm  # noqa: E402
from workloads import Algebra, Probe, Recorder, Render, presentation_path, run_cli  # noqa: E402

failures = []


def expect(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def probe_checks() -> None:
    probe = Probe(ROOT, seed=1)
    ns4 = probe.expected_report("nonsimple4", 10)
    j3 = probe.expected_report("j3", 12)
    expect(
        ns4["collapse"] == {"word": "babababab", "j": 8} and ns4["tested"] == 462,
        "oracle: nonsimple4 first collapse babababab, j = 8, after 462 words",
    )
    expect(j3["outcome"] == "NoCollapseUpTo" and j3["tested"] == 401,
           "oracle: j3 refutes all 401 good words up to length 12")
    cls = probe.classes["nonsimple4"]
    expect(
        oracle.power_of_a1_witness(probe.oracle, cls, "ababababab", probe.points) == (False, 9),
        "oracle: the paper's witness ababababab collapses with j = 9",
    )

    code, out, _ = run_cli(["check-simple", str(presentation_path("nonsimple4")), "--max-len", "10"])
    report = json.loads(out)
    expect(code == 10 and oracle.check_probe_report(report, ns4) is None,
           "probe checker accepts the true nonsimple4 report")
    corrupted = dict(report, collapse={"word": "babababab", "j": 9})
    expect(oracle.check_probe_report(corrupted, ns4) is not None,
           "probe checker rejects a wrong j")
    corrupted = dict(report, tested=report["tested"] - 1)
    expect(oracle.check_probe_report(corrupted, ns4) is not None,
           "probe checker rejects a wrong tested count")
    corrupted = dict(report, collapse={"word": "ababababab", "j": 9})
    expect(oracle.check_probe_report(corrupted, ns4) is not None,
           "probe checker rejects a later collapse word")
    corrupted = dict(report, outcome="NoCollapseUpTo")
    del corrupted["collapse"]
    expect(oracle.check_probe_report(corrupted, ns4) is not None,
           "probe checker rejects a missed collapse")


def algebra_checks() -> None:
    algebra = Algebra(ROOT, seed=1)
    algebra.sizes = (4,)
    rec = Recorder()
    algebra.run_round(0, rec)
    expect(rec.attempted > 0 and not rec.wrong and rec.failed == 0,
           "algebra checker accepts true answers")

    original = eppm.equals
    eppm.equals = lambda f, g: not original(f, g)
    try:
        rec = Recorder()
        algebra.run_round(0, rec)
    finally:
        eppm.equals = original
    flipped = [w for w in rec.wrong if "equals answered" in w]
    expect(len(flipped) == 3 * len(algebra.presentations),
           "algebra checker rejects every flipped equals answer")

    original_compose = eppm.compose

    def off_by_one(f, g):
        # composes one extra A1 in front: a different map of the same shape
        return original_compose(eppm.make_eppm([eppm.Piece("", "1")]), original_compose(f, g))

    eppm.compose = off_by_one
    try:
        rec = Recorder()
        algebra.run_round(0, rec)
    finally:
        eppm.compose = original_compose
    expect(any("product at" in w for w in rec.wrong),
           "algebra checker rejects a wrong product at its spot-check points")


def render_checks() -> None:
    render = Render(ROOT, seed=1)
    cls = render.classes["j3"]
    rng = render.rng(0, "elements")
    for kind in ("interval", "circle"):
        frac = render.random_element(cls, kind, rng)
        argv = ["plot", str(presentation_path("j3")), "-e", frac.literal,
                "--format", "svg", "--kind", kind, "--depth", str(render.depth)]
        code, svg, _ = run_cli(argv)
        check = lambda text: oracle.check_svg(text, render.oracle, cls, frac, kind, render.depth)  # noqa: E731
        expect(code == 0 and check(svg) is None, f"render checker accepts a true {kind} map")

        lines = re.findall(r'<line [^>]*stroke="black"[^>]*/>', svg)
        target = lines[len(lines) // 2]
        for attr in ("x1", "y2"):
            value = re.search(f'{attr}="([-0-9.]+)"', target).group(1)
            shifted = target.replace(f'{attr}="{value}"', f'{attr}="{float(value) + 0.5:.9f}"')
            expect(check(svg.replace(target, shifted)) is not None,
                   f"render checker rejects a shifted {attr} piece endpoint ({kind})")
        expect(check(svg.replace(target + "\n", "")) is not None,
               f"render checker rejects a missing piece ({kind})")

    predicted = [
        (name, literal)
        for name, _, literal in Render.dyadic_fault
        if any(
            oracle.has_even_integer_intercept(u, v)
            for u, v in oracle.fraction_pieces(
                render.classes[name], oracle.FractionLiteral(literal), render.depth + 12
            )
        )
    ]
    expect(len(predicted) == len(Render.dyadic_fault),
           "cone pushing predicts the dyadic fault on the fixed failing elements")


def main() -> int:
    probe_checks()
    algebra_checks()
    render_checks()
    print(f"{len(failures)} checker self-test(s) failed" if failures else "all checker self-tests passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
