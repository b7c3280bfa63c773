"""The three workloads: probe, algebra and render.

Each workload is a closed loop with one caller: operations run back to
back in one process.  A run repeats whole rounds; every round attempts the
same operations, so the share of failed operations does not depend on the
seed or the run length.  Round r draws its inputs from (seed, r).
Outputs are checked after each round, outside the timed calls, against
perfbench.oracle.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

import oracle
from spans import Tracer
# fskit functions are looked up on their modules at call time, so that a
# tracer's wrappers see the calls
from fskit import cli, dynamics, eppm
from fskit.presentation import classify, parse_presentation

PRESENTATIONS = Path(__file__).resolve().parent / "presentations"


@dataclass
class Recorder:
    """Timed samples per metric, and the operation tally of a run."""

    samples: dict[str, list[float]] = field(default_factory=dict)
    # seconds in all timed calls, failed ones included
    spent: float = 0.0
    attempted: int = 0
    failed: int = 0
    wrong: list[str] = field(default_factory=list)
    tracer: Tracer | None = None

    def call(self, metric: str, fn, *args):
        """Time one operation; its samples are kept in seconds.  With a
        tracer, the operation is a root span and tracing is on inside it."""
        self.attempted += 1
        tracer = self.tracer
        if tracer is not None:
            root = tracer.open(tracer.name_id(f"op.{metric}"))
            tracer.active = True
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            elapsed = time.perf_counter() - start
            self.spent += elapsed
            self.samples.setdefault(metric, []).append(elapsed)
            if tracer is not None:
                tracer.active = False
                tracer.close(root)

    def drop_last_sample(self, metric: str) -> None:
        """A failed operation does not count in its metric's latency."""
        self.samples[metric].pop()

    def fail(self, message: str | None = None) -> None:
        """Count an operation as failed; a message marks a wrong output."""
        self.failed += 1
        if message is not None:
            self.wrong.append(message)


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def presentation_path(name: str) -> Path:
    return PRESENTATIONS / f"{name}.fsp"


def load_class(name: str):
    path = presentation_path(name)
    return classify(parse_presentation(path.read_text(encoding="utf-8"), str(path)))


class Workload:
    name = ""
    presentations: tuple[str, ...] = ()
    min_rounds = 1
    # rounds in one pass of a traced run
    traced_rounds = 1

    def __init__(self, root: Path, seed: int):
        self.seed = seed
        self.oracle = oracle.load_stream_oracle(root)
        self.classes = {name: load_class(name) for name in self.presentations}

    def rng(self, round_index: int, purpose: str) -> random.Random:
        return random.Random(f"{self.name}:{purpose}:{self.seed}:{round_index}")

    def run_round(self, r: int, rec: Recorder) -> None:
        raise NotImplementedError


# ---------------------------------------------------------------------------


class Probe(Workload):
    """In-process `fskit check-simple`, serially, on two presentations."""

    name = "probe"
    presentations = ("nonsimple4", "j3")
    cases = (
        ("nonsimple4", 10, "collapse_verdict_s"),
        ("j3", 12, "no_collapse_verdict_s"),
    )
    min_rounds = 2

    def __init__(self, root: Path, seed: int):
        super().__init__(root, seed)
        rng = self.rng(0, "points")
        self.points = [oracle.random_point(rng) for _ in range(200)]
        self.expected: dict[str, dict] = {}

    def expected_report(self, name: str, max_len: int) -> dict:
        if name not in self.expected:
            self.expected[name] = oracle.expected_probe_report(
                self.oracle, self.classes[name], max_len, self.points
            )
        return self.expected[name]

    def run_round(self, r: int, rec: Recorder) -> None:
        for name, max_len, metric in self.cases:
            argv = ["check-simple", str(presentation_path(name)), "--max-len", str(max_len)]
            code, out, _ = rec.call(metric, run_cli, argv)
            expected = self.expected_report(name, max_len)
            want_code = 10 if expected["outcome"] == "CollapseFound" else 0
            try:
                report = json.loads(out)
            except json.JSONDecodeError:
                rec.fail(f"probe {name}: no JSON report (exit {code})")
                continue
            problem = oracle.check_probe_report(report, expected)
            if problem is None and code != want_code:
                problem = f"exit code {code}, expected {want_code}"
            if problem is not None:
                rec.fail(f"probe {name}: {problem}")


# ---------------------------------------------------------------------------


class Algebra(Workload):
    """Parse, compose and compare products of k random fractions.

    A case draws fractions f_1..f_k and one more fraction g that the oracle
    shows acts differently from f_k.  Its timed operations:
      - parse each of the k + 1 literals (fraction_ms);
      - left-fold P = f_1 o ... o f_k, and P' = (f_1 o ... o f_{k-1}) o g;
      - Q = (f_1 o ... o f_{k-2}) o (f_{k-1} o f_k), a second bracketing;
      - fold P o f_k^-1 o ... o f_1^-1 back to the identity (compose_ms);
      - equals(P o P^-1, id), equals(P, Q) and equals(P, P') (equal_ms),
        whose answers are True, True and False by the group laws and the
        oracle's witness point."""

    name = "algebra"
    presentations = ("j3", "nonsimple4", "cleary2")
    sizes = (4, 12)
    max_carets = 3
    min_rounds = 6
    traced_rounds = 2

    def random_fraction(self, rng: random.Random) -> oracle.FractionLiteral:
        carets = rng.randint(1, self.max_carets)
        perm = list(range(1, carets + 2))
        rng.shuffle(perm)
        t = oracle.random_caret_word(rng, carets)
        s = oracle.random_caret_word(rng, carets)
        return oracle.FractionLiteral(oracle.fraction_literal(t, tuple(perm), s))

    def run_round(self, r: int, rec: Recorder) -> None:
        rng = self.rng(r, "fractions")
        for name in self.presentations:
            for k in self.sizes:
                label = f"{name} k={k} round {r}"
                try:
                    self.run_case(self.classes[name], k, rng, rec, label)
                except Exception as exc:  # the rest of the case depends on it
                    rec.fail(f"{label}: {type(exc).__name__}: {exc}")

    def run_case(self, cls, k: int, rng: random.Random, rec: Recorder, label: str) -> None:
        factors = [self.random_fraction(rng) for _ in range(k)]
        points = [oracle.random_point(rng) for _ in range(3)]
        other, witness = self.differing_fraction(cls, factors[-1], rng)

        maps = [rec.call("fraction_ms", dynamics.parse_element, cls, f.literal) for f in factors]
        g = rec.call("fraction_ms", dynamics.parse_element, cls, other.literal)
        for f, m in zip(factors + [other], maps + [g]):
            self.spot_check(rec, cls, m, [f], points[:1], f"{label}: parse {f.literal}")

        prefix = [maps[0]]
        for m in maps[1:]:
            prefix.append(rec.call("compose_ms", eppm.compose, prefix[-1], m))
        product = prefix[-1]
        replaced = rec.call("compose_ms", eppm.compose, prefix[-2], g)
        pair = rec.call("compose_ms", eppm.compose, maps[-2], maps[-1])
        rebracketed = rec.call("compose_ms", eppm.compose, prefix[-3], pair)
        back = product
        for m in reversed(maps):
            back = rec.call("compose_ms", eppm.compose, back, eppm.invert(m))
        self.spot_check(rec, cls, product, factors, points, f"{label}: product")
        self.spot_check(
            rec, cls, replaced, factors[:-1] + [other], [witness], f"{label}: replaced"
        )

        for lhs, rhs, want, what in (
            (back, eppm.IDENTITY, True, "P o P^-1 = id"),
            (product, rebracketed, True, "P = Q"),
            (product, replaced, False, "P != P'"),
        ):
            if rec.call("equal_ms", eppm.equals, lhs, rhs) != want:
                rec.fail(f"{label}: equals answered {not want} for {what}")

    def differing_fraction(self, cls, f, rng: random.Random):
        """A random fraction g and a point at which the oracle shows that g
        and f act differently."""
        while True:
            g = self.random_fraction(rng)
            for _ in range(8):
                p = oracle.random_point(rng)
                if g.apply(self.oracle, cls, p) != f.apply(self.oracle, cls, p):
                    return g, p

    def spot_check(self, rec, cls, m, factors, points, label: str) -> None:
        for p in points:
            want = oracle.product_image(self.oracle, cls, factors, p)
            try:
                got = eppm.evaluate(m, p)
            except Exception as exc:  # any error here is a wrong map
                got = f"{type(exc).__name__}: {exc}"
            if got != want:
                rec.fail(f"{label} at {p}: got {got}, oracle {want}")
                return


# ---------------------------------------------------------------------------


class Render(Workload):
    """In-process `fskit plot --format svg` at one depth.

    Per round and presentation: F-type fractions [t | id | s] drawn as
    interval maps and T-type fractions [t | rotation | s] drawn as circle
    maps, then the fixed elements below."""

    name = "render"
    presentations = ("j3", "nonsimple4")
    depth = 12
    per_kind = 6
    max_carets = 6
    min_rounds = 10
    traced_rounds = 4
    # Seed-independent elements that fskit.plrender.dyadic cannot draw: a
    # piece with a non-zero even integer intercept (here 1010 -> 10 and
    # 100 -> 0, slope 4, intercept -2) raises in Dyadic.__post_init__.
    # They fail in every round; their count is the run's `failed`.
    dyadic_fault = (
        ("j3", "interval", "[a1 a1 a3 a4 | id | a1 a2 a2 a3]"),
        ("nonsimple4", "circle", "[a1 a2 | 3 1 2 | a1 b2]"),
    )

    def __init__(self, root: Path, seed: int):
        super().__init__(root, seed)
        self.redrawn = 0

    def random_element(self, cls, kind: str, rng: random.Random) -> oracle.FractionLiteral:
        """A seeded element of the kind; elements whose exact pieces include
        the dyadic fault are redrawn, so failures stay seed-independent."""
        while True:
            carets = rng.randint(1, self.max_carets)
            n = carets + 1
            shift = 0 if kind == "interval" else rng.randint(1, n - 1)
            perm = tuple((j + shift) % n + 1 for j in range(n))
            t = oracle.random_caret_word(rng, carets)
            s = oracle.random_caret_word(rng, carets)
            frac = oracle.FractionLiteral(oracle.fraction_literal(t, perm, s))
            pieces = oracle.fraction_pieces(cls, frac, self.depth + 12)
            if not any(oracle.has_even_integer_intercept(u, v) for u, v in pieces):
                return frac
            self.redrawn += 1

    def run_round(self, r: int, rec: Recorder) -> None:
        rng = self.rng(r, "elements")
        jobs = []
        for name in self.presentations:
            for kind in ("interval", "circle"):
                for _ in range(self.per_kind):
                    frac = self.random_element(self.classes[name], kind, rng)
                    jobs.append((name, kind, frac, False))
        for name, kind, literal in self.dyadic_fault:
            jobs.append((name, kind, oracle.FractionLiteral(literal), True))

        for name, kind, frac, known_fault in jobs:
            argv = [
                "plot", str(presentation_path(name)), "-e", frac.literal,
                "--format", "svg", "--kind", kind, "--depth", str(self.depth),
            ]
            code, out, err = rec.call("plot_ms", run_cli, argv)
            label = f"plot {name} {kind} {frac.literal}"
            if code != 0:
                rec.drop_last_sample("plot_ms")
                if known_fault and "unnormalized dyadic" in err:
                    rec.fail()
                else:
                    rec.fail(f"{label}: exit {code}: {err.strip()}")
                continue
            problem = oracle.check_svg(out, self.oracle, self.classes[name], frac, kind, self.depth)
            if problem is not None:
                rec.fail(f"{label}: {problem}")


WORKLOADS = {w.name: w for w in (Probe, Algebra, Render)}
