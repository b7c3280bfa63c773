"""fskit benchmark: one command for the probe, algebra and render workloads.

    python3 perfbench/run.py --workload probe --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; fskit is imported from src/.  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end metrics, the same four on every workload; with --trace 1 they
are the per-layer metrics of a traced run and its overhead.  Figures per
operation kind, details and spans go to .perfbench-out/.  See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
SETUP_REPEATS = 31
# the percentile each operation kind's _tail figure reports; the
# workload's min_rounds guarantee at least ten samples beyond it
TAIL = {"compose_ms": 98, "equal_ms": 90, "plot_ms": 95}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("probe", "algebra", "render"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup(presentations: list[Path]) -> float:
    """Median time from starting a fresh interpreter until it has imported
    fskit and read and classified the presentations."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(HERE / "fresh.py"), *map(str, presentations)],
            stdout=subprocess.PIPE,
            text=True,
        ) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up child failed with exit code {proc.returncode}")
        times.append(elapsed)
    return statistics.median(times)


def percentile(samples: list[float], q: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[math.ceil(q / 100 * len(ordered)) - 1]


def end_to_end(rec, round_s: list[float], setup_s: float, peak_rss_mb: float) -> dict:
    """The metrics every workload reports.  op_ms_p50 is the median of all
    the run's successful operations; round_s the median over rounds of the
    time spent in one round's timed operations, failed ones included."""
    samples = [x for kind in rec.samples.values() for x in kind]
    return {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "op_ms_p50": (statistics.median(samples) * 1e3, "ms"),
        "round_s": (statistics.median(round_s), "s"),
    }


def operation_figures(rec) -> dict:
    """Figures per operation kind, for the details file."""
    metrics = {}
    # samples named *_s report their median in seconds, the others their
    # median and their tail in milliseconds; the tail needs ten samples
    # beyond it, which min_rounds guarantees unless most operations fail
    for name, samples in rec.samples.items():
        if not samples:
            continue
        if name.endswith("_s"):
            metrics[name] = (statistics.median(samples), "s")
            continue
        ms = [x * 1e3 for x in samples]
        metrics[f"{name}_p50"] = (statistics.median(ms), "ms")
        if name in TAIL:
            q = TAIL[name]
            if len(ms) - math.ceil(q / 100 * len(ms)) >= 10:
                metrics[f"{name}_tail"] = (percentile(ms, q), "ms")
            else:
                print(f"warning: {len(ms)} {name} samples are too few for p{q}", file=sys.stderr)
    return metrics


def fits(start: float, done: int, seconds: float) -> bool:
    """Whether one more of `done` equal steps begun at `start` ends within
    `seconds`, judged by their mean length so far."""
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / done <= seconds


def run_untraced(workload, seconds: float):
    from workloads import Recorder

    rec = Recorder()
    round_s = []
    start = time.perf_counter()
    while len(round_s) < workload.min_rounds or fits(start, len(round_s), seconds):
        before = rec.spent
        workload.run_round(len(round_s), rec)
        round_s.append(rec.spent - before)
        gc.collect()
    return rec, round_s


def run_traced(workload, seconds: float):
    """Passes over the same traced_rounds rounds, each once untraced and
    once traced, while another pass fits in `seconds`.  Counts come from
    one pass (every pass repeats them); times are medians over passes."""
    from spans import Summary, Tracer
    from workloads import Recorder

    tracer = Tracer()
    plain, traced = Recorder(), Recorder(tracer=tracer)
    passes = []
    start = time.perf_counter()
    tracer.install()
    try:
        while not passes or fits(start, len(passes), seconds):
            before = plain.spent
            for r in range(workload.traced_rounds):
                workload.run_round(r, plain)
            untraced_s = plain.spent - before
            gc.collect()
            before = traced.spent
            first = len(tracer.spans)
            calls_before = tracer.counts["sequences.ev_periodic"]
            for r in range(workload.traced_rounds):
                workload.run_round(r, traced)
            traced_s = traced.spent - before
            summary = Summary(tracer, first, len(tracer.spans))
            summary.calls["sequences.ev_periodic"] = (
                tracer.counts["sequences.ev_periodic"] - calls_before
            )
            passes.append((summary, untraced_s, traced_s))
            gc.collect()
    finally:
        tracer.uninstall()
    return tracer, plain, traced, passes


def per_layer(passes) -> tuple[dict, bool]:
    """Times of the eppm functions, which every workload calls, are in
    seconds.  Times of layers that only some workloads call are a share of
    the traced operations' time, in percent: they read 0 where unused."""

    def per_pass(summary, untraced_s, traced_s) -> dict:
        calls, self_s, incl = summary.calls, summary.self_s, summary.inclusive_s

        def mean(values):
            return sum(values) / len(values) if values else 0.0

        def pct(seconds):
            return (100 * seconds / traced_s, "%")

        words = calls.get("probe.kappa_omega", 0)
        equals_calls = calls.get("eppm.equals", 0)
        return {
            "probe.kappa_omega.pct": pct(incl.get("probe.kappa_omega", 0.0)),
            "probe.compose_per_word": (
                summary.parent_calls.get(("probe.kappa_omega", "eppm.compose"), 0) / words
                if words else 0.0,
                "calls/word",
            ),
            "presentation.enumerate_good_words.pct": pct(
                incl.get("presentation.enumerate_good_words", 0.0)
            ),
            "eppm.compose.calls": (calls.get("eppm.compose", 0), "count"),
            "eppm.compose.self_s": (self_s.get("eppm.compose", 0.0), "s"),
            "eppm.compose.out_atoms_mean": (
                mean(summary.sizes.get("eppm.compose", [])), "atoms"
            ),
            "eppm.restrict.calls": (calls.get("eppm.restrict", 0), "count"),
            "eppm.restrict.self_s": (self_s.get("eppm.restrict", 0.0), "s"),
            "eppm.canonicalize.calls": (calls.get("eppm.canonicalize", 0), "count"),
            "eppm.canonicalize.self_s": (self_s.get("eppm.canonicalize", 0.0), "s"),
            "eppm.region_subset.calls": (calls.get("eppm.region_subset", 0), "count"),
            "eppm.region_subset.self_s": (self_s.get("eppm.region_subset", 0.0), "s"),
            "eppm.equals.calls": (equals_calls, "count"),
            "eppm.equals.canonical_hit_ratio": (
                1 - summary.equals_with_region_walk / equals_calls if equals_calls else 0.0,
                "ratio",
            ),
            "dynamics.evaluate_fraction.pct": pct(incl.get("dynamics.evaluate_fraction", 0.0)),
            "dynamics.is_order_preserving.pct": pct(
                incl.get("dynamics.is_order_preserving", 0.0)
            ),
            "dynamics.is_cyclic_order_preserving.pct": pct(
                incl.get("dynamics.is_cyclic_order_preserving", 0.0)
            ),
            "sequences.ev_periodic.calls": (calls.get("sequences.ev_periodic", 0), "count"),
            "plrender.to_map.self_pct": pct(
                self_s.get("plrender.to_interval_map", 0.0)
                + self_s.get("plrender.to_circle_map", 0.0)
            ),
            "plrender.emit_svg.pct": pct(incl.get("plrender.emit_svg", 0.0)),
            "plrender.pieces_per_plot": (
                mean(
                    summary.sizes.get("plrender.to_interval_map", [])
                    + summary.sizes.get("plrender.to_circle_map", [])
                ),
                "pieces",
            ),
            "cli.main.self_pct": pct(self_s.get("cli.main", 0.0)),
            "trace.overhead_pct": (100 * (traced_s / untraced_s - 1), "%"),
        }

    rows = [per_pass(*p) for p in passes]
    metrics = {}
    repeats = True
    for name, (value, unit) in rows[0].items():
        values = [row[name][0] for row in rows]
        if unit in ("s", "%"):
            metrics[name] = (statistics.median(values), unit)
        else:
            metrics[name] = (value, unit)
            repeats = repeats and all(v == value for v in values)
    return metrics, repeats


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [
        p for p in (ROOT / "src" / "fskit" / "__init__.py", ROOT / "tests" / "stream_oracle.py")
        if not p.is_file()
    ]
    if missing:
        print(f"error: run from a checkout of fskit; missing {missing[0]}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS, presentation_path

    workload = WORKLOADS[args.workload](ROOT, args.seed)
    label = f"{args.workload}-seed{args.seed}" + ("-trace" if args.trace else "")
    details = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds}

    if args.trace:
        tracer, plain, traced, passes = run_traced(workload, args.seconds)
        metrics, repeats = per_layer(passes)
        tracer.write(OUT / f"spans-{label}.json")
        recs = (plain, traced)
        details.update(passes=len(passes), counts_repeat=repeats, spans=len(tracer.spans))
        if not repeats:
            print("warning: per-layer counts differ between passes", file=sys.stderr)
    else:
        setup_s = measure_setup([presentation_path(n) for n in workload.presentations])
        rec, round_s = run_untraced(workload, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = end_to_end(rec, round_s, setup_s, peak_rss_mb)
        recs = (rec,)
        figures = operation_figures(rec)
        for name, (value, unit) in figures.items():
            print(f"{name}: {value:.4f} {unit}", file=sys.stderr)
        details.update(
            rounds=len(round_s),
            samples={k: len(v) for k, v in rec.samples.items()},
            operations={name: {"value": v, "unit": u} for name, (v, u) in figures.items()},
        )

    wrong = [w for rec in recs for w in rec.wrong]
    for message in wrong[:10]:
        print(f"wrong: {message}", file=sys.stderr)
    result = {
        "correct": not wrong,
        "attempted": sum(rec.attempted for rec in recs),
        "failed": sum(rec.failed for rec in recs),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    details.update(result, wrong=wrong, redrawn=getattr(workload, "redrawn", 0))
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{label}.json").write_text(json.dumps(details, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
