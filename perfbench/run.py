#!/usr/bin/env python3
"""vcbent benchmark: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 18 --trace 0
    python3 perfbench/run.py --workload all     # every workload, one process each

It imports the package from the checkout's src/ and nothing else, and needs
no build step.

Workloads (see workloads.py for the inputs and checks):
  scan     exhaustive oracle.all_bent at (3,2), (4,1), (5,1), (6,1)
  classes  class generation, appendix replay, seeded permutation expressions
  large    verdicts on seeded bent and random functions of 256 to 1296
           points, and transform round trips at the largest sizes under the
           3^10 guard
  cli      cold `python -m vcbent` commands, one after another

A run builds the inputs from the seed, warms up (the first op of each kind,
so lazy caches are full), then runs passes over the ops for at least
--seconds.  One closed-loop caller; ops run one at a time.  Every output is
checked outside the timed region.

Times are in reference seconds.  On a shared 2-core Xeon VM the speed of
a core drifted by up to 60% within a minute, so each measured time is
scaled by 1 ms over the median duration of a fixed pure-Python loop
sampled between the ops near the op (REF_* below); the raw seconds are
printed beside the metrics.  The run is pinned to one CPU, which its child
processes inherit, except the `oracle --jobs 2` command of the cli workload.

--trace 0 prints the end-to-end metrics:
  setup_s      script start to the first timed op, median of three set-ups
               (this process and two set-up-only children)
  wall_s       time a typical pass spends in the program's calls: each op
               at its median over the passes, summed
  fn_per_s     functions given a bent / non-bent verdict per second of the
               ops that give verdicts, at those ops' median times
  op_p50_ms    median op latency over the workload's first LATENCY_PASSES
               passes, a fixed number of samples
  op_tail_ms   over the same samples, the highest percentile with at least
               10 ops beyond it; percentile and sample count are printed
  peak_rss_mb  ru_maxrss of this process; for cli, of the largest child

--trace 1 prints the per-layer metrics instead: self time of the spans the
benchmark puts around its own calls into each vcbent module (median over
traced passes, plus one-off calls made during set-up or after the passes),
counts and ratios taken at the same calls, and the tracing overhead
(traced / untraced pass time).  A layer the workload does not call reads 0.
cli.import_s is the child's own clock around `import vcbent`, in seconds.
Spans are written to perfbench/out/ when the run ends.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 0 only when every op was
correct; it is 2 when the checkout holds no vcbent sources.
"""

from __future__ import annotations

from time import perf_counter

START = perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("scan", "classes", "large", "cli")
SETUP_RUNS = 3
TAIL_BEYOND = 10

# A shared core's speed can drift by up to 60% within a minute (seen on a
# 2-core Xeon VM), far more than any bound.  Every time is therefore scaled to reference seconds:
# measured seconds × REF_NOMINAL_S / (median time of a fixed pure-Python
# loop, sampled between the ops within REF_WINDOW_S, or the op's own
# length if longer, on each side of the op).
REF_ITERATIONS = 12_000
REF_NOMINAL_S = 0.001
REF_SLICES = 32  # reference samples per pass (at least 2 per op) and per set-up
REF_WINDOW_S = 0.5

# name: (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "fn_per_s": ("1/s", "higher"),
    "op_p50_ms": ("ms", "lower"),
    "op_tail_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

CLI_COMMANDS = (
    "check",
    "spectrum",
    "spectrum-fast",
    "permute-dense",
    "permute-table",
    "verify-appendix",
    "oracle",
    "oracle-jobs2",
)

PER_LAYER = {
    "mvfunction.construct_s": ("s", "lower"),
    "vctransform.forward_fast_s": ("s", "lower"),
    "vctransform.inverse_s": ("s", "lower"),
    "vctransform.forward_dense_s": ("s", "lower"),
    "vctransform.points": ("count", "higher"),
    "vctransform.points_per_s": ("1/s", "higher"),
    "cyclotomic.objects_per_point": ("count", "lower"),
    "bentlab.is_bent_s": ("s", "lower"),
    "bentlab.circular_spectrum_s": ("s", "lower"),
    "bentlab.spectrum_is_bent_s": ("s", "lower"),
    "bentlab.strict_exponents_s": ("s", "lower"),
    "bentlab.is_bent_cold_s": ("s", "lower"),
    "bentlab.cache_rss_mb": ("MB", "lower"),
    "bentlab.bent_ratio": ("ratio", "higher"),
    "genperm.apply_s": ("s", "lower"),
    "genperm.conjugate_dense_s.n2": ("s", "lower"),
    "genperm.conjugate_dense_s.n3": ("s", "lower"),
    "genperm.conjugate_dense_s.n4": ("s", "lower"),
    "permexpr.parse_render_s": ("s", "lower"),
    "permexpr.evaluate_s": ("s", "lower"),
    "permexpr.conjugate_table_s": ("s", "lower"),
    "generator.generate_all_s": ("s", "lower"),
    "generator.maiorana_enumerate_s": ("s", "lower"),
    "generator.blockdiag_survey_s": ("s", "lower"),
    "generator.distinct_ratio": ("ratio", "higher"),
    "generator.survey_bent_ratio": ("ratio", "higher"),
    "oracle.scan_s.p3n2": ("s", "lower"),
    "oracle.scan_s.p4n1": ("s", "lower"),
    "oracle.scan_s.p5n1": ("s", "lower"),
    "oracle.scan_s.p6n1": ("s", "lower"),
    "oracle.candidates": ("count", "higher"),
    "oracle.hits": ("count", "higher"),
    "oracle.hit_ratio": ("ratio", "higher"),
    "appendix.verify_s": ("s", "lower"),
    "appendix.rows_passed": ("count", "higher"),
    "cli.import_s": ("s", "lower"),
    **{f"cli.cold_s.{c}": ("s", "lower") for c in CLI_COMMANDS},
    **{f"cli.inproc_s.{c}": ("s", "lower") for c in CLI_COMMANDS},
    "cli.jobs2_ratio": ("ratio", "lower"),
    "cli.stdout_bytes": ("count", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


def metric_of_span(name: str) -> str:
    """'bentlab.is_bent' -> 'bentlab.is_bent_s'; 'oracle.scan.p3n2' -> 'oracle.scan_s.p3n2'."""
    parts = name.split(".", 2)
    if len(parts) == 1:
        return name
    head = f"{parts[0]}.{parts[1]}_s"
    return head if len(parts) == 2 else f"{head}.{parts[2]}"


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples above it."""
    ordered = sorted(latencies)
    k = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run_op(self, op) -> float:
        """Run and check one op; returns the seconds spent in op.run()."""
        from perfbench.workloads import BenchFailure

        self.attempted += 1
        start = perf_counter()
        try:
            result = op.run()
            elapsed = perf_counter() - start
            op.check(result)
            return elapsed
        except BenchFailure as exc:
            print(f"FAIL {op.kind}: {exc}", file=sys.stderr)
        except Exception:
            print(f"ERROR {op.kind}:\n{traceback.format_exc()}", file=sys.stderr)
        self.failed += 1
        return perf_counter() - start


def ref_slice() -> float:
    """Seconds for one run of the fixed reference loop."""
    start = perf_counter()
    acc = 0
    for i in range(REF_ITERATIONS):
        acc += i * i % 7
    return perf_counter() - start


def speed_scale(slices: list[float]) -> float:
    """Factor from measured seconds to reference seconds."""
    return REF_NOMINAL_S / statistics.median(slices)


@dataclass
class Pass:
    times: list[float]  # per op, reference seconds
    raw_s: float  # measured seconds in the ops
    scale: float
    spans: tuple[int, int]  # this pass's slice of tracer.spans

    @property
    def wall(self) -> float:
        return sum(self.times)


def run_pass(wl, tally: Tally) -> Pass:
    """One pass over every op, with reference slices between the ops."""
    wl.counts.clear()
    gc.collect()  # every pass starts from the same collector state
    tracer = wl.tr
    per_op = max(2, -(-REF_SLICES // len(wl.ops)))
    slices: list[tuple[float, float]] = []  # (when, seconds)
    spans, raw = [], []  # spans: (start, end) of each op

    def sample():
        for _ in range(per_op):
            slices.append((perf_counter(), ref_slice()))

    first = len(tracer.spans)
    for op in wl.ops:
        sample()
        tracer.op_id = tally.attempted
        start = perf_counter()
        with tracer.span("op"):
            elapsed = tally.run_op(op)
        spans.append((start, perf_counter()))
        raw.append(elapsed)
    sample()
    times = []
    for (start, end), t in zip(spans, raw):
        reach = max(REF_WINDOW_S, end - start)
        near = [s for when, s in slices if start - reach <= when <= end + reach]
        times.append(t * speed_scale(near))
    scale = speed_scale([s for _, s in slices])
    return Pass(times, sum(raw), scale, (first, len(tracer.spans)))


def end_to_end(wl, passes: list[Pass], setups: list[float], peak_rss_mb: float) -> tuple[dict[str, float], list[str]]:
    # the time of a typical pass: each op at its median over the passes
    per_op = [statistics.median(p.times[i] for p in passes) for i in range(len(wl.ops))]
    busy = sum(t for op, t in zip(wl.ops, per_op) if op.decides)
    # a fixed sample count keeps the tail percentile on the same op kind
    latencies = [t for p in passes[: wl.LATENCY_PASSES] for t in p.times]
    tail_value, tail_pct = tail(latencies)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(per_op),
        "fn_per_s": sum(op.decides for op in wl.ops) / busy,
        "op_p50_ms": 1000 * statistics.median(latencies),
        "op_tail_ms": 1000 * tail_value,
        "peak_rss_mb": peak_rss_mb,
    }
    notes = [
        "setup_s: median of set-ups " + ", ".join(f"{s:.3f}" for s in setups),
        f"op_tail_ms: p{tail_pct:.1f} of {len(latencies)} ops ({TAIL_BEYOND} beyond it)",
        f"wall_s: from {len(passes)} passes; measured seconds per pass "
        + ", ".join(f"{p.raw_s:.3f} (x{p.scale:.3f})" for p in passes),
    ]
    return metrics, notes


def per_layer(wl, traced: list[Pass], untraced: list[Pass], one_off, counts, extras) -> tuple[dict[str, float], list[str]]:
    tracer = wl.tr
    per_pass = []
    for p in traced:
        times: dict[str, float] = {}
        for name, seconds in tracer.self_times(*p.spans).items():
            times[metric_of_span(name)] = seconds * p.scale
        per_pass.append(times)
    names = set().union(*per_pass)
    metrics = {name: statistics.median(t.get(name, 0.0) for t in per_pass) for name in names}
    scale = statistics.median(p.scale for p in traced)
    for name, seconds in one_off.items():
        metrics[metric_of_span(name)] = metrics.get(metric_of_span(name), 0.0) + seconds * scale
    metrics.update(extras)
    metrics.update(counts)
    untraced_wall = statistics.median(p.wall for p in untraced)
    traced_wall = statistics.median(p.wall for p in traced)
    metrics["trace.overhead_ratio"] = traced_wall / untraced_wall
    wl.derived(metrics)
    out = {name: float(metrics.get(name, 0.0)) for name in PER_LAYER}
    notes = [
        f"trace.overhead_ratio: traced pass {traced_wall:.3f} / untraced pass {untraced_wall:.3f} reference s",
        f"passes: {len(traced)} traced, {len(untraced)} untraced",
    ]
    return out, notes


def machine() -> str:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return f"nproc={os.cpu_count()} cpu={cpu!r} python={platform.python_version()} numpy={numpy.__version__}"


def child_setup(args) -> float:
    """Set-up time of a fresh process on the same workload and seed."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child exited {proc.returncode}: {proc.stderr[-500:]}")
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def measure_end_to_end(args, wl, tally: Tally, setup_s: float):
    passes: list[Pass] = []
    deadline = perf_counter() + args.seconds
    while perf_counter() < deadline or len(passes) < wl.LATENCY_PASSES:
        passes.append(run_pass(wl, tally))
    peak = wl.peak_rss_mb()  # before the set-up children add to RUSAGE_CHILDREN
    setups = [setup_s]
    for _ in range(SETUP_RUNS - 1):
        tally.attempted += 1
        try:
            setups.append(child_setup(args))
        except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
            print(f"ERROR set-up child: {exc}", file=sys.stderr)
            tally.failed += 1
    return end_to_end(wl, passes, setups, peak)


def measure_layers(args, wl, tally: Tally, setup_spans: int):
    tracer = wl.tr
    traced: list[Pass] = []
    untraced: list[Pass] = []
    counts = None
    deadline = perf_counter() + args.seconds
    while perf_counter() < deadline or not traced:
        tracer.enabled = False
        untraced.append(run_pass(wl, tally))
        tracer.enabled = True
        traced.append(run_pass(wl, tally))
        pass_counts = wl.layer_counts()
        if counts is not None and pass_counts != counts:
            print(f"FAIL counts changed between passes: {counts} -> {pass_counts}", file=sys.stderr)
            tally.failed += 1
        counts = pass_counts
    extras_start = len(tracer.spans)
    tally.attempted += 1
    try:
        extras = wl.extras()
    except Exception:
        print(f"ERROR layer measurements:\n{traceback.format_exc()}", file=sys.stderr)
        tally.failed += 1
        extras = {}
    one_off = tracer.self_times(0, setup_spans)
    for name, seconds in tracer.self_times(extras_start).items():
        one_off[name] = one_off.get(name, 0.0) + seconds
    metrics, notes = per_layer(wl, traced, untraced, one_off, counts, extras)
    spans_file = ROOT / "perfbench" / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(spans_file)
    notes.append(f"spans: {len(tracer.spans)} written to {spans_file.relative_to(ROOT)}")
    return metrics, notes


def run_all(args) -> int:
    """Every workload in a fresh process, one after another."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        try:
            result = json.loads(proc.stdout.splitlines()[-1])
        except (IndexError, ValueError):
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        total["correct"] = total["correct"] and result["correct"] and proc.returncode == 0
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(total))
    return 0 if total["correct"] else 1


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "vcbent" / "__init__.py").is_file():
        print(f"error: no vcbent sources under {src}; run inside a vcbent checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    # one core for this process and its children, so the reference slices
    # see the speed of the core the work runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # reference slices before and after set-up; their own time is not set-up
    early_start = perf_counter()
    slices = [ref_slice() for _ in range(REF_SLICES // 2)]
    early_s = perf_counter() - early_start
    sys.path[:0] = [str(src), str(ROOT)]
    import vcbent

    if not Path(vcbent.__file__).resolve().is_relative_to(src):
        print(f"error: imported vcbent from {vcbent.__file__}, not from {src}", file=sys.stderr)
        return 2
    from perfbench.spans import Tracer
    from perfbench.workloads import WORKLOADS

    tracer = Tracer(enabled=bool(args.trace))
    tally = Tally()
    wl = WORKLOADS[args.workload](args.seed, tracer, ROOT)

    def warm_op(op):
        # warm-up calls are not layer work; only a workload's own set-up spans count
        enabled, tracer.enabled = tracer.enabled, False
        try:
            tally.run_op(op)
        finally:
            tracer.enabled = enabled

    wl.warm(warm_op)
    setup_raw = perf_counter() - START - early_s
    slices.extend(ref_slice() for _ in range(REF_SLICES // 2))
    setup_s = setup_raw * speed_scale(slices)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "measured_s": setup_raw}))
        return 0 if tally.failed == 0 else 1
    setup_spans = len(tracer.spans)

    print(f"machine: {machine()}")
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace} ops/pass={len(wl.ops)}")
    if args.trace:
        metrics, notes = measure_layers(args, wl, tally, setup_spans)
        units = PER_LAYER
    else:
        metrics, notes = measure_end_to_end(args, wl, tally, setup_s)
        units = END_TO_END
    for name, value in metrics.items():
        print(f"  {name:32s} {value:14.6g} {units[name][0]}")
    for note in notes:
        print(f"  {note}")
    print(f"  fail_ratio: {tally.failed}/{tally.attempted}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name][0]} for name, value in metrics.items()},
    }))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
