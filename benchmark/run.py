"""Benchmark entry point: run one workload and print its metrics.

    python3 benchmark/run.py --workload cyclic-sweep --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it imports skewmorph from src/ there.
A run repeats the workload's seeded pass (see workloads.py) a fixed number
of times, each op from a cold enumeration cache, and checks every answer
against reference.json.  Times are reported in reference seconds (see
speed.py), so that the host's drifting speed cancels out.  With --trace 0
it prints the end-to-end metrics;
with --trace 1 it alternates untraced and traced passes and prints the
per-layer metrics of the traced ones.  Human-readable lines come first; the
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Seconds one pass takes on a 2-core x86-64 box.  A run makes
# max(2, round(seconds / PASS_SECONDS)) passes, so every run of a workload
# has the same op count and its tail percentile means the same thing.
PASS_SECONDS = {"cyclic-sweep": 11.0, "noncyclic-sweep": 5.0, "families-roundtrip": 3.0}
SETUP_REPEATS = 9
# Host-speed samples (speed.py) cost about speed.REF_S each.  One is taken
# per CALIBRATE_EVERY_S of op time, right after the op that completes it, so
# a long op is followed by many; and one after any op of at least
# BRACKET_OP_S, so that the sweep ops near the median have their own.
CALIBRATE_EVERY_S = 0.1
BRACKET_OP_S = 0.02
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "enumeration.enumerate.calls": "count",
    "enumeration.enumerate.self_s": "s",
    "enumeration.cache.hits": "count",
    "enumeration.cache.misses": "count",
    "enumeration.candidates": "count",
    "enumeration.accept_ratio": "ratio",
    "enumeration.distinct_ratio": "ratio",
    "morphisms.try_validate.calls": "count",
    "morphisms.try_validate.busy_s": "s",
    "morphisms.try_validate.reject_us": "us",
    "morphisms.try_validate.accept_us": "us",
    "morphisms.invariants.busy_s": "s",
    "groups.calls": "count",
    "groups.subgroups.busy_s": "s",
    "groups.automorphisms.busy_s": "s",
    "groups.quotient.busy_s": "s",
    "constructions.params.busy_s": "s",
    "constructions.construct.calls": "count",
    "constructions.construct.busy_s": "s",
    "records.encode.busy_s": "s",
    "records.encode.bytes": "bytes",
    "records.check.calls": "count",
    "records.check.busy_s": "s",
    "records.check.flagged_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(PASS_SECONDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="cheapest pool entries, two passes (self-test)")
    parser.add_argument("--setup-probe", action="store_true",
                        help="only import and build the inputs, then exit")
    return parser.parse_args(argv)


def setup(workload: str, seed: int, smoke: bool):
    """Import the program and build one pass's inputs: the timed set-up."""
    import workloads

    reference = workloads.load_reference()
    return workloads.make_inputs(workload, seed, reference, smoke)


def measure_setup(args, repeats: int) -> list[float]:
    """Wall times of fresh interpreters doing only the set-up, in reference
    seconds."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    meter = speed.Meter()
    meter.sample()
    spans = []
    for _ in range(repeats):
        start = time.perf_counter()
        # wait() without a timeout blocks in waitpid; with a timeout it polls
        # with sleeps of up to 50 ms, which would quantize the measurement
        probe = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL)
        code = probe.wait()
        spans.append((start, time.perf_counter()))
        meter.sample()
        if code != 0:
            raise RuntimeError(f"set-up probe exited with code {code}")
    return [(end - start) * meter.factor(start, end) for start, end in spans]


@dataclass
class PassResult:
    wall: float  # sum of the op latencies, in reference seconds
    raw_wall: float  # the same, in measured seconds
    latencies: list[float]  # in reference seconds
    failed: int
    cache_hits: int
    cache_misses: int


def run_pass(items, execute, tracer, errors: list[str]) -> PassResult:
    """Run every op once, in order.

    Each op starts from an empty enumeration cache, as one `skewmorph`
    process does, so its cost does not depend on the seeded order.  The
    host's speed is sampled before the first op and between ops, and each
    op's latency is scaled by the samples near it.
    """
    from skewmorph import enumeration

    cache = enumeration.cached_enumeration
    clock = time.perf_counter
    meter = speed.Meter()
    spans = []
    failed = hits = misses = 0
    since_sample = 0.0
    meter.sample()
    for op, item in enumerate(items):
        if tracer is not None:
            tracer.op = op
        cache.cache_clear()
        t0 = clock()
        problem = None
        try:
            ok = execute(item)
        except Exception:  # a raising op counts as failed; keep measuring
            ok = False
            problem = traceback.format_exc()
        t1 = clock()
        spans.append((t0, t1))
        since_sample += t1 - t0
        info = cache.cache_info()
        hits += info.hits
        misses += info.misses
        if not ok:
            failed += 1
            if len(errors) < 5:
                errors.append(problem or f"wrong answer for op {op}: {item!r:.200}")
        samples = int(since_sample / CALIBRATE_EVERY_S)
        if samples == 0 and (t1 - t0 >= BRACKET_OP_S or op == len(items) - 1):
            samples = 1
        for _ in range(samples):
            meter.sample()
        if samples:
            since_sample = 0.0
    latencies = [(t1 - t0) * meter.factor(t0, t1) for t0, t1 in spans]
    raw_wall = sum(t1 - t0 for t0, t1 in spans)
    return PassResult(sum(latencies), raw_wall, latencies, failed, hits, misses)


def tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with TAIL_BEYOND ops beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return 100.0, ordered[-1]
    return 100.0 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1]


def passes_for(args) -> int:
    if args.smoke:
        return 2
    return max(2, round(args.seconds / PASS_SECONDS[args.workload]))


def end_to_end(results: list[PassResult], setup_s: float) -> dict[str, float]:
    latencies = [t for r in results for t in r.latencies]
    pct, tail_s = tail(latencies)
    print(f"op_ms_tail is p{pct:.1f} of {len(latencies)} ops; "
          f"wall_s as measured: {statistics.median(r.raw_wall for r in results):.4f} s")
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(r.wall for r in results),
        "ops_per_s": len(latencies) / sum(r.wall for r in results),
        "op_ms_p50": statistics.median(latencies) * 1000.0,
        "op_ms_tail": tail_s * 1000.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced_run(args, items, execute, errors):
    from tracer import Tracer

    tracer = Tracer()
    plain, traced, layers, shares = [], [], [], []
    for i in range(passes_for(args)):
        if i % 2 == 0:
            plain.append(run_pass(items, execute, None, errors))
            continue
        tracer.reset()
        tracer.install()
        try:
            result = run_pass(items, execute, tracer, errors)
        finally:
            tracer.uninstall()
        traced.append(result)
        layer = tracer.layer_metrics(result.cache_hits, result.cache_misses)
        top_level = tracer.root_s.get("constructions", 0.0) + tracer.root_s.get("records", 0.0)
        shares.append({
            "enumeration.enumerate.self_s": layer["enumeration.enumerate.self_s"] / result.raw_wall,
            "morphisms.try_validate.busy_s": layer["morphisms.try_validate.busy_s"] / result.raw_wall,
            "constructions + records, top-level spans": top_level / result.raw_wall,
        })
        # span times are measured seconds; put them in reference seconds
        factor = result.wall / result.raw_wall
        layers.append({name: value * factor if PER_LAYER_UNITS[name] in ("s", "us") else value
                       for name, value in layer.items()})
    metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    traced_wall = statistics.median(r.wall for r in traced)
    metrics["trace.overhead_ratio"] = traced_wall / statistics.median(r.wall for r in plain) - 1
    OUT.mkdir(exist_ok=True)
    span_file = OUT / f"spans-{args.workload}-seed{args.seed}.csv"
    tracer.write_spans(span_file)
    print(f"spans of the last traced pass: {span_file.relative_to(ROOT)}")
    print(f"traced wall_s {traced_wall:.4f} s; median shares of it over traced passes:")
    for name in shares[0]:
        print(f"  {name:44s} {statistics.median(s[name] for s in shares):7.1%}")
    return plain + traced, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "skewmorph" / "__init__.py").is_file():
        print(f"benchmark: no skewmorph sources under {SRC}; run from a checkout's root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    items, execute = setup(args.workload, args.seed, args.smoke)
    if args.setup_probe:
        return 0

    errors: list[str] = []
    if args.trace:
        results, metrics = traced_run(args, items, execute, errors)
        units = PER_LAYER_UNITS
    else:
        # set-up probes go between the passes, so that a slow spell of the
        # machine does not fall on all of them
        passes = passes_for(args)
        setup_times, results = [], []
        for _ in range(passes):
            setup_times += measure_setup(args, -(-SETUP_REPEATS // passes))
            results.append(run_pass(items, execute, None, errors))
        metrics = end_to_end(results, statistics.median(setup_times))
        units = END_TO_END_UNITS

    attempted = sum(len(r.latencies) for r in results)
    failed = sum(r.failed for r in results)
    for message in errors:
        print(message, file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(results)} passes x {len(items)} ops")
    for name, value in metrics.items():
        print(f"  {name:36s} {value:14.6g} {units[name]}")
    print(f"  {'fail_ratio':36s} {failed / attempted:14.6g} ratio ({failed}/{attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
