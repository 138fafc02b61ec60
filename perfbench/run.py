"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload headline --seed 2008 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

``--trace 0`` measures the end-to-end metrics with tracing off, in
reference seconds (wall time scaled by the host's speed, see
``harness.HostSpeed``); ``--trace 1`` alternates untraced and traced
passes and reports the per-layer metrics plus ``trace_overhead``, in
wall seconds.  The last line of standard
output is one JSON object: ``{"correct", "attempted", "failed",
"metrics"}``.  The exit code is 0 only when every check passed.  All load
is serial, from this one process, with no threads and no worker pool.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 7
#: Scratch directory for on-disk caches, inside the checkout; removed after.
WORKDIR = ".perfbench_work"


def _import_program() -> None:
    """Put this checkout's ``src`` first on the path and import ``repro``.

    Exits with code 2 when the checkout has no program: the benchmark never
    falls back to another installed copy.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark: {SRC / 'repro'} is missing", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        print(f"error: imported repro from {repro.__file__}, not from {SRC}", file=sys.stderr)
        sys.exit(2)
    # Drift-monitor warnings go to the log; keep them out of the output.
    logging.getLogger("repro").setLevel(logging.ERROR)


def _metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}


def _check(workload, state, passes, seed: int, size: int) -> Tuple[int, List[str]]:
    """Failed ops from pass-to-pass drift, the reference, and fresh recomputes."""
    from perfbench import harness, references

    notes: List[str] = []
    attempted = sum(len(p.op_digests) for p in passes)
    failed = harness.count_pass_failures(passes)
    if failed:
        notes.append(f"{failed} ops raised or differed from the first pass")
    ref = references.lookup(workload.name, seed, size)
    if ref is not None and not references.matches(ref, passes[0]):
        notes.append(f"first pass does not match the committed reference for seed {seed}")
        failed = attempted
    mismatches = workload.check_sample(state, passes[0])
    if mismatches:
        notes.append(f"{mismatches} sampled ops differ when recomputed from scratch")
        failed += mismatches
    return min(failed, attempted), notes


def run_untraced(workload, seed: int, seconds: float, size: int, min_ops: int, workdir: Path):
    from perfbench import harness

    speed = harness.HostSpeed()
    setup_spans = []
    state = None
    for _ in range(SETUP_REPEATS):
        if state is not None:
            workload.cleanup(state)
        speed.sample_for(harness.SPEED_STEP)
        tick = perf_counter()
        state = workload.setup(seed, size, workdir)
        setup_spans.append((tick, perf_counter()))
    try:
        stats = harness.run_closed_loop(
            lambda s: workload.run_pass(state, s),
            seconds,
            min_ops=min_ops,
            stats=harness.LoopStats(speed=speed),
        )
        failed, notes = _check(workload, state, stats.passes, seed, size)
    finally:
        workload.cleanup(state)
    ops = stats.op_seconds()
    setup_seconds = [speed.scaled(a, b) for a, b in setup_spans]
    metrics = {
        "setup_s": _metric(statistics.median(setup_seconds), "s"),
        "wall_s": _metric(statistics.median(stats.pass_seconds()), "s"),
        "ops_per_s": _metric(stats.ops_per_second(), "1/s"),
        "op_p50_ms": _metric(harness.percentile(ops, 50) * 1e3, "ms"),
        "peak_rss_mb": _metric(harness.peak_rss_mb(), "MB"),
    }
    raw_ops = [sum(b - a for a, b in spans) for spans in stats.op_spans]
    info = {
        "ops": len(ops),
        "passes": len(stats.passes),
        "speed_samples": len(speed),
        "raw": {
            "setup_s": statistics.median(b - a for a, b in setup_spans),
            "wall_s": statistics.median(b - a for a, b in stats.pass_spans),
            "op_p50_ms": harness.percentile(raw_ops, 50) * 1e3,
            "op_p90_ms": harness.percentile(raw_ops, 90) * 1e3,
        },
        # Printed, not a metric: per-op host noise that the speed samples
        # between ops cannot see moves the tail 10-20% between runs.
        "op_p90_ms": harness.percentile(ops, 90) * 1e3,
        "fail_frac": failed / len(ops),
        "tail_percentile": harness.highest_percentile(len(ops)),
        "max_mp": stats.passes[0].max_mp,
        "digest": stats.passes[0].digest,
        "groups": {
            name: (harness.percentile(times, 50) * 1e3, harness.percentile(times, 90) * 1e3)
            for name, times in stats.group_seconds().items()
        },
    }
    return len(ops), failed, metrics, info, notes


def run_traced(workload, seed: int, seconds: float, size: int, min_ops: int, workdir: Path):
    """Alternate untraced and traced passes; report per-layer metrics."""
    from repro.obs.registry import MetricsRegistry, use_registry

    from perfbench import harness, tracing

    state = workload.setup(seed, size, workdir)
    plain = harness.LoopStats()
    traced = harness.LoopStats()
    world = state.get("world") or state["context"].challenge
    tracer = tracing.Tracer(traced.current_op, world.fair_dataset)
    registry = MetricsRegistry()
    start = perf_counter()

    def run_pass(stats):
        return workload.run_pass(state, stats)

    try:
        while True:
            harness.timed_pass(run_pass, plain)
            with tracer.active(), use_registry(registry):
                harness.timed_pass(run_pass, traced)
            if traced.ops >= min_ops // 2 and perf_counter() - start >= seconds:
                break
        passes = [p for pair in zip(plain.passes, traced.passes) for p in pair]
        failed, notes = _check(workload, state, passes, seed, size)
    finally:
        workload.cleanup(state)
    layer = tracing.layer_metrics(
        tracer,
        registry,
        traced_ops=traced.ops,
        searches=sum(p.state.get("searches", 0) for p in traced.passes),
    )
    overhead = statistics.median(traced.pass_seconds()) / statistics.median(plain.pass_seconds())
    layer["trace_overhead"] = (overhead, "ratio")
    metrics = {name: _metric(value, unit) for name, (value, unit) in layer.items()}
    attempted = plain.ops + traced.ops
    info = {
        "ops": attempted,
        "passes": len(passes),
        "spans": len(tracer),
        "fail_frac": failed / attempted,
    }
    return attempted, failed, metrics, info, notes


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    size: Optional[int] = None,
    min_ops: Optional[int] = None,
) -> Dict[str, object]:
    """Run one workload in this process; returns the result object."""
    from perfbench import harness
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[name]
    size = workload.size if size is None else size
    min_ops = harness.MIN_OPS if min_ops is None else min_ops
    scratch = ROOT / WORKDIR
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=scratch))
    try:
        runner = run_traced if trace else run_untraced
        attempted, failed, metrics, info, notes = runner(
            workload, seed, seconds, size, min_ops, workdir
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "info": info,
        "notes": notes,
    }


def print_table(name: str, seed: int, result: Dict[str, object]) -> None:
    info = result["info"]
    print(f"workload {name}  seed {seed}  ops {info['ops']}  passes {info['passes']}")
    for metric, body in result["metrics"].items():
        print(f"  {metric:<58} {body['value']:>14.6g} {body['unit']}")
    if "op_p90_ms" in info:
        print(f"  {'op_p90_ms':<58} {info['op_p90_ms']:>14.6g} ms")
    print(f"  {'fail_frac':<58} {info['fail_frac']:>14.6g} ratio")
    for group, (p50, p90) in info.get("groups", {}).items():
        print(f"  {'op_p50_ms.' + group:<58} {p50:>14.6g} ms")
        print(f"  {'op_p90_ms.' + group:<58} {p90:>14.6g} ms")
    for metric, value in info.get("raw", {}).items():
        print(f"  {'wall-clock ' + metric:<58} {value:>14.6g} {metric.rsplit('_', 1)[1]}")
    if "speed_samples" in info:
        print(f"  times above are reference seconds: {info['speed_samples']} host-speed samples")
    if "tail_percentile" in info:
        print(f"  highest percentile with >=10 samples beyond: p{info['tail_percentile']}")
        print(f"  max_mp {info['max_mp']!r}  digest {info['digest']}")
    for note in result["notes"]:
        print(f"  FAIL: {note}")


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    from perfbench.workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(command, capture_output=True, text=True, cwd=os.getcwd())
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, body in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = body
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=2008, help="workload seed (default 2008)")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    from perfbench.workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or all")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_table(args.workload, args.seed, result)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
