"""One command per workload: run it, check it, print every metric.

    python3 benchmarks/harness/run.py --workload flat_churn \\
        [--seed 1999] [--seconds 20] [--trace 0|1]

prints one ``metric <name> <value> <unit>`` line per metric, an
``exact`` line (decisions digest and exact counters, which must repeat
for a seed), and last one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` — the end-to-end set with ``--trace 0``, the
per-layer set with ``--trace 1``.  ``--quick`` is a seconds-long smoke
run of all four workloads; ``--selfcheck N`` runs every workload N
times and tests the benchmark's own repeatability.  README.md defines
each metric; refclock.py explains how a time is taken.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.normpath(os.path.join(HERE, "..", "..", "src"))
sys.path.insert(0, SRC)

#: name -> (unit, better, bound): what a user of the system would see.
END_TO_END = {
    "op_p50_ms": ("ms", "lower", 0.15),
    "op_p90_ms": ("ms", "lower", 0.15),
    "ops_per_s": ("1/s", "higher", 0.15),
    "cpu_ms_per_op": ("ms", "lower", 0.25),
    "peak_rss_mb": ("MiB", "lower", 0.05),
    "setup_s": ("s", "lower", 0.25),
    "push_p50_ms": ("ms", "lower", 0.15),
    "recover_p50_ms": ("ms", "lower", 0.20),
}

#: name -> (unit, better): single layers; clocks and exact counters from
#: the untraced rounds, self times from the traced round.
PER_LAYER = {
    "harness.kernel_ms": ("ms", "lower"),
    "harness.raw_op_p50_ms": ("ms", "lower"),
    "harness.preempt_ms_per_op": ("ms", "lower"),
    "harness.op_p99_ms": ("ms", "lower"),
    "harness.untraced_ms_per_op": ("ms", "lower"),
    "harness.trace_overhead_ratio": ("ratio", "higher"),
    "api.client_cpu_ms_per_op": ("ms", "lower"),
    "api.server_cpu_ms_per_op": ("ms", "lower"),
    "api.wait_ms_per_op": ("ms", "lower"),
    "api.drift_ratio": ("ratio", "lower"),
    "api.aio.op_p50_ms": ("ms", "lower"),
    "api.codec_ms_per_op": ("ms", "lower"),
    "api.msgs_per_op": ("count", "lower"),
    "api.bytes_per_op": ("count", "lower"),
    "api.dispatch_ms_per_op": ("ms", "lower"),
    "api.push_ms_per_op": ("ms", "lower"),
    "api.pushes_per_op": ("count", "lower"),
    "controller.sched.push_p50_ms": ("ms", "lower"),
    "controller.candidates_per_op": ("count", "lower"),
    "controller.sweeps_per_op": ("count", "lower"),
    "controller.reconfigurations_per_op": ("count", "lower"),
    "controller.partition_pruned_per_op": ("count", "higher"),
    "controller.sweep_self_ms_per_op": ("ms", "lower"),
    "prediction.predictions_per_op": ("count", "lower"),
    "prediction.predict_ms_per_op": ("ms", "lower"),
    "allocation.match_ms_per_op": ("ms", "lower"),
    "rsl.parse_ms_per_op": ("ms", "lower"),
    "metrics.report_ms_per_op": ("ms", "lower"),
    "persistence.appends_per_op": ("count", "lower"),
    "persistence.fsyncs_per_op": ("count", "lower"),
    "persistence.wal_bytes_per_op": ("count", "lower"),
    "persistence.snapshots_per_op": ("count", "lower"),
    "persistence.replay_records": ("count", "lower"),
    "persistence.journal_overhead_ms_per_op": ("ms", "lower"),
    "persistence.append_ms_per_op": ("ms", "lower"),
    "persistence.snapshot_ms_per_op": ("ms", "lower"),
    "persistence.recover_load_ms": ("ms", "lower"),
    "persistence.recover_replay_ms": ("ms", "lower"),
}

#: The run length the op counts below are sized for, on this host.
DEFAULT_SECONDS = 20
#: workload -> (rounds, ops per round at DEFAULT_SECONDS).  Fixed counts,
#: not a timer: every round runs the same op sequence, so exact counters
#: repeat and the server's drift with uptime is the same in every run.
SIZES = {
    "flat_churn": (5, 100),
    "durable_churn": (5, 250),
    "wire_phases": (3, 110),
    "wire_flip": (3, 100),
}
QUICK_OPS = 12
#: Ops in the traced round: enough for per-op means, few enough that the
#: spans (about 2,300 an op on flat_churn) fit in memory.
TRACED_OPS = 40
#: Stop starting new rounds after this long; the contract's limit is 180.
WALL_LIMIT_SECONDS = 140.0


def pin_to_one_cpu() -> None:
    """Pin this process (and so its children) to one CPU.

    Waking a thread on another vCPU is the largest single noise source
    on a small VM; with everything on one CPU it disappears.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def round_stats(rnd, wire: bool, min_beyond: int) -> dict[str, float]:
    """One round's statistic for every clock metric."""
    from refclock import percentile

    refs = [op.ref_ms for op in rnd.ops]
    quarter = max(1, len(refs) // 4)
    stats = {
        "op_p50_ms": statistics.median(refs),
        "op_p90_ms": percentile(refs, 0.90, min_beyond),
        "ops_per_s": 1000.0 * len(refs) / sum(refs),
        "cpu_ms_per_op": statistics.fmean(op.cpu_ms for op in rnd.ops),
        "peak_rss_mb": rnd.peak_rss_mb,
        "setup_s": rnd.setup.ref_ms / 1000.0,
        "push_p50_ms": statistics.median(rnd.push_ms),
        "harness.kernel_ms": rnd.kernel_ms,
        "harness.raw_op_p50_ms": statistics.median(
            op.raw_ms for op in rnd.ops),
        "harness.preempt_ms_per_op": statistics.fmean(
            op.preempt_ms for op in rnd.ops),
        "api.client_cpu_ms_per_op": statistics.fmean(
            op.harness_cpu_ms for op in rnd.ops) if wire else 0.0,
        "api.server_cpu_ms_per_op": statistics.fmean(
            op.server_cpu_ms for op in rnd.ops),
        "api.wait_ms_per_op": statistics.fmean(op.wait_ms for op in rnd.ops),
        "api.drift_ratio": statistics.median(refs[-quarter:])
        / statistics.median(refs[:quarter]) if wire else 0.0,
    }
    if rnd.recover_ms:
        stats["recover_p50_ms"] = statistics.median(rnd.recover_ms)
    return stats


def traced_metrics(rows: list[dict], rnd, scale: float) -> dict[str, float]:
    """Per-layer self times and counts from one traced round's spans.

    Stamps each row with its ``op``.  Recovery runs after the op loop,
    so its spans are read through the restore windows instead.
    """
    import tracing

    ops = len(rnd.ops)
    op_of = tracing.assign_ops(rows, rnd.windows)
    restore_of = tracing.assign_ops(rows, rnd.restore_windows)
    metrics = dict.fromkeys(tracing.LAYER_OF.values(), 0.0)
    for stamps, count, recovering in (
            (op_of, ops, False),
            (restore_of, max(1, len(rnd.restore_windows)), True)):
        for name, cpu_ns in tracing.self_times(rows, stamps).items():
            metric = tracing.LAYER_OF[name]
            if metric.startswith("persistence.recover") == recovering:
                metrics[metric] += cpu_ns / 1e6 * scale / count
    for row, op in zip(rows, op_of):
        row["op"] = op
    inside = [row for row in rows if row["op"] >= 0]
    encoded = [row for row in inside if row["name"] == "api.encode"]
    metrics["api.msgs_per_op"] = len(encoded) / ops
    metrics["api.bytes_per_op"] = sum(row["bytes"] for row in encoded) / ops
    metrics["api.pushes_per_op"] = sum(
        1 for row in inside if row["name"] == "api.push") / ops
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 quick: bool, fsyncs: list[int]):
    """Run one workload; returns ``(metrics, exact, attempted, failed)``."""
    import tracing
    import workloads
    from refclock import percentile

    started = time.monotonic()
    rounds, ops = SIZES[name]
    ops = max(QUICK_OPS, round(ops * seconds / DEFAULT_SECONDS))
    if trace:
        rounds = 2
    if quick:
        rounds, ops = 1, QUICK_OPS
    # A short run cannot support p90 by the ten-beyond rule; it still
    # prints one, from what it has.
    min_beyond = min(10, ops // 10)
    wire = name.startswith("wire_")
    plan = workloads.make_plan(name, seed, ops)
    if quick:
        plan.restores = 2

    def one_round(plan=plan, traced=False, **options):
        if wire:
            return workloads.wire_round(plan, trace=traced, **options)
        return workloads.churn_round(plan, fsyncs, **options)

    done = []
    for index in range(rounds):
        if done and time.monotonic() - started > WALL_LIMIT_SECONDS:
            break
        # The journal-free twin of durable_churn runs once, not per round.
        twin = name == "durable_churn" and index == 0
        done.append(one_round(volatile_twin=True) if twin else one_round())
        gc.collect()

    failed = sum(rnd.failed for rnd in done)
    attempted = ops * len(done)
    per_round = [round_stats(rnd, wire, min_beyond) for rnd in done]
    metrics = {key: statistics.median(stats[key] for stats in per_round)
               for key in per_round[0]}
    pooled = [op.ref_ms for rnd in done for op in rnd.ops]
    # p99 has too few samples beyond it to repeat at this run length;
    # it is printed as a diagnostic and bounds nothing.
    metrics["harness.op_p99_ms"] = percentile(pooled, 0.99, min_beyond=0)

    first = done[0]
    counts = {key: total / len(first.ops) if key.endswith("_per_op")
              else total for key, total in first.counters.items()}
    metrics.update(counts)
    exact = dict(counts, decisions_digest=first.digest)
    for rnd in done[1:]:
        # Same plan, fresh state: every round must decide and count alike.
        if rnd.digest != first.digest or rnd.counters != first.counters:
            failed += 1
    metrics["persistence.journal_overhead_ms_per_op"] = (
        statistics.fmean(op.cpu_ms for op in first.ops)
        - statistics.fmean(op.cpu_ms for op in first.volatile_ops)
    ) if first.volatile_ops else 0.0

    if trace:
        # A prefix of the same op sequence; only durable_churn's own
        # journal is recovered from, so that a workload that never
        # journals shows no persistence spans at all.
        count = min(ops, TRACED_OPS)
        prefix = dataclasses.replace(plan, ops=count,
                                     arrivals=plan.arrivals[:count])
        recorder = tracing.SpanRecorder("harness")
        recorder.install()
        try:
            traced = one_round(prefix, traced=True, probe_recovery=False)
        finally:
            recorder.uninstall()
        rows = tracing.merge(recorder.rows(), traced.server_spans)
        # Span CPU is raw; bring it to reference speed with the scale the
        # round's ops got, so that the layers add up to cpu_ms_per_op.
        layer = traced_metrics(
            rows, traced, sum(op.cpu_ms for op in traced.ops)
            / sum(op.raw_cpu_ms for op in traced.ops))
        tracing.write_jsonl(os.path.join(
            workloads.OUT_DIR, f"trace_{name}.jsonl"), rows)
        traced_stats = round_stats(traced, wire, min_beyond=0)
        metrics.update(layer)
        metrics["harness.trace_overhead_ratio"] = \
            traced_stats["ops_per_s"] / metrics["ops_per_s"]
        metrics["harness.untraced_ms_per_op"] = \
            traced_stats["cpu_ms_per_op"] - sum(
                value for key, value in layer.items()
                if key.endswith("_ms_per_op"))
        failed += traced.failed
        attempted += count
        # The evidence for choosing one front end and one sweep trigger:
        # the same ops against the asyncio front end, and (pushes only)
        # with the coalescing scheduler instead of inline sweeps.
        metrics["api.aio.op_p50_ms"] = 0.0
        metrics["controller.sched.push_p50_ms"] = 0.0
        extras = []
        if wire:
            extras.append(("api.aio.op_p50_ms", "op_p50_ms",
                           {"front": "asyncio"}))
        if name == "wire_flip":
            extras.append(("controller.sched.push_p50_ms", "push_p50_ms",
                           {"scheduler": True}))
        for key, source, options in extras:
            extra = one_round(probe_recovery=False, **options)
            metrics[key] = round_stats(extra, wire, min_beyond)[source]
            failed += extra.failed
            attempted += ops
    return metrics, exact, attempted, failed


def report(name: str, metrics: dict, exact: dict, attempted: int,
           failed: int, trace: bool) -> None:
    """Print every metric by name with its unit, then the result object."""
    units = {key: unit for key, (unit, *_rest) in
             list(END_TO_END.items()) + list(PER_LAYER.items())}
    print(f"workload {name}")
    for key in units:
        if key in metrics:
            print(f"metric {key} {metrics[key]!r} {units[key]}")
    print("exact " + json.dumps(exact, sort_keys=True))
    print(f"attempted {attempted} failed {failed} device=disk")
    chosen = PER_LAYER if trace else END_TO_END
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {key: {"value": metrics[key], "unit": units[key]}
                    for key in chosen}}))


# -- selfcheck ----------------------------------------------------------------

def host_fingerprint(kernel_ms: float) -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "machine": platform.machine(), "harness.kernel_ms": kernel_ms}


def _spread(values) -> float:
    return (max(values) - min(values)) / statistics.median(values)


def selfcheck(runs: int, seed: int, seconds: float) -> int:
    """Run every workload ``runs`` times; test that the numbers repeat.

    Each run is a fresh process, as the driver runs them.  Fails when a
    run strays more than a tenth from its set's median, when the medians
    of the two halves differ by more than the metric's bound, or when
    the exact line differs between runs of the one seed.
    """
    import workloads

    ok = True
    result = {"seed": seed, "seconds": seconds, "workloads": {}}
    kernel = []
    for name in workloads.WORKLOADS:
        values: dict[str, list[float]] = {}
        exacts = set()
        for _ in range(runs):
            out = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload",
                 name, "--seed", str(seed), "--seconds", str(seconds)],
                check=True, capture_output=True, text=True).stdout
            for line in out.splitlines():
                if line.startswith("metric "):
                    _, key, value, _unit = line.split()
                    values.setdefault(key, []).append(float(value))
                elif line.startswith("exact "):
                    exacts.add(line)
            ok &= json.loads(out.splitlines()[-1])["correct"]
        kernel += values["harness.kernel_ms"]
        if len(exacts) != 1:
            print(f"{name}: exact counters differ between runs")
            ok = False
        half = runs // 2
        table = {}
        for key, (_unit, _better, bound) in END_TO_END.items():
            series = values[key]
            mid = statistics.median(series)
            shift = abs(statistics.median(series[:half])
                        - statistics.median(series[half:])) / mid \
                if half else 0.0
            stray = max(abs(value - mid) for value in series) / mid
            passed = stray <= 0.10 and shift <= bound
            ok &= passed
            table[key] = {"sets": [series[:half], series[half:]],
                          "min": min(series), "median": mid,
                          "max": max(series), "half_shift": shift,
                          "pass": passed}
            print(f"{name:14s} {key:15s} min {min(series):10.4f} "
                  f"median {mid:10.4f} max {max(series):10.4f} "
                  f"stray {stray:6.1%} halves {shift:6.1%} "
                  f"{'ok' if passed else 'FAIL'}")
        table["spread_raw_vs_ref"] = {
            "raw": _spread(values["harness.raw_op_p50_ms"]),
            "ref": _spread(values["op_p50_ms"])}
        print(f"{name:14s} op p50 spread: raw "
              f"{table['spread_raw_vs_ref']['raw']:.1%}, reference "
              f"{table['spread_raw_vs_ref']['ref']:.1%}")
        table["exact"] = json.loads(sorted(exacts)[0][len("exact "):])
        result["workloads"][name] = table
    result["host"] = host_fingerprint(statistics.median(kernel))
    result["pass"] = bool(ok)
    os.makedirs(workloads.OUT_DIR, exist_ok=True)
    path = os.path.join(workloads.OUT_DIR, "selfcheck.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"selfcheck {'passed' if ok else 'FAILED'}; wrote {path}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=list(SIZES))
    parser.add_argument("--seed", type=int, default=1999)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--quick", action="store_true",
                        help="one short round per workload (smoke test)")
    parser.add_argument("--selfcheck", type=int, metavar="N",
                        help="run every workload N times; test repeatability")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"run.py: nothing to benchmark: no {SRC}/repro",
              file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Set iteration order is part of the layout bias between process
        # instances; fix it for this process and the servers it spawns.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable] + sys.argv)
    pin_to_one_cpu()
    if args.selfcheck:
        return selfcheck(args.selfcheck, args.seed, args.seconds)
    if args.workload is None and not args.quick:
        parser.error("--workload is required (or --quick / --selfcheck)")

    import workloads
    os.makedirs(workloads.scratch_dir(), exist_ok=True)
    fsyncs = workloads.count_fsyncs()
    # Collections are run between ops, never inside one.
    gc.disable()
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    try:
        for name in names:
            metrics, exact, attempted, failed = run_workload(
                name, args.seed, args.seconds, bool(args.trace), args.quick,
                fsyncs)
            report(name, metrics, exact, attempted, failed, bool(args.trace))
    finally:
        shutil.rmtree(workloads.scratch_dir(), ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
