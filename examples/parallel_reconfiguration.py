#!/usr/bin/env python3
"""The paper's Figure 4: repartitioning eight processors as jobs arrive.

Variable-parallelism Bag applications (runtime model ``T/n + 12(n-1)^2``,
optimal at five nodes) arrive every 1500 simulated seconds on an
eight-node cluster.  The model-driven controller initially gives the first
job five nodes — not six — and then repartitions into equal shares as more
instances arrive: 4+4, then 3+3+2.

The script prints Figure 4(b) as a per-frame processor map and Figure 4(a)
as each application's iteration times.

Run:  python examples/parallel_reconfiguration.py [--apps N]
"""

import argparse

from repro.apps.parallel_experiment import (
    ParallelExperimentConfig,
    run_parallel_experiment,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--apps", type=int, default=3,
                        help="number of arriving instances (paper: up to 3)")
    args = parser.parse_args()

    config = ParallelExperimentConfig(
        app_count=args.apps,
        arrival_interval_seconds=1500.0,
        total_duration_seconds=1500.0 * (args.apps + 1))
    print(f"running the Figure 4 experiment with {args.apps} arrivals "
          f"on {config.node_count} nodes...")
    result = run_parallel_experiment(config)

    print("\nFigure 4(b) -- configurations chosen per time frame:")
    print(f"  {'frame':6s} {'apps':5s} {'partition':12s} processors")
    for frame in result.frames:
        bar = ""
        for app, count in sorted(frame.node_counts.items()):
            bar += app[-1] * count
        bar = bar.ljust(config.node_count, ".")[:config.node_count + 4]
        partition = "+".join(str(n) for n in frame.partition())
        print(f"  {frame.frame_index:<6d} {frame.active_apps:<5d} "
              f"{partition:12s} [{bar}]")

    print("\nFigure 4(a) -- iteration times per application:")
    for app, series in sorted(result.iteration_series.items()):
        trace = "  ".join(f"{elapsed:5.0f}s@{workers}n"
                          for _t, elapsed, workers in series)
        print(f"  {app}: {trace}")

    print("\ndecisions:")
    for trace in result.decision_traces:
        print(f"  t={trace.time:7.1f}  {trace.app_key:8s} "
              f"{trace.old_configuration or 'start':22s} -> "
              f"{trace.new_configuration:22s} ({trace.trigger[:48]})")

    print("\nnote the five-node (not six) first frame and the equal "
          "partitions afterwards,\nexactly as the paper's caption "
          "describes.")


if __name__ == "__main__":
    main()
