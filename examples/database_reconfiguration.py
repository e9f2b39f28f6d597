#!/usr/bin/env python3
"""The paper's Section 6 experiment: query shipping vs. data shipping.

Three database clients run the Wisconsin join workload against one server,
arriving 200 simulated seconds apart.  Harmony (configured, as in the
paper, with "a simple rule for changing configurations based on the number
of active clients") starts everyone with query shipping and switches all
clients to data shipping shortly after the third client appears.

The script prints the Figure 7 time series as an ASCII plot: mean response
time per 25-second bucket, per client, with the reconfiguration marked.

Run:  python examples/database_reconfiguration.py [--policy rule|model]
"""

import argparse

from repro.apps.database import (
    DatabaseExperimentConfig,
    run_database_experiment,
)


def ascii_plot(result, bucket_seconds=25.0, height=12) -> list[str]:
    """Render the response-time series the way Figure 7 plots them."""
    all_points = []
    for client, series in sorted(result.response_series.items()):
        buckets = {}
        for time, response in series:
            buckets.setdefault(int(time // bucket_seconds), []).append(
                response)
        points = {bucket: sum(v) / len(v) for bucket, v in buckets.items()}
        all_points.append((client, points))

    max_bucket = max(max(p) for _c, p in all_points)
    max_value = max(max(p.values()) for _c, p in all_points) * 1.05
    marks = "123"
    grid = [[" "] * (max_bucket + 1) for _ in range(height)]
    for index, (client, points) in enumerate(all_points):
        for bucket, value in points.items():
            row = height - 1 - int(value / max_value * height)
            row = min(max(row, 0), height - 1)
            cell = grid[row][bucket]
            grid[row][bucket] = "*" if cell not in (" ", marks[index]) \
                else marks[index]

    lines = []
    for row_index, row in enumerate(grid):
        level = max_value * (height - row_index) / height
        lines.append(f"{level:6.1f} s |" + "".join(row))
    axis = "-" * (max_bucket + 1)
    lines.append("         +" + axis)
    switch_bucket = (int(result.switch_time // bucket_seconds)
                     if result.switch_time else None)
    ticks = [" "] * (max_bucket + 1)
    for arrival in range(result.config.client_count):
        bucket = int(arrival * result.config.arrival_interval_seconds
                     // bucket_seconds)
        ticks[bucket] = "A"
    if switch_bucket is not None and switch_bucket <= max_bucket:
        ticks[switch_bucket] = "S"
    lines.append("          " + "".join(ticks)
                 + "   (A = client arrival, S = QS->DS switch)")
    return lines


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--policy", choices=("rule", "model"),
                        default="rule",
                        help="the paper's client-count rule, or the "
                             "Section 4 model-driven optimizer")
    parser.add_argument("--tuples", type=int, default=10_000,
                        help="tuples per Wisconsin relation "
                             "(100000 = paper scale)")
    args = parser.parse_args()

    print(f"running the Section 6 experiment (policy={args.policy}, "
          f"{args.tuples} tuples/relation)...")
    result = run_database_experiment(DatabaseExperimentConfig(
        tuple_count=args.tuples, policy=args.policy))

    print(f"\n{result.queries_total} queries executed; "
          f"QS->DS switch at t="
          f"{result.switch_time and round(result.switch_time)} s\n")

    print("mean response time per phase:")
    for phase in result.phases:
        means = ", ".join(f"{c}={v:.1f}s" for c, v in sorted(
            phase.mean_response_by_client.items()))
        print(f"  [{phase.start_time:4.0f}..{phase.end_time:4.0f}) "
              f"{phase.active_clients} client(s), "
              f"{phase.dominant_option}: {means}")

    print("\nFigure 7 (clients 1/2/3; * = overlap):\n")
    for line in ascii_plot(result):
        print(line)

    print("\ncontroller decisions:")
    for trace in result.decision_traces:
        print(f"  t={trace.time:6.1f}  {trace.app_key}: "
              f"{trace.old_configuration or 'start'} -> "
              f"{trace.new_configuration}  ({trace.trigger})")


if __name__ == "__main__":
    main()
