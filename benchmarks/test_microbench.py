"""Microbenchmarks of the core machinery.

Not paper figures — these track the cost of the hot operations every
experiment leans on, so performance regressions in the kernel, the PS
servers, the expression evaluator, or the optimizer show up in CI.
"""

from repro.allocation import Matcher, instantiate_option
from repro.cluster import Cluster, Kernel
from repro.cluster.resources import FairShareServer
from repro.controller import AdaptationController, GreedyOptimizer
from repro.prediction import DefaultModel, SystemView
from repro.rsl import build_bundle, parse_expression


def test_kernel_event_throughput(benchmark):
    """Spawn/run 1000 interleaved timeout processes."""
    def run():
        kernel = Kernel()
        done = []

        def worker(index):
            yield kernel.timeout(index % 13)
            done.append(index)

        for index in range(1000):
            kernel.spawn(worker(index))
        kernel.run()
        return len(done)

    assert benchmark(run) == 1000


def test_fair_share_churn_throughput(benchmark):
    """500 staggered jobs through one processor-sharing server."""
    def run():
        kernel = Kernel()
        server = FairShareServer(kernel, capacity=4.0)

        def job(index):
            yield kernel.timeout(index * 0.01)
            yield server.submit(1.0 + index % 5)

        for index in range(500):
            kernel.spawn(job(index))
        kernel.run()
        return server.completed_jobs

    assert benchmark(run) == 500


def test_expression_evaluation_speed(benchmark):
    """The Figure 3 link expression, evaluated repeatedly."""
    expr = parse_expression(
        "44 + (client.memory > 24 ? 24 : client.memory) - 17")
    env = {"client.memory": 32.0}

    result = benchmark(expr.evaluate, env)
    assert result == 51.0


def test_default_model_prediction_speed(benchmark):
    cluster = Cluster.star("server0", [f"c{i}" for i in range(8)],
                           memory_mb=128)
    view = SystemView(cluster)
    matcher = Matcher(cluster)
    bundle = build_bundle("""
harmonyBundle DB where {
    {QS {node server {hostname server0} {seconds 9} {memory 20}}
        {node client {seconds 1} {memory 2}}
        {link client server 2}}}""")
    demands = instantiate_option(bundle.option_named("QS"))
    assignment = matcher.match(demands)
    for index in range(6):
        view.place(f"db{index}", demands, assignment)
    model = DefaultModel()

    predicted = benchmark(model.predict, demands, assignment, view, "db0")
    assert predicted > 9.0


def test_greedy_optimization_speed(benchmark):
    """One full greedy pass over an 8-way variable-parallelism bundle."""
    from repro.apps.bag import bag_bundle_rsl
    cluster = Cluster.full_mesh([f"n{i}" for i in range(8)],
                                memory_mb=128)
    controller = AdaptationController(cluster)
    instance = controller.registry.register("Bag", 0.0)
    state = controller.registry.add_bundle(
        instance, build_bundle(bag_bundle_rsl(
            "Bag", 2400, list(range(1, 9)))))
    context = controller.optimization_context()
    optimizer = GreedyOptimizer()

    result = benchmark(optimizer.optimize_bundle, instance, state, context)
    assert result.best.variable_assignment["workerNodes"] == 5.0
