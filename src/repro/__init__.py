"""repro — a reproduction of *Exposing Application Alternatives* (ICDCS 1999).

The paper is the early design paper of the **Active Harmony** automatic
runtime tuning system: applications export *bundles* of mutually exclusive
tuning options (with quantified resource requirements, written in a
TCL-hosted resource specification language) to a central adaptation
controller, which matches them to resources, predicts performance, and
reconfigures running applications to optimize a global objective.

Package map:

* :mod:`repro.rsl` — the Harmony RSL: tokenizer, parser, parametric
  expressions, constraints, Table 1 tags, bundle model;
* :mod:`repro.namespace` — the hierarchical
  ``app.instance.bundle.option.resource.tag`` namespace;
* :mod:`repro.cluster` — the simulated meta-computing environment
  (discrete-event kernel, fair-share CPUs and links, topology);
* :mod:`repro.metrics` — the metric interface;
* :mod:`repro.allocation` — demand instantiation and first-fit matching;
* :mod:`repro.prediction` — default and explicit performance models;
* :mod:`repro.controller` — the adaptation controller, objectives,
  greedy and pairwise optimizers, friction gating, policies;
* :mod:`repro.api` — the client library (``harmony_startup`` et al.),
  Harmony variables, wire protocol, in-process and TCP transports, server;
* :mod:`repro.apps` — harmonized applications: Simple, Bag, and the
  client-server database, plus the Figure 4 and Figure 7 experiment
  harnesses.

Quickstart::

    from repro import Cluster, AdaptationController

    cluster = Cluster.full_mesh([f"n{i}" for i in range(4)])
    controller = AdaptationController(cluster)
    app = controller.register_app("MyApp")
    controller.setup_bundle(app, '''
        harmonyBundle MyApp size {
            {small {node worker {seconds 100} {memory 16}}}
            {large {node worker {seconds 60} {memory 64}
                                {replicate 2}}}}
    ''')
    print(controller.describe_system())
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

#: Public name -> the package that exports it, imported on first read.
_EXPORTS = {
    "Cluster": "repro.cluster",
    "Kernel": "repro.cluster",
    "AdaptationController": "repro.controller",
    "ModelDrivenPolicy": "repro.controller",
    "ClientCountRulePolicy": "repro.controller",
    "MeanResponseTime": "repro.controller",
    "ThroughputObjective": "repro.controller",
    "FrictionPolicy": "repro.controller",
    "HarmonyClient": "repro.api",
    "HarmonyServer": "repro.api",
    "HarmonyVariable": "repro.api",
    "VariableType": "repro.api",
    "connected_pair": "repro.api",
    "Namespace": "repro.namespace",
    "MetricInterface": "repro.metrics",
    "Bundle": "repro.rsl",
    "build_bundle": "repro.rsl",
    "build_script": "repro.rsl",
    "parse_expression": "repro.rsl",
    "HarmonyError": "repro.errors",
}

__all__ = [*_EXPORTS, "__version__"]
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
