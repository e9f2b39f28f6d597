"""The Harmony adaptation controller: objectives, optimizers, policies."""

from repro.controller.controller import (
    AdaptationController,
    DecisionPolicy,
    ModelDrivenPolicy,
    ReconfigurationEvent,
)
from repro.controller.events import PerformanceEventMonitor
from repro.controller.friction import FrictionPolicy, SwitchDecision
from repro.controller.objective import (
    MaxResponseTime,
    MeanResponseTime,
    Objective,
    ThroughputObjective,
    WeightedMeanResponseTime,
)
from repro.controller.optimizer import (
    Candidate,
    ConfigurationCache,
    GreedyOptimizer,
    OptimizationContext,
    enumerate_candidates,
)
from repro.controller.partition import PartitionIndex
from repro.controller.policies import ClientCountRulePolicy
from repro.controller.scheduler import CoalescingScheduler
from repro.controller.trial import OptimizerStats, TrialEngine, ViewTrial
from repro.controller.registry import (
    AppInstance,
    ApplicationRegistry,
    BundleState,
    ChosenConfiguration,
)

__all__ = [
    "AdaptationController", "DecisionPolicy", "ModelDrivenPolicy",
    "ClientCountRulePolicy", "ReconfigurationEvent",
    "CoalescingScheduler",
    "Objective", "MeanResponseTime", "MaxResponseTime",
    "ThroughputObjective", "WeightedMeanResponseTime",
    "GreedyOptimizer", "Candidate",
    "OptimizationContext", "ConfigurationCache", "enumerate_candidates",
    "OptimizerStats", "TrialEngine", "ViewTrial",
    "PartitionIndex",
    "FrictionPolicy", "SwitchDecision",
    "PerformanceEventMonitor",
    "ApplicationRegistry", "AppInstance", "BundleState",
    "ChosenConfiguration",
]
