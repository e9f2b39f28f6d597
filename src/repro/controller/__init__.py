"""The Harmony adaptation controller: objectives, optimizers, policies."""

from repro.controller.controller import (
    AdaptationController,
    DecisionPolicy,
    DecisionRecord,
    ModelDrivenPolicy,
    ReconfigurationEvent,
    SessionLifecycleEvent,
)
from repro.controller.events import PerformanceEvent, PerformanceEventMonitor
from repro.controller.federation import (
    ControllerShard,
    Federation,
    RootArbiter,
    ShardMap,
    shard_hash,
)
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
    ExhaustiveOptimizer,
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
    "ClientCountRulePolicy", "DecisionRecord", "ReconfigurationEvent",
    "SessionLifecycleEvent", "CoalescingScheduler",
    "Objective", "MeanResponseTime", "MaxResponseTime",
    "ThroughputObjective", "WeightedMeanResponseTime",
    "GreedyOptimizer", "ExhaustiveOptimizer", "Candidate",
    "OptimizationContext", "ConfigurationCache", "enumerate_candidates",
    "OptimizerStats", "TrialEngine", "ViewTrial",
    "PartitionIndex",
    "Federation", "ControllerShard", "RootArbiter", "ShardMap",
    "shard_hash",
    "FrictionPolicy", "SwitchDecision",
    "PerformanceEventMonitor", "PerformanceEvent",
    "ApplicationRegistry", "AppInstance", "BundleState",
    "ChosenConfiguration",
]
