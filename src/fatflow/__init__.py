"""fatflow: deterministic flow-level simulation of fat-tree data centers."""

from .engine import Engine, EngineParams, waterfill
from .experiment import ExperimentConfig, run_experiment, run_one
from .schedulers import SchedulerDecision, SchedulerKind
from .topology import (Link, NodeId, Path, Topology, build_fat_tree,
                       build_nonblocking)
from .traffic import Flow, WorkloadSpec, generate_workload

__all__ = [
    "Engine", "EngineParams", "waterfill",
    "ExperimentConfig", "run_experiment", "run_one",
    "SchedulerDecision", "SchedulerKind",
    "Link", "NodeId", "Path", "Topology",
    "build_fat_tree", "build_nonblocking",
    "Flow", "WorkloadSpec", "generate_workload",
]

__version__ = "0.1.0"
