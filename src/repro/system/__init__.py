"""System layer: hybrid memory, metadata caches, simulator, statistics.

The simulator submodule is re-exported lazily (PEP 562): it imports the
manager implementations, which in turn import this package's substrate
modules, so an eager import here would create a cycle.
"""

from .cache import MetadataCache
from .energy import EnergyModel, EnergyParams, EnergyReport, report_for
from .hybrid import HybridMemory, SingleLevelMemory, build_device
from .stats import (
    SimulationResult,
    arithmetic_mean,
    collect_result,
)

_SIMULATOR_NAMES = {"MANAGER_KINDS", "build_manager", "run", "simulate"}

__all__ = [
    "EnergyModel",
    "EnergyParams",
    "EnergyReport",
    "HybridMemory",
    "report_for",
    "MANAGER_KINDS",
    "MetadataCache",
    "SimulationResult",
    "SingleLevelMemory",
    "arithmetic_mean",
    "build_device",
    "build_manager",
    "collect_result",
    "run",
    "simulate",
]


def __getattr__(name):
    if name in _SIMULATOR_NAMES:
        from . import simulator

        return getattr(simulator, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
