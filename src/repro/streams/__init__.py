"""Sensor-stream substrate: specs, sources, cost models, cache, traces."""

from repro.streams.cache import (
    CountingCache,
    DataItemCache,
    FetchResult,
    compute_max_windows,
)
from repro.streams.drift import DriftingSource, DriftSchedule, RampDrift, StepDrift
from repro.streams.cost_models import (
    BLUETOOTH_LE,
    CELLULAR,
    WIFI,
    ZIGBEE,
    CostModel,
    EnergyCost,
    Medium,
    TableCost,
    UniformCost,
    cost_table,
)
from repro.streams.failures import DropoutSource, FailingSource
from repro.streams.registry import StreamRegistry
from repro.streams.sources import (
    ConstantSource,
    GaussianSource,
    MarkovChainSource,
    PeriodicSource,
    RandomWalkSource,
    ReplaySource,
    Source,
    UniformSource,
)
from repro.streams.stream import StreamSpec
from repro.streams.traces import LeafTrace, TraceRecorder, estimate_probability

__all__ = [
    "StreamSpec",
    "StreamRegistry",
    "Source",
    "UniformSource",
    "GaussianSource",
    "RandomWalkSource",
    "PeriodicSource",
    "MarkovChainSource",
    "ConstantSource",
    "ReplaySource",
    "DropoutSource",
    "FailingSource",
    "DriftSchedule",
    "StepDrift",
    "RampDrift",
    "DriftingSource",
    "DataItemCache",
    "CountingCache",
    "FetchResult",
    "compute_max_windows",
    "CostModel",
    "UniformCost",
    "TableCost",
    "EnergyCost",
    "Medium",
    "BLUETOOTH_LE",
    "WIFI",
    "ZIGBEE",
    "CELLULAR",
    "cost_table",
    "TraceRecorder",
    "LeafTrace",
    "estimate_probability",
]
