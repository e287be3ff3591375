"""Execution engine: scalar and vectorized executors, sessions, batteries.

Two interchangeable trial engines implement the same execution semantics:

* :class:`ScheduleExecutor` — the scalar pull-model reference, one leaf at
  a time (the only engine for real-data :class:`PredicateOracle` runs);
* :class:`VectorizedExecutor` — N trials at once over a compiled numpy
  program, bit-for-bit equivalent per trial (see
  :mod:`repro.engine.vectorized` for the contract).

:func:`run_battery` / :func:`estimate_schedule_cost` select between them by
name; the experiment drivers and the CLI expose the choice as
``engine="scalar" | "vectorized"``. The serving layer has one round loop of
its own (:class:`repro.service.shared_plan.RoundProgram`, step *k* of every
resident's schedule at once) and selects nothing.
"""

from repro.engine.battery import (
    TRIAL_ENGINES,
    Battery,
    TrialBatteryResult,
    estimate_schedule_cost,
    run_battery,
)
from repro.engine.executor import (
    BernoulliOracle,
    DriftingBernoulliOracle,
    ExecutionResult,
    LeafOracle,
    PrecomputedOracle,
    PredicateOracle,
    ScheduleExecutor,
)
from repro.engine.nonlinear_executor import StrategyExecutor
from repro.engine.session import ContinuousQuerySession, SessionReport
from repro.engine.vectorized import BatchResult, VectorizedExecutor
from repro.engine.workload import (
    QueryWorkload,
    WorkloadQuery,
    WorkloadReport,
    compute_max_windows,
)

__all__ = [
    "ScheduleExecutor",
    "StrategyExecutor",
    "VectorizedExecutor",
    "BatchResult",
    "ExecutionResult",
    "LeafOracle",
    "BernoulliOracle",
    "DriftingBernoulliOracle",
    "PredicateOracle",
    "PrecomputedOracle",
    "ContinuousQuerySession",
    "SessionReport",
    "Battery",
    "TrialBatteryResult",
    "run_battery",
    "estimate_schedule_cost",
    "TRIAL_ENGINES",
    "QueryWorkload",
    "WorkloadQuery",
    "WorkloadReport",
    "compute_max_windows",
]
