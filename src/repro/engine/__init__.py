"""Execution engine: the scalar reference executor, the vectorized trial
engine, sessions and batteries.

* :class:`ScheduleExecutor` — the pull-model reference, one leaf at a time.
  Sessions, real-data :class:`PredicateOracle` runs and the serving layer's
  isolated baseline (:func:`repro.service.run_isolated`) execute on it, and
  the differential harness checks the vectorized engine against it.
* :class:`VectorizedExecutor` — N independent trials at once over a
  compiled numpy program, bit-for-bit equivalent per trial (see
  :mod:`repro.engine.vectorized` for the contract). It is the one trial
  path: :func:`run_battery`, :func:`estimate_schedule_cost` and
  :func:`repro.core.montecarlo.monte_carlo_cost` all draw through it.

Several queries over one shared cache are served by
:class:`repro.service.QueryServer`, whose round loop
(:class:`repro.service.shared_plan.RoundProgram`) takes step *k* of every
resident's schedule at once.
"""

from repro.engine.battery import (
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
]
