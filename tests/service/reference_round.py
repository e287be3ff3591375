"""The original per-probe object walk of one shared-plan round, kept as a test oracle.

Every probe re-checks its query's ``ResolutionState``, fetches its window
through ``cache.fetch_window`` and accounts itself through
``RoundStats.record_probe``. :func:`repro.service.shared_plan.execute_round`
must return exactly what this returns — the same ``ExecutionResult``s, the
same ``RoundStats`` and the same cache and oracle state afterwards.
"""

from __future__ import annotations

from typing import Mapping, Union

from repro.core.resolution import TreeIndex
from repro.engine.executor import ExecutionResult, LeafOracle
from repro.service.shared_plan import RoundStats, SharedPlan
from repro.streams.cache import CountingCache, DataItemCache


def execute_round(
    plan: SharedPlan,
    indexes: Mapping[str, TreeIndex],
    cache: Union[DataItemCache, CountingCache],
    oracles: Mapping[str, LeafOracle],
) -> tuple[dict[str, ExecutionResult], RoundStats]:
    """Run one round of the shared plan with per-query early termination.

    Walks the global probe order once; a probe is skipped for free when its
    query's root is already resolved (early termination) or the leaf's AND/OR
    ancestors short-circuited it away. Returns per-query
    :class:`~repro.engine.executor.ExecutionResult` (identical semantics to
    running each query through :class:`~repro.engine.executor.ScheduleExecutor`)
    plus round-level sharing statistics.
    """
    states = {name: index.new_state() for name, index in indexes.items()}
    evaluated: dict[str, list[int]] = {name: [] for name in indexes}
    skipped: dict[str, list[int]] = {name: [] for name in indexes}
    outcomes: dict[str, dict[int, bool]] = {name: {} for name in indexes}
    stats = RoundStats()
    for probe in plan.probes:
        state = states[probe.query]
        if state.root_value is not None or state.is_skipped(probe.gindex):
            skipped[probe.query].append(probe.gindex)
            continue
        leaf = indexes[probe.query].tree.leaves[probe.gindex]
        fetch = cache.fetch_window(leaf.stream, leaf.items)
        outcome = oracles[probe.query].outcome(probe.gindex, leaf, fetch.values)
        outcomes[probe.query][probe.gindex] = outcome
        evaluated[probe.query].append(probe.gindex)
        state.set_leaf(probe.gindex, outcome)
        stats.record_probe(probe.query, leaf.items, fetch.cost, fetch.fetched_items)
    results: dict[str, ExecutionResult] = {}
    for name, state in states.items():
        value = state.root_value
        assert value is not None, "a full schedule always resolves the root"
        results[name] = ExecutionResult(
            value=value,
            cost=stats.query_cost.get(name, 0.0),
            evaluated=tuple(evaluated[name]),
            skipped=tuple(skipped[name]),
            outcomes=outcomes[name],
        )
    return results, stats
