"""Adaptive serving: online selectivity tracking and drift-triggered re-planning.

The paper's schedules are only optimal for the probabilities they were
planned with; in a long-running server those probabilities drift. This
package closes the loop:

* :mod:`~repro.adaptive.tracker` — per-leaf Beta posteriors over a sliding
  window of observed probe outcomes (:class:`LeafPosterior`,
  :class:`SelectivityTracker`);
* :mod:`~repro.adaptive.policy` — the knobs (:class:`AdaptivePolicy`:
  window, divergence threshold, minimum evidence, re-plan cooldown) and the
  :class:`ReplanEvent` audit record;
* :mod:`~repro.adaptive.controller` — :class:`AdaptiveController`, the state
  machine a :class:`~repro.service.server.QueryServer` consults every round:
  it pools outcomes per *canonical* leaf across isomorphic queries, detects
  divergence from the probabilities the current plan assumed, and proposes
  updated probabilities for an incremental re-plan (:class:`ShapeBelief`
  snapshots carry that state across shard migrations);
* :mod:`~repro.adaptive.elastic` — :class:`ElasticPolicy`, the cluster-level
  sibling: an occupancy target, a split floor and a churn counter that
  let a :class:`~repro.cluster.cluster.ClusterServer` split, drain and
  rebalance its shards without operator calls.

The server wires it in behind ``QueryServer(adaptive=AdaptivePolicy(...))``:
on drift it re-runs the admission scheduler on the updated canonical leaves,
invalidates the stale :class:`~repro.service.plan_cache.PlanCache` entries,
re-expands the schedule for every registered isomorph and rewrites their
rows of the server's :class:`~repro.service.shared_plan.RoundProgram`.
"""

from repro.adaptive.controller import AdaptiveController, ShapeBelief
from repro.adaptive.elastic import ElasticPolicy
from repro.adaptive.policy import AdaptivePolicy, ReplanEvent
from repro.adaptive.tracker import LeafPosterior, SelectivityTracker

__all__ = [
    "AdaptivePolicy",
    "ElasticPolicy",
    "ReplanEvent",
    "LeafPosterior",
    "SelectivityTracker",
    "AdaptiveController",
    "ShapeBelief",
]
