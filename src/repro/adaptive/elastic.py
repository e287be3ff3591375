"""Elastic cluster-width policy: when to split, drain and rebalance shards.

:class:`ElasticPolicy` is to :class:`~repro.cluster.cluster.ClusterServer`
what :class:`~repro.adaptive.policy.AdaptivePolicy` is to
:class:`~repro.service.server.QueryServer`: pure configuration (no state),
evaluated by the cluster after each batch. It closes the serving layer's
last operator loop — the paper's cost-optimal schedules only pay at scale
when sharing is kept where the cost model says it pays, and a fixed shard
topology drifts away from that as queries arrive and depart. The policy
reads two signals:

* **load** — shard sizes against the occupancy target and the ideal
  (population / width), from the cluster's own occupancy; an overloaded
  shard is *split* along its stream-disjoint sub-clusters, an underloaded
  or empty one is *drained*;
* **churn** — admission/departure counts; sustained churn means the
  admission-time placement may have gone stale, triggering a *rebalance*
  (which only moves queries when a fresh partition keeps more overlap).

Automatic splits are *clean*: a shard is only divided along connected
components of its overlap graph, so no shared stream ever crosses the new
boundary and per-query costs are unchanged. The fixed thresholds (the 2x
imbalance split, the quarter-load drain, the 32-shard cap) live in
:mod:`repro.cluster.cluster`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import StreamError

__all__ = ["ElasticPolicy"]


@dataclass(frozen=True)
class ElasticPolicy:
    """Configuration of a cluster's automatic width management.

    Parameters
    ----------
    target_shard_queries:
        Absolute occupancy target: a shard holding more queries than this is
        split regardless of imbalance (the knob that grows the cluster under
        a rising population even when every shard is equally loaded), and
        the cluster consolidates toward ``ceil(population / target)`` shards
        when the population shrinks. ``0`` disables.
    min_split_size:
        Never split a shard holding fewer queries than this (small shards
        are cheap to serve; splitting them only costs topology churn).
    churn_every:
        Churn trigger: request a rebalance after this many admissions plus
        departures since the last rebalance check. ``0`` disables.
    """

    target_shard_queries: int = 0
    min_split_size: int = 8
    churn_every: int = 0

    def __post_init__(self) -> None:
        if self.target_shard_queries < 0:
            raise StreamError(
                f"target_shard_queries must be >= 0, got {self.target_shard_queries}"
            )
        if self.min_split_size < 2:
            raise StreamError(
                f"min_split_size must be >= 2, got {self.min_split_size}"
            )
        if self.churn_every < 0:
            raise StreamError(f"churn_every must be >= 0, got {self.churn_every}")
