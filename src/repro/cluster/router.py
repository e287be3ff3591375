"""The cluster's front door: route each admission to its best shard.

Routing mirrors the partitioner's objective online: a new query should land
where its streams already are. The router scores every shard by the overlap
between the query's stream weight vector and the shard's signature
(``sum_s min(w_query[s], signature[s])`` — the per-round spend the query can
share with residents), picks the best-overlapping shard, and falls back to
the least-loaded shard when no shard holds any of the query's streams (a
cold stream group starts wherever there is room). Capacity-full shards are
skipped; ties break to the lighter, then lower-numbered shard, so routing is
deterministic.

:meth:`ShardRouter.route_group` scores a whole migration group (a drained
shard's stream-disjoint component) the same way, so elastic moves and
admissions share one placement objective.

Scores read each shard's live :attr:`~repro.cluster.shard.Shard.signature`,
the exact per-stream maxima of the shard's incidence index. Every
admission, departure and migration updates the index in place, so a route
made right after any of them (or a rebalance) already sees it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.cluster.partition import TreeLike, stream_weight_vector
from repro.cluster.shard import Shard
from repro.errors import AdmissionError

__all__ = ["RoutingDecision", "ShardRouter"]


@dataclass(frozen=True)
class RoutingDecision:
    """Where one admission (or migration group) went and why."""

    query: str
    shard_id: int
    overlap: float
    #: "overlap" when the query shared streams with the chosen shard,
    #: "least-loaded" when no shard held any of its streams.
    reason: str


@dataclass
class ShardRouter:
    """Stateless-per-decision scorer over a cluster's live shards."""

    costs: Mapping[str, float]
    max_shard_queries: int | None = None
    #: Admissions recorded, and how many of them found their streams
    #: already resident somewhere.
    routed: int = 0
    overlap_hits: int = 0
    last_decision: RoutingDecision | None = None

    def route(
        self, name: str, tree: TreeLike, shards: Sequence[Shard]
    ) -> RoutingDecision:
        """Pick a shard for ``name`` (pure — no state is recorded).

        The caller logs the decision with :meth:`record` once the admission
        actually succeeds, so a rejected registration never skews the
        routing statistics.
        """
        weights = stream_weight_vector(tree, self.costs)
        loads = {shard.shard_id: len(shard) for shard in shards}
        return self.route_group(name, weights, shards, loads)

    def route_group(
        self,
        label: str,
        weights: Mapping[str, float],
        shards: Sequence[Shard],
        loads: Mapping[int, int],
        *,
        group_size: int = 1,
    ) -> RoutingDecision:
        """Pick a shard for a stream weight vector covering ``group_size``
        queries (a single admission, or a whole migration group moving as a
        unit). ``loads`` (shard id -> resident count), not the shards' own
        sizes, decides capacity and the lighter-shard tie-break, so a drain
        can route every component before any moves. Pure: records nothing.

        Raises :class:`~repro.errors.AdmissionError` when no shard exists or
        none has capacity for the whole group.
        """
        if not shards:
            raise AdmissionError("cluster has no shards to route to")
        if group_size < 1:
            raise AdmissionError(f"group size must be >= 1, got {group_size}")
        best_id: int | None = None
        best_key: tuple[float, int, int] | None = None
        for shard in shards:
            load = loads[shard.shard_id]
            if (
                self.max_shard_queries is not None
                and load + group_size > self.max_shard_queries
            ):
                continue
            signature = shard.signature
            overlap = sum(
                min(weight, signature.get(stream, 0.0))
                for stream, weight in weights.items()
            )
            # Maximize overlap, then prefer the lighter, lower-numbered shard.
            key = (-overlap, load, shard.shard_id)
            if best_key is None or key < best_key:
                best_key = key
                best_id = shard.shard_id
        if best_id is None:
            raise AdmissionError(
                f"all {len(shards)} shards are at capacity "
                f"({self.max_shard_queries} queries; group of {group_size} "
                f"would not fit anywhere)"
            )
        assert best_key is not None
        overlap = -best_key[0]
        return RoutingDecision(
            query=label,
            shard_id=best_id,
            overlap=overlap,
            reason="overlap" if overlap > 0.0 else "least-loaded",
        )

    def record(self, decision: RoutingDecision) -> None:
        """Count a decision whose admission went through."""
        self.routed += 1
        if decision.reason == "overlap":
            self.overlap_hits += 1
        self.last_decision = decision

    @property
    def overlap_hit_rate(self) -> float:
        return self.overlap_hits / self.routed if self.routed else 0.0
