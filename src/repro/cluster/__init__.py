"""Sharded serving cluster.

One :class:`~repro.service.QueryServer` scales until its round — every
resident query's schedule over one cache, on one thread — becomes the
bottleneck. This package splits the population where the cost
model says sharing stops paying:

* :mod:`~repro.cluster.partition` — the query<->stream overlap graph,
  connected-component clustering with LPT packing and label-propagation
  refinement, and reports explaining what a partition keeps, cuts and
  duplicates;
* :mod:`~repro.cluster.shard` — one shard: a :class:`Shard` keeping the
  incidence index every placement decision reads, and sending every
  other operation through the one command table, over an in-process
  transport (thread mode) or a worker pipe
  (:mod:`~repro.cluster.worker`, process mode);
* :mod:`~repro.cluster.router` — the front door scoring each admission
  against every shard's signature;
* :mod:`~repro.cluster.cluster` — :class:`ClusterServer`: one fan-out that
  sends each batch to every shard before awaiting any reply, one
  cluster-wide plan cache, elastic width
  (online ``split_shard``/``drain_shard``/``resize`` with full serving-state
  migration, auto-managed by an :class:`~repro.adaptive.ElasticPolicy`),
  online ``rebalance()``, and :class:`ClusterReport` aggregation.
"""

from repro.cluster.cluster import (
    ClusterReport,
    ClusterServer,
    ElasticEvent,
    default_oracle_factory,
)
from repro.cluster.partition import (
    OverlapGraph,
    Partition,
    PartitionReport,
    build_overlap_graph,
    pack_pieces,
    partition_by_overlap,
    partition_report,
    random_partition,
    shard_split_pieces,
    stream_weight_vector,
)
from repro.cluster.router import RoutingDecision, ShardRouter
from repro.cluster.shard import InProcessTransport, Shard, WorkerConfig
from repro.cluster.worker import RemotePlanCache, WorkerTransport

__all__ = [
    "OverlapGraph",
    "Partition",
    "PartitionReport",
    "build_overlap_graph",
    "partition_by_overlap",
    "partition_report",
    "random_partition",
    "stream_weight_vector",
    "Shard",
    "ShardRouter",
    "RoutingDecision",
    "ClusterServer",
    "ClusterReport",
    "ElasticEvent",
    "default_oracle_factory",
    "pack_pieces",
    "shard_split_pieces",
    "WorkerConfig",
    "InProcessTransport",
    "WorkerTransport",
    "RemotePlanCache",
]
