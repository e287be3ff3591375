#!/usr/bin/env python3
"""Elastic serving: a cluster that reshapes itself under churn.

A serving fleet's population is never static — interest groups arrive, live
for a while and leave. This example drives a churn-over-time population
(:func:`repro.generators.churn_schedule`) through a
:class:`~repro.cluster.ClusterServer` governed by an
:class:`~repro.adaptive.ElasticPolicy`:

* the cluster starts one shard wide and **auto-splits** along stream-
  disjoint sub-clusters as arrivals pile load onto it (splits move whole
  overlap components with their cache state, so no query's cost changes);
* as departures thin the population out, the policy **consolidates** —
  draining underloaded shards through the router, whole components at a
  time;
* at the end we **drain on shutdown**: resize to one shard and show the
  survivors still serving, bit-identical to where they would be on an
  unsharded server.

Run: python examples/elastic_cluster.py
"""

from repro.adaptive import ElasticPolicy
from repro.cluster import ClusterServer
from repro.generators import churn_schedule, clustered_registry, events_by_batch

N_CLUSTERS, STREAMS_PER_CLUSTER, N_QUERIES = 6, 4, 180
BATCHES, ROUNDS_PER_BATCH = 12, 4


def main() -> None:
    registry = clustered_registry(N_CLUSTERS, STREAMS_PER_CLUSTER, seed=42)
    schedule = events_by_batch(
        churn_schedule(
            N_QUERIES,
            registry,
            N_CLUSTERS,
            STREAMS_PER_CLUSTER,
            batches=BATCHES,
            mean_lifetime=5.0,
            seed=43,
        )
    )
    policy = ElasticPolicy(
        target_shard_queries=N_QUERIES // N_CLUSTERS,  # ~30 queries per shard
        min_split_size=8,
        churn_every=N_QUERIES // 2,
    )
    cluster = ClusterServer(registry, n_shards=1, elastic=policy, seed=7)

    print(f"serving {BATCHES} batches of churn (policy target "
          f"{policy.target_shard_queries} queries/shard):\n")
    for batch in range(BATCHES):
        admitted = departed = 0
        for event in schedule.get(batch, []):
            if event.action == "depart":
                if event.name in cluster:
                    cluster.deregister(event.name)
                    departed += 1
            else:
                cluster.register(event.name, event.tree)
                admitted += 1
        if not len(cluster):
            continue
        report = cluster.run_batch(ROUNDS_PER_BATCH)
        line = (
            f"batch {batch:2d}: +{admitted:2d}/-{departed:2d} -> "
            f"{len(cluster):3d} queries on {cluster.n_shards} shards, "
            f"cost {report.total_cost:8.2f}"
        )
        print(line)
        for action in report.elastic_actions:
            print(f"          elastic: {action}")

    print(f"\n{cluster.describe()}")

    # Drain on shutdown: consolidate everything onto one shard, retire the
    # rest. Migrations carry plans, oracles and cache state, so the final
    # batch costs exactly what it would have cost without the shutdown.
    events = cluster.resize(1)
    print(f"\nshutdown: {len(events)} drains -> width {cluster.n_shards}")
    final = cluster.run_batch(ROUNDS_PER_BATCH)
    print(
        f"final batch on the survivor shard: {final.n_queries} queries, "
        f"cost {final.total_cost:.2f}"
    )
    print(f"lifetime: {cluster.splits} splits, {cluster.drains} drains, "
          f"{cluster.rebalances} rebalances")


if __name__ == "__main__":
    main()
