#!/usr/bin/env python3
"""Sharded cluster serving: partition by stream overlap, serve per shard.

A fleet's query population arrives in interest groups — each group's queries
window the same few streams and share nothing with the others. One
:class:`~repro.service.QueryServer` still serves them correctly, but every
round and every recompile after churn covers the whole population, though
no window is ever shared across groups. This example:

* generates an overlap-clustered population (6 stream groups, 180 queries);
* partitions it with the stream-overlap partitioner and prints the report
  (everything kept, nothing cut, nothing duplicated);
* serves it on a 6-shard :class:`~repro.cluster.ClusterServer` vs the
  unsharded server — same per-query costs, a multiple of the throughput;
* routes a runtime admission to its home shard, then degrades the placement
  on purpose (random partition) and repairs it with ``rebalance()``.

Run: python examples/cluster_serving.py
"""

from repro.cluster import ClusterServer, default_oracle_factory
from repro.generators import clustered_registry, overlap_clustered_population
from repro.service import QueryServer

N_CLUSTERS, STREAMS_PER_CLUSTER, N_QUERIES, ROUNDS = 6, 4, 180, 10


def build_environment():
    registry = clustered_registry(N_CLUSTERS, STREAMS_PER_CLUSTER, seed=42)
    population = overlap_clustered_population(
        N_QUERIES, registry, N_CLUSTERS, STREAMS_PER_CLUSTER, seed=43
    )
    return registry, population


def main() -> None:
    registry, population = build_environment()

    cluster = ClusterServer(registry, n_shards=N_CLUSTERS, seed=7)
    partition = cluster.register_population(population)
    print(partition.report.describe())

    report = cluster.run_batch(ROUNDS)
    print(f"\n{report.summary()}")

    # The same population, unsharded, with the same per-name oracles: the
    # per-query costs agree exactly — sharding along the overlap graph
    # changes where work runs, never what it costs.
    registry2, population2 = build_environment()
    single = QueryServer(registry2)
    factory = default_oracle_factory(7)
    for name, tree in population2:
        single.register(name, tree, oracle=factory(name))
    single_report = single.run_batch(ROUNDS)
    sharded_costs = report.per_query_cost  # merged from the shards once
    worst = max(
        abs(cost - sharded_costs[name])
        for name, cost in single_report.per_query_cost.items()
    )
    print(
        f"\nunsharded server: total cost {single_report.total_cost:.2f} "
        f"(cluster {report.total_cost:.2f}, max per-query delta {worst:.2g})"
    )

    # Runtime admission goes through the router: a query on cluster 2's
    # streams joins cluster 2's shard.
    template = dict(population)["q0002"]  # home cluster 2 (round-robin)
    shard_id = cluster.register("latecomer", template)
    print(
        f"\nrouted 'latecomer' to shard {shard_id} "
        f"(resident q0002 lives on shard {cluster.shard_of('q0002')}, "
        f"router reason: {cluster.router.last_decision.reason})"
    )

    # Churn degrades placement; rebalance() repairs it.
    registry3, population3 = build_environment()
    degraded = ClusterServer(registry3, n_shards=N_CLUSTERS, seed=7)
    degraded.register_population(population3, method="random")
    print(f"\ndegraded placement: {degraded.partition_report().kept_fraction:.1%} "
          "of overlap weight kept intra-shard")
    event = degraded.rebalance()
    assert event is not None
    print(event.describe())


if __name__ == "__main__":
    main()
