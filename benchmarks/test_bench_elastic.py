"""Elasticity benchmark: what do online split/drain/resize cost?

A static cluster born at the oracle width (the stream-overlap partition at
``n_clusters`` shards) is the best case — every component home from round
one, caches never move. The elastic run starts at the wrong width (2),
grows to the oracle width by online splits, drains a shard, and resettles —
all while serving. Because splits move whole stream-disjoint components and
migrations transplant cache state, the *expected acquisition cost* of the
elastic run must stay within 5% of the static oracle's (measured: equal to
the last bit — the acceptance bar leaves headroom for future policies that
trade a bounded cut for balance).

The record also carries an ungated row for the migration transport: the
wall seconds and shard commands of draining one shard of a 2-shard
process-mode cluster (1 000 queries), where every moved group crosses a
worker pipe twice.

Emits ``results/elastic_overhead.txt`` and the machine-readable
``results/elastic_overhead.json`` perf record tracked across PRs.
"""

from __future__ import annotations

import time

from conftest import emit_json, emit_report, full_scale

from repro.cluster import ClusterServer
from repro.generators import clustered_registry, overlap_clustered_population

MAX_OVERHEAD = 0.05  # elastic total cost may exceed the static oracle by <= 5%


def build_environment(n_queries: int, n_clusters: int, seed: int):
    registry = clustered_registry(n_clusters, 4, seed=seed)
    population = overlap_clustered_population(
        n_queries, registry, n_clusters, 4, seed=seed + 1
    )
    return registry, population


class _CountingTransport:
    """A shard transport that counts the commands it carries."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.calls = 0

    def call(self, op, args, kwargs):
        self.calls += 1
        return self.inner.call(op, args, kwargs)

    def __getattr__(self, name):
        return getattr(self.inner, name)


def measure_process_drain(n_queries: int = 1000) -> dict:
    """Drain shard 0 of a 2-shard process cluster: seconds, moves, commands."""
    registry = clustered_registry(4, 4, seed=0)
    population = overlap_clustered_population(n_queries, registry, 4, 4, seed=1)
    with ClusterServer(registry, n_shards=2, executor="process", seed=0) as cluster:
        cluster.register_population(population)
        transports = []
        for shard in cluster.shards.values():
            shard.transport = _CountingTransport(shard.transport)
            transports.append(shard.transport)
        start = time.perf_counter()
        event = cluster.drain_shard(0)
        seconds = time.perf_counter() - start
    return {
        "n_queries": n_queries,
        "seconds": seconds,
        "moves": event.moves,
        "commands": sum(transport.calls for transport in transports),
    }


class TestElasticOverhead:
    def test_split_drain_cost_overhead_within_bar(self):
        if full_scale():
            n_queries, n_clusters, rounds = 1200, 12, 10
        else:
            n_queries, n_clusters, rounds = 240, 8, 5
        seed = 0

        # Static oracle: born at the overlap partition's width, never moves.
        registry, population = build_environment(n_queries, n_clusters, seed)
        static = ClusterServer(registry, n_shards=n_clusters, seed=seed)
        static.register_population(population)
        static_cost = 0.0
        static_seconds = 0.0
        for _ in range(4):
            report = static.run_batch(rounds)
            static_cost += report.total_cost
            static_seconds += report.wall_seconds

        # Elastic: born too narrow, reshaped online while serving.
        registry2, population2 = build_environment(n_queries, n_clusters, seed)
        elastic = ClusterServer(registry2, n_shards=2, seed=seed)
        elastic.register_population(population2)
        elastic_cost = 0.0
        elastic_seconds = 0.0
        timeline = []
        for action in (
            lambda: None,
            lambda: elastic.resize(n_clusters),
            lambda: elastic.drain_shard(
                min(
                    (s for s in elastic.shards if len(elastic.shards[s])),
                    key=lambda s: len(elastic.shards[s]),
                )
            ),
            lambda: elastic.resize(max(2, n_clusters // 2)),
        ):
            action()
            report = elastic.run_batch(rounds)
            elastic_cost += report.total_cost
            elastic_seconds += report.wall_seconds
            timeline.append((elastic.n_shards, report.total_cost))

        moves = sum(event.moves for event in elastic.elastic_log)
        overhead = elastic_cost / static_cost - 1.0
        drain = measure_process_drain()

        lines = [
            f"{n_queries} queries in {n_clusters} stream clusters, "
            f"4 batches x {rounds} rounds",
            "",
            f"static oracle partition ({n_clusters} shards): "
            f"cost {static_cost:.6g} in {static_seconds:.3f}s",
            f"elastic (2 -> {n_clusters} -> drain -> {max(2, n_clusters // 2)}): "
            f"cost {elastic_cost:.6g} in {elastic_seconds:.3f}s, "
            f"{elastic.splits} splits / {elastic.drains} drains, "
            f"{moves} query moves",
            f"width/cost timeline: {timeline}",
            "",
            f"cost overhead of online reshaping: {overhead:+.4%} "
            f"(acceptance: <= {MAX_OVERHEAD:.0%})",
            "",
            f"process-mode drain of shard 0 ({drain['n_queries']} queries, 2 shards): "
            f"{drain['moves']} moves in {drain['seconds']:.3f}s, "
            f"{drain['commands']} shard commands (informational, no gate)",
        ]
        emit_report("elastic_overhead", "\n".join(lines))
        emit_json(
            "elastic_overhead",
            {
                "n_queries": n_queries,
                "n_clusters": n_clusters,
                "rounds_per_batch": rounds,
                "static_cost": static_cost,
                "elastic_cost": elastic_cost,
                "overhead": overhead,
                "max_overhead": MAX_OVERHEAD,
                "splits": elastic.splits,
                "drains": elastic.drains,
                "moves": moves,
                "static_seconds": static_seconds,
                "elastic_seconds": elastic_seconds,
                "process_drain": drain,
            },
        )

        assert overhead <= MAX_OVERHEAD, (
            f"elastic reshaping cost {overhead:+.2%} over the static oracle "
            f"(required <= {MAX_OVERHEAD:.0%})"
        )
        # Clean splits + cache transplant: today the overhead is exactly zero.
        assert abs(elastic_cost - static_cost) <= 1e-9 * static_cost
