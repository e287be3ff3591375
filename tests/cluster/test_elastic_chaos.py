"""Threaded elasticity chaos: resizes and admissions hammering live batches.

The cluster's concurrency contract: every topology change (split, drain,
resize, rebalance) serializes with batches and admissions on the cluster
RLock, while shards inside a batch still run concurrently on the pool. These
tests race all three against each other and assert the invariants that make
elasticity safe to run in production:

* **no lost queries** — everything admitted is resident exactly once;
* **no double-serving** — every batch evaluates each then-resident query
  exactly once, and a query is resident on exactly one shard.
"""

from __future__ import annotations

import threading

import pytest

from repro.adaptive import ElasticPolicy
from repro.cluster import ClusterServer, ClusterReport
from repro.generators import clustered_registry, overlap_clustered_population
from repro.obs import Telemetry, render_prometheus


def build(seed: int, n_queries: int = 36, clusters: int = 4):
    registry = clustered_registry(clusters, 3, seed=seed)
    population = overlap_clustered_population(
        n_queries, registry, clusters, 3, seed=seed + 1
    )
    return registry, population


class TestElasticChaos:
    def test_resize_and_admissions_during_concurrent_batches(self):
        registry, population = build(seed=71)
        initial, late = population[:18], population[18:]
        cluster = ClusterServer(registry, n_shards=2, seed=72)
        cluster.register_population(initial)

        errors: list[BaseException] = []
        reports: list[ClusterReport] = []
        barrier = threading.Barrier(3)

        def admitter() -> None:
            barrier.wait()
            try:
                for name, tree in late:
                    cluster.register(name, tree)
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        def resizer() -> None:
            barrier.wait()
            try:
                for width in (5, 1, 4, 2, 6, 3):
                    cluster.resize(width)
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        def batcher() -> None:
            barrier.wait()
            try:
                for _ in range(8):
                    reports.append(cluster.run_batch(2))
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=admitter),
            threading.Thread(target=resizer),
            threading.Thread(target=batcher),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert errors == []
        assert cluster.n_shards == 3  # last resize won

        # No lost queries: everything admitted is resident exactly once.
        expected = {name for name, _ in population}
        assert set(cluster.registered) == expected
        resident = [
            name for shard in cluster.shards.values() for name in shard.names
        ]
        assert sorted(resident) == sorted(expected)
        for name in expected:
            assert name in cluster.shards[cluster.shard_of(name)]

        # No double-serving inside any batch: one result slot per resident,
        # and the batch covered exactly the then-resident population.
        for report in reports:
            names = list(report.per_query_cost)
            assert len(names) == len(set(names))
            assert len(names) == report.n_queries

    def test_policy_driven_cluster_survives_hammering(self):
        """Auto-elastic decisions racing churn threads stay consistent."""
        registry, population = build(seed=81, n_queries=40)
        policy = ElasticPolicy(
            target_shard_queries=10, min_split_size=4, churn_every=16
        )
        cluster = ClusterServer(registry, n_shards=1, seed=82, elastic=policy)
        cluster.register_population(population[:10])

        errors: list[BaseException] = []
        barrier = threading.Barrier(3)

        def churner() -> None:
            barrier.wait()
            try:
                for name, tree in population[10:]:
                    cluster.register(name, tree)
                for name, _ in population[10:30]:
                    cluster.deregister(name)
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        def batcher() -> None:
            barrier.wait()
            try:
                for _ in range(10):
                    cluster.run_batch(1)
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        def inspector() -> None:
            barrier.wait()
            try:
                for _ in range(10):
                    cluster.describe()
                    cluster.shard_metrics()
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=churner),
            threading.Thread(target=batcher),
            threading.Thread(target=inspector),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert errors == []
        expected = {name for name, _ in population[:10]} | {
            name for name, _ in population[30:]
        }
        assert set(cluster.registered) == expected
        resident = [
            name for shard in cluster.shards.values() for name in shard.names
        ]
        assert sorted(resident) == sorted(expected)
        # The elastic log is a consistent audit trail.
        for event in cluster.elastic_log:
            assert event.kind in ("split", "drain", "grow", "rebalance")

    def test_telemetry_stays_consistent_under_hammering(self):
        """One shared Telemetry hammered by resizes, admissions and batches
        must stay internally consistent: contiguous trace sequence numbers,
        counters that equal what the batch reports said, per-shard
        histograms that roll up to one observation per shard-batch span,
        and a snapshot that still renders as Prometheus text."""
        registry, population = build(seed=91)
        initial, late = population[:18], population[18:]
        telemetry = Telemetry(capacity=100_000)
        cluster = ClusterServer(registry, n_shards=2, seed=92, telemetry=telemetry)
        cluster.register_population(initial)

        errors: list[BaseException] = []
        reports: list[ClusterReport] = []
        barrier = threading.Barrier(3)

        def admitter() -> None:
            barrier.wait()
            try:
                for name, tree in late:
                    cluster.register(name, tree)
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        def resizer() -> None:
            barrier.wait()
            try:
                for width in (4, 1, 3, 2):
                    cluster.resize(width)
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        def batcher() -> None:
            barrier.wait()
            try:
                for _ in range(6):
                    reports.append(cluster.run_batch(2))
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=admitter),
            threading.Thread(target=resizer),
            threading.Thread(target=batcher),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert errors == []
        reg = telemetry.registry

        # Trace integrity: no torn or dropped records under concurrency.
        records = telemetry.tracer.records()
        assert [r["seq"] for r in records] == list(
            range(1, telemetry.tracer.emitted + 1)
        )

        # Counter/report agreement, summed over every racing batch.
        assert reg.value("repro_cluster_batches_total") == len(reports)
        assert reg.value("repro_cluster_rounds_total") == sum(
            r.rounds for r in reports
        )
        assert reg.value("repro_cluster_cost_total") == pytest.approx(
            sum(r.total_cost for r in reports)
        )
        # Every shard-batch span left exactly one histogram observation,
        # and the labelled cells merge losslessly into the cluster view;
        # the shard-level round counter totals the spans' round counts.
        shard_spans = telemetry.tracer.spans("shard-batch")
        assert reg.value("repro_rounds_total") == sum(
            s["attrs"]["rounds"] for s in shard_spans
        )
        merged = reg.merged_histogram("repro_shard_batch_seconds")
        assert merged is not None and merged.count == len(shard_spans)

        # Migrations balance and elastic actions all hit the counter.
        assert reg.value("repro_migrations_total", direction="in") == reg.value(
            "repro_migrations_total", direction="out"
        )
        logged = sum(
            reg.value("repro_elastic_actions_total", kind=kind)
            for kind in ("split", "drain", "grow", "rebalance")
        )
        assert logged == len(cluster.elastic_log)

        # The final snapshot still renders.
        assert "repro_cluster_rounds_total" in render_prometheus(reg)
