"""Process-mode cluster: spawn workers, parity, migration, roll-ups.

Every test here drives real spawned worker processes, so the module wires a
stdlib watchdog around each test: a hung pipe handshake (the failure mode of
a protocol bug) would otherwise stall the whole suite. ``faulthandler``
dumps every thread's traceback and hard-exits if a test overruns — the
stdlib stand-in for a per-test timeout plugin, per the repo's
no-new-dependencies rule.
"""

from __future__ import annotations

import faulthandler
import os
import pickle
from collections import defaultdict

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.cluster import (
    ClusterServer,
    InProcessTransport,
    WorkerTransport,
    default_oracle_factory,
)
from repro.engine.executor import PrecomputedOracle
from repro.errors import AdmissionError, StreamError
from repro.experiments.cluster import (
    run_cluster_compare,
    verify_cluster_parity,
    verify_elastic_parity,
)
from repro.generators import clustered_registry, overlap_clustered_population
from repro.obs import Telemetry
from repro.service import QueryServer

WATCHDOG_SECONDS = 120.0


@pytest.fixture(autouse=True)
def spawn_watchdog():
    """Dump all stacks and exit if a process-mode test wedges."""
    faulthandler.dump_traceback_later(WATCHDOG_SECONDS, exit=True)
    yield
    faulthandler.cancel_dump_traceback_later()


def small_environment(seed: int = 0, n_queries: int = 18, clusters: int = 3):
    registry = clustered_registry(clusters, 3, seed=seed)
    population = overlap_clustered_population(
        n_queries, registry, clusters, 3, cross_cluster_prob=0.0, seed=seed + 1
    )
    return registry, population


class TestExecutorSelection:
    def test_unknown_executor_rejected(self):
        registry, _ = small_environment()
        with pytest.raises(AdmissionError):
            ClusterServer(registry, n_shards=2, executor="greenlet")

    def test_thread_mode_shards_are_in_process(self):
        registry, population = small_environment()
        cluster = ClusterServer(registry, n_shards=2)
        cluster.register_population(population)
        assert all(
            isinstance(shard.transport, InProcessTransport)
            for shard in cluster.shards.values()
        )

    def test_process_mode_shards_are_worker_proxies(self):
        registry, population = small_environment()
        with ClusterServer(registry, n_shards=2, executor="process") as cluster:
            cluster.register_population(population)
            assert all(
                isinstance(shard.transport, WorkerTransport)
                for shard in cluster.shards.values()
            )


class TestProcessParity:
    """The executor is an implementation detail: costs must be bit-identical."""

    def test_cluster_parity_under_process_executor(self):
        deltas = verify_cluster_parity(
            executor="process", n_queries=18, n_clusters=3, rounds=4, seed=3
        )
        assert max(deltas.values()) == 0.0

    def test_elastic_gauntlet_under_process_executor(self):
        deltas = verify_elastic_parity(
            executor="process",
            n_queries=15,
            n_clusters=3,
            streams_per_cluster=3,
            rounds=3,
            seed=5,
        )
        assert max(deltas.values()) == 0.0

    def test_process_batch_equals_thread_batch(self):
        reports = {}
        for executor in ("thread", "process"):
            registry, population = small_environment(seed=11)
            cluster = ClusterServer(
                registry, n_shards=3, executor=executor, seed=11
            )
            try:
                cluster.register_population(population)
                reports[executor] = cluster.run_batch(4)
            finally:
                cluster.close()
        assert (
            reports["process"].per_query_cost == reports["thread"].per_query_cost
        )
        assert (
            reports["process"].per_query_true_rate
            == reports["thread"].per_query_true_rate
        )
        assert reports["process"].total_cost == reports["thread"].total_cost

    @settings(max_examples=3, deadline=None)
    @given(seed=st.integers(0, 40), rounds=st.integers(2, 4))
    def test_gauntlet_parity_holds_across_seeds(self, seed: int, rounds: int):
        deltas = verify_elastic_parity(
            executor="process",
            n_queries=12,
            n_clusters=3,
            streams_per_cluster=3,
            rounds=rounds,
            seed=seed,
        )
        assert max(deltas.values()) == 0.0


class TestSharedClauseParity:
    """Executor parity on a population the whole-tree plan cache cannot help.

    Trees are distinct 2-clause combinations drawn from a 4-clause pool, so
    whole-tree keys never repeat (every admission misses the cluster cache)
    while every AND clause recurs across trees and shards. Unsharded,
    thread-sharded and process-sharded serving must still land on identical
    costs.
    """

    @staticmethod
    def clause_population(registry):
        from itertools import combinations

        from repro.core.leaf import Leaf
        from repro.core.tree import DnfTree

        names = list(registry.names)[:6]
        costs = registry.cost_table()
        pool = [
            [Leaf(names[0], 2, 0.3), Leaf(names[1], 1, 0.6)],
            [Leaf(names[2], 3, 0.2), Leaf(names[3], 1, 0.7)],
            [Leaf(names[4], 1, 0.4), Leaf(names[5], 2, 0.5)],
            [Leaf(names[0], 1, 0.8), Leaf(names[2], 2, 0.35)],
        ]
        population = []
        for q, (i, j) in enumerate(combinations(range(len(pool)), 2)):
            groups = [list(pool[i]), list(pool[j])]
            used = {leaf.stream for group in groups for leaf in group}
            tree = DnfTree(groups, {stream: costs[stream] for stream in used})
            population.append((f"q{q}", tree))
        return population

    def test_cost_parity_on_shared_clauses(self):
        totals = {}
        for mode in ("unsharded", "thread", "process"):
            registry = clustered_registry(3, 3, seed=33)
            population = self.clause_population(registry)
            if mode == "unsharded":
                server = QueryServer(registry)
                factory = default_oracle_factory(7)
                for name, tree in population:
                    server.register(name, tree, oracle=factory(name))
                totals[mode] = server.run_batch(4).total_cost
            else:
                cluster = ClusterServer(
                    registry, n_shards=2, executor=mode, seed=7
                )
                try:
                    cluster.register_population(population)
                    totals[mode] = cluster.run_batch(4).total_cost
                    stats = cluster.plan_cache.stats()
                    assert stats["hit_rate"] == 0.0  # no whole-tree isomorphs
                finally:
                    cluster.close()
        assert totals["thread"] == totals["unsharded"]
        assert totals["process"] == totals["unsharded"]


class TestMigrationPayloads:
    """Pickled migration payloads must be equivalent to in-memory handoff."""

    def _migrate(self, *, pickled: bool):
        registry, population = small_environment(seed=21, n_queries=12)
        factory = default_oracle_factory(9)
        source = QueryServer(registry)
        for name, tree in population:
            source.register(name, tree, oracle=factory(name))
        source.run_batch(5)

        movers = [name for name, _ in population[:5]]
        migration = source.export_group(movers)
        if pickled:
            # Exactly what crosses the worker pipe during a shard migration.
            migration = pickle.loads(pickle.dumps(migration))

        registry2, _ = small_environment(seed=21, n_queries=12)
        dest = QueryServer(registry2)
        dest.admit_group(migration, movers)
        return dest.run_batch(4)

    def test_pickled_handoff_equals_in_memory_handoff(self):
        in_memory = self._migrate(pickled=False)
        crossed = self._migrate(pickled=True)
        assert crossed.per_query_cost == in_memory.per_query_cost
        assert crossed.per_query_true_rate == in_memory.per_query_true_rate
        assert crossed.items_fetched == in_memory.items_fetched  # cache warmth

    def test_snapshot_round_trip_preserves_fields(self):
        registry, population = small_environment(seed=2, n_queries=6)
        server = QueryServer(registry)
        factory = default_oracle_factory(4)
        for name, tree in population:
            server.register(name, tree, oracle=factory(name))
        server.run_batch(3)
        name = population[0][0]
        migration = server.export_group([name])
        server.admit_group(migration, server.registered + (name,))  # keep serving

        copy = pickle.loads(pickle.dumps(migration))
        (query,), (sent,) = copy.queries, migration.queries
        assert query.name == sent.name
        assert query.schedule == sent.schedule
        assert query.tree.streams == sent.tree.streams
        assert (copy.round, copy.now, copy.stores, copy.beliefs) == (
            migration.round,
            migration.now,
            migration.stores,
            migration.beliefs,
        )


class TestSharedPlanCache:
    """One cluster-wide cache: workers read through the command channel."""

    def test_one_miss_per_shape_cluster_wide(self):
        registry, population = small_environment(seed=7)
        with ClusterServer(registry, n_shards=3, executor="process") as cluster:
            cluster.register_population(population)
            cluster.run_batch(3)
            stats = cluster.plan_cache.stats()
            # Every canonical shape was computed exactly once, no matter
            # which worker saw it first; repeats settled as hits.
            assert stats["misses"] == stats["size"] == float(len(cluster.plan_cache))
            assert stats["hits"] > 0
            report = cluster.run_batch(2)
            assert report.plan_cache_hit_rate > 0.0

    def test_cache_stats_match_thread_mode(self):
        stats = {}
        for executor in ("thread", "process"):
            registry, population = small_environment(seed=13)
            cluster = ClusterServer(
                registry, n_shards=3, executor=executor, seed=13
            )
            try:
                cluster.register_population(population)
                cluster.run_batch(3)
                stats[executor] = cluster.plan_cache.stats()
            finally:
                cluster.close()
        assert stats["process"] == stats["thread"]


class TestTelemetryRollup:
    def test_worker_deltas_merge_into_parent_registry(self):
        registry, population = small_environment(seed=17)
        telemetry = Telemetry()
        with ClusterServer(
            registry, n_shards=3, executor="process", telemetry=telemetry
        ) as cluster:
            cluster.register_population(population)
            cluster.run_batch(5)
            # Each worker served 5 rounds; the parent's counter holds all 15.
            assert telemetry.registry.value("repro_rounds_total") == 15.0
            merged = telemetry.registry.merged_histogram(
                "repro_shard_batch_seconds"
            )
            assert merged is not None and merged.count == 3
            cluster.run_batch(2)
            assert telemetry.registry.value("repro_rounds_total") == 21.0


class TestWorkerLifecycle:
    def test_close_is_idempotent_and_context_manager_closes(self):
        registry, population = small_environment(seed=23)
        cluster = ClusterServer(registry, n_shards=2, executor="process")
        cluster.register_population(population)
        procs = [shard.transport._proc for shard in cluster.shards.values()]
        cluster.close()
        cluster.close()
        assert all(proc is not None and not proc.is_alive() for proc in procs)

    def test_calls_after_close_raise_stream_error(self):
        registry, population = small_environment(seed=23)
        cluster = ClusterServer(registry, n_shards=2, executor="process")
        cluster.register_population(population)
        cluster.close()
        with pytest.raises(StreamError):
            cluster.run_batch(1)

    def test_worker_side_errors_surface_in_parent(self):
        registry, population = small_environment(seed=29)
        with ClusterServer(registry, n_shards=2, executor="process") as cluster:
            cluster.register_population(population)
            name = population[0][0]
            with pytest.raises(AdmissionError):
                cluster.register(name, population[0][1])  # duplicate name
            # The worker survives a rejected call and keeps serving.
            report = cluster.run_batch(2)
            assert report.rounds == 2


class TestFanOut:
    """One batch command per shard: sent to all, every reply drained."""

    @staticmethod
    def _cluster_with_bad_query(executor: str, oracle) -> tuple[ClusterServer, int]:
        """3 shards; the first holds one extra query probing ``oracle``."""
        registry, population = small_environment(seed=43)
        cluster = ClusterServer(registry, n_shards=3, executor=executor, seed=44)
        cluster.register_population(population)
        first = min(cluster.shards)
        twin = cluster.query(cluster.shards[first].names[0]).tree
        assert cluster.register("bad", twin, oracle=oracle) == first
        return cluster, first

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_failed_batch_drains_every_reply(self, executor: str):
        # An empty replay table raises KeyError on the query's first probe.
        cluster, _ = self._cluster_with_bad_query(executor, PrecomputedOracle({}))
        with cluster:
            with pytest.raises(KeyError):
                cluster.run_batch(2)
            cluster.deregister("bad")
            # No reply of the failed batch is left behind to answer these.
            report = cluster.run_batch(3)
            assert len(report.shard_reports) == 3
            assert all(r.rounds == 3 for r in report.shard_reports.values())
            for shard in cluster.shards.values():
                assert isinstance(shard.metrics().replans, int)

    def test_worker_death_mid_batch_names_its_shard(self):
        # The missing key calls os.abort inside the worker, mid-round.
        oracle = PrecomputedOracle(defaultdict(os.abort))
        cluster, first = self._cluster_with_bad_query("process", oracle)
        with cluster:
            with pytest.raises(StreamError, match=f"shard {first} worker"):
                cluster.run_batch(2)
            # The surviving workers' replies were drained: they still serve.
            for sid, shard in cluster.shards.items():
                if sid != first:
                    assert isinstance(shard.metrics().replans, int)

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_one_request_in_flight(self, executor: str):
        registry, population = small_environment(seed=47)
        with ClusterServer(registry, n_shards=1, executor=executor) as cluster:
            cluster.register_population(population)
            transport = cluster.shards[0].transport
            transport.send("metrics", (), {})
            with pytest.raises(StreamError, match="in flight"):
                transport.send("step", (), {})
            assert transport.receive("metrics").replans == 0


class TestCompareHarness:
    def test_run_cluster_compare_accepts_process_executor(self):
        report = run_cluster_compare(
            n_queries=12,
            n_clusters=3,
            streams_per_cluster=3,
            rounds=3,
            executor="process",
            seed=3,
        )
        single = report.result("single")
        sharded = report.result("overlap-sharded")
        # Aggregate totals sum per-shard subtotals in a different order than
        # the unsharded run; per-query parity is asserted bitwise elsewhere.
        assert sharded.total_cost == pytest.approx(single.total_cost)
        assert sharded.evals == single.evals


class TestTraceRollup:
    """Worker trace deltas merge into one causal tree on the parent."""

    def test_process_mode_yields_one_merged_trace_with_zero_orphans(self):
        import os

        from repro.obs import build_forest

        registry, population = small_environment()
        tel = Telemetry()
        with ClusterServer(
            registry, n_shards=2, executor="process", telemetry=tel
        ) as cluster:
            cluster.register_population(population)
            cluster.run_batch(3)
            cluster.run_batch(2)
        records = tel.tracer.records()
        forest = build_forest(records)
        # The acceptance bar: every record that names a parent can resolve
        # it locally — nothing was lost crossing the process boundary.
        assert forest.orphans == []

        # Every worker-side shard-batch span parents under one of the
        # parent-side cluster-batch spans, in the same trace.
        cluster_spans = {
            r["span_id"]: r for r in records if r.get("name") == "cluster-batch"
        }
        shard_spans = [r for r in records if r.get("name") == "shard-batch"]
        assert len(cluster_spans) == 2
        assert len(shard_spans) == 2 * 2  # two batches x two shards
        for span in shard_spans:
            parent = cluster_spans[span["parent_id"]]
            assert span["trace_id"] == parent["trace_id"]

        # The shard spans really were recorded in other processes.
        worker_pids = {span["pid"] for span in shard_spans}
        assert os.getpid() not in worker_pids
        assert all(
            cluster_spans[s]["pid"] == os.getpid() for s in cluster_spans
        )

        # Server-level batch spans nest under their shard-batch span.
        shard_ids = {span["span_id"] for span in shard_spans}
        batch_spans = [r for r in records if r.get("name") == "batch"]
        assert batch_spans
        assert {span["parent_id"] for span in batch_spans} <= shard_ids

    def test_worker_step_rollup_and_plan_upcall_spans(self):
        registry, population = small_environment()
        tel = Telemetry()
        with ClusterServer(
            registry, n_shards=2, executor="process", telemetry=tel
        ) as cluster:
            cluster.register_population(population)
            cluster.step()
        # Registration-time plan upcalls roll up from the workers: they
        # carry the worker pid and the shared-plan cache key.
        upcalls = tel.tracer.spans("plan-cache-upcall")
        assert upcalls
        assert {s["pid"] for s in upcalls}.isdisjoint({__import__("os").getpid()})
        assert all("key" in s["attrs"] and "hit" in s["attrs"] for s in upcalls)

    def test_rollup_preserves_report_parity_with_thread_mode(self):
        registry, population = small_environment()

        def run(executor: str):
            tel = Telemetry()
            with ClusterServer(
                registry, n_shards=2, executor=executor, telemetry=tel
            ) as cluster:
                cluster.register_population(population)
                return cluster.run_batch(4), tel

        threaded, _ = run("thread")
        processed, tel = run("process")
        assert threaded.total_cost == processed.total_cost
        assert threaded.per_query_cost == processed.per_query_cost
        # The roll-up also delivered the shard histograms to the parent.
        merged = tel.registry.merged_histogram("repro_shard_batch_seconds")
        assert merged is not None and merged.count == 2
