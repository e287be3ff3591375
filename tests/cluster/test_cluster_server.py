"""ClusterServer: routing, batches, parity, rebalance."""

from __future__ import annotations

import pytest

from repro.cluster import ClusterServer, ShardRouter, default_oracle_factory
from repro.cluster.partition import build_overlap_graph, partition_by_overlap
from repro.core.leaf import Leaf
from repro.core.tree import DnfTree
from repro.errors import AdmissionError, StreamError
from repro.experiments.cluster import run_cluster_compare, verify_cluster_parity
from repro.generators import clustered_registry, overlap_clustered_population
from repro.service import QueryServer


def small_environment(seed: int = 0, n_queries: int = 24, clusters: int = 3):
    registry = clustered_registry(clusters, 3, seed=seed)
    population = overlap_clustered_population(
        n_queries, registry, clusters, 3, seed=seed + 1
    )
    return registry, population


def tree_on(streams: list[str], items: int = 2) -> DnfTree:
    return DnfTree([[Leaf(s, items, 0.5) for s in streams]], {s: 1.0 for s in streams})


class TestAdmission:
    def test_register_population_places_clusters_together(self):
        registry, population = small_environment()
        cluster = ClusterServer(registry, n_shards=3)
        partition = cluster.register_population(population)
        assert len(cluster) == len(population)
        assert partition.report.kept_fraction == 1.0
        shard_of = partition.shard_of()
        for name, _ in population:
            assert cluster.shard_of(name) == shard_of[name]

    def test_router_sends_overlapping_query_home(self):
        registry, population = small_environment()
        cluster = ClusterServer(registry, n_shards=3)
        cluster.register_population(population)
        # A fresh query entirely on cluster 1's streams must join its shard.
        home_shard = cluster.shard_of("q0001")  # q0001 lives in cluster 1
        sid = cluster.register("newcomer", tree_on(["C1S0", "C1S1"]))
        assert sid == home_shard
        decision = cluster.router.last_decision
        assert decision.reason == "overlap"
        assert decision.overlap > 0

    def test_cold_query_falls_back_to_least_loaded(self):
        registry = clustered_registry(2, 2, seed=3)
        cluster = ClusterServer(registry, n_shards=2)
        cluster.register("a", tree_on(["C0S0"]))
        # Nothing on C1 streams yet: the cold query lands on the empty shard.
        sid = cluster.register("b", tree_on(["C1S0"]))
        assert sid != cluster.shard_of("a")
        assert cluster.router.last_decision.reason == "least-loaded"

    def test_duplicate_name_rejected(self):
        registry, population = small_environment()
        cluster = ClusterServer(registry, n_shards=2)
        cluster.register("a", tree_on(["C0S0"]))
        with pytest.raises(AdmissionError):
            cluster.register("a", tree_on(["C0S1"]))

    def test_capacity_enforced_by_router(self):
        registry = clustered_registry(1, 2, seed=4)
        cluster = ClusterServer(registry, n_shards=2, max_shard_queries=1)
        cluster.register("a", tree_on(["C0S0"]))
        cluster.register("b", tree_on(["C0S0"]))
        with pytest.raises(AdmissionError):
            cluster.register("c", tree_on(["C0S0"]))

    def test_failed_admission_leaves_router_clean(self):
        registry = clustered_registry(2, 2, seed=5)
        cluster = ClusterServer(registry, n_shards=2)
        cluster.register("a", tree_on(["C0S0"]))
        before = cluster.router.last_decision
        with pytest.raises(StreamError):
            cluster.register("bad", tree_on(["nope"]))  # unregistered stream
        assert cluster.router.routed == 1
        assert cluster.router.last_decision is before
        assert "bad" not in cluster

    def test_deregister_updates_assignment(self):
        registry, population = small_environment()
        cluster = ClusterServer(registry, n_shards=3)
        cluster.register_population(population)
        victim = population[0][0]
        cluster.deregister(victim)
        assert victim not in cluster
        with pytest.raises(AdmissionError):
            cluster.shard_of(victim)
        with pytest.raises(AdmissionError):
            cluster.deregister(victim)

    def test_given_partition_must_cover_population(self):
        registry, population = small_environment(n_queries=10)
        cluster = ClusterServer(registry, n_shards=2)
        costs = registry.cost_table()
        partial = partition_by_overlap(build_overlap_graph(population[:6], costs), 2)
        with pytest.raises(AdmissionError):
            cluster.register_population(population, partition=partial)
        assert len(cluster) == 0
        assert cluster._churn == 0

    def test_given_partition_must_not_name_strangers(self):
        registry, population = small_environment(n_queries=10)
        cluster = ClusterServer(registry, n_shards=2)
        wider = partition_by_overlap(
            build_overlap_graph(
                population + [("stranger", tree_on(["C0S0"]))], registry.cost_table()
            ),
            2,
        )
        with pytest.raises(AdmissionError):
            cluster.register_population(population, partition=wider)
        assert len(cluster) == 0
        assert cluster._churn == 0

    def test_resident_clash_registers_nothing(self):
        registry, population = small_environment(n_queries=10)
        cluster = ClusterServer(registry, n_shards=2)
        name, tree = population[-1]
        cluster.register(name, tree)
        with pytest.raises(AdmissionError):
            cluster.register_population(population)
        assert cluster.registered == (name,)
        assert cluster._churn == 1

    def test_bulk_admission_respects_capacity_of_a_populated_cluster(self):
        registry = clustered_registry(4, 2, seed=1)
        population = overlap_clustered_population(12, registry, 4, 2, seed=2)
        cluster = ClusterServer(registry, n_shards=2, max_shard_queries=4)
        cluster.register_population(population[:6])
        sizes = {sid: len(shard) for sid, shard in cluster.shards.items()}
        # Each piece of the second half fits alone, not beside the residents.
        with pytest.raises(AdmissionError, match="capacity"):
            cluster.register_population(population[6:])
        given = partition_by_overlap(
            build_overlap_graph(population[6:], registry.cost_table()), 2
        )
        with pytest.raises(AdmissionError, match="capacity"):
            cluster.register_population(population[6:], partition=given)
        assert sorted(cluster.registered) == sorted(n for n, _ in population[:6])
        assert {sid: len(shard) for sid, shard in cluster.shards.items()} == sizes
        assert cluster._churn == 6

    def test_adaptive_must_be_policy(self):
        registry, _ = small_environment()
        with pytest.raises(AdmissionError):
            ClusterServer(registry, adaptive=object())  # type: ignore[arg-type]


class TestExecution:
    def test_step_merges_all_shards(self):
        registry, population = small_environment()
        cluster = ClusterServer(registry, n_shards=3)
        cluster.register_population(population)
        results = cluster.step()
        assert set(results) == {name for name, _ in population}

    def test_empty_cluster_rejects_execution(self):
        registry, _ = small_environment()
        cluster = ClusterServer(registry, n_shards=2)
        with pytest.raises(StreamError):
            cluster.step()
        with pytest.raises(StreamError):
            cluster.run_batch(3)

    def test_report_aggregates_shards(self):
        registry, population = small_environment()
        cluster = ClusterServer(registry, n_shards=3)
        cluster.register_population(population)
        report = cluster.run_batch(5)
        assert report.rounds == 5
        assert report.n_queries == len(population)
        assert report.evals == 5 * len(population)
        assert set(report.per_query_cost) == {name for name, _ in population}
        assert report.total_cost == pytest.approx(
            sum(r.total_cost for r in report.shard_reports.values())
        )
        assert report.probes == sum(r.probes for r in report.shard_reports.values())
        assert report.throughput > 0
        assert "cluster batch" in report.summary()


class TestParity:
    def test_sharded_equals_unsharded_per_query(self):
        """The acceptance differential: K shards == one QueryServer, exactly."""
        registry, population = small_environment(seed=17, n_queries=30)
        cluster = ClusterServer(registry, n_shards=3, seed=18)
        cluster.register_population(population)
        cluster_report = cluster.run_batch(7)

        single = QueryServer(registry)
        factory = default_oracle_factory(18)
        for name, tree in population:
            single.register(name, tree, oracle=factory(name))
        single_report = single.run_batch(7)

        assert single_report.per_query_cost == pytest.approx(
            cluster_report.per_query_cost, abs=1e-12
        )
        assert single_report.per_query_true_rate == cluster_report.per_query_true_rate
        assert single_report.total_cost == pytest.approx(cluster_report.total_cost)

    def test_verify_cluster_parity_helper(self):
        deltas = verify_cluster_parity(n_queries=20, n_clusters=2, rounds=5, seed=3)
        assert len(deltas) == 20
        assert max(deltas.values()) <= 1e-9


class TestRebalance:
    def test_rebalance_noop_when_placement_good(self):
        registry, population = small_environment(seed=23)
        cluster = ClusterServer(registry, n_shards=3)
        cluster.register_population(population)
        assert cluster.rebalance() is None
        assert cluster.rebalances == 0

    def test_rebalance_skips_the_graph_when_no_stream_spans_shards(self, monkeypatch):
        """A placement reading every stream on one shard cuts no weight, so
        an unforced rebalance returns before building the overlap graph
        from the shards' weight rows."""
        import repro.cluster.cluster as cluster_module

        calls = []
        build = cluster_module.overlap_graph

        def counting_build(*args, **kwargs):
            calls.append(1)
            return build(*args, **kwargs)

        monkeypatch.setattr(cluster_module, "overlap_graph", counting_build)
        registry, population = small_environment(seed=23)
        placed = ClusterServer(registry, n_shards=3)
        placed.register_population(population)
        assert placed.rebalance() is None and not calls
        assert placed.rebalance(force=True) is not None and len(calls) == 1
        scattered = ClusterServer(registry, n_shards=3, seed=30)
        scattered.register_population(population, method="random")
        assert scattered.rebalance() is not None and len(calls) == 2

    def test_rebalance_repairs_random_placement(self):
        registry, population = small_environment(seed=29, n_queries=30)
        cluster = ClusterServer(registry, n_shards=3, seed=30)
        cluster.register_population(population, method="random")
        degraded = cluster.partition_report()
        assert degraded.kept_fraction < 1.0
        event = cluster.rebalance()
        assert event is not None
        assert event.moves > 0
        assert cluster.partition_report().kept_fraction == 1.0
        # The cluster still serves every query after the rebuild.
        report = cluster.run_batch(3)
        assert set(report.per_query_cost) == {name for name, _ in population}
        assert "rebalance" in event.describe()

    def test_rebalance_preserves_oracles(self):
        registry, population = small_environment(seed=31)
        cluster = ClusterServer(registry, n_shards=3, seed=32)
        cluster.register_population(population, method="random")
        before = {name: cluster.query(name).oracle for name in cluster.registered}
        cluster.rebalance(force=True)
        after = {name: cluster.query(name).oracle for name in cluster.registered}
        assert before == after  # same oracle instances, outcome streams continue

    def test_forced_rebalance_records_event(self):
        registry, population = small_environment(seed=37)
        cluster = ClusterServer(registry, n_shards=3)
        cluster.register_population(population)
        event = cluster.rebalance(force=True)
        assert event is not None
        assert cluster.rebalances == 1
        assert cluster.elastic_log[-1] is event
        assert event.detail.startswith("rebalance: kept overlap")


class TestClusterConcurrency:
    def test_concurrent_admissions_and_batches(self):
        """Background admission threads racing cluster batches stay safe."""
        import threading

        registry = clustered_registry(3, 3, seed=61)
        population = overlap_clustered_population(12, registry, 3, 3, seed=62)
        cluster = ClusterServer(registry, n_shards=3, seed=63)
        cluster.register_population(population)
        errors: list[BaseException] = []
        barrier = threading.Barrier(4)

        def admit(tid: int) -> None:
            barrier.wait()
            try:
                for i in range(8):
                    home = (tid + i) % 3
                    cluster.register(
                        f"t{tid}x{i}", tree_on([f"C{home}S0", f"C{home}S1"])
                    )
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        def batch() -> None:
            barrier.wait()
            try:
                for _ in range(4):
                    cluster.run_batch(2)
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=admit, args=(tid,)) for tid in range(3)]
        runner = threading.Thread(target=batch)
        for thread in threads:
            thread.start()
        runner.start()
        for thread in threads:
            thread.join()
        runner.join()

        assert errors == []
        assert len(cluster) == 12 + 3 * 8
        # Every admission is routed, assigned and resident exactly once.
        assert cluster.router.routed == 3 * 8
        for name in cluster.registered:
            assert name in cluster.shards[cluster.shard_of(name)]
        # Signatures cover every resident's streams (no lost updates).
        for shard in cluster.active_shards():
            for resident in shard.names:
                for leaf in shard.query(resident).tree.leaves:
                    assert leaf.stream in shard.signature


class TestRouterUnit:
    def test_route_requires_shards(self):
        router = ShardRouter(costs={"A": 1.0})
        with pytest.raises(AdmissionError):
            router.route("q", tree_on(["C0S0"]), [])

    def test_overlap_hit_rate(self):
        registry = clustered_registry(2, 2, seed=41)
        cluster = ClusterServer(registry, n_shards=2)
        cluster.register("a", tree_on(["C0S0"]))  # least-loaded (cold start)
        cluster.register("b", tree_on(["C0S0"]))  # overlap
        assert cluster.router.overlap_hits == 1
        assert cluster.router.overlap_hit_rate == pytest.approx(0.5)


class TestExperimentDriver:
    def test_run_cluster_compare_smoke(self):
        report = run_cluster_compare(
            n_queries=24, n_clusters=3, rounds=4, streams_per_cluster=3, seed=2
        )
        assert [r.label for r in report.results] == [
            "single",
            "overlap-sharded",
            "random-sharded",
        ]
        single = report.result("single")
        sharded = report.result("overlap-sharded")
        assert single.n_shards == 1
        assert sharded.n_shards == 3
        # Identical population + per-name oracles: stream-disjoint sharding
        # cannot change the total cost.
        assert sharded.total_cost == pytest.approx(single.total_cost)
        assert report.speedup("overlap-sharded") > 0
        record = report.to_record()
        assert record["n_queries"] == 24
        assert len(record["modes"]) == 3
        assert len(report.summary_rows()) == 3

    def test_unknown_mode_label_rejected(self):
        report = run_cluster_compare(n_queries=12, n_clusters=2, rounds=2)
        with pytest.raises(StreamError):
            report.result("warp")
