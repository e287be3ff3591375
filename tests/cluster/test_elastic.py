"""Elastic cluster width: split/drain/resize semantics, state migration,
the ElasticPolicy auto-triggers and the elastic experiment drivers."""

from __future__ import annotations

import dataclasses

import pytest

from repro.adaptive import AdaptivePolicy, ElasticPolicy
from repro.cluster import ClusterServer, ElasticEvent
from repro.core.leaf import Leaf
from repro.core.tree import DnfTree
from repro.errors import AdmissionError, StreamError
from repro.experiments.cluster import run_elastic_sim, verify_elastic_parity
from repro.generators import (
    clustered_registry,
    overlap_clustered_population,
)
from repro.service.simulate import synthetic_population, synthetic_registry


def small_environment(seed: int = 0, n_queries: int = 24, clusters: int = 3):
    registry = clustered_registry(clusters, 3, seed=seed)
    population = overlap_clustered_population(
        n_queries, registry, clusters, 3, seed=seed + 1
    )
    return registry, population


def tree_on(streams: list[str], items: int = 2) -> DnfTree:
    return DnfTree([[Leaf(s, items, 0.5) for s in streams]], {s: 1.0 for s in streams})


class TestSplitShard:
    def test_split_moves_whole_components(self):
        registry, population = small_environment()
        cluster = ClusterServer(registry, n_shards=1)
        cluster.register_population(population)
        event = cluster.split_shard(0, into=3)
        assert event is not None and event.kind == "split"
        assert cluster.n_shards == 3
        assert event.moves > 0
        # Free split: nothing cut, so queries sharing a stream stay together.
        report = cluster.partition_report()
        assert report.kept_fraction == 1.0
        assert report.duplicated_stream_cost == 0.0
        # Every query still resident exactly once, assignment consistent.
        resident = [n for shard in cluster.shards.values() for n in shard.names]
        assert sorted(resident) == sorted(cluster.registered)

    def test_split_preserves_oracles_plans_and_stats(self):
        registry, population = small_environment(seed=5)
        cluster = ClusterServer(registry, n_shards=1, seed=6)
        cluster.register_population(population)
        cluster.run_batch(3)
        before_oracles = {n: cluster.query(n).oracle for n in cluster.registered}
        before_plans = {n: cluster.query(n).plan for n in cluster.registered}
        cache_stats = cluster.plan_cache.stats()
        cluster.split_shard(0, into=2)
        for name in cluster.registered:
            assert cluster.query(name).oracle is before_oracles[name]
            assert cluster.query(name).plan is before_plans[name]
        # Migration never touches the shared plan cache.
        assert cluster.plan_cache.stats() == cache_stats

    def test_split_unsplittable_returns_none(self):
        registry = clustered_registry(1, 1, seed=2)
        cluster = ClusterServer(registry, n_shards=1)
        cluster.register("a", tree_on(["C0S0"]))
        assert cluster.split_shard(0) is None  # one resident
        cluster.register("b", tree_on(["C0S0"]))
        # Two residents, one connected component: clean split impossible.
        assert cluster.split_shard(0) is None
        assert cluster.n_shards == 1

    def test_allow_cut_splits_monolith_and_duplicates_spend(self):
        registry = clustered_registry(1, 3, seed=3)
        cluster = ClusterServer(registry, n_shards=1)
        # Two dense sub-groups glued by one thin bridge query.
        for i in range(3):
            cluster.register(f"left{i}", tree_on(["C0S0"]))
        for i in range(3):
            cluster.register(f"right{i}", tree_on(["C0S1"]))
        cluster.register("bridge", tree_on(["C0S0", "C0S1"], items=1))
        event = cluster.split_shard(0, allow_cut=True)
        assert event is not None
        assert cluster.n_shards == 2
        report = cluster.partition_report()
        assert report.cut_weight > 0.0 or report.duplicated_stream_cost > 0.0

    def test_split_unknown_shard_and_bad_into(self):
        registry, population = small_environment()
        cluster = ClusterServer(registry, n_shards=1)
        cluster.register_population(population)
        with pytest.raises(AdmissionError):
            cluster.split_shard(99)
        with pytest.raises(AdmissionError):
            cluster.split_shard(0, into=1)

    def test_new_shard_clock_synced(self):
        registry, population = small_environment(seed=9)
        cluster = ClusterServer(registry, n_shards=1, seed=10)
        cluster.register_population(population)
        cluster.run_batch(5)
        cluster.split_shard(0, into=2)
        clocks = {
            shard.transport.server.rounds_served
            for shard in cluster.shards.values()
            if len(shard)
        }
        assert clocks == {5}


class TestDrainShard:
    def test_drain_retires_shard_and_migrates_components(self):
        registry, population = small_environment(seed=11)
        cluster = ClusterServer(registry, n_shards=3, seed=12)
        cluster.register_population(population)
        victim = max(cluster.shards, key=lambda sid: len(cluster.shards[sid]))
        event = cluster.drain_shard(victim)
        assert event.kind == "drain"
        assert victim not in cluster.shards
        assert len(cluster) == len(population)
        # Sharing survives: components moved whole.
        assert cluster.partition_report().kept_fraction == 1.0
        report = cluster.run_batch(2)
        assert set(report.per_query_cost) == {name for name, _ in population}

    def test_drain_last_shard_rejected(self):
        registry, population = small_environment()
        cluster = ClusterServer(registry, n_shards=1)
        cluster.register_population(population)
        with pytest.raises(AdmissionError):
            cluster.drain_shard(0)

    def test_drain_empty_shard(self):
        registry, _ = small_environment()
        cluster = ClusterServer(registry, n_shards=3)
        cluster.register("a", tree_on(["C0S0"]))
        empty = next(sid for sid in cluster.shards if len(cluster.shards[sid]) == 0)
        event = cluster.drain_shard(empty)
        assert event.moves == 0
        assert cluster.n_shards == 2

    def test_infeasible_drain_moves_nothing(self):
        registry = clustered_registry(3, 2, seed=14)
        cluster = ClusterServer(registry, n_shards=2, max_shard_queries=4)
        for i in range(3):
            cluster.register(f"b{i}", tree_on(["C1S0"]))  # 3/4 on one shard
        cluster.register("c0", tree_on(["C2S0"]))  # lands on the other
        for i in range(3):
            cluster.register(f"a{i}", tree_on(["C0S0"]))  # joins c0's shard
        victim = cluster.shard_of("c0")
        assert cluster.shard_of("a0") == victim
        log = list(cluster.elastic_log)
        placement = {name: cluster.shard_of(name) for name in cluster.registered}
        # c0 alone would fit (3+1 <= 4), the a-component would not: the
        # drain is planned whole, so it fails before anything moves.
        with pytest.raises(AdmissionError, match="nothing moved"):
            cluster.drain_shard(victim)
        assert victim in cluster.shards  # not retired
        assert cluster.shard_of("c0") == victim
        assert {name: cluster.shard_of(name) for name in cluster.registered} == placement
        assert cluster.elastic_log == log
        report = cluster.run_batch(2)
        assert len(report.per_query_cost) == 7

    def test_drain_plan_counts_its_own_picks_against_capacity(self):
        registry = clustered_registry(4, 2, seed=16)
        cluster = ClusterServer(registry, n_shards=3, max_shard_queries=3)
        for name, stream in [("a0", "C0S0"), ("x0", "C2S0"), ("y0", "C3S0"),
                             ("b0", "C1S0"), ("x1", "C2S0"), ("y1", "C3S0")]:
            cluster.register(name, tree_on([stream]))
        victim = cluster.shard_of("a0")
        assert cluster.shard_of("b0") == victim
        x_home, y_home = cluster.shard_of("x0"), cluster.shard_of("y0")
        # Both components are cold and both destinations hold 2/3: the first
        # pick fills x's shard, so the planned load sends the second to y's.
        event = cluster.drain_shard(victim)
        assert event.new_shard_ids == (x_home, y_home)
        assert cluster.shard_of("a0") == x_home and cluster.shard_of("b0") == y_home
        assert all(len(shard) <= 3 for shard in cluster.shards.values())

    def test_drain_capacity_exhaustion_keeps_cluster_consistent(self):
        registry = clustered_registry(3, 2, seed=13)
        cluster = ClusterServer(registry, n_shards=2, max_shard_queries=3)
        for i in range(3):
            cluster.register(f"a{i}", tree_on(["C0S0"]))  # fills one shard
        for i in range(3):
            cluster.register(f"b{i}", tree_on(["C1S0"]))  # fills the other
        drained_home = cluster.shard_of("a0")
        other_home = cluster.shard_of("b0")
        assert drained_home != other_home
        # The only destination is full (3/3) for a 3-query component.
        with pytest.raises(AdmissionError):
            cluster.drain_shard(drained_home)
        # The shard was not retired and every query is still served.
        assert drained_home in cluster.shards
        assert len(cluster) == 6
        report = cluster.run_batch(2)
        assert len(report.per_query_cost) == 6


class TestResize:
    def test_resize_round_trip_serves_everyone(self):
        registry, population = small_environment(seed=17)
        cluster = ClusterServer(registry, n_shards=2, seed=18)
        cluster.register_population(population)
        cluster.resize(5)
        assert cluster.n_shards == 5
        cluster.resize(1)
        assert cluster.n_shards == 1
        report = cluster.run_batch(2)
        assert len(report.per_query_cost) == len(population)

    def test_resize_grows_with_empty_shard_when_unsplittable(self):
        registry = clustered_registry(1, 1, seed=19)
        cluster = ClusterServer(registry, n_shards=1)
        cluster.register("a", tree_on(["C0S0"]))
        events = cluster.resize(2)
        assert [event.kind for event in events] == ["grow"]
        assert cluster.n_shards == 2

    def test_policy_keeps_shards_resize_spawned(self):
        # A grown shard waits for cold admissions; the next batch's elastic
        # check must not retire it as "empty" and undo the resize.
        registry = synthetic_registry(16, seed=1)
        policy = ElasticPolicy(churn_every=10, min_split_size=1000)
        cluster = ClusterServer(registry, n_shards=3, elastic=policy)
        for name, tree in synthetic_population(200, registry, seed=2):
            cluster.register(name, tree)
        cluster.run_batch(1)
        grown = [event.shard_id for event in cluster.resize(6) if event.kind == "grow"]
        assert grown
        report = cluster.run_batch(1)
        assert not any("auto:empty" in action for action in report.elastic_actions)
        assert cluster.n_shards == 6
        assert all(sid in cluster.shards for sid in grown)

    def test_policy_retires_emptied_shard(self):
        registry = clustered_registry(2, 1, seed=3)
        cluster = ClusterServer(registry, n_shards=2, elastic=ElasticPolicy())
        cluster.register("a", tree_on(["C0S0"]))
        cluster.register("b", tree_on(["C1S0"]))
        emptied = cluster.shard_of("b")
        assert emptied != cluster.shard_of("a")
        cluster.deregister("b")
        report = cluster.run_batch(1)
        assert any("auto:empty" in action for action in report.elastic_actions)
        assert emptied not in cluster.shards

    def test_resize_validates_width(self):
        registry, _ = small_environment()
        cluster = ClusterServer(registry, n_shards=2)
        with pytest.raises(AdmissionError):
            cluster.resize(0)


class TestReshapingReturnsItsEvent:
    """Every reshaping call returns the very events it logged."""

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_returned_events_are_the_logged_ones(self, executor):
        registry, population = small_environment(seed=9, n_queries=30)
        with ClusterServer(registry, n_shards=1, executor=executor, seed=9) as cluster:
            cluster.register_population(population)
            cluster.run_batch(1)

            def logged(action) -> list[ElasticEvent]:
                before = len(cluster.elastic_log)
                result = action()
                events = result if isinstance(result, list) else [result]
                new = cluster.elastic_log[before:]
                assert len(events) == len(new) > 0
                assert all(a is b for a, b in zip(events, new))
                return events

            (split,) = logged(lambda: cluster.split_shard(0, into=2))
            assert split.kind == "split"
            (drain,) = logged(lambda: cluster.drain_shard(max(cluster.shards)))
            assert drain.kind == "drain"
            (rebalance,) = logged(lambda: cluster.rebalance(force=True))
            assert rebalance.kind == "rebalance"
            grown = logged(lambda: cluster.resize(cluster.n_shards + 2))
            assert len(grown) == 2 and cluster.n_shards == 3
            assert cluster.run_batch(1).n_queries == len(population)


class TestMigrationState:
    def test_registration_order_restored_after_moves(self):
        """Merge tie-break order must not depend on a query's travel path."""
        registry, population = small_environment(seed=23)
        cluster = ClusterServer(registry, n_shards=3, seed=24)
        cluster.register_population(population)
        cluster.resize(6)
        cluster.resize(1)
        # Everything ended on one shard: its registration order must be the
        # cluster admission order exactly.
        (survivor,) = [s for s in cluster.shards.values() if len(s)]
        assert list(survivor.names) == list(cluster.registered)

    def test_adaptive_belief_travels_with_split(self):
        registry, population = small_environment(seed=29)
        policy = AdaptivePolicy(window=32, threshold=0.2, min_samples=8, cooldown=4)
        cluster = ClusterServer(registry, n_shards=1, seed=30, adaptive=policy)
        cluster.register_population(population)
        cluster.run_batch(6)
        source = cluster.shards[0].transport.server
        tracked_before = set(source.adaptive.tracked_keys())
        evidence_before = {
            key: source.adaptive.tracker.get((key, 0)).window_trials
            for key in tracked_before
            if source.adaptive.tracker.get((key, 0)) is not None
        }
        assert evidence_before  # batches actually observed outcomes
        cluster.split_shard(0, into=2)
        # Every shard tracks exactly its residents' shapes, with evidence.
        seen: set[str] = set()
        for shard in cluster.shards.values():
            if not len(shard):
                continue
            server = shard.transport.server
            keys = set(server.adaptive.tracked_keys())
            resident_keys = {
                shard.query(name).canonical.key for name in shard.names
            }
            assert keys == resident_keys
            seen |= keys
            for key in keys:
                if key in evidence_before and evidence_before[key]:
                    posterior = server.adaptive.tracker.get((key, 0))
                    assert posterior is not None
                    assert posterior.window_trials > 0  # evidence transplanted
        assert seen == tracked_before

    def test_migration_counters_and_churn_separation(self):
        registry, population = small_environment(seed=31)
        cluster = ClusterServer(registry, n_shards=1, seed=32)
        cluster.register_population(population)
        churn_before = cluster._churn
        event = cluster.split_shard(0, into=2)
        assert event is not None
        metrics = [s.metrics() for s in cluster.shards.values()]
        assert sum(m.migrations_in for m in metrics) == event.moves
        assert sum(m.migrations_out for m in metrics) == event.moves
        # Migrations are placement changes, not churn.
        assert cluster._churn == churn_before
        assert sum(m.deregistrations for m in metrics) == 0

    def test_admission_absorbs_bridged_components(self):
        registry = clustered_registry(1, 3, seed=33)
        cluster = ClusterServer(registry, n_shards=2)
        cluster.register("a", tree_on(["C0S0"]))
        cluster.register("b", tree_on(["C0S1"]))  # disjoint -> other shard
        assert cluster.shard_of("a") != cluster.shard_of("b")
        # The bridge overlaps both: everything must end up co-resident.
        cluster.register("bridge", tree_on(["C0S0", "C0S1"]))
        assert (
            cluster.shard_of("a")
            == cluster.shard_of("b")
            == cluster.shard_of("bridge")
        )
        assert cluster.partition_report().kept_fraction == 1.0

    def test_absorption_counts_earlier_picks_against_capacity(self):
        registry = clustered_registry(1, 3, seed=34)
        cluster = ClusterServer(registry, n_shards=3, max_shard_queries=3)
        for name, stream in [("a", "C0S0"), ("b", "C0S1"), ("c", "C0S2")]:
            cluster.register(name, tree_on([stream]))
        assert len({cluster.shard_of(name) for name in "abc"}) == 3
        home = cluster.register("bridge", tree_on(["C0S0", "C0S1", "C0S2"]))
        # Home holds 2 after the admission: room for one more component
        # only, so the lower-numbered other shard's piece moves, the next stays.
        first, second = sorted(sid for sid in cluster.shards if sid != home)
        absorbed = [n for n in "abc" if cluster.shard_of(n) == home]
        assert len(cluster.shards[home]) == 3 and len(absorbed) == 2
        assert len(cluster.shards[first]) == 0 and len(cluster.shards[second]) == 1


class TestElasticPolicyValidation:
    def test_policy_has_three_knobs(self):
        assert [field.name for field in dataclasses.fields(ElasticPolicy)] == [
            "target_shard_queries",
            "min_split_size",
            "churn_every",
        ]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"check_every": 0},
            {"min_shards": 0},
            {"max_shards": 1, "min_shards": 2},
            {"split_above": 1.0},
            {"min_split_size": 1},
            {"target_shard_queries": -1},
            {"drain_below": 1.0},
            {"min_kept_fraction": 1.5},
            {"churn_every": -1},
            {"replans_every": -1},
        ],
    )
    def test_rejects_bad_knobs(self, kwargs):
        # A policy knob rejects a bad value; a removed knob is no keyword.
        knobs = {field.name for field in dataclasses.fields(ElasticPolicy)}
        with pytest.raises(StreamError if set(kwargs) <= knobs else TypeError):
            ElasticPolicy(**kwargs)

    def test_cluster_rejects_non_policy(self):
        registry, _ = small_environment()
        with pytest.raises(AdmissionError):
            ClusterServer(registry, elastic=object())  # type: ignore[arg-type]


class TestAutoElastic:
    def test_auto_split_grows_under_load(self):
        registry, population = small_environment(seed=41, n_queries=36)
        policy = ElasticPolicy(target_shard_queries=12, min_split_size=4)
        cluster = ClusterServer(registry, n_shards=1, seed=42, elastic=policy)
        for name, tree in population:
            cluster.register(name, tree)
        report = cluster.run_batch(2)
        assert report.elastic_actions  # overload split fired
        assert cluster.n_shards > 1
        assert cluster.splits >= 1
        assert any(e.trigger == "auto:overload" for e in cluster.elastic_log)

    def test_auto_consolidate_shrinks_after_departures(self):
        registry, population = small_environment(seed=43, n_queries=36)
        policy = ElasticPolicy(target_shard_queries=12, min_split_size=4)
        cluster = ClusterServer(registry, n_shards=1, seed=44, elastic=policy)
        for name, tree in population:
            cluster.register(name, tree)
        for _ in range(3):
            cluster.run_batch(2)
        peak = cluster.n_shards
        for name, _ in population[6:]:
            cluster.deregister(name)
        for _ in range(6):
            cluster.run_batch(2)
        assert cluster.n_shards < peak
        assert any(
            e.trigger in ("auto:consolidate", "auto:underload", "auto:empty")
            for e in cluster.elastic_log
        )

    def test_infeasible_auto_consolidate_logs_and_moves_nothing(self):
        registry = clustered_registry(3, 2, seed=15)
        policy = ElasticPolicy(target_shard_queries=8)
        cluster = ClusterServer(
            registry, n_shards=2, max_shard_queries=5, elastic=policy
        )
        for i in range(4):
            cluster.register(f"b{i}", tree_on(["C1S0"]))  # 4/5 on one shard
        cluster.register("c0", tree_on(["C2S0"]))
        for i in range(2):
            cluster.register(f"a{i}", tree_on(["C0S0"]))  # joins c0's shard
        victim = cluster.shard_of("c0")
        assert len(cluster.shards[victim]) == 3
        placement = {name: cluster.shard_of(name) for name in cluster.registered}
        # 7 queries want one shard of 8: the policy tries to consolidate the
        # smaller shard, but only c0 fits beside the b-component, so the
        # drain is refused as a whole.
        report = cluster.run_batch(2)
        assert report.elastic_actions == ()
        assert cluster.elastic_log == []
        assert victim in cluster.shards
        assert {name: cluster.shard_of(name) for name in cluster.registered} == placement
        assert len(cluster.run_batch(1).per_query_cost) == 7

    def test_auto_rebalance_on_churn(self):
        registry, population = small_environment(seed=47, n_queries=30)
        policy = ElasticPolicy(churn_every=10, min_split_size=1000)
        cluster = ClusterServer(registry, n_shards=3, seed=48, elastic=policy)
        cluster.register_population(population, method="random")
        assert cluster.partition_report().kept_fraction < 1.0
        report = cluster.run_batch(2)
        assert any("rebalance" in action for action in report.elastic_actions)
        assert cluster.partition_report().kept_fraction == 1.0

    def test_policy_checks_after_every_batch(self):
        registry, population = small_environment(seed=49, n_queries=30)
        policy = ElasticPolicy(target_shard_queries=8, min_split_size=4)
        cluster = ClusterServer(registry, n_shards=1, seed=50, elastic=policy)
        cluster.register_population(population)
        assert cluster.run_batch(1).elastic_actions != ()

    def test_elastic_event_describe(self):
        event = ElasticEvent(
            kind="split",
            round_index=7,
            shard_id=1,
            new_shard_ids=(4, 5),
            moves=9,
            trigger="auto:overload",
            detail="x",
        )
        text = event.describe()
        assert "split shard 1" in text and "4,5" in text and "auto:overload" in text

    def test_report_surfaces_elastic_state(self):
        registry, population = small_environment(seed=51)
        policy = ElasticPolicy(target_shard_queries=8, min_split_size=4)
        cluster = ClusterServer(registry, n_shards=1, seed=52, elastic=policy)
        cluster.register_population(population)
        report = cluster.run_batch(2)
        assert report.n_shards_total == cluster.n_shards
        assert report.splits == cluster.splits
        assert report.drains == cluster.drains
        assert "splits" in report.summary()


class TestElasticExperimentDrivers:
    def test_verify_elastic_parity_scalar(self):
        deltas = verify_elastic_parity(
            n_queries=24, n_clusters=3, rounds=3, seed=1
        )
        assert len(deltas) == 24
        assert max(deltas.values()) == 0.0

    def test_verify_elastic_parity_with_policy(self):
        deltas = verify_elastic_parity(
            n_queries=20,
            n_clusters=2,
            rounds=3,
            seed=2,
            elastic=ElasticPolicy(target_shard_queries=10, min_split_size=4),
        )
        assert max(deltas.values()) == 0.0

    def test_run_elastic_sim_timeline(self):
        report = run_elastic_sim(
            n_queries=60,
            n_clusters=3,
            streams_per_cluster=3,
            batches=6,
            rounds_per_batch=2,
            seed=3,
        )
        assert len(report.timeline) == 6
        assert report.peak_width >= 1
        assert report.evals > 0
        record = report.to_record()
        assert record["batches"] == 6
        assert len(record["width_timeline"]) == 6
        assert len(report.summary_rows()) == 6
