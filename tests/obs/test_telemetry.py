"""Telemetry facade semantics and end-to-end serving/cluster integration."""

from __future__ import annotations

import io
import time

from repro.adaptive import AdaptivePolicy
from repro.cluster import ClusterServer
from repro.engine import BernoulliOracle
from repro.experiments.drift import run_drift
from repro.generators import clustered_registry, overlap_clustered_population
from repro.obs import MetricsRegistry, Telemetry, latest_snapshot, read_jsonl
from repro.service import QueryServer, synthetic_population, synthetic_registry


def make_server(telemetry: Telemetry | None, n_queries: int = 12) -> QueryServer:
    registry = synthetic_registry(6, seed=31)
    population = synthetic_population(n_queries, registry, seed=32)
    server = QueryServer(registry, BernoulliOracle(seed=33), telemetry=telemetry)
    for name, tree in population:
        server.register(name, tree)
    return server


def make_cluster(telemetry: Telemetry | None, seed: int = 41) -> ClusterServer:
    registry = clustered_registry(3, 3, seed=seed)
    population = overlap_clustered_population(18, registry, 3, 3, seed=seed + 1)
    cluster = ClusterServer(registry, n_shards=2, seed=seed + 2, telemetry=telemetry)
    cluster.register_population(population)
    return cluster


class TestFacade:
    def test_disabled_span_still_yields_attrs(self):
        tel = Telemetry(enabled=False)
        with tel.span("batch", rounds=3) as attrs:
            attrs["result"] = 1
        assert attrs == {"rounds": 3, "result": 1}
        tel.event("ignored")
        assert tel.tracer.emitted == 0

    def test_enabled_span_records(self):
        tel = Telemetry()
        with tel.span("batch") as attrs:
            attrs["x"] = 1
        assert tel.tracer.spans("batch")[0]["attrs"] == {"x": 1}

    def test_snapshot_envelope(self):
        tel = Telemetry()
        tel.counter("c").inc(2)
        record = tel.write_snapshot()
        assert record["type"] == "snapshot"
        assert record["metrics"]["counters"][0]["value"] == 2.0
        assert tel.tracer.records()[-1]["type"] == "snapshot"

    def test_finally_snapshot_writes_on_exit(self):
        sink = io.StringIO()
        tel = Telemetry(sink=sink)
        with tel.finally_snapshot():
            tel.event("tick")
        records = [r for r in read_jsonl(io.StringIO(sink.getvalue()))]
        assert latest_snapshot(records) is not None

    def test_shared_registry_across_telemetries(self):
        shared = MetricsRegistry()
        a, b = Telemetry(registry=shared), Telemetry(registry=shared)
        a.counter("c").inc()
        b.counter("c").inc()
        assert shared.value("c") == 2.0


class TestServerIntegration:
    def test_batch_metrics_match_report(self):
        tel = Telemetry()
        server = make_server(tel)
        report = server.run_batch(8)
        reg = tel.registry
        assert reg.value("repro_rounds_total") == 8
        assert reg.value("repro_probes_total") == report.probes
        assert reg.value("repro_free_probes_total") == report.free_probes
        assert reg.value("repro_items_fetched_total") == report.items_fetched
        assert reg.value("repro_items_saved_total") == report.items_saved
        cost = reg.get_histogram("repro_round_cost")
        assert cost is not None and cost.count == 8
        assert cost.total == sum(report.round_costs)
        seconds = reg.get_histogram("repro_round_seconds")
        assert seconds is not None and seconds.count == 8
        (span,) = tel.tracer.spans("batch")
        assert span["attrs"]["total_cost"] == report.total_cost

    def test_admission_stages_are_timed(self):
        """Each registration observes its canonicalize and plan stages once,
        and the two add up to no more than the call's wall time."""
        tel = Telemetry()
        registry = synthetic_registry(6, seed=31)
        population = synthetic_population(12, registry, seed=32)
        server = QueryServer(registry, BernoulliOracle(seed=33), telemetry=tel)
        stages = ("canonicalize", "plan")
        recorded = 0.0
        for count, (name, tree) in enumerate(population, 1):
            start = time.perf_counter()
            server.register(name, tree)
            wall = time.perf_counter() - start
            hists = [
                tel.registry.get_histogram("repro_admission_seconds", stage=stage)
                for stage in stages
            ]
            assert all(hist is not None and hist.count == count for hist in hists)
            total = sum(hist.total for hist in hists)
            assert 0.0 < total - recorded <= wall
            recorded = total
        cells = [
            labels["stage"]
            for name, labels, _ in tel.registry.collect()
            if name == "repro_admission_seconds"
        ]
        assert sorted(cells) == sorted(stages)

    def test_telemetry_does_not_change_serving(self):
        bare = make_server(None).run_batch(6)
        traced = make_server(Telemetry()).run_batch(6)
        disabled = make_server(Telemetry(enabled=False)).run_batch(6)
        assert bare == traced == disabled

    def test_disabled_telemetry_records_nothing(self):
        tel = Telemetry(enabled=False)
        make_server(tel).run_batch(4)
        assert tel.tracer.emitted == 0
        assert len(tel.registry) == 0

    def test_detail_mode_emits_per_query_resolutions(self):
        tel = Telemetry(detail=True)
        server = make_server(tel, n_queries=4)
        server.run_batch(3)
        events = tel.tracer.events("query-resolution")
        assert len(events) == 3 * 4
        assert {e["attrs"]["query"] for e in events} == set(server.registered)
        assert all(isinstance(e["attrs"]["value"], bool) for e in events)

    def test_service_and_registry_percentiles_agree(self):
        tel = Telemetry()
        server = make_server(tel)
        server.run_batch(20)
        hist = tel.registry.get_histogram("repro_round_cost")
        for q, prop in ((50.0, "p50_round_cost"), (99.0, "p99_round_cost")):
            assert getattr(server.metrics, prop) == hist.percentile(q)

    def test_adaptive_replans_traced(self):
        tel = Telemetry()
        policy = AdaptivePolicy(window=16, threshold=0.2, min_samples=8, cooldown=4)
        report = run_drift(
            n_queries=4,
            cluster_size=2,
            rounds=60,
            drift_round=20,
            policy=policy,
            telemetry=tel,
        )
        assert report.adaptive.replans > 0
        assert tel.registry.value("repro_replans_total") == report.adaptive.replans
        events = tel.tracer.events("replan")
        assert len(events) == report.adaptive.replans
        assert all(e["attrs"]["new_cost"] <= e["attrs"]["old_cost"] for e in events)


class TestClusterIntegration:
    def test_report_fields_are_registry_deltas(self):
        tel = Telemetry()
        cluster = make_cluster(tel)
        first = cluster.run_batch(4)
        reg = tel.registry
        for field, name in (
            ("rounds", "repro_cluster_rounds_total"),
            ("probes", "repro_cluster_probes_total"),
            ("free_probes", "repro_cluster_free_probes_total"),
            ("items_fetched", "repro_cluster_items_fetched_total"),
            ("items_saved", "repro_cluster_items_saved_total"),
            ("replans", "repro_cluster_replans_total"),
        ):
            assert getattr(first, field) == reg.value(name)
        assert first.total_cost == reg.value("repro_cluster_cost_total")
        # A second batch's report covers only its own delta, not lifetime.
        second = cluster.run_batch(4)
        assert second.rounds == 4
        assert reg.value("repro_cluster_rounds_total") == 8
        assert reg.value("repro_cluster_batches_total") == 2
        assert reg.value("repro_cluster_shards") == cluster.n_shards
        assert reg.value("repro_cluster_queries") == len(cluster)
        # Across batches the reports add up to the counters exactly.
        for field, name in (
            ("total_cost", "repro_cluster_cost_total"),
            ("probes", "repro_cluster_probes_total"),
            ("free_probes", "repro_cluster_free_probes_total"),
            ("items_fetched", "repro_cluster_items_fetched_total"),
            ("items_saved", "repro_cluster_items_saved_total"),
            ("replans", "repro_cluster_replans_total"),
        ):
            assert getattr(first, field) + getattr(second, field) == reg.value(name)

    def test_cluster_reports_identical_with_and_without_telemetry(self):
        bare = make_cluster(None).run_batch(5)
        traced = make_cluster(Telemetry()).run_batch(5)
        # Everything but wall-clock timing must be bit-identical.
        for field in (
            "rounds",
            "total_cost",
            "probes",
            "free_probes",
            "items_fetched",
            "items_saved",
            "replans",
            "shard_sizes",
            "per_query_cost",
            "per_query_true_rate",
        ):
            assert getattr(bare, field) == getattr(traced, field), field

    def test_shard_batch_spans_and_histograms_roll_up(self):
        tel = Telemetry()
        cluster = make_cluster(tel)
        cluster.run_batch(3)
        cluster.run_batch(3)
        spans = tel.tracer.spans("shard-batch")
        assert len(spans) == 2 * cluster.n_shards
        assert {s["attrs"]["shard"] for s in spans} == set(cluster.shards)
        merged = tel.registry.merged_histogram("repro_shard_batch_seconds")
        assert merged is not None and merged.count == 2 * cluster.n_shards
        cluster_spans = tel.tracer.spans("cluster-batch")
        assert len(cluster_spans) == 2
        assert all(s["attrs"]["shards"] == cluster.n_shards for s in cluster_spans)

    def test_elastic_actions_and_migrations_traced(self):
        tel = Telemetry()
        cluster = make_cluster(tel)
        cluster.run_batch(2)
        before = len(cluster.elastic_log)
        cluster.resize(4)
        cluster.resize(2)
        actions = tel.tracer.events("elastic-action")
        assert len(actions) == len(cluster.elastic_log) - before
        kinds = {e["attrs"]["kind"] for e in actions}
        total = sum(
            tel.registry.value("repro_elastic_actions_total", kind=kind)
            for kind in kinds
        )
        assert total == len(actions)
        # Resizing moved queries: migration spans pair with in/out events.
        assert tel.registry.value("repro_migrations_total", direction="in") > 0
        assert tel.registry.value(
            "repro_migrations_total", direction="in"
        ) == tel.registry.value("repro_migrations_total", direction="out")
        assert len(tel.tracer.events("migration-in")) == len(
            tel.tracer.events("migration-out")
        )
        assert tel.tracer.spans("migration")


class TestTraceDropAccounting:
    def test_ring_drops_surface_as_a_counter(self):
        tel = Telemetry(capacity=2)
        for i in range(5):
            tel.event("tick", i=i)
        assert tel.sync_trace_drops() == 3
        assert tel.registry.value("repro_trace_dropped_total") == 3.0

    def test_sync_is_idempotent_per_drop(self):
        tel = Telemetry(capacity=1)
        tel.event("a")
        tel.event("b")  # evicts "a"
        tel.sync_trace_drops()
        tel.sync_trace_drops()
        assert tel.registry.value("repro_trace_dropped_total") == 1.0
        tel.event("c")  # evicts "b"
        tel.sync_trace_drops()
        assert tel.registry.value("repro_trace_dropped_total") == 2.0

    def test_snapshot_includes_the_drop_counter(self):
        tel = Telemetry(capacity=1)
        tel.event("a")
        snapshot = tel.snapshot()
        names = {cell["name"] for cell in snapshot["metrics"]["counters"]}
        # Created eagerly at zero, so dashboards always see the series.
        assert "repro_trace_dropped_total" in names
        assert tel.registry.value("repro_trace_dropped_total") == 0.0

    def test_registry_swap_attributes_drops_to_the_watching_registry(self):
        # The worker delta pattern: each shipped registry carries exactly
        # the drops that happened on its watch.
        from repro.obs import MetricsRegistry

        tel = Telemetry(capacity=1)
        tel.event("a")
        tel.event("b")  # drop 1 on the first registry's watch
        tel.sync_trace_drops()
        first = tel.registry
        tel.registry = MetricsRegistry()
        tel.event("c")
        tel.event("d")  # drops 2..4 land on the second registry
        tel.event("e")
        tel.sync_trace_drops()
        assert first.value("repro_trace_dropped_total") == 1.0
        assert tel.registry.value("repro_trace_dropped_total") == 3.0

    def test_disabled_telemetry_still_records_nothing(self):
        tel = Telemetry(enabled=False)
        tel.sync_trace_drops()
        assert len(tel.registry) == 0


class TestSloOnClusterReport:
    def make_slo_cluster(self, threshold: float):
        from repro.obs import SloObjective

        registry = clustered_registry(3, 3, seed=41)
        population = overlap_clustered_population(18, registry, 3, 3, seed=42)
        cluster = ClusterServer(
            registry,
            n_shards=2,
            seed=43,
            telemetry=Telemetry(),
            slo=[
                SloObjective(
                    name="shard-p99",
                    metric="repro_shard_batch_seconds",
                    threshold=threshold,
                )
            ],
        )
        cluster.register_population(population)
        return cluster

    def test_healthy_objective_reports_ok(self):
        cluster = self.make_slo_cluster(threshold=60.0)
        report = cluster.run_batch(3)
        (status,) = report.slo_statuses
        assert status.objective.name == "shard-p99"
        assert not status.breached
        assert status.good_fraction == 1.0
        assert "shard-p99: ok" in report.summary()

    def test_impossible_objective_breaches_and_exports(self):
        cluster = self.make_slo_cluster(threshold=1e-12)
        report = cluster.run_batch(3)
        cluster.run_batch(3)
        (status,) = report.slo_statuses
        assert status.good_fraction < 1.0
        reg = cluster.telemetry.registry
        assert reg.value("repro_slo_breached", slo="shard-p99") == 1.0
        assert reg.value("repro_slo_breach_checks_total", slo="shard-p99") >= 1.0
        from repro.obs import render_prometheus

        text = render_prometheus(cluster.telemetry.snapshot())
        assert 'repro_slo_burn_rate{slo="shard-p99",window="fast"}' in text

    def test_no_slo_configured_means_empty_statuses(self):
        report = make_cluster(Telemetry()).run_batch(2)
        assert report.slo_statuses == ()
