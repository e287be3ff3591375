"""QueryServer.run_batch on the compiled round kernel against the reference walk.

Each scenario serves one population twice — once on the kernel, once with
every round on :mod:`tests.service.reference_round`'s per-probe walk — and
the batch reports, the ledger and the telemetry must agree exactly. A
population sharing one ``BernoulliOracle`` is drawn by the walk in the
kernel's call order (step by step, registration order within a step) and
charged in registration order, so it too replays bit for bit.
"""

from __future__ import annotations

from dataclasses import asdict

import numpy as np
import pytest

from repro.adaptive import AdaptivePolicy
from repro.core.leaf import Leaf
from repro.core.tree import DnfTree
from repro.engine import BernoulliOracle, PrecomputedOracle
from repro.errors import StreamError
from repro.generators import step_drift_by_stream
from repro.obs import Telemetry
from repro.predicates import Predicate
from repro.engine.executor import DriftingBernoulliOracle, PredicateOracle
from repro.service import QueryServer, synthetic_population, synthetic_registry
from repro.streams.registry import StreamRegistry
from repro.streams.sources import GaussianSource
from repro.streams.stream import StreamSpec
from tests.service.reference_round import reference_rounds


def deterministic_population(n_queries: int, seed: int):
    """A synthetic population with every leaf probability forced to 0 or 1."""
    registry = synthetic_registry(6, seed=3)
    population = synthetic_population(n_queries, registry, n_templates=5, seed=4)
    rng = np.random.default_rng(seed)
    forced = []
    for name, tree in population:
        groups = [
            [leaf.with_prob(float(rng.integers(0, 2))) for leaf in group]
            for group in tree.ands
        ]
        forced.append((name, DnfTree(groups, tree.costs)))
    return forced


def on_both(serve):
    """``serve()`` on the kernel, then again with every round on the walk."""
    kernel = serve()
    with reference_rounds():
        reference = serve()
    return kernel, reference


def serve_population(population, *, rounds: int = 25):
    registry = synthetic_registry(6, seed=3)
    server = QueryServer(registry, BernoulliOracle(seed=0))
    for name, tree in population:
        server.register(name, tree)
    report = server.run_batch(rounds)
    return server, report


def assert_same_reports(kernel, reference):
    assert kernel.round_costs == reference.round_costs
    assert kernel.per_query_cost == reference.per_query_cost
    assert kernel.per_query_true_rate == reference.per_query_true_rate
    assert kernel.probes == reference.probes
    assert kernel.free_probes == reference.free_probes
    assert kernel.items_fetched == reference.items_fetched
    assert kernel.items_saved == reference.items_saved
    assert kernel.plan_cache_hit_rate == reference.plan_cache_hit_rate


class TestDeterministicParity:
    @pytest.mark.parametrize("reverse", [True, False])
    def test_reports_and_metrics_identical(self, reverse):
        """Either registration order: another first payer, the same parity."""
        population = deterministic_population(30, seed=9)
        if reverse:
            population = population[::-1]
        (kernel_server, kernel), (reference_server, reference) = on_both(
            lambda: serve_population(population)
        )
        assert_same_reports(kernel, reference)
        assert asdict(kernel_server.metrics) == asdict(reference_server.metrics)

    def test_precomputed_oracles_replay_identically(self):
        registry = synthetic_registry(4, seed=1)
        population = synthetic_population(8, registry, n_templates=2, seed=2)

        def serve():
            server = QueryServer(synthetic_registry(4, seed=1), BernoulliOracle(seed=0))
            for ordinal, (name, tree) in enumerate(population):
                fixed = [bool((ordinal + g) % 2) for g in range(tree.size)]
                server.register(name, tree, oracle=PrecomputedOracle(fixed))
            return server.run_batch(10)

        assert_same_reports(*on_both(serve))


class TestRoundRecordParity:
    """The kernel and the walk close each round through the same record: the
    detail events and the ledger must match exactly."""

    @staticmethod
    def resolutions(tel: Telemetry) -> list[tuple]:
        return [
            (a["query"], a["round"], a["cost"], a["value"], a["probes"])
            for a in (e["attrs"] for e in tel.tracer.events("query-resolution"))
        ]

    def assert_same_record(self, build) -> tuple[QueryServer, QueryServer]:
        def serve():
            tel = Telemetry(detail=True)
            server = build(tel)
            server.run_batch(25)
            return server, self.resolutions(tel)

        (kernel, kernel_events), (reference, reference_events) = on_both(serve)
        assert kernel_events == reference_events
        assert len(kernel_events) == 25 * len(kernel)
        assert asdict(kernel.metrics) == asdict(reference.metrics)
        return kernel, reference

    def test_deterministic_population(self):
        population = deterministic_population(30, seed=9)

        def build(tel: Telemetry) -> QueryServer:
            server = QueryServer(
                synthetic_registry(6, seed=3), BernoulliOracle(seed=0), telemetry=tel
            )
            for name, tree in population:
                server.register(name, tree)
            return server

        self.assert_same_record(build)

    def test_adaptive_population_replanning_mid_batch(self):
        # OR(cheap[2], dear[3]) whose cheap leaf drifts 0.05 -> 0.3 at round
        # 10, flipping the optimal order: the tracker re-plans mid-batch, and
        # answers stay mixed, so a misfed observation would show.
        tree = DnfTree(
            [[Leaf("cheap", 2, 0.05)], [Leaf("dear", 3, 0.6)]],
            costs={"cheap": 1.0, "dear": 5.0},
        )

        def build(tel: Telemetry) -> QueryServer:
            registry = StreamRegistry()
            registry.add(StreamSpec("cheap", 1.0), GaussianSource(seed=11))
            registry.add(StreamSpec("dear", 5.0), GaussianSource(seed=12))
            policy = AdaptivePolicy(
                window=16, threshold=0.25, min_samples=6, cooldown=4
            )
            server = QueryServer(registry, adaptive=policy, telemetry=tel)
            for q in range(3):
                drift = step_drift_by_stream(tree, 10, {"cheap": 0.3})
                server.register(
                    f"q{q}", tree, oracle=DriftingBernoulliOracle(drift, seed=q)
                )
            return server

        kernel, reference = self.assert_same_record(build)
        assert kernel.replan_log and 0 < kernel.replan_log[0].round_index < 25
        assert [e.round_index for e in kernel.replan_log] == [
            e.round_index for e in reference.replan_log
        ]


class TestStochasticBehaviour:
    def test_statistics_close_under_bernoulli(self):
        registry = synthetic_registry(8, seed=7)
        population = synthetic_population(60, registry, seed=8)

        def serve():
            server = QueryServer(synthetic_registry(8, seed=7), BernoulliOracle(seed=1))
            for name, tree in population:
                server.register(name, tree)
            return server.run_batch(40)

        kernel, reference = on_both(serve)
        # One shared generator, drawn in the same call order by both.
        assert_same_reports(kernel, reference)
        assert kernel.probes > 0 and kernel.free_probes > 0
        assert kernel.items_saved > 0

    def test_rounds_advance_device_time(self):
        population = deterministic_population(5, seed=2)
        server, _ = serve_population(population, rounds=15)
        assert server.metrics.rounds == 15


class TestValidation:
    def test_unknown_engine(self):
        population = deterministic_population(3, seed=1)
        registry = synthetic_registry(6, seed=3)
        server = QueryServer(registry, BernoulliOracle(seed=0))
        for name, tree in population:
            server.register(name, tree)
        with pytest.raises(StreamError):
            server.run_batch(5, engine="warp")

    def test_empty_server(self):
        registry = synthetic_registry(3, seed=0)
        server = QueryServer(registry, BernoulliOracle(seed=0))
        with pytest.raises(StreamError):
            server.run_batch(5)

    def test_partial_precomputed_oracle_is_served(self):
        """Leaves a round short-circuits away are never asked for."""
        registry = synthetic_registry(3, seed=0)
        a, b = registry.names[:2]
        tree = DnfTree([[Leaf(a, 1, 0.5)], [Leaf(b, 2, 0.5)]])

        def serve():
            server = QueryServer(synthetic_registry(3, seed=0))
            server.register("q", tree)
            first = server.query("q").schedule[0]
            # An OR resolves on its first TRUE leaf: the other has no outcome.
            server.register(
                "q", tree, oracle=PrecomputedOracle({first: True}), replace=True
            )
            return server.run_batch(3)

        kernel, reference = on_both(serve)
        assert_same_reports(kernel, reference)
        assert kernel.per_query_true_rate == {"q": 1.0}
        assert kernel.probes == 3

    def test_predicate_oracle_stays_scalar(self):
        """A data-driven predicate query is served per probe, like any other."""
        registry = synthetic_registry(3, seed=0)
        population = synthetic_population(2, registry, n_templates=1, seed=1)

        def serve():
            server = QueryServer(synthetic_registry(3, seed=0), BernoulliOracle(seed=0))
            bern_name, bern_tree = population[1]
            server.register(bern_name, bern_tree)
            name, tree = population[0]
            predicates = {
                g: Predicate(leaf.stream, "AVG", leaf.items, ">", 0.0)
                for g, leaf in enumerate(tree.leaves)
            }
            server.register(name, tree, oracle=PredicateOracle(predicates))
            return server.run_batch(3)

        kernel, reference = on_both(serve)
        assert_same_reports(kernel, reference)
        assert kernel.rounds == 3 and len(kernel.per_query_cost) == 2
