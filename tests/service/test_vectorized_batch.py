"""QueryServer.run_batch(engine="vectorized") — parity with the scalar loop."""

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


def deterministic_population(n_queries: int, seed: int):
    """A synthetic population with every leaf probability forced to 0 or 1.

    With deterministic outcomes both engines evaluate exactly the same
    probes, so every metric must agree exactly.
    """
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


def run_engine(population, engine: str, *, shared_plan: bool = True, rounds: int = 25):
    registry = synthetic_registry(6, seed=3)
    server = QueryServer(registry, BernoulliOracle(seed=0), shared_plan=shared_plan)
    for name, tree in population:
        server.register(name, tree)
    report = server.run_batch(rounds, engine=engine)
    return server, report


class TestDeterministicParity:
    @pytest.mark.parametrize("shared_plan", [True, False])
    def test_reports_and_metrics_identical(self, shared_plan):
        population = deterministic_population(30, seed=9)
        scalar_server, scalar = run_engine(population, "scalar", shared_plan=shared_plan)
        vector_server, vector = run_engine(
            population, "vectorized", shared_plan=shared_plan
        )
        assert scalar.round_costs == vector.round_costs
        assert scalar.per_query_cost == vector.per_query_cost
        assert scalar.per_query_true_rate == vector.per_query_true_rate
        assert scalar.probes == vector.probes
        assert scalar.free_probes == vector.free_probes
        assert scalar.items_fetched == vector.items_fetched
        assert scalar.items_saved == vector.items_saved
        assert scalar.plan_cache_hit_rate == vector.plan_cache_hit_rate
        for name in scalar_server.registered:
            a = scalar_server.metrics.query_stats(name)
            b = vector_server.metrics.query_stats(name)
            assert (a.rounds, a.cost, a.probes, a.true_count) == (
                b.rounds,
                b.cost,
                b.probes,
                b.true_count,
            )
            assert (a.items_fetched, a.items_saved) == (b.items_fetched, b.items_saved)

    def test_precomputed_oracles_replay_identically(self):
        registry = synthetic_registry(4, seed=1)
        population = synthetic_population(8, registry, n_templates=2, seed=2)

        def build(engine):
            reg = synthetic_registry(4, seed=1)
            server = QueryServer(reg, BernoulliOracle(seed=0))
            for ordinal, (name, tree) in enumerate(population):
                fixed = [bool((ordinal + g) % 2) for g in range(tree.size)]
                server.register(name, tree, oracle=PrecomputedOracle(fixed))
            return server.run_batch(10, engine=engine)

        scalar, vector = build("scalar"), build("vectorized")
        assert scalar.round_costs == vector.round_costs
        assert scalar.per_query_true_rate == vector.per_query_true_rate


class TestRoundRecordParity:
    """Both engines close each round through the same record: the detail
    events and every resident's lifetime stats must match exactly."""

    @staticmethod
    def resolutions(tel: Telemetry) -> list[tuple]:
        return [
            (a["query"], a["round"], a["cost"], a["value"], a["probes"])
            for a in (e["attrs"] for e in tel.tracer.events("query-resolution"))
        ]

    def assert_same_record(self, build) -> tuple[QueryServer, QueryServer]:
        servers, events = [], []
        for engine in ("scalar", "vectorized"):
            tel = Telemetry(detail=True)
            server = build(tel)
            server.run_batch(25, engine=engine)
            servers.append(server)
            events.append(self.resolutions(tel))
        scalar, vector = servers
        assert events[0] == events[1]
        assert len(events[0]) == 25 * len(scalar)
        per_query = [
            {name: asdict(stats) for name, stats in server.metrics.per_query.items()}
            for server in servers
        ]
        assert per_query[0] == per_query[1]
        return scalar, vector

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
        # answers stay mixed, so a misaligned outcome row would show.
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

        scalar, vector = self.assert_same_record(build)
        assert scalar.replan_log and 0 < scalar.replan_log[0].round_index < 25
        assert [e.round_index for e in scalar.replan_log] == [
            e.round_index for e in vector.replan_log
        ]


class TestStochasticBehaviour:
    def test_statistics_close_under_bernoulli(self):
        registry = synthetic_registry(8, seed=7)
        population = synthetic_population(60, registry, seed=8)

        def run(engine, seed):
            reg = synthetic_registry(8, seed=7)
            server = QueryServer(reg, BernoulliOracle(seed=seed))
            for name, tree in population:
                server.register(name, tree)
            return server.run_batch(40, engine=engine)

        scalar = run("scalar", 1)
        vector = run("vectorized", 1)
        # Different rng consumption order, same distribution: totals agree
        # loosely and structural counts stay in the same regime.
        assert vector.total_cost == pytest.approx(scalar.total_cost, rel=0.25)
        assert vector.rounds == scalar.rounds
        assert vector.probes > 0 and vector.free_probes > 0
        assert vector.items_saved > 0

    def test_rounds_advance_device_time(self):
        population = deterministic_population(5, seed=2)
        server, _ = run_engine(population, "vectorized", rounds=15)
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
            server.run_batch(5, engine="vectorized")

    def test_partial_precomputed_oracle_clear_error(self):
        registry = synthetic_registry(3, seed=0)
        population = synthetic_population(2, registry, n_templates=1, seed=1)
        server = QueryServer(registry, BernoulliOracle(seed=0))
        name, tree = population[0]
        assert tree.size >= 2
        server.register(name, tree, oracle=PrecomputedOracle({0: True}))
        with pytest.raises(StreamError, match="precomputed oracle"):
            server.run_batch(3, engine="vectorized")

    def test_predicate_oracle_stays_scalar(self):
        registry = synthetic_registry(3, seed=0)
        population = synthetic_population(2, registry, n_templates=1, seed=1)
        server = QueryServer(registry, BernoulliOracle(seed=0))
        # A Bernoulli query registered first must not have its rng consumed
        # by a vectorized attempt that fails on a later predicate query.
        bern_name, bern_tree = population[1]
        server.register(bern_name, bern_tree)
        name, tree = population[0]
        predicates = {
            g: Predicate(leaf.stream, "AVG", leaf.items, ">", 0.0)
            for g, leaf in enumerate(tree.leaves)
        }
        server.register(name, tree, oracle=PredicateOracle(predicates))
        state_before = server.default_oracle.rng.bit_generator.state
        with pytest.raises(StreamError, match="scalar"):
            server.run_batch(3, engine="vectorized")
        assert server.default_oracle.rng.bit_generator.state == state_before
