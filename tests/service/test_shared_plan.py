"""Shared global plans: merge invariants and the sharing cost-dominance property."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DnfTree, Leaf
from repro.core.heuristics import get_scheduler
from repro.engine.executor import LeafOracle
from repro.errors import StreamError
from repro.service import (
    QueryServer,
    merge_schedules,
    run_isolated,
    synthetic_population,
    synthetic_registry,
)


class DataDrivenOracle(LeafOracle):
    """Outcome is a pure function of the fetched window values.

    Deterministic given the stream tapes, so a shared run and an isolated run
    of the same population see *identical* leaf outcomes — which makes
    "shared total <= sum of isolated totals" an exact theorem, not a
    statistical tendency.
    """

    def outcome(self, gindex, leaf, values):
        return (abs(float(values.sum())) * 997.0) % 1.0 < leaf.prob


def small_population(seed: int, n_queries: int = 6):
    registry = synthetic_registry(4, seed=seed)
    population = synthetic_population(
        n_queries, registry, n_templates=max(1, n_queries // 2), seed=seed + 1
    )
    return registry, population


class TestMergeSchedules:
    def make_inputs(self, seed=0):
        registry, population = small_population(seed)
        scheduler = get_scheduler("and-inc-c-over-p-dynamic")
        trees = {name: tree for name, tree in population}
        schedules = {name: scheduler.schedule(tree) for name, tree in population}
        return trees, schedules, registry.cost_table()

    def test_contains_every_probe_exactly_once(self):
        trees, schedules, costs = self.make_inputs()
        plan = merge_schedules(trees, schedules, costs)
        assert plan.size == sum(len(s) for s in schedules.values())
        seen = {(p.query, p.gindex) for p in plan.probes}
        assert len(seen) == plan.size

    def test_preserves_per_query_order(self):
        trees, schedules, costs = self.make_inputs()
        plan = merge_schedules(trees, schedules, costs)
        for name, order in plan.per_query().items():
            assert order == tuple(schedules[name])

    def test_planned_items_cover_every_window(self):
        trees, schedules, costs = self.make_inputs()
        plan = merge_schedules(trees, schedules, costs)
        for name, tree in trees.items():
            for leaf in tree.leaves:
                assert plan.planned_items[leaf.stream] >= leaf.items

    def test_population_plan_interleaves_queries(self):
        trees, schedules, costs = self.make_inputs()
        plan = merge_schedules(trees, schedules, costs)
        assert plan.interleaving_degree() > 0.0

    def test_free_probe_scheduled_before_paid_probe(self):
        """Once one query pays for a window, identical probes float forward."""
        expensive = DnfTree([[Leaf("X", 4, 0.5)], [Leaf("Y", 1, 0.5)]], {"X": 10.0, "Y": 1.0})
        rider = DnfTree([[Leaf("X", 4, 0.6)]], {"X": 10.0})
        schedules = {
            "payer": (0, 1),
            "rider": (0,),
        }
        plan = merge_schedules(
            {"payer": expensive, "rider": rider}, schedules, {"X": 10.0, "Y": 1.0}
        )
        order = [(p.query, p.gindex) for p in plan.probes]
        # The rider's X-probe becomes free the moment the payer's X-probe is
        # planned, so they end up adjacent — before the cheap Y probe would
        # have been reached in a blocked order.
        payer_x = order.index(("payer", 0))
        rider_x = order.index(("rider", 0))
        assert abs(payer_x - rider_x) == 1

    def test_mismatched_key_sets_rejected(self):
        trees, schedules, costs = self.make_inputs()
        schedules.pop(next(iter(schedules)))
        with pytest.raises(StreamError):
            merge_schedules(trees, schedules, costs)


class TestSharingDominance:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 1_000))
    def test_shared_cost_never_exceeds_isolated_sum(self, seed):
        """Property: total batched cost <= sum of per-query isolated costs.

        Holds sample-by-sample (not just in expectation) because the oracle
        is data-driven and the caches only ever *remove* charges.
        """
        registry, population = small_population(seed, n_queries=5)
        oracle = DataDrivenOracle()
        server = QueryServer(registry, oracle)
        for name, tree in population:
            server.register(name, tree)
        rounds = 8
        report = server.run_batch(rounds)
        isolated = run_isolated(
            registry, population, rounds, oracle_factory=lambda name: oracle
        )
        assert report.total_cost <= sum(isolated.values()) + 1e-9

    def test_per_query_outcomes_match_isolated_run(self):
        """Interleaving changes cost, never semantics: same TRUE rates."""
        registry, population = small_population(3, n_queries=4)
        server = QueryServer(registry, DataDrivenOracle())
        for name, tree in population:
            server.register(name, tree)
        rounds = 10
        shared_true = {name: 0 for name, _ in population}
        for _ in range(rounds):
            for name, result in server.step().items():
                shared_true[name] += 1 if result.value else 0

        # Isolated reference: fresh registry clone with identical tapes.
        registry2, population2 = small_population(3, n_queries=4)
        scheduler = get_scheduler("and-inc-c-over-p-dynamic")
        oracle = DataDrivenOracle()
        from repro.engine.executor import ScheduleExecutor
        from repro.engine.workload import compute_max_windows

        for name, tree in population2:
            cache = registry2.build_cache(now=64)
            executor = ScheduleExecutor(tree, cache, oracle)
            schedule = scheduler.schedule(tree)
            true_count = 0
            for _ in range(rounds):
                cache.advance(1, max_windows=compute_max_windows([tree]))
                if executor.run(schedule).value:
                    true_count += 1
            assert true_count == shared_true[name], name


class TestRoundProgram:
    def test_repeated_probe_matches_the_walk(self):
        """A plan probing one leaf twice: evaluated once, then skipped."""
        from repro.core.resolution import TreeIndex
        from repro.engine.executor import PrecomputedOracle
        from repro.service.shared_plan import RoundProgram, SharedPlan
        from repro.streams.cache import CountingCache
        from tests.service import reference_round

        tree = DnfTree([[Leaf("A", 2, 0.5), Leaf("B", 1, 0.5)]])
        plan = SharedPlan(
            names=("q",), order=((0, 0), (0, 0), (0, 1)), planned_items={}
        )

        def world():
            return (
                {"q": TreeIndex(tree)},
                CountingCache({"A": 1.0, "B": 2.0}),
                {"q": PrecomputedOracle([True, False])},
            )

        indexes, cache, oracles = world()
        program = RoundProgram(plan, indexes, oracles)
        got_stats = program.run(cache)
        got = program.results()
        indexes, cache, oracles = world()
        want, want_stats = reference_round.execute_round(plan, indexes, cache, oracles)
        assert got == want
        assert got["q"].evaluated == (0, 1) and got["q"].skipped == (0,)
        assert got_stats == want_stats

    def test_plan_slots_must_number_the_programs_queries(self):
        from repro.core.resolution import TreeIndex
        from repro.engine.executor import PrecomputedOracle
        from repro.service.shared_plan import RoundProgram, SharedPlan

        index = TreeIndex(DnfTree([[Leaf("A", 1, 0.5)]]))
        plan = SharedPlan(names=("a", "b"), order=((0, 0), (1, 0)), planned_items={})
        oracles = {"a": PrecomputedOracle([True]), "b": PrecomputedOracle([True])}
        with pytest.raises(StreamError, match="plan slots"):
            RoundProgram(plan, {"b": index, "a": index}, oracles)
