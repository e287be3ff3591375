"""QueryServer: admission, lifecycle, batching, metrics, acceptance criteria."""

from __future__ import annotations

import time

import pytest

from repro import AndTree, DnfTree, Leaf, QueryServer, run_isolated
from repro.engine import BernoulliOracle
from repro.errors import AdmissionError, StreamError
from repro.obs import Telemetry
from repro.service import PlanCache, synthetic_population, synthetic_registry
from repro.service import server as server_module
from repro.streams.registry import StreamRegistry
from repro.streams.sources import GaussianSource
from repro.streams.stream import StreamSpec


def tiny_registry() -> StreamRegistry:
    registry = StreamRegistry()
    registry.add(StreamSpec("A", 1.0), GaussianSource(seed=1))
    registry.add(StreamSpec("B", 2.0), GaussianSource(seed=2))
    return registry


def tiny_tree(prob: float = 0.5) -> DnfTree:
    return DnfTree([[Leaf("A", 2, prob)], [Leaf("B", 1, 0.3)]], {"A": 1.0, "B": 2.0})


class TestAdmission:
    def test_register_returns_planned_query(self):
        server = QueryServer(tiny_registry(), BernoulliOracle(seed=0))
        registered = server.register("q1", tiny_tree())
        assert "q1" in server
        assert len(registered.schedule) == registered.tree.size
        assert registered.canonical.key

    def test_duplicate_name_rejected(self):
        server = QueryServer(tiny_registry(), BernoulliOracle(seed=0))
        server.register("q1", tiny_tree())
        with pytest.raises(AdmissionError):
            server.register("q1", tiny_tree())

    def test_admission_limit_enforced(self):
        server = QueryServer(tiny_registry(), BernoulliOracle(seed=0), max_queries=2)
        server.register("q1", tiny_tree(0.4))
        server.register("q2", tiny_tree(0.5))
        with pytest.raises(AdmissionError):
            server.register("q3", tiny_tree(0.6))
        server.deregister("q1")
        server.register("q3", tiny_tree(0.6))  # freed slot is reusable

    def test_unknown_stream_rejected(self):
        server = QueryServer(tiny_registry(), BernoulliOracle(seed=0))
        with pytest.raises(StreamError):
            server.register("bad", DnfTree([[Leaf("Z", 1, 0.5)]]))

    def test_deregister_unknown_name_rejected(self):
        server = QueryServer(tiny_registry(), BernoulliOracle(seed=0))
        with pytest.raises(AdmissionError):
            server.deregister("ghost")

    def test_and_tree_admitted(self):
        server = QueryServer(tiny_registry(), BernoulliOracle(seed=0))
        registered = server.register(
            "and", AndTree([Leaf("A", 1, 0.75), Leaf("A", 2, 0.1)], {"A": 1.0})
        )
        assert registered.tree.n_ands == 1

    def test_isomorphic_admissions_share_one_plan(self):
        server = QueryServer(tiny_registry(), BernoulliOracle(seed=0))
        tree = DnfTree(
            [[Leaf("A", 2, 0.5), Leaf("B", 1, 0.3)], [Leaf("A", 1, 0.9)]],
            {"A": 1.0, "B": 2.0},
        )
        reordered = DnfTree(
            [[Leaf("A", 1, 0.9)], [Leaf("B", 1, 0.3), Leaf("A", 2, 0.5)]],
            {"A": 1.0, "B": 2.0},
        )
        first = server.register("q1", tree)
        second = server.register("q2", reordered)
        assert first.canonical.key == second.canonical.key
        assert server.plan_cache.hits == 1
        assert server.plan_cache.misses == 1

    def test_plan_cache_can_be_disabled(self):
        server = QueryServer(tiny_registry(), BernoulliOracle(seed=0), plan_cache=None)
        assert server.plan_cache is None
        server.register("q1", tiny_tree())
        server.register("q2", tiny_tree())
        assert server.run_batch(3).plan_cache_hit_rate == 0.0

    def test_shared_plan_cache_instance(self):
        cache = PlanCache(capacity=16)
        server_a = QueryServer(tiny_registry(), BernoulliOracle(seed=0), plan_cache=cache)
        server_b = QueryServer(tiny_registry(), BernoulliOracle(seed=1), plan_cache=cache)
        server_a.register("q", tiny_tree())
        server_b.register("q", tiny_tree())
        assert cache.hits == 1  # second server rides the first's plan


class TestExecution:
    def test_step_requires_queries(self):
        server = QueryServer(tiny_registry(), BernoulliOracle(seed=0))
        with pytest.raises(StreamError):
            server.step()

    def test_step_returns_result_per_query(self):
        server = QueryServer(tiny_registry(), BernoulliOracle(seed=0))
        server.register("q1", tiny_tree(0.4))
        server.register("q2", tiny_tree(0.6))
        results = server.step()
        assert set(results) == {"q1", "q2"}
        for result in results.values():
            assert isinstance(result.value, bool)
            assert result.cost >= 0.0

    def test_deregistered_query_stops_appearing(self):
        server = QueryServer(tiny_registry(), BernoulliOracle(seed=0))
        server.register("q1", tiny_tree(0.4))
        server.register("q2", tiny_tree(0.6))
        server.step()
        server.deregister("q1")
        assert set(server.step()) == {"q2"}

    def test_large_window_grows_device_time(self):
        server = QueryServer(tiny_registry(), BernoulliOracle(seed=0), warmup=4)
        server.register("wide", DnfTree([[Leaf("A", 50, 0.5)]], {"A": 1.0}))
        results = server.step()  # would raise if the cache were too young
        assert "wide" in results

    def test_run_batch_accumulates_metrics(self):
        server = QueryServer(tiny_registry(), BernoulliOracle(seed=0))
        server.register("q1", tiny_tree(0.4))
        report = server.run_batch(10)
        assert report.rounds == 10
        assert report.total_cost == pytest.approx(sum(report.round_costs))
        assert server.metrics.rounds == 10
        assert server.metrics.total_cost == pytest.approx(report.total_cost)
        assert len(server.metrics.round_costs) == 10
        assert server.metrics.p95_round_cost >= server.metrics.p50_round_cost
        assert "10 rounds" in server.metrics.summary()

    def test_registration_order_decides_who_pays(self):
        """Two readers of one window: the earlier registered pays for both."""
        from repro.engine import PrecomputedOracle

        server = QueryServer(tiny_registry())
        for name in ("q1", "q2"):
            server.register(name, tiny_tree(), oracle=PrecomputedOracle([True, True]))
        first = server.step()
        assert first["q1"].cost > 0.0 and first["q2"].cost == 0.0
        server.reorder(["q2", "q1"])
        # A round later one new item per stream is missing; q2 now pays it.
        second = server.step()
        assert second["q2"].cost > 0.0 and second["q1"].cost == 0.0


class TestReRegistration:
    """Regression: re-registering a name must never reuse stale compiled state."""

    def a_tree(self) -> DnfTree:
        return DnfTree([[Leaf("A", 1, 1.0)]], {"A": 1.0})

    def b_tree(self) -> DnfTree:
        return DnfTree([[Leaf("A", 1, 1.0), Leaf("B", 2, 1.0)]], {"A": 1.0, "B": 2.0})

    def test_replace_swaps_tree_and_round_program(self):
        from repro.engine import PrecomputedOracle

        server = QueryServer(tiny_registry())
        server.register("q", self.a_tree(), oracle=PrecomputedOracle([True]))
        first = server.run_batch(2)
        server.register(
            "q", self.b_tree(), oracle=PrecomputedOracle([False, True]), replace=True
        )
        assert server.query("q").tree.size == 2
        report = server.run_batch(2)
        # The old row is dead and the new one holds the 2-leaf schedule.
        program = server._program
        assert program.names == ("q",)
        assert program.length[program.order].tolist() == [len(server.query("q").schedule)]
        # The new tree is AND(A=False, B) -> always FALSE; a stale 1-leaf
        # program would have replayed the old always-TRUE query.
        assert report.per_query_true_rate["q"] == 0.0
        assert first.per_query_true_rate["q"] == 1.0
        assert report.probes == 2  # only the FALSE leaf is probed per round

    def test_replace_false_still_rejects(self):
        server = QueryServer(tiny_registry())
        server.register("q", self.a_tree())
        with pytest.raises(AdmissionError):
            server.register("q", self.b_tree())
        assert server.query("q").tree.size == 1  # original untouched

    def test_deregister_then_register_drops_executor(self):
        from repro.engine import PrecomputedOracle

        server = QueryServer(tiny_registry())
        server.register("q", self.a_tree(), oracle=PrecomputedOracle([True]))
        server.run_batch(1)
        server.deregister("q")
        assert len(server._program) == 0
        server.register("q", self.b_tree(), oracle=PrecomputedOracle([False, True]))
        report = server.run_batch(1)
        program = server._program
        assert program.length[program.order].tolist() == [len(server.query("q").schedule)]
        assert report.per_query_true_rate["q"] == 0.0

    def test_replace_respects_capacity_of_remaining_population(self):
        server = QueryServer(tiny_registry(), max_queries=1)
        server.register("q", self.a_tree())
        replaced = server.register("q", self.b_tree(), replace=True)
        assert replaced.tree.size == 2  # swap fits: the old slot was freed

    @pytest.mark.parametrize("adaptive", [False, True])
    def test_failed_replace_keeps_the_resident(self, adaptive):
        from repro.adaptive import AdaptivePolicy

        policy = AdaptivePolicy() if adaptive else None
        server = QueryServer(tiny_registry(), BernoulliOracle(seed=0), adaptive=policy)
        resident = server.register("q", tiny_tree())
        server.run_batch(1)
        key = resident.canonical.key
        with pytest.raises(StreamError):
            server.register("q", DnfTree([[Leaf("Z", 1, 0.5)]]), replace=True)
        assert "q" in server and server.query("q") is resident
        assert server.metrics.registrations == 1
        assert server.metrics.deregistrations == 0
        assert server._shape_refs[key] == 1
        if adaptive:
            assert key in server.adaptive.tracked_keys()
        assert server.run_batch(1).per_query_cost.keys() == {"q"}

    @pytest.mark.parametrize("isomorphs", [1, 2])
    def test_replace_keeps_a_belief_only_while_its_shape_stays(self, isomorphs):
        """Replacing a shape's last resident retires its belief first, so the
        replacement plans from admission; another isomorph keeps the belief."""
        from repro.adaptive import AdaptivePolicy

        server = QueryServer(
            tiny_registry(), BernoulliOracle(seed=0), adaptive=AdaptivePolicy()
        )
        for k in range(isomorphs):
            resident = server.register(f"q{k}", tiny_tree())
        key = resident.canonical.key
        server.replan_canonical(key, [0.9, 0.05])
        replaced = server.register("q0", tiny_tree(), replace=True)
        assert (replaced.planning_tree is not None) == (isomorphs == 2)
        assert server._shape_refs[key] == isomorphs

    @pytest.mark.parametrize("payer", [True, False])
    def test_replace_recompiles_the_round_program(self, payer):
        """Replacing the first-registered payer or the later rider recompiles,
        and the replacement pays from the last place in registration order."""
        from repro.engine import PrecomputedOracle

        server = QueryServer(tiny_registry())
        server.register("q", self.a_tree(), oracle=PrecomputedOracle([True]))
        server.register("r", self.a_tree(), oracle=PrecomputedOracle([True]))
        first = server.step()
        assert first["q"].value is True and first["q"].cost > 0.0
        assert first["r"].cost == 0.0
        replaced, kept = ("q", "r") if payer else ("r", "q")
        server.register(
            replaced,
            self.b_tree(),
            oracle=PrecomputedOracle([True, False]),
            replace=True,
        )
        assert list(server.registered) == [kept, replaced]
        results = server.step()
        # A stale program would still serve the 1-leaf tree (always TRUE).
        assert results[replaced].value is False
        assert results[replaced].evaluated == (0, 1)
        assert results[kept].value is True
        # The kept query, now first, pays the new A item; the replacement
        # reads it for free and pays only for B.
        assert results[kept].cost == 1.0
        assert results[replaced].cost == 4.0


class TestDriftingOracleClock:
    """Every resident drifting oracle ticks exactly once per served round."""

    def drifting(self, seed: int):
        from repro.engine import DriftingBernoulliOracle
        from repro.streams.drift import DriftSchedule

        return DriftingBernoulliOracle(DriftSchedule([0.5, 0.3]), seed=seed)

    def test_population_changes_keep_the_clock_list_current(self):
        server = QueryServer(tiny_registry(), BernoulliOracle(seed=0))
        alone, pair = self.drifting(1), self.drifting(2)
        server.register("q1", tiny_tree(), oracle=alone)
        server.register("q2", tiny_tree(), oracle=pair)
        server.register("q3", tiny_tree(0.6), oracle=pair)  # one instance, two queries
        server.register("q4", tiny_tree())  # the default, non-drifting oracle
        server.step()
        assert (alone.round_index, pair.round_index) == (1, 1)

        server.deregister("q1")
        late = self.drifting(3)
        server.register("q5", tiny_tree(), oracle=late)
        server.run_batch(1)
        assert (alone.round_index, pair.round_index, late.round_index) == (1, 2, 1)

        # q2 swaps its oracle; ``pair`` is still held by q3.
        swapped = self.drifting(4)
        server.register("q2", tiny_tree(), oracle=swapped, replace=True)
        server.step()
        assert (pair.round_index, swapped.round_index, late.round_index) == (3, 1, 2)

        migration = server.export_group(["q3"])
        server.step()
        assert (pair.round_index, swapped.round_index) == (3, 2)

        server.admit_group(migration, server.registered + ("q3",))
        server.run_batch(2)
        assert (pair.round_index, swapped.round_index, late.round_index) == (5, 4, 5)
        assert alone.round_index == 1


class TestGroupMigration:
    """A migrated group is checked whole before any of it is installed."""

    @pytest.mark.parametrize(
        ("resident", "max_queries", "match"),
        [("q3", None, "'q3' is already registered"), ("r1", 3, "server is full")],
    )
    def test_rejected_group_leaves_the_destination_untouched(
        self, resident, max_queries, match
    ):
        source = QueryServer(tiny_registry(), BernoulliOracle(seed=0))
        for name in ("q1", "q2", "q3"):
            source.register(name, tiny_tree())
        source.run_batch(5)
        dest = QueryServer(
            tiny_registry(), BernoulliOracle(seed=1), max_queries=max_queries
        )
        dest.register(resident, tiny_tree(0.7))
        dest.run_batch(2)
        registered, rounds = dest.registered, dest.rounds_served
        held = dest.cache.export_stream_state({"A", "B"})
        migration = source.export_group(["q1", "q2", "q3"])
        with pytest.raises(AdmissionError, match=match):
            dest.admit_group(migration, [*registered, "q1", "q2", "q3"])
        assert (dest.registered, dest.rounds_served) == (registered, rounds)
        assert dest.cache.export_stream_state({"A", "B"}) == held
        assert dest.metrics.migrations_in == 0


class TestPlanningPhase:
    """Writing the arrivals' rows inside a round is credited to ``planning``."""

    def test_round_after_churn_credits_planning(self, monkeypatch):
        write = server_module.RoundProgram._write

        def slow_write(program, *args):
            time.sleep(0.05)
            write(program, *args)

        monkeypatch.setattr(server_module.RoundProgram, "_write", slow_write)
        tel = Telemetry()
        server = QueryServer(tiny_registry(), BernoulliOracle(seed=0), telemetry=tel)
        server.register("q1", tiny_tree(0.4))
        server.register("q2", tiny_tree(0.5))
        server.run_batch(2)  # rows written once, then kept
        server.deregister("q1")
        server.register("q3", tiny_tree(0.6))
        server.run_batch(1)  # the arrival's row is written inside the round
        first, churned = (
            span["attrs"]["phase_seconds"] for span in tel.tracer.spans("batch")
        )
        assert first["planning"] >= 0.05 and churned["planning"] >= 0.05
        for phases in (first, churned):
            assert phases["acquisition"] < 0.05
            assert phases["evaluation"] < 0.05


class TestAcceptanceCriteria:
    """The issue's headline numbers: 100 mostly-isomorphic queries."""

    @pytest.fixture(scope="class")
    def served(self):
        registry = synthetic_registry(8, seed=11)
        population = synthetic_population(100, registry, n_templates=10, seed=12)
        server = QueryServer(registry, BernoulliOracle(seed=13))
        for name, tree in population:
            server.register(name, tree)
        report = server.run_batch(25)
        isolated = run_isolated(registry, population, 25)
        return server, report, isolated

    def test_plan_cache_hit_rate_above_80_percent(self, served):
        server, report, _ = served
        assert len(server) == 100
        assert report.plan_cache_hit_rate > 0.8

    def test_total_cost_strictly_below_isolated_sum(self, served):
        _, report, isolated = served
        assert report.total_cost < sum(isolated.values())

    def test_sharing_is_observable_in_metrics(self, served):
        server, report, _ = served
        assert report.items_saved > 0
        assert report.free_probes > 0
        assert server.metrics.sharing_rate > 0.5
