"""Round programs: registration-order steps, first-payer attribution,
compaction and tape reuse, and the sharing cost-dominance property."""

from __future__ import annotations

import pickle
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DnfTree, Leaf
from repro.core.heuristics import get_scheduler
from repro.engine.executor import DriftingBernoulliOracle, LeafOracle, PrecomputedOracle
from repro.errors import InvalidScheduleError, StreamError
from repro.service import (
    QueryServer,
    run_isolated,
    synthetic_population,
    synthetic_registry,
)
from repro.service.shared_plan import RoundProgram
from repro.streams.cache import CountingCache, DataItemCache
from repro.streams.drift import DriftSchedule
from repro.streams.sources import ReplaySource


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
        from repro.streams.cache import compute_max_windows

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


def steps_of(program: RoundProgram) -> list[tuple[str, int]]:
    """The program's rows as ``(name, gindex)`` steps, in registration order."""
    return [
        (name, g)
        for name, slot in zip(program.names, program.order.tolist())
        for g in program.gindex[slot, : program.length[slot]].tolist()
    ]


class TestRoundProgram:
    def test_steps_are_the_schedules_in_registration_order(self):
        registry, population = small_population(0)
        scheduler = get_scheduler("and-inc-c-over-p-dynamic")
        trees = dict(population)
        schedules = {name: tuple(scheduler.schedule(tree)) for name, tree in population}
        oracles = {name: DataDrivenOracle() for name in trees}
        program = RoundProgram(trees, schedules, oracles)
        assert program.names == tuple(name for name, _ in population)
        assert steps_of(program) == [
            (name, g) for name, schedule in schedules.items() for g in schedule
        ]

    def test_reorder_recompiles_every_probe_once(self):
        """After a reorder the rows hold every scheduled probe exactly once,
        in the new order, and the next round serves them in it."""
        registry, population = small_population(0)
        server = QueryServer(registry)
        for name, tree in population:
            server.register(name, tree, oracle=DataDrivenOracle())
        server.step()
        server.reorder(list(server.registered)[::-1])
        results = server.step()
        program = server._program
        assert program.names == server.registered == tuple(results)
        steps = steps_of(program)
        scheduled = [
            (name, g) for name in server.registered for g in server.query(name).schedule
        ]
        assert steps == scheduled
        assert len(set(steps)) == len(steps)

    def test_slots_follow_the_order_of_the_trees(self):
        """Slots number the queries in the order of ``trees``, whatever
        order the schedules and oracles come in; costs are read per slot."""
        tree_a = DnfTree([[Leaf("A", 1, 0.5)]], {"A": 1.0})
        tree_b = DnfTree([[Leaf("B", 1, 0.5)]], {"B": 2.0})
        program = RoundProgram(
            {"b": tree_b, "a": tree_a},
            {"a": (0,), "b": (0,)},
            {"a": PrecomputedOracle([True]), "b": PrecomputedOracle([True])},
        )
        assert program.names == ("b", "a")
        assert program.order.tolist() == [0, 1]
        stats = program.run(CountingCache({"A": 1.0, "B": 2.0}))
        assert stats.query_cost == [2.0, 1.0]

    def test_first_registered_reader_pays_the_window(self):
        """One fetch serves every reader; the earliest registered one pays."""
        window = DnfTree([[Leaf("X", 4, 0.5)]], {"X": 10.0})
        schedules = {"rider": (0,), "payer": (0,)}
        for order in (("payer", "rider"), ("rider", "payer")):
            program = RoundProgram(
                {name: window for name in order},
                {name: schedules[name] for name in order},
                {name: PrecomputedOracle([True]) for name in order},
            )
            stats = program.run(CountingCache({"X": 10.0}))
            assert stats.query_cost == [40.0, 0.0]
            assert (stats.items_fetched, stats.items_saved, stats.free_probes) == (4, 4, 1)

    def test_schedules_must_be_permutations(self):
        """The round's counters rely on each leaf being probed once, so a
        schedule that repeats, drops or invents a leaf is rejected, at
        arrival and at a re-plan, and a rejected re-plan keeps the row."""
        tree = DnfTree([[Leaf("A", 2, 0.5), Leaf("B", 1, 0.5)]])
        program = RoundProgram()
        for schedule in ((0, 0, 1), (0, 0), (0,), (0, 2)):
            with pytest.raises(InvalidScheduleError):
                program.append("q", tree, schedule, PrecomputedOracle([True, False]))
        assert len(program) == 0
        program.append("q", tree, (1, 0), PrecomputedOracle([True, True]))
        with pytest.raises(InvalidScheduleError):
            program.reschedule("q", (1, 1))
        program.run(CountingCache({"A": 1.0, "B": 2.0}))
        assert program.results()["q"].evaluated == (1, 0)

    def test_only_window_readers_get_a_window(self):
        """An oracle that reads windows gets the values a fetch returns; one
        that does not gets ``None``, and no window is read for it."""

        class Recording(LeafOracle):
            def __init__(self, reads_window):
                self.reads_window = reads_window
                self.seen = []

            def outcome(self, gindex, leaf, values):
                self.seen.append(None if values is None else values.tolist())
                return True

        tree = DnfTree([[Leaf("X", 3, 0.5)]], {"X": 1.0})
        oracles = {"reader": Recording(True), "blind": Recording(False)}
        program = RoundProgram(
            {name: tree for name in oracles},
            {name: (0,) for name in oracles},
            oracles,
        )
        sources = {"X": ReplaySource([float(i) for i in range(20)])}
        cache = DataItemCache(sources, {"X": 1.0}, now=10)
        program.run(cache)
        assert oracles["reader"].seen == [[7.0, 8.0, 9.0]]
        assert oracles["blind"].seen == [None]

    def test_replayed_outcomes_are_read_every_round(self):
        """A :class:`PrecomputedOracle` is called per probe, so outcomes
        reassigned between rounds take effect in the next one."""
        tree = DnfTree([[Leaf("A", 1, 0.5)]], {"A": 1.0})
        oracle = PrecomputedOracle([True])
        program = RoundProgram({"q": tree}, {"q": (0,)}, {"q": oracle})
        cache = CountingCache({"A": 1.0})
        program.run(cache)
        assert program.values() == [True]
        oracle.outcomes = [False]
        program.run(cache)
        assert program.values() == [False]

    def test_schedules_must_name_the_programs_queries(self):
        tree = DnfTree([[Leaf("A", 1, 0.5)]])
        oracles = {"a": PrecomputedOracle([True]), "b": PrecomputedOracle([True])}
        with pytest.raises(StreamError, match="schedules name"):
            RoundProgram({"a": tree, "b": tree}, {"a": (0,)}, oracles)


#: A two-AND DNF over three streams, and the cache its rows read.
CHURN_TREE = DnfTree(
    [[Leaf("A", 2, 0.6), Leaf("B", 1, 0.5)], [Leaf("C", 3, 0.4)]],
    {"A": 1.0, "B": 2.0, "C": 0.5},
)


def churn_cache() -> CountingCache:
    return CountingCache({"A": 1.0, "B": 2.0, "C": 0.5})


def drifting(seed: int) -> DriftingBernoulliOracle:
    return DriftingBernoulliOracle(DriftSchedule([0.6, 0.5, 0.4]), seed=seed)


class TestCompaction:
    def test_compaction_gathers_without_writing_or_rebinding(self, monkeypatch):
        """Compacting half-dead rows writes no row and binds no clock, and
        the survivors serve a round as a freshly built program does."""
        names = [f"q{k}" for k in range(12)]
        oracles = {name: drifting(seed) for seed, name in enumerate(names)}
        schedules = {name: (2, 0, 1) if k % 2 else (0, 1, 2) for k, name in enumerate(names)}
        program = RoundProgram({name: CHURN_TREE for name in names}, schedules, oracles)
        program.run(churn_cache())
        program.tick()
        survivors = names[1::3] + names[11:]
        for name in names:
            if name not in survivors:
                program.remove(name)
        program.reorder(survivors[::-1])
        writes: list[tuple] = []
        write = RoundProgram._write

        def counted_write(self, *args):
            writes.append(args)
            write(self, *args)

        monkeypatch.setattr(RoundProgram, "_write", counted_write)
        with mock.patch.object(
            DriftingBernoulliOracle,
            "bind_clock",
            autospec=True,
            side_effect=DriftingBernoulliOracle.bind_clock,
        ) as bind:
            program.prepare()
        assert writes == [] and bind.call_count == 0
        assert program._dead == 0 and program.length[: len(survivors)].all()
        assert not program.length[len(survivors) :].any()
        # A twin of every survivor, unbound, at the round its oracle stands at.
        order = list(program.names)
        assert order == survivors[::-1]
        twins = {name: pickle.loads(pickle.dumps(oracles[name])) for name in order}
        fresh = RoundProgram(
            {name: CHURN_TREE for name in order},
            {name: schedules[name] for name in order},
            twins,
        )
        for _ in range(3):
            got, want = program.run(churn_cache()), fresh.run(churn_cache())
            assert got == want
            assert program.results() == fresh.results()
            program.tick()
            fresh.tick()

    def test_tape_slots_are_reused_through_churn(self):
        """Released tape indices are taken again: after 2 000 departures and
        arrivals at 150 residents with one tape oracle each, the tape table
        and the clock array hold at most twice the most tapes ever held."""
        program = RoundProgram()
        rng = random.Random(3)
        residents = []
        for k in range(150):
            program.append(f"q{k}", CHURN_TREE, (0, 1, 2), drifting(k))
            residents.append(f"q{k}")
        cache = churn_cache()
        peak = compactions = 0
        for cycle in range(2_000):
            gone = residents.pop(rng.randrange(len(residents)))
            program.remove(gone)
            name = f"a{cycle}"
            program.append(name, CHURN_TREE, (2, 1, 0), drifting(1_000 + cycle))
            residents.append(name)
            dead = program._dead
            program.prepare()
            compactions += dead > 0 and program._dead == 0
            peak = max(peak, int((program._tape_refs > 0).sum()))
            if cycle % 20 == 0:
                program.run(cache)
                program.tick()
        assert compactions > 10
        assert peak == 150
        assert len(program._tape_objs) <= 2 * peak
        assert program._clock.size <= 2 * peak
