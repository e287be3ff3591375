"""The tape oracles' round clocks, kept in the round program's clock array.

A :class:`~repro.engine.executor.DriftingBernoulliOracle` held by a resident
keeps its round in its server's round program, which ticks every held clock
with one add after a served round. Whatever the population does in between
(arrivals, departures, re-orders, a group exported and admitted again, with
or without a pickle on the way, a pickled copy registered in an oracle's
place), every oracle must stand where a standalone twin stands that reads
its tape and is advanced by ``advance(1)`` once per round its server served
while holding it: the same round, the same outcomes and the same tape
position.
"""

from __future__ import annotations

import pickle
import random
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DnfTree, Leaf, QueryServer
from repro.cluster import ClusterServer
from repro.engine import BernoulliOracle, DriftingBernoulliOracle
from repro.streams.drift import DriftSchedule, StepDrift
from repro.streams.registry import StreamRegistry
from repro.streams.sources import GaussianSource
from repro.streams.stream import StreamSpec

LEAF = Leaf("A", 1, 0.5)


def registry() -> StreamRegistry:
    registry = StreamRegistry()
    registry.add(StreamSpec("A", 1.0), GaussianSource(seed=1))
    registry.add(StreamSpec("B", 2.0), GaussianSource(seed=2))
    return registry


def tree(prob: float) -> DnfTree:
    return DnfTree([[Leaf("A", 2, prob)], [Leaf("B", 1, 0.3)]], {"A": 1.0, "B": 2.0})


def drifting(seed: int) -> DriftingBernoulliOracle:
    # A drifting schedule, so the tape compares each round with its own row.
    schedule = DriftSchedule([0.5, 0.3], [StepDrift(at=5, targets={0: 0.9})])
    return DriftingBernoulliOracle(schedule, seed=seed)


def standing(oracle: DriftingBernoulliOracle) -> tuple:
    """Round, tape position and every leaf's outcome (which reads the tape)."""
    outcomes = tuple(oracle.outcome(g, LEAF, None) for g in range(2))
    position = (oracle._start, oracle._end, oracle._offset, oracle._bits is None)
    return oracle.round_index, position, outcomes


operations = st.one_of(
    st.tuples(st.just("register"), st.integers(0, 3)),
    st.tuples(st.just("deregister"), st.integers(0, 99)),
    st.tuples(st.just("reorder"), st.integers(0, 2**16)),
    st.tuples(
        st.just("migrate"),
        st.lists(st.integers(0, 99), min_size=1, max_size=3),
        st.booleans(),
        st.integers(0, 2**16),
    ),
    st.tuples(st.just("pickle"), st.integers(0, 99)),
    st.tuples(st.just("step"), st.integers(1, 20)),
)


class TestClockMatchesAdvance:
    @settings(max_examples=120, deadline=None)
    @given(script=st.lists(operations, min_size=1, max_size=30))
    def test_every_oracle_stands_where_its_twin_does(self, script):
        server = QueryServer(registry(), BernoulliOracle(seed=0))
        #: Per oracle (by id): the oracle and its standalone twin.
        tracked: dict[int, tuple[DriftingBernoulliOracle, DriftingBernoulliOracle]] = {}
        seeds = iter(range(1_000))

        def new_oracle() -> DriftingBernoulliOracle:
            seed = next(seeds)
            oracle = drifting(seed)
            tracked[id(oracle)] = (oracle, drifting(seed))
            return oracle

        def copy_of(oracle: DriftingBernoulliOracle) -> DriftingBernoulliOracle:
            copy = pickle.loads(pickle.dumps(oracle))
            tracked[id(copy)] = (copy, pickle.loads(pickle.dumps(tracked[id(oracle)][1])))
            return copy

        names = iter(f"q{k}" for k in range(1_000))
        # One instance held by two queries.
        shared = new_oracle()
        server.register(next(names), tree(0.4), oracle=shared)
        server.register(next(names), tree(0.6), oracle=shared)

        def check() -> None:
            for oracle, twin in tracked.values():
                assert standing(oracle) == standing(twin)

        check()
        for op in script:
            residents = server.registered
            kind = op[0]
            if kind == "register":
                oracle = shared if op[1] == 0 else new_oracle()
                server.register(next(names), tree(0.2 + 0.2 * op[1]), oracle=oracle)
            elif kind == "deregister" and residents:
                server.deregister(residents[op[1] % len(residents)])
            elif kind == "reorder":
                order = list(residents)
                random.Random(op[1]).shuffle(order)
                server.reorder(order)
            elif kind == "migrate" and residents:
                movers = list(dict.fromkeys(residents[k % len(residents)] for k in op[1]))
                migration = server.export_group(movers)
                if op[2]:
                    # As a process shard receives it: the oracles are copies.
                    sent = migration
                    migration = pickle.loads(pickle.dumps(sent))
                    for before, after in zip(sent.queries, migration.queries):
                        if id(after.oracle) not in tracked:
                            twin = tracked[id(before.oracle)][1]
                            tracked[id(after.oracle)] = (
                                after.oracle,
                                pickle.loads(pickle.dumps(twin)),
                            )
                order = [*server.registered, *movers]
                random.Random(op[3]).shuffle(order)
                server.admit_group(migration, order)
            elif kind == "pickle" and residents:
                name = residents[op[1] % len(residents)]
                held = server.query(name)
                copy = copy_of(held.oracle)
                assert not copy.clock_bound
                server.register(name, held.tree, oracle=copy, replace=True)
            elif kind == "step" and residents:
                server.run_batch(op[1])
                held = {id(server.query(name).oracle) for name in server.registered}
                for key in held:
                    twin = tracked[key][1]
                    for _ in range(op[1]):
                        twin.tape()  # a round reads every held oracle's tape
                        twin.advance(1)
            check()

    def test_binding_at_register_is_constant_time(self):
        """Each arrival binds its oracle once; doubling the clock array
        rebinds the held clocks, fewer than twice per arrival overall."""
        server = QueryServer(registry(), BernoulliOracle(seed=0))
        n = 300
        with mock.patch.object(
            DriftingBernoulliOracle,
            "bind_clock",
            autospec=True,
            side_effect=DriftingBernoulliOracle.bind_clock,
        ) as bind:
            for k in range(n):
                server.register(f"q{k}", tree(0.5), oracle=drifting(k))
                server.step()
        assert n <= bind.call_count < 3 * n


class TestSharedAcrossThreadShards:
    """One instance held by queries on two thread shards ticks on both.

    Each shard's server ticks the oracle after each of its rounds, and the
    shards serve a batch one after another, so in every cluster batch of
    ``k`` rounds the first shard's query reads the next ``k`` rows of the
    oracle's tape and the second shard's query the ``k`` after those.
    """

    def test_each_shard_reads_its_own_rows(self):
        streams = StreamRegistry()
        streams.add(StreamSpec("A", 1.0), GaussianSource(seed=1))
        streams.add(StreamSpec("B", 1.0), GaussianSource(seed=2))
        shared = DriftingBernoulliOracle(DriftSchedule([0.5]), seed=4)
        cluster = ClusterServer(streams, n_shards=2, executor="thread")
        try:
            cluster.register("a", DnfTree([[Leaf("A", 1, 0.5)]]), oracle=shared)
            cluster.register("b", DnfTree([[Leaf("B", 1, 0.5)]]), oracle=shared)
            assert (cluster.shard_of("a"), cluster.shard_of("b")) == (0, 1)
            rows = np.random.default_rng(4).random(48) < 0.5
            k = 3
            for batch in range(4):
                report = cluster.run_batch(k)
                first = 2 * k * batch
                assert shared.round_index == first + 2 * k
                assert dict(report.per_query_true_rate) == {
                    "a": rows[first : first + k].sum() / k,
                    "b": rows[first + k : first + 2 * k].sum() / k,
                }
        finally:
            cluster.close()
