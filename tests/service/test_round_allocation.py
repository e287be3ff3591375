"""A steady round allocates nothing per resident.

Objects a round creates per resident live through the round's young
collections, get promoted and set off full sweeps of every long-lived
object. The round kernel keeps its rows, its per-AND and per-root counters
and its evaluated probes in numpy arrays, which the collector does not
track, and calls a per-probe oracle through the row's stored oracle, so a
steady batch triggers no generation-2 collection and its young collections
do not grow with the population. The same holds with one drifting oracle per query, as the
serving benchmark runs them: each hands the kernel its outcome tape as
bytes, which the collector does not track either.
"""

from __future__ import annotations

import gc

import pytest

from repro.engine import BernoulliOracle, DriftingBernoulliOracle
from repro.service import QueryServer, synthetic_population, synthetic_registry
from repro.streams.drift import DriftSchedule

ROUNDS = 20


def collections_during_batch(n_residents: int, drifting: bool = False) -> list[int]:
    """Collections per generation during a steady ``run_batch(ROUNDS)``.

    ``drifting`` gives every query its own static-schedule
    :class:`DriftingBernoulliOracle`; otherwise they share one
    :class:`BernoulliOracle`.
    """
    registry = synthetic_registry(32, seed=5)
    server = QueryServer(registry, BernoulliOracle(seed=7))
    population = synthetic_population(n_residents, registry, seed=6)
    for seed, (name, tree) in enumerate(population):
        oracle = None
        if drifting:
            schedule = DriftSchedule([leaf.prob for leaf in tree.leaves])
            oracle = DriftingBernoulliOracle(schedule, seed=seed)
        server.register(name, tree, oracle=oracle)
    server.run_batch(1)  # compile the round program
    counts = [0, 0, 0]

    def count(phase: str, info: dict) -> None:
        if phase == "start":
            counts[info["generation"]] += 1

    gc.collect()
    gc.callbacks.append(count)
    try:
        server.run_batch(ROUNDS)
    finally:
        gc.callbacks.remove(count)
    return counts


class TestSteadyRoundAllocation:
    def test_no_full_collection_at_2000_residents(self):
        assert collections_during_batch(2_000)[2] == 0

    def test_young_collections_do_not_grow_with_the_population(self):
        small = collections_during_batch(500)
        large = collections_during_batch(2_000)
        assert large[0] <= small[0]
        assert large[1] <= small[1]


class TestDriftingOracleAllocation:
    """One drifting oracle per query draws its tape without tracked garbage."""

    @pytest.fixture(scope="class")
    def counts(self) -> dict[int, list[int]]:
        return {n: collections_during_batch(n, drifting=True) for n in (500, 2_000)}

    def test_no_full_collection_at_2000_residents(self, counts):
        assert counts[2_000][2] == 0

    def test_young_collections_do_not_grow_with_the_population(self, counts):
        assert counts[2_000][0] <= counts[500][0]
        assert counts[2_000][1] <= counts[500][1]
