"""A steady round allocates nothing per resident.

Objects a round creates per resident live through the round's young
collections, get promoted and set off full sweeps of every long-lived
object. The round kernel keeps its node state, outcome record and bound
oracle methods in the compiled program instead, so a steady batch triggers
no generation-2 collection and its young collections do not grow with the
population.
"""

from __future__ import annotations

import gc

from repro.engine import BernoulliOracle
from repro.service import QueryServer, synthetic_population, synthetic_registry

ROUNDS = 20


def collections_during_batch(n_residents: int) -> list[int]:
    """Collections per generation during a steady ``run_batch(ROUNDS)``."""
    registry = synthetic_registry(32, seed=5)
    server = QueryServer(registry, BernoulliOracle(seed=7))
    for name, tree in synthetic_population(n_residents, registry, seed=6):
        server.register(name, tree)
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
