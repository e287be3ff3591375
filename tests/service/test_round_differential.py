"""Differential tests: the round kernel against the per-probe walk.

:class:`repro.service.shared_plan.RoundProgram` must do exactly what
:func:`reference_round.execute_round` does in registration order: the same
``ExecutionResult``s, the same ``RoundStats`` to the last bit, and the same
cache and oracle state afterwards — so charging only the probes that widen
their stream's window must charge, fetch and draw exactly as the calls it
elides would have. The kernel calls its oracles step by step, so for a
population sharing one ``BernoulliOracle`` (the only oracle that draws by
call order) the reference draws in that column order and charges in
registration order (:func:`reference_round.execute_drawn_round`).

Each example builds one population twice from the same description — one
copy per engine — and serves a few consecutive rounds on both, the rows
built once and run every round, as the server runs them.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import AndTree, DnfTree, Leaf
from repro.core.resolution import TreeIndex
from repro.engine.executor import (
    BernoulliOracle,
    DriftingBernoulliOracle,
    LeafOracle,
    PrecomputedOracle,
    PredicateOracle,
)
from repro.predicates.predicate import Predicate
from repro.service.shared_plan import RoundProgram
from repro.streams.cache import CountingCache, DataItemCache
from repro.streams.drift import DriftSchedule, StepDrift
from repro.streams.sources import RandomWalkSource, UniformSource
from tests.service import reference_round

#: Few streams and short windows, so queries repeat streams and windows nest
#: or coincide both within one query and across queries.
STREAMS = ("A", "B", "C")
COSTS = {"A": 2.0, "B": 1.0, "C": 0.5}
ROUNDS = 3

leaves = st.builds(
    Leaf,
    st.sampled_from(STREAMS),
    st.integers(1, 4),
    st.sampled_from((0.1, 0.5, 0.9)),
)


#: DNFs, as a round program's rows are: bare leaves and single ANDs as
#: one-AND DNFs, and ORs of ANDs.
trees = st.one_of(
    leaves.map(lambda leaf: DnfTree([[leaf]])),
    st.lists(leaves, min_size=1, max_size=4).map(lambda ands: AndTree(ands).to_dnf()),
    st.lists(st.lists(leaves, min_size=1, max_size=3), min_size=1, max_size=3).map(
        DnfTree
    ),
)

ORACLES = ("bernoulli", "shared-bernoulli", "drifting", "precomputed", "predicate")


@st.composite
def populations(draw):
    """A population description: trees, schedules, oracles and cache."""
    data_cache = draw(st.booleans())
    kinds = ORACLES if data_cache else ORACLES[:-1]
    queries = []
    for k in range(draw(st.integers(1, 6))):
        tree = draw(trees)
        n = tree.size
        schedule = tuple(draw(st.permutations(range(n))))
        kind = draw(st.sampled_from(kinds))
        queries.append(
            {
                "name": f"q{k}",
                "tree": tree,
                "schedule": schedule,
                "oracle": kind,
                "seed": draw(st.integers(0, 2**32)),
                "outcomes": draw(st.lists(st.booleans(), min_size=n, max_size=n)),
                "thresholds": draw(
                    st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)
                ),
                # None: a static schedule.
                "drift_at": draw(st.one_of(st.none(), st.integers(0, ROUNDS))),
            }
        )
    return {
        "queries": queries,
        "data_cache": data_cache,
        "source_seed": draw(st.integers(0, 2**16)),
    }


def _oracle(spec, index: TreeIndex, shared: BernoulliOracle) -> LeafOracle:
    kind = spec["oracle"]
    tree_leaves = index.tree.leaves
    if kind == "bernoulli":
        return BernoulliOracle(seed=spec["seed"])
    if kind == "shared-bernoulli":
        # One generator drawn by several queries: any change in probe order
        # changes which query gets which draw.
        return shared
    if kind == "drifting":
        base = [leaf.prob for leaf in tree_leaves]
        changes = []
        if spec["drift_at"] is not None:
            changes.append(StepDrift(at=spec["drift_at"], targets={0: 1.0 - base[0]}))
        return DriftingBernoulliOracle(DriftSchedule(base, changes), seed=spec["seed"])
    if kind == "precomputed":
        return PrecomputedOracle(list(spec["outcomes"]))
    return PredicateOracle(
        {
            g: Predicate(leaf.stream, "AVG", leaf.items, "<", threshold)
            for g, (leaf, threshold) in enumerate(zip(tree_leaves, spec["thresholds"]))
        }
    )


def build(population):
    """One fresh copy of the population: ``(indexes, schedules, cache, oracles)``."""
    indexes = {q["name"]: TreeIndex(q["tree"]) for q in population["queries"]}
    shared = BernoulliOracle(seed=population["source_seed"])
    oracles = {
        q["name"]: _oracle(q, indexes[q["name"]], shared) for q in population["queries"]
    }
    if population["data_cache"]:
        seed = population["source_seed"]
        sources = {
            "A": UniformSource(-1.0, 1.0, seed=seed),
            "B": RandomWalkSource(seed=seed + 1),
            "C": UniformSource(-1.0, 1.0, seed=seed + 2),
        }
        cache: DataItemCache | CountingCache = DataItemCache(sources, COSTS, now=4)
    else:
        cache = CountingCache(COSTS)
    schedules = {q["name"]: q["schedule"] for q in population["queries"]}
    return indexes, schedules, cache, oracles


def cache_state(cache):
    held = cache._store if isinstance(cache, DataItemCache) else cache._held
    return cache.charged.hex(), dict(cache.fetch_counts), held


def oracle_state(oracle):
    rng = getattr(oracle, "rng", None)
    state = rng.bit_generator.state if rng is not None else None
    if isinstance(oracle, DriftingBernoulliOracle):
        # The tape position: the drawn rows, the current round's offset and
        # whether the round's outcomes were read.
        position = (oracle._start, oracle._end, oracle._offset, oracle._bits is None)
        return state, oracle.round_index, position
    return state


def stats_fields(stats):
    return (
        stats.cost.hex(),
        stats.probes,
        stats.free_probes,
        stats.items_fetched,
        stats.items_saved,
        [cost.hex() for cost in stats.query_cost],
        list(stats.query_probes),
    )


def advance(cache, oracles, indexes):
    """Between rounds: new items arrive, stale ones go, drift clocks tick."""
    if isinstance(cache, DataItemCache):
        windows: dict[str, int] = {}
        for index in indexes.values():
            for leaf in index.tree.leaves:
                windows[leaf.stream] = max(windows.get(leaf.stream, 0), leaf.items)
        cache.advance(1, max_windows=windows)
    for oracle in {id(o): o for o in oracles.values()}.values():
        if isinstance(oracle, DriftingBernoulliOracle):
            oracle.advance(1)


class TestRoundMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(population=populations())
    def test_rounds_are_bit_identical(self, population):
        got_world = build(population)
        want_world = build(population)
        _, schedules, cache, oracles = got_world
        trees = {q["name"]: q["tree"] for q in population["queries"]}
        program = RoundProgram(trees, schedules, oracles)
        # Every schedule back to back, in registration order.
        order = [(name, g) for name, schedule in schedules.items() for g in schedule]
        drawn = reference_round.shares_a_bernoulli_oracle(oracles)
        for _ in range(ROUNDS):
            got_stats = program.run(cache)
            got_results = program.results()
            if drawn:
                want_results, want_stats = reference_round.execute_drawn_round(
                    schedules, want_world[0], want_world[2], want_world[3]
                )
            else:
                want_results, want_stats = reference_round.execute_round(
                    order, want_world[0], want_world[2], want_world[3]
                )
            assert list(got_results) == list(want_results)
            for name, want in want_results.items():
                got = got_results[name]
                assert got == want
                assert got.cost.hex() == want.cost.hex()
            assert stats_fields(got_stats) == stats_fields(want_stats)
            assert cache_state(got_world[2]) == cache_state(want_world[2])
            for name in want_world[3]:
                assert oracle_state(got_world[3][name]) == oracle_state(
                    want_world[3][name]
                )
            for world_indexes, _, world_cache, world_oracles in (got_world, want_world):
                advance(world_cache, world_oracles, world_indexes)


class _ScribblingOracle(LeafOracle):
    """Writes into the window it is handed (a misbehaving oracle)."""

    def outcome(self, gindex, leaf, values):
        values[-1] = 0.0
        return False


class TestMemoizedWindows:
    def test_windows_are_read_only(self):
        tree = DnfTree([[Leaf("A", 3, 0.5)], [Leaf("A", 2, 0.5)]])
        cache = DataItemCache({"A": UniformSource(seed=1)}, {"A": 1.0}, now=4)
        with pytest.raises(ValueError, match="read-only"):
            RoundProgram({"q": tree}, {"q": (0, 1)}, {"q": _ScribblingOracle()}).run(cache)

    def test_memo_serves_the_fetched_tail(self):
        """A nested window sees the newest items of the wider one, for free."""
        seen: list[np.ndarray] = []

        class Recording(LeafOracle):
            def outcome(self, gindex, leaf, values):
                seen.append(values.copy())
                return False

        tree = DnfTree([[Leaf("A", 4, 0.5)], [Leaf("A", 2, 0.5)]])
        cache = DataItemCache({"A": UniformSource(seed=3)}, {"A": 1.0}, now=6)
        program = RoundProgram({"q": tree}, {"q": (0, 1)}, {"q": Recording()})
        stats = program.run(cache)
        assert seen[1].tolist() == seen[0][-2:].tolist()
        assert (stats.items_fetched, stats.items_saved, stats.free_probes) == (4, 2, 1)
        assert cache.charged == 4.0
