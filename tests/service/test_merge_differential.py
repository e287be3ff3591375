"""Differential tests: the per-stream heap merge against the original greedy.

``merge_schedules`` must reproduce :func:`reference_merge` exactly — same
probes in the same order, same planned windows — including every tie-break:
equal scores fall to the stream with more remaining demand, then to the
earlier registered query.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DnfTree, Leaf
from repro.adaptive import AdaptivePolicy
from repro.core.heuristics import get_scheduler
from repro.engine import BernoulliOracle
from repro.engine.workload import compute_max_windows
from repro.generators.overlap_populations import (
    clustered_registry,
    overlap_clustered_population,
)
from repro.service import (
    QueryServer,
    merge_schedules,
    synthetic_population,
    synthetic_registry,
)
from repro.service.shared_plan import merge_row
from tests.service.reference_merge import reference_merge

#: Few streams, windows and probabilities, so scores and demands tie often.
#: "Z" costs nothing per item and "M" is missing from the cost table.
STREAMS = ("A", "B", "Z", "M")
COSTS = {"A": 2.0, "B": 1.0, "Z": 0.0}

leaves = st.builds(
    Leaf,
    st.sampled_from(STREAMS),
    st.sampled_from((1, 2, 3)),
    st.sampled_from((0.25, 0.5, 1.0)),
)
trees = st.lists(
    st.lists(leaves, min_size=1, max_size=3), min_size=1, max_size=3
).map(DnfTree)


@st.composite
def populations(draw):
    """Trees (each possibly repeated as identical isomorphs) and schedules.

    A schedule is any ordered subset of its tree's leaves — possibly empty —
    since the merge only interleaves the orders it is given.
    """
    shapes = draw(st.lists(trees, min_size=1, max_size=5))
    population: dict[str, DnfTree] = {}
    schedules: dict[str, tuple[int, ...]] = {}
    for k, tree in enumerate(shapes):
        order = draw(st.permutations(range(len(tree.leaves))))
        order = tuple(order[: draw(st.integers(0, len(order)))])
        for copy in range(draw(st.integers(1, 3))):
            population[f"q{k}.{copy}"] = tree
            schedules[f"q{k}.{copy}"] = order
    names = draw(st.permutations(list(population)))
    return (
        {name: population[name] for name in names},
        {name: schedules[name] for name in names},
    )


def assert_same_plan(trees, schedules, costs):
    got = merge_schedules(trees, schedules, costs)
    want = reference_merge(trees, schedules, costs)
    assert got.probes == want.probes
    assert dict(got.planned_items) == dict(want.planned_items)


class TestMergeMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(population=populations())
    def test_tie_heavy_populations(self, population):
        trees, schedules = population
        assert_same_plan(trees, schedules, COSTS)

    @pytest.mark.parametrize("n", [100, 300])
    def test_synthetic_populations(self, n):
        registry = synthetic_registry(32)
        scheduler = get_scheduler("and-inc-c-over-p-dynamic")
        population = synthetic_population(n, registry, seed=n)
        assert_same_plan(
            dict(population),
            {name: tuple(scheduler.schedule(tree)) for name, tree in population},
            registry.cost_table(),
        )

    def test_zero_cost_paying_head_beats_later_covered_head(self):
        """On a free stream a paying head scores 0.0 too, so registration
        order — not coverage — decides between it and a covered head."""
        trees = {
            "wide": DnfTree([[Leaf("Z", 3, 0.5)]]),
            "narrow": DnfTree([[Leaf("Z", 1, 0.5), Leaf("Z", 2, 0.5)]]),
        }
        schedules = {"wide": (0,), "narrow": (0, 1)}
        plan = merge_schedules(trees, schedules, {"Z": 0.0})
        assert [(p.query, p.gindex) for p in plan.probes] == [
            ("wide", 0),
            ("narrow", 0),
            ("narrow", 1),
        ]
        assert_same_plan(trees, schedules, {"Z": 0.0})

    def test_certain_leaves_and_missing_costs(self):
        trees = {
            "sure": DnfTree([[Leaf("M", 2, 1.0), Leaf("A", 1, 1.0)]]),
            "other": DnfTree([[Leaf("M", 1, 0.5)], [Leaf("A", 2, 0.5)]]),
        }
        schedules = {"sure": (1, 0), "other": (0, 1)}
        assert_same_plan(trees, schedules, {"A": 1.0})

    def test_all_schedules_empty(self):
        trees = {"a": DnfTree([[Leaf("A", 1, 0.5)]])}
        plan = merge_schedules(trees, {"a": ()}, COSTS)
        assert plan.probes == () and dict(plan.planned_items) == {}

    def test_registration_order_breaks_ties(self):
        tree = DnfTree([[Leaf("A", 2, 0.5)]])
        schedules = {"x": (0,), "y": (0,)}
        forward = merge_schedules({"x": tree, "y": tree}, schedules, COSTS)
        backward = merge_schedules({"y": tree, "x": tree}, schedules, COSTS)
        assert [p.query for p in forward.probes] == ["x", "y"]
        assert [p.query for p in backward.probes] == ["y", "x"]


class TestServerScript:
    """Random population scripts against a live server.

    After every step the server's lazily rebuilt plan must equal the
    reference merge of its belief trees and schedules, its window horizons
    must equal a full recompute, and the cache must have been trimmed
    exactly when some horizon shrank or vanished.
    """

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), steps=st.integers(5, 30))
    def test_shared_plan_tracks_reference(self, seed, steps):
        rng = random.Random(seed)
        registry = synthetic_registry(4, seed=seed % 7)
        population = synthetic_population(12, registry, n_templates=4, seed=seed)
        pool = [tree for _, tree in population]
        server = QueryServer(registry)
        trims: list[dict[str, int]] = []
        retain = server.cache.retain_relevant

        def recording_retain(windows):
            trims.append(dict(windows))
            retain(windows)

        server.cache.retain_relevant = recording_retain
        admitted = 0
        for _ in range(steps):
            before = dict(server._max_windows)
            trims.clear()
            names = list(server.registered)
            action = rng.choice(
                ("register", "register", "deregister", "reorder", "replan")
            )
            if action == "register" or not names:
                server.register(f"q{admitted}", rng.choice(pool))
                admitted += 1
            elif action == "deregister":
                server.deregister(rng.choice(names))
            elif action == "reorder":
                rng.shuffle(names)
                server.reorder(names)
            else:
                form = server.query(rng.choice(names)).canonical
                server.replan_canonical(
                    form.key, [rng.uniform(0.05, 0.95) for _ in form.leaf_map]
                )
            residents = [server.query(name) for name in server.registered]
            after = compute_max_windows([query.tree for query in residents])
            assert server._max_windows == after
            shrank = any(after.get(s, 0) < w for s, w in before.items())
            assert trims == ([after] if shrank else [])
            if not residents:
                continue
            want = reference_merge(
                {query.name: query.belief_tree for query in residents},
                {query.name: query.schedule for query in residents},
                registry.cost_table(),
            )
            got = server.shared_plan()
            assert got.probes == want.probes
            assert dict(got.planned_items) == dict(want.planned_items)


#: Every churn script runs each of these at least twice.
CHURN_ACTIONS = ("arrive", "depart", "replace", "move", "reorder", "replan", "round")


def churn_pool(kind: str, seed: int):
    """A registry and a pool of trees: one shared stream pool, or clusters."""
    if kind == "single-pool":
        registry = synthetic_registry(6, seed=seed % 7)
        population = synthetic_population(24, registry, n_templates=6, seed=seed)
    else:
        registry = clustered_registry(3, 3, seed=seed % 7)
        population = overlap_clustered_population(
            24, registry, 3, 3, templates_per_cluster=2, seed=seed
        )
    return registry, [tree for _, tree in population]


class TestChurnScripts:
    """Churn scripts against a live adaptive server.

    Arrivals, departures, ``replace=True``, group moves (``export_group``
    then ``admit_group`` in a shuffled order), reorders, forced re-plans and
    served rounds, in random order. After every step the server's plan must
    equal the reference merge of its residents' belief trees and schedules,
    and every resident's cached merge row must match its current belief: a
    re-plan replaces the record, so the row follows it.
    """

    @pytest.mark.parametrize("kind", ["single-pool", "clustered"])
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_plan_tracks_reference_through_churn(self, kind, seed):
        rng = random.Random(seed)
        registry, pool = churn_pool(kind, seed)
        server = QueryServer(
            registry, BernoulliOracle(seed=seed), adaptive=AdaptivePolicy()
        )
        for k in range(8):
            server.register(f"q{k}", rng.choice(pool))
        admitted = 8
        actions = [*CHURN_ACTIONS, *CHURN_ACTIONS]
        actions += [rng.choice(CHURN_ACTIONS) for _ in range(16)]
        rng.shuffle(actions)
        for action in actions:
            names = list(server.registered)
            if action == "arrive" or len(names) < 2:
                server.register(f"q{admitted}", rng.choice(pool))
                admitted += 1
            elif action == "depart":
                server.deregister(rng.choice(names))
            elif action == "replace":
                server.register(rng.choice(names), rng.choice(pool), replace=True)
            elif action == "move":
                group = rng.sample(names, rng.randint(1, min(3, len(names))))
                migration = server.export_group(group)
                rng.shuffle(names)
                server.admit_group(migration, names)
            elif action == "reorder":
                rng.shuffle(names)
                server.reorder(names)
            elif action == "replan":
                form = server.query(rng.choice(names)).canonical
                server.replan_canonical(
                    form.key, [rng.uniform(0.05, 0.95) for _ in form.leaf_map]
                )
            else:
                server.run_batch(1)
            residents = [server.query(name) for name in server.registered]
            for query in residents:
                assert query.merge_row == merge_row(query.belief_tree, query.schedule)
            want = reference_merge(
                {query.name: query.belief_tree for query in residents},
                {query.name: query.schedule for query in residents},
                registry.cost_table(),
            )
            assert server.shared_plan() == want
