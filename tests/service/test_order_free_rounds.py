"""Order-free rounds: the order a round serves its probes in changes no count.

Which probes a round evaluates depends only on each query's own schedule and
outcomes, and a stream's fetched items are its widest evaluated window minus
what the cache already holds, whatever the interleave. So with oracles whose
outcomes do not depend on the probe order, a server whose every round walks
a random interleave of its residents' schedules (each query's own order
kept) must evaluate the same leaves to the same values, probe, fetch and
save the same counts, and re-plan the same shapes in the same rounds as the
server serving its own order. Only a round's cost may differ, in its last
bits: the per-query costs are the same charges attributed to other payers
and summed in another order.

Each example runs one churn script — arrivals, departures, replacements,
group moves, forced and drift-triggered re-plans, served rounds — on two
copies of one world: the server as it is, and one whose rounds run
:mod:`tests.service.reference_round`'s walk over a seeded random interleave.
After every step both servers' window horizons must equal a full recompute,
and an arrival or departure must trim the cache exactly when a horizon
shrank.
"""

from __future__ import annotations

import contextlib
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adaptive import AdaptivePolicy
from repro.engine.executor import DriftingBernoulliOracle
from repro.generators.drift_scenarios import random_step_drift
from repro.generators.overlap_populations import (
    clustered_registry,
    overlap_clustered_population,
)
from repro.service import QueryServer
from repro.streams.cache import compute_max_windows
from tests.service.reference_round import reference_rounds
from tests.service.test_shared_plan import DataDrivenOracle, small_population

#: Every script runs each of these at least twice.
ACTIONS = ("arrive", "depart", "replace", "move", "replan", "round")

#: A drift-sensitive policy, so drift-triggered re-plans fire within a script.
POLICY = dict(window=16, threshold=0.2, min_samples=6, cooldown=4)

COST_REL_TOL = 1e-12


def pool(kind: str, seed: int):
    """A registry and a pool of trees: one shared stream pool, or clusters."""
    if kind == "small-population":
        registry, population = small_population(seed % 50, n_queries=16)
    else:
        registry = clustered_registry(3, 3, seed=seed % 7)
        population = overlap_clustered_population(
            16, registry, 3, 3, templates_per_cluster=2, seed=seed
        )
    return registry, [tree for _, tree in population]


class World:
    """One copy of an example: its server, the trees and the oracle kind."""

    def __init__(
        self,
        kind: str,
        oracles: str,
        seed: int,
        interleave: random.Random | None = None,
    ) -> None:
        registry, self.trees = pool(kind, seed)
        self.oracles = oracles
        # With ``interleave``, every round walks a random interleave drawn
        # from it.
        walk = reference_rounds(interleave) if interleave else contextlib.nullcontext()
        with walk:
            self.server = QueryServer(registry, adaptive=AdaptivePolicy(**POLICY))
        self.trims: list[dict[str, int]] = []
        retain = self.server.cache.retain_relevant

        def recording_retain(windows):
            self.trims.append(dict(windows))
            retain(windows)

        self.server.cache.retain_relevant = recording_retain

    def oracle(self, tree, seed: int):
        """The same outcomes in either copy, whatever order probes them."""
        if self.oracles == "data-driven":
            return DataDrivenOracle()
        at = seed % 12
        drift = random_step_drift(np.random.default_rng(seed), tree, at)
        return DriftingBernoulliOracle(drift, seed=seed)

    def apply(self, action: str, rng: random.Random, admitted: int) -> bool:
        """One population change, drawn from ``rng`` (equal in both copies).

        Returns whether it admitted a new query (named ``q<admitted>``).
        """
        server = self.server
        names = list(server.registered)
        if action == "arrive" or len(names) < 2:
            tree = rng.choice(self.trees)
            server.register(
                f"q{admitted}", tree, oracle=self.oracle(tree, rng.randrange(2**16))
            )
            return True
        if action == "depart":
            server.deregister(rng.choice(names))
        elif action == "replace":
            tree = rng.choice(self.trees)
            server.register(
                rng.choice(names),
                tree,
                oracle=self.oracle(tree, rng.randrange(2**16)),
                replace=True,
            )
        elif action == "move":
            group = rng.sample(names, rng.randint(1, min(3, len(names))))
            migration = server.export_group(group)
            rng.shuffle(names)
            server.admit_group(migration, names)
        else:
            form = server.query(rng.choice(names)).canonical
            server.replan_canonical(
                form.key, [rng.uniform(0.05, 0.95) for _ in form.leaf_map]
            )
        return False

    def serve(self) -> tuple:
        """One round; its counts, its cost and every query's resolution."""
        server = self.server
        metrics = server.metrics
        before = (metrics.total_probes, metrics.items_fetched, metrics.items_saved)
        results = server.step()
        after = (metrics.total_probes, metrics.items_fetched, metrics.items_saved)
        counts = tuple(b - a for a, b in zip(before, after))
        resolutions = {
            name: (result.value, result.evaluated, result.skipped, result.outcomes)
            for name, result in results.items()
        }
        replans = [
            (e.round_index, e.canonical_key, e.queries, e.new_schedule, e.reason)
            for e in server.replan_log
        ]
        return counts, metrics.round_costs[-1], resolutions, replans

    def check_windows(self, before: dict[str, int], *, single: bool) -> None:
        """Horizons equal a full recompute; a ``single`` arrival or
        departure trimmed the cache once, exactly when a horizon shrank."""
        server = self.server
        after = compute_max_windows(
            [server.query(name).tree for name in server.registered]
        )
        assert server._max_windows == after
        if single:
            shrank = any(after.get(s, 0) < w for s, w in before.items())
            assert self.trims == ([after] if shrank else [])


def run_script(kind: str, oracles: str, seed: int) -> list[tuple]:
    """Serve one churn script in both copies; returns the kernel's rounds."""
    served = World(kind, oracles, seed)
    walked = World(kind, oracles, seed, interleave=random.Random(seed + 1))
    script = random.Random(seed)
    actions = [*ACTIONS, *ACTIONS, *(script.choice(ACTIONS) for _ in range(24))]
    script.shuffle(actions)
    # Long enough for drift to show and re-plans to fire between the churn.
    actions += ["round"] * 12
    rounds = []
    for world in (served, walked):
        for k in range(10):
            world.apply("arrive", random.Random(seed * 31 + k), k)
    admitted = 10
    for step, action in enumerate(actions):
        if action == "round":
            got = served.serve()
            want = walked.serve()
            (got_counts, got_cost, got_queries, got_replans) = got
            (want_counts, want_cost, want_queries, want_replans) = want
            assert got_counts == want_counts
            assert math.isclose(got_cost, want_cost, rel_tol=COST_REL_TOL, abs_tol=0.0)
            assert got_queries == want_queries
            assert got_replans == want_replans
            rounds.append(got)
            continue
        for world in (served, walked):
            before = dict(world.server._max_windows)
            world.trims.clear()
            arrived = world.apply(action, random.Random(seed * 1_000 + step), admitted)
            world.check_windows(before, single=arrived or action == "depart")
        admitted += arrived
    assert served.server.registered == walked.server.registered
    return rounds


class TestOrderFreeRounds:
    @pytest.mark.parametrize(
        "kind", ["small-population", "clustered"], ids=["pool", "clusters"]
    )
    @pytest.mark.parametrize(
        "oracles", ["drifting", "data-driven"], ids=["drift", "data"]
    )
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_any_interleave_agrees(self, kind, oracles, seed):
        """Any interleave serves the same round as the registration order."""
        run_script(kind, oracles, seed)

    def test_scripts_fire_drift_replans(self):
        """The property above covers drift-triggered re-plans, not only forced ones."""
        replans = [
            entry
            for seed in range(4)
            for entry in run_script("clustered", "drifting", seed)[-1][3]
        ]
        assert any(reason == "drift" for *_, reason in replans)
