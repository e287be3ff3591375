"""Server-level adaptive re-planning: detection, invalidation, equivalence."""

from __future__ import annotations

import numpy as np
import pytest

from repro.adaptive import AdaptivePolicy
from repro.core.cost import dnf_schedule_cost
from repro.core.heuristics import get_scheduler
from repro.core.tree import DnfTree
from repro.core.leaf import Leaf
from repro.engine.executor import DriftingBernoulliOracle
from repro.errors import AdmissionError
from repro.generators import step_drift_by_stream
from repro.service import PlanCache, QueryServer, canonicalize
from repro.streams.drift import DriftSchedule, StepDrift
from repro.streams.registry import StreamRegistry
from repro.streams.sources import GaussianSource
from repro.streams.stream import StreamSpec
from tests.service.reference_round import reference_rounds

SCHEDULER = "and-inc-c-over-p-dynamic"


def drift_registry() -> StreamRegistry:
    registry = StreamRegistry()
    registry.add(StreamSpec("cheap", 1.0), GaussianSource(seed=11))
    registry.add(StreamSpec("dear", 5.0), GaussianSource(seed=12))
    return registry


def flip_tree(pre: float = 0.05) -> DnfTree:
    """OR(cheap[2] p=pre, dear[3] p=0.6): drifting pre -> 0.9 flips the plan."""
    return DnfTree(
        [[Leaf("cheap", 2, pre)], [Leaf("dear", 3, 0.6)]],
        costs={"cheap": 1.0, "dear": 5.0},
    )


def drifting_oracle(tree: DnfTree, at: int, seed: int) -> DriftingBernoulliOracle:
    return DriftingBernoulliOracle(
        step_drift_by_stream(tree, at, {"cheap": 0.9}), seed=seed
    )


def adaptive_server(policy: AdaptivePolicy | None = None) -> QueryServer:
    if policy is None:
        policy = AdaptivePolicy(window=32, threshold=0.25, min_samples=12, cooldown=8)
    return QueryServer(drift_registry(), scheduler=SCHEDULER, adaptive=policy)


class TestDriftDetection:
    def test_drift_detected_within_window(self):
        """A step drift triggers a re-plan within ~window rounds of evidence."""
        policy = AdaptivePolicy(window=32, threshold=0.25, min_samples=12, cooldown=8)
        server = adaptive_server(policy)
        tree = flip_tree()
        drift_at = 40
        for q in range(3):
            server.register(
                f"q{q}", tree, oracle=drifting_oracle(tree, drift_at, seed=100 + q)
            )
        server.run_batch(drift_at)
        assert server.replan_log == []  # truth matches admission: no drift
        server.run_batch(policy.window + 20)
        drift_events = [e for e in server.replan_log if e.reason == "drift"]
        assert drift_events, "drift was never detected"
        first = drift_events[0]
        assert drift_at <= first.round_index <= drift_at + policy.window + 20
        # The drifted leaf is the cheap one, and its new estimate moved up.
        form = canonicalize(tree)
        cheap_g = next(
            g for g, leaf in enumerate(form.tree.leaves) if leaf.stream == "cheap"
        )
        assert cheap_g in first.drifted_leaves
        assert first.new_probs[cheap_g] > first.old_probs[cheap_g] + 0.2

    def test_no_replan_when_truth_matches_plan(self):
        server = adaptive_server()
        tree = flip_tree(pre=0.5)
        oracle = DriftingBernoulliOracle(
            DriftSchedule([leaf.prob for leaf in tree.leaves]), seed=3
        )
        server.register("q0", tree, oracle=oracle)
        server.run_batch(120)
        assert server.metrics.replans == 0

    def test_static_server_never_replans(self):
        server = QueryServer(drift_registry(), scheduler=SCHEDULER)
        tree = flip_tree()
        server.register("q0", tree, oracle=drifting_oracle(tree, 10, seed=1))
        server.run_batch(80)
        assert server.metrics.replans == 0
        assert server.replan_log == []


class TestReplanMechanics:
    def test_plan_cache_invalidated_on_replan(self):
        cache = PlanCache(capacity=16)
        policy = AdaptivePolicy(window=32, threshold=0.25, min_samples=12, cooldown=8)
        server = QueryServer(
            drift_registry(), scheduler=SCHEDULER, plan_cache=cache, adaptive=policy
        )
        tree = flip_tree()
        form = canonicalize(tree)
        server.register("q0", tree, oracle=drifting_oracle(tree, 0, seed=7))
        assert (form.key, SCHEDULER) in cache
        server.run_batch(80)
        event = server.replan_log[0]
        assert event.invalidated >= 1
        assert (form.key, SCHEDULER) not in cache

    def test_replanned_schedule_matches_fresh_scheduler_run(self):
        server = adaptive_server()
        tree = flip_tree()
        server.register("q0", tree, oracle=drifting_oracle(tree, 0, seed=7))
        server.run_batch(80)
        assert server.replan_log
        event = server.replan_log[-1]
        form = canonicalize(tree)
        updated = form.reprobed_tree(event.new_probs)
        scheduler = get_scheduler(SCHEDULER)
        expected = tuple(scheduler.schedule(updated))
        assert event.new_schedule == expected
        assert event.new_cost == pytest.approx(
            dnf_schedule_cost(updated, expected)
        )
        # The registered query's expanded schedule is the canonical one
        # translated through its leaf map.
        query = server.query("q0")
        assert query.schedule == form.expand_schedule(event.new_schedule)
        assert query.plan.schedule == event.new_schedule

    def test_replan_applies_to_every_isomorph(self):
        server = adaptive_server()
        base = flip_tree()
        mirrored = DnfTree(list(reversed(base.ands)), dict(base.costs))
        server.register("q0", base, oracle=drifting_oracle(base, 0, seed=1))
        server.register("q1", mirrored, oracle=drifting_oracle(mirrored, 0, seed=2))
        assert (
            server.query("q0").canonical.key == server.query("q1").canonical.key
        )
        server.run_batch(80)
        assert server.replan_log
        event = server.replan_log[-1]
        assert set(event.queries) == {"q0", "q1"}
        for name in ("q0", "q1"):
            query = server.query(name)
            assert query.schedule == query.canonical.expand_schedule(
                event.new_schedule
            )

    def test_forced_replan_via_replan_query(self):
        server = QueryServer(drift_registry(), scheduler=SCHEDULER)
        tree = flip_tree()
        server.register("q0", tree, oracle=drifting_oracle(tree, 0, seed=5))
        old_schedule = server.query("q0").schedule
        cheap_g = next(
            g for g, leaf in enumerate(tree.leaves) if leaf.stream == "cheap"
        )
        events = server.replan_query("q0", {cheap_g: 0.9})
        assert len(events) == 1
        assert events[0].reason == "forced"
        assert server.metrics.replans == 1
        new_schedule = server.query("q0").schedule
        assert new_schedule != old_schedule  # the optimal order flipped
        # Post-flip the cheap leaf is probed first.
        assert tree.leaves[new_schedule[0]].stream == "cheap"

    def test_forced_replan_rejects_bad_input(self):
        server = QueryServer(drift_registry(), scheduler=SCHEDULER)
        tree = flip_tree()
        server.register("q0", tree)
        with pytest.raises(AdmissionError):
            server.replan_query("q0", {99: 0.5})
        with pytest.raises(AdmissionError):
            server.replan_canonical("no-such-key", (0.5,))

    def test_late_isomorph_admitted_on_rebased_belief(self):
        """A query admitted after its shape re-planned gets the new plan."""
        server = adaptive_server()
        tree = flip_tree()
        server.register("q0", tree, oracle=drifting_oracle(tree, 0, seed=9))
        server.run_batch(80)
        assert server.replan_log
        late = server.register("q9", tree, oracle=drifting_oracle(tree, 0, seed=10))
        assert late.schedule == server.query("q0").schedule
        assert late.plan.schedule == server.query("q0").plan.schedule
        # The late admission planned against the belief, not the cache: the
        # entry replan_canonical invalidated must not be repopulated with a
        # stale admission-probability plan.
        key = (late.canonical.key, late.plan.scheduler_name)
        assert key not in server.plan_cache

    def test_deregister_retires_tracker_state(self):
        server = adaptive_server()
        tree = flip_tree()
        server.register("q0", tree, oracle=drifting_oracle(tree, 0, seed=1))
        key = server.query("q0").canonical.key
        server.run_batch(5)
        assert key in server.adaptive.tracked_keys()
        server.deregister("q0")
        assert key not in server.adaptive.tracked_keys()

    def test_departures_do_not_scan_the_population(self):
        """Admissions, departures and exports cost O(the changed query), not O(n).

        Whether a departing query's shape is still live used to be a scan
        over every resident, and every arrival or departure recomputed the
        stream windows over the whole population."""
        server = adaptive_server()
        shared, solo = flip_tree(), flip_tree(pre=0.3)
        for q in range(3):
            server.register(f"q{q}", shared)
        key = server.query("q0").canonical.key
        server._queries = _NoIteration(server._queries)
        server.register("q3", shared)
        server.register("solo", solo)
        solo_key = server.query("solo").canonical.key
        assert key != solo_key
        server.deregister("q0")
        server.export_group(["q1"])
        assert key in server.adaptive.tracked_keys()  # q2, q3 still resident
        server.deregister("q2")
        server.export_group(["q3"])
        assert key not in server.adaptive.tracked_keys()
        migration = server.export_group(["solo"])
        assert solo_key not in server.adaptive.tracked_keys()
        # Landing a group re-keys the registration order, a scan by design.
        server._queries = dict.copy(server._queries)
        server.admit_group(migration, ["solo"])
        assert solo_key in server.adaptive.tracked_keys()


class _NoIteration(dict):
    """A resident map that forbids whole-population scans."""

    def _scan(self, *args):
        raise AssertionError("a population change must not scan every resident")

    __iter__ = keys = values = items = _scan


class TestReferenceParity:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_posteriors_match_reference(self, seed):
        """The kernel feeds the tracker the reference walk's evidence per seed."""

        def run() -> QueryServer:
            policy = AdaptivePolicy(
                window=32, threshold=0.25, min_samples=12, cooldown=8
            )
            server = QueryServer(
                drift_registry(), scheduler=SCHEDULER, adaptive=policy
            )
            tree = flip_tree()
            for q in range(3):
                server.register(
                    f"q{q}",
                    tree,
                    oracle=drifting_oracle(tree, 20, seed=seed * 50 + q),
                )
            server.run_batch(60)
            return server

        kernel = run()
        with reference_rounds():
            reference = run()
        kernel_snap = kernel.adaptive.tracker.snapshot()
        reference_snap = reference.adaptive.tracker.snapshot()
        assert set(kernel_snap) == set(reference_snap)
        for key in kernel_snap:
            k_post = kernel.adaptive.tracker.get(key)
            r_post = reference.adaptive.tracker.get(key)
            assert (k_post.trials, k_post.successes) == (
                r_post.trials,
                r_post.successes,
            )
        assert [e.round_index for e in kernel.replan_log] == [
            e.round_index for e in reference.replan_log
        ]
        assert kernel.metrics.total_cost == reference.metrics.total_cost


class TestReplanHysteresis:
    """AdaptivePolicy.min_saving: skip schedule swaps that save too little."""

    def hysteresis_policy(self, min_saving: float) -> AdaptivePolicy:
        return AdaptivePolicy(
            window=32,
            threshold=0.25,
            min_samples=12,
            cooldown=8,
            min_saving=min_saving,
        )

    def test_sub_threshold_drift_does_not_replan(self):
        """Drift is detected, but an unreachable min_saving suppresses the swap."""
        server = adaptive_server(self.hysteresis_policy(1e9))
        tree = flip_tree()
        server.register("q0", tree, oracle=drifting_oracle(tree, 0, seed=7))
        before = server.query("q0").schedule
        server.run_batch(120)
        assert server.metrics.replans == 0
        assert server.replan_log == []
        assert server.query("q0").schedule == before
        assert server.metrics.replans_suppressed >= 1
        # The suppressed decision still rebased the belief baseline, so the
        # detector does not re-fire every cooldown window forever.
        assert server.metrics.replans_suppressed <= 4

    def test_suppressed_replan_keeps_plan_cache(self):
        """A suppressed swap must not drop cache entries still in service."""
        cache = PlanCache(capacity=16)
        server = QueryServer(
            drift_registry(),
            scheduler=SCHEDULER,
            plan_cache=cache,
            adaptive=self.hysteresis_policy(1e9),
        )
        tree = flip_tree()
        form = canonicalize(tree)
        server.register("q0", tree, oracle=drifting_oracle(tree, 0, seed=7))
        assert (form.key, SCHEDULER) in cache
        server.run_batch(120)
        assert server.metrics.replans_suppressed >= 1
        assert (form.key, SCHEDULER) in cache

    def test_real_saving_passes_hysteresis(self):
        """The same drift with a tiny threshold re-plans as before."""
        server = adaptive_server(self.hysteresis_policy(1e-9))
        tree = flip_tree()
        server.register("q0", tree, oracle=drifting_oracle(tree, 0, seed=7))
        server.run_batch(120)
        assert server.metrics.replans >= 1
        assert server.metrics.replans_suppressed == 0

    def test_forced_replan_bypasses_hysteresis(self):
        server = adaptive_server(self.hysteresis_policy(1e9))
        tree = flip_tree()
        server.register("q0", tree, oracle=drifting_oracle(tree, 0, seed=9))
        events = server.replan_query("q0", {0: 0.9})
        assert events  # applied despite the unreachable min_saving
        assert server.metrics.replans == len(events)
        assert server.metrics.replans_suppressed == 0

    def test_negative_min_saving_rejected(self):
        from repro.errors import StreamError

        with pytest.raises(StreamError):
            AdaptivePolicy(min_saving=-0.5)
