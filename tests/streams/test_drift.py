"""Drift schedules, drifting sources, and the drifting Bernoulli oracle."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.leaf import Leaf
from repro.core.tree import DnfTree
from repro.engine.executor import DriftingBernoulliOracle
from repro.errors import StreamError
from repro.generators import (
    ramp_drift_by_stream,
    random_step_drift,
    step_drift_by_stream,
    tree_base_probs,
)
from repro.streams.drift import DriftingSource, DriftSchedule, RampDrift, StepDrift


class TestDriftSchedule:
    def test_static_schedule(self):
        schedule = DriftSchedule([0.2, 0.8])
        assert schedule.is_static
        assert schedule.probs_at(0) == pytest.approx([0.2, 0.8])
        assert schedule.probs_at(1000) == pytest.approx([0.2, 0.8])
        assert schedule.settled_after() == 0

    def test_step_changes_only_targets(self):
        schedule = DriftSchedule([0.2, 0.8], [StepDrift(at=5, targets={0: 0.9})])
        assert schedule.probs_at(4) == pytest.approx([0.2, 0.8])
        assert schedule.probs_at(5) == pytest.approx([0.9, 0.8])
        assert schedule.settled_after() == 5

    def test_ramp_interpolates_linearly(self):
        schedule = DriftSchedule([0.2], [RampDrift(start=10, end=20, targets={0: 0.7})])
        assert schedule.probs_at(10) == pytest.approx([0.2])
        assert schedule.probs_at(15) == pytest.approx([0.45])
        assert schedule.probs_at(20) == pytest.approx([0.7])
        assert schedule.probs_at(99) == pytest.approx([0.7])
        assert schedule.settled_after() == 20

    def test_sequential_changes_compose(self):
        schedule = DriftSchedule(
            [0.1],
            [StepDrift(at=3, targets={0: 0.5}), StepDrift(at=6, targets={0: 0.9})],
        )
        assert schedule.probs_at(2) == pytest.approx([0.1])
        assert schedule.probs_at(4) == pytest.approx([0.5])
        assert schedule.probs_at(7) == pytest.approx([0.9])

    @pytest.mark.parametrize(
        "bad",
        [
            lambda: DriftSchedule([]),
            lambda: DriftSchedule([1.5]),
            lambda: DriftSchedule([0.5], [StepDrift(at=0, targets={3: 0.5})]),
            lambda: DriftSchedule([0.5], ["not-a-change"]),
            lambda: StepDrift(at=-1, targets={0: 0.5}),
            lambda: StepDrift(at=0, targets={}),
            lambda: StepDrift(at=0, targets={0: 1.5}),
            lambda: RampDrift(start=5, end=5, targets={0: 0.5}),
        ],
    )
    def test_invalid_inputs_rejected(self, bad):
        with pytest.raises(StreamError):
            bad()

    def test_negative_round_rejected(self):
        with pytest.raises(StreamError):
            DriftSchedule([0.5]).probs_at(-1)


class TestDriftingSource:
    def test_emits_zeros_then_ones_across_a_step(self):
        schedule = DriftSchedule([0.0], [StepDrift(at=50, targets={0: 1.0})])
        source = DriftingSource(schedule, seed=0)
        early = [source.value_at(tau) for tau in range(50)]
        late = [source.value_at(tau) for tau in range(50, 100)]
        assert set(early) == {0.0}
        assert set(late) == {1.0}

    def test_memoized_tape_is_stable(self):
        source = DriftingSource(DriftSchedule([0.5]), seed=1)
        first = [source.value_at(tau) for tau in range(20)]
        again = [source.value_at(tau) for tau in range(20)]
        assert first == again

    def test_needs_single_probability(self):
        with pytest.raises(StreamError):
            DriftingSource(DriftSchedule([0.5, 0.5]))


class TestDriftingBernoulliOracle:
    def test_row_is_consistent_within_a_round(self):
        oracle = DriftingBernoulliOracle(DriftSchedule([0.5, 0.5]), seed=0)
        leaf = Leaf("A", 1, 0.5)
        first = oracle.outcome(0, leaf, None)
        assert oracle.outcome(0, leaf, None) == first  # no re-draw mid-round

    def test_outcomes_follow_the_drift(self):
        schedule = DriftSchedule([0.0], [StepDrift(at=10, targets={0: 1.0})])
        oracle = DriftingBernoulliOracle(schedule, seed=0)
        leaf = Leaf("A", 1, 0.5)
        outcomes = []
        for _ in range(20):
            outcomes.append(oracle.outcome(0, leaf, None))
            oracle.advance()
        assert outcomes[:10] == [False] * 10
        assert outcomes[10:] == [True] * 10

    def test_advance_consumes_undrawn_rows(self):
        """Skipped rounds still consume the random tape (alignment contract)."""
        schedule = DriftSchedule([0.5, 0.5])
        a = DriftingBernoulliOracle(schedule, seed=7)
        a.advance(3)  # three rounds nobody probed
        leaf = Leaf("A", 1, 0.5)
        row_after_skip = [a.outcome(g, leaf, None) for g in range(2)]
        # One row of the seed's tape per round: the fourth row is round 3's.
        tape = np.random.default_rng(7).random((4, 2)) < 0.5
        assert row_after_skip == list(tape[3])

    def test_errors(self):
        oracle = DriftingBernoulliOracle(DriftSchedule([0.5]), seed=0)
        leaf = Leaf("A", 1, 0.5)
        with pytest.raises(StreamError):
            oracle.outcome(5, leaf, None)
        with pytest.raises(StreamError):
            oracle.advance(-1)


class TestScenarioBuilders:
    def tree(self) -> DnfTree:
        return DnfTree(
            [[Leaf("A", 2, 0.1), Leaf("B", 1, 0.6)], [Leaf("A", 1, 0.3)]],
            costs={"A": 1.0, "B": 2.0},
        )

    def test_tree_base_probs(self):
        assert tree_base_probs(self.tree()) == (0.1, 0.6, 0.3)

    def test_step_drift_by_stream_targets_all_matching_leaves(self):
        schedule = step_drift_by_stream(self.tree(), 10, {"A": 0.9})
        assert schedule.probs_at(9) == pytest.approx([0.1, 0.6, 0.3])
        assert schedule.probs_at(10) == pytest.approx([0.9, 0.6, 0.9])

    def test_ramp_drift_by_stream(self):
        schedule = ramp_drift_by_stream(self.tree(), 0, 10, {"B": 0.0})
        assert schedule.probs_at(5) == pytest.approx([0.1, 0.3, 0.3])

    def test_unknown_stream_rejected(self):
        with pytest.raises(StreamError):
            step_drift_by_stream(self.tree(), 5, {"Z": 0.5})

    def test_random_step_drift(self):
        rng = np.random.default_rng(0)
        schedule = random_step_drift(rng, self.tree(), 7, fraction=0.5)
        before, after = schedule.probs_at(6), schedule.probs_at(7)
        changed = sum(1 for b, a in zip(before, after) if b != a)
        assert changed >= 1
        with pytest.raises(StreamError):
            random_step_drift(rng, self.tree(), 7, fraction=0.0)
