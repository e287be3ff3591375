"""The drifting oracle's block tape against a one-row-per-round reference.

:class:`~repro.engine.executor.DriftingBernoulliOracle` reads its outcome
tape several rounds at a time. Whatever the block length, round ``r`` must
see row ``r`` of the generator's tape, exactly as an oracle that draws one
``rng.random(n_leaves)`` row per round (and one for every round no probe
read) would: through advances of any size, rounds without a probe and a
pickle round trip in the middle of a block.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Leaf
from repro.engine.executor import DriftingBernoulliOracle
from repro.errors import StreamError
from repro.streams.drift import DriftSchedule, StepDrift

LEAF = Leaf("A", 1, 0.5)


class OneRowPerRound:
    """The reference: one ``rng.random(n)`` row per round, drawn or skipped."""

    def __init__(self, schedule: DriftSchedule, seed: int) -> None:
        self.schedule = schedule
        self.rng = np.random.default_rng(seed)
        self.round = 0
        self.row: np.ndarray | None = None

    def outcome(self, gindex: int) -> bool:
        if self.row is None:
            probs = self.schedule.probs_at(self.round)
            self.row = self.rng.random(self.schedule.n_leaves) < probs
        return bool(self.row[gindex])

    def advance(self, rounds: int) -> None:
        for _ in range(rounds):
            if self.row is None:
                self.rng.random(self.schedule.n_leaves)
            self.row = None
            self.round += 1


@st.composite
def schedules(draw) -> DriftSchedule:
    n = draw(st.integers(1, 6))
    probs = st.sampled_from((0.0, 0.1, 0.5, 0.9, 1.0))
    base = draw(st.lists(probs, min_size=n, max_size=n))
    changes = draw(
        st.lists(
            st.builds(
                StepDrift,
                st.integers(0, 60),
                st.dictionaries(st.integers(0, n - 1), probs, min_size=1),
            ),
            max_size=2,
        )
    )
    return DriftSchedule(base, changes)


#: Per round: how far to advance before it (mostly one round, so rounds
#: land on every row of a block; also 0, a few, or past a whole block) and
#: the leaves to probe (maybe none, leaving the round unread).
steps = st.tuples(
    st.one_of(
        st.just(1), st.just(1), st.just(0), st.integers(2, 5), st.integers(16, 40)
    ),
    st.lists(st.integers(0, 5), max_size=5),
)


class TestBlockTape:
    @settings(max_examples=200, deadline=None)
    @given(
        schedule=schedules(),
        seed=st.integers(0, 2**32 - 1),
        script=st.lists(steps, min_size=1, max_size=40),
        pickle_at=st.integers(0, 39),
    )
    def test_outcomes_match_one_row_per_round(self, schedule, seed, script, pickle_at):
        oracle = DriftingBernoulliOracle(schedule, seed=seed)
        reference = OneRowPerRound(schedule, seed)
        n = schedule.n_leaves
        for at, (rounds, probes) in enumerate(script):
            oracle.advance(rounds)
            reference.advance(rounds)
            if at == pickle_at:
                oracle = pickle.loads(pickle.dumps(oracle))
            assert oracle.round_index == reference.round
            for gindex in probes:
                gindex %= n
                assert oracle.outcome(gindex, LEAF, None) is reference.outcome(gindex)

    @pytest.mark.parametrize("gindex", [2, 3, 100, -1])
    def test_out_of_range_leaf_raises_mid_block(self, gindex):
        """A leaf past the schedule would read another round's outcome."""
        oracle = DriftingBernoulliOracle(DriftSchedule([0.5, 0.5]), seed=1)
        oracle.outcome(0, LEAF, None)
        oracle.advance(3)
        with pytest.raises(StreamError, match="covers 2 leaves"):
            oracle.outcome(gindex, LEAF, None)
