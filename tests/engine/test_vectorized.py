"""Differential-testing harness for the vectorized trial engine.

The contract under test: a :class:`VectorizedExecutor` batch is bit-for-bit
equivalent to running the scalar :class:`ScheduleExecutor` once per trial
over the same outcome matrix — same root value, same charged cost (exact
float equality, both engines accumulate in schedule order), same
evaluated/skipped partitions, same recorded outcomes. On top of the exact
harness, statistical tests check convergence of batch means to the
analytic expected costs on the paper's Figure-4 tree family.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from repro import AndTree, DnfTree, Leaf, and_tree_cost, dnf_schedule_cost, monte_carlo_cost
from repro.core.andtree_optimal import algorithm1_order
from repro.core.compile import compile_schedule
from repro.core.resolution import TreeIndex
from repro.core.schedule import identity_schedule, random_schedule
from repro.engine import (
    PrecomputedOracle,
    ScheduleExecutor,
    TrialBatteryResult,
    VectorizedExecutor,
    estimate_schedule_cost,
    run_battery,
)
from repro.errors import StreamError
from repro.generators.configs import AndTreeConfig
from repro.generators.random_trees import random_dnf_tree, sample_and_tree
from repro.lang import parse_query
from repro.streams.cache import CountingCache

from tests.strategies import and_trees, dnf_trees_with_schedule, safe_probs


def scalar_reference(tree, schedule, outcome_row):
    """One scalar execution replaying ``outcome_row`` — the comparison unit."""
    executor = ScheduleExecutor(
        tree, CountingCache(tree.costs), PrecomputedOracle(outcome_row)
    )
    return executor.run(schedule)


def assert_trial_equal(reference, trial):
    assert trial.value == reference.value
    assert trial.cost == reference.cost  # bit-for-bit, no tolerance
    assert trial.evaluated == reference.evaluated
    assert trial.skipped == reference.skipped
    assert dict(trial.outcomes) == dict(reference.outcomes)


class TestDifferentialEquivalence:
    """The headline harness: scalar and vectorized agree exactly, per trial."""

    @settings(max_examples=120, deadline=None)
    @given(tree_and_schedule=dnf_trees_with_schedule(), seed=st.integers(0, 2**31 - 1))
    def test_dnf_trees_random_schedules(self, tree_and_schedule, seed):
        tree, schedule = tree_and_schedule
        batch = VectorizedExecutor(tree).run_batch(schedule, 16, seed=seed)
        for trial in range(batch.n_trials):
            reference = scalar_reference(tree, schedule, batch.outcomes[trial])
            assert_trial_equal(reference, batch.result_for(trial))

    @settings(max_examples=60, deadline=None)
    @given(tree=and_trees(), seed=st.integers(0, 2**31 - 1))
    def test_and_trees(self, tree, seed):
        schedule = identity_schedule(tree)
        batch = VectorizedExecutor(tree).run_batch(schedule, 16, seed=seed)
        for trial in range(batch.n_trials):
            reference = scalar_reference(tree, schedule, batch.outcomes[trial])
            assert_trial_equal(reference, batch.result_for(trial))

    @settings(max_examples=40, deadline=None)
    @given(
        tree_and_schedule=dnf_trees_with_schedule(
            min_ands=2, max_ands=4, max_per_and=4, prob_strategy=safe_probs
        ),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_deeper_dnf_trees(self, tree_and_schedule, seed):
        tree, schedule = tree_and_schedule
        batch = VectorizedExecutor(tree).run_batch(schedule, 8, seed=seed)
        for trial in range(batch.n_trials):
            reference = scalar_reference(tree, schedule, batch.outcomes[trial])
            assert_trial_equal(reference, batch.result_for(trial))

    def test_single_leaf_tree(self):
        tree = DnfTree([[Leaf("A", 3, 0.4)]], {"A": 2.0})
        batch = VectorizedExecutor(tree).run_batch((0,), 64, seed=5)
        for trial in range(batch.n_trials):
            reference = scalar_reference(tree, (0,), batch.outcomes[trial])
            assert_trial_equal(reference, batch.result_for(trial))
        assert np.all(batch.costs == 6.0)  # the lone leaf is always paid

    def test_extreme_probabilities(self):
        tree = DnfTree(
            [[Leaf("A", 1, 1.0), Leaf("B", 2, 0.0)], [Leaf("A", 2, 1.0)]],
            {"A": 1.0, "B": 1.0},
        )
        for schedule in [(0, 1, 2), (2, 1, 0), (1, 0, 2)]:
            batch = VectorizedExecutor(tree).run_batch(schedule, 4, seed=0)
            for trial in range(batch.n_trials):
                reference = scalar_reference(tree, schedule, batch.outcomes[trial])
                assert_trial_equal(reference, batch.result_for(trial))

    def test_sweep_of_random_trees(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            tree = random_dnf_tree(
                rng,
                int(rng.integers(1, 5)),
                int(rng.integers(1, 5)),
                float(rng.choice([1.0, 1.5, 2.0, 3.0])),
            )
            schedule = random_schedule(tree, rng)
            batch = VectorizedExecutor(tree).run_batch(schedule, 32, rng=rng)
            for trial in range(batch.n_trials):
                reference = scalar_reference(tree, schedule, batch.outcomes[trial])
                assert_trial_equal(reference, batch.result_for(trial))


class TestStatisticalConvergence:
    """Batch means converge to the analytic expected costs."""

    def test_fig4_tree_family_20k_trials(self):
        # The paper's Figure-4 family: random shared AND-trees at several
        # (m, rho) cells, scheduled by Algorithm 1; the 20k-trial vectorized
        # mean must land within 5 standard errors of the closed form.
        rng = np.random.default_rng(123)
        cells = [(4, 2.0), (8, 2.0), (12, 3.0), (20, 5.0)]
        for m, rho in cells:
            config = AndTreeConfig(m=m, rho=rho)
            tree = sample_and_tree(rng, config)
            schedule = algorithm1_order(tree)
            expected = and_tree_cost(tree, schedule, validate=False)
            battery = run_battery(tree, schedule, 20_000, seed=m)
            spread = max(battery.std_error, 1e-12)
            assert abs(battery.mean_cost - expected) <= 5 * spread, (
                f"m={m} rho={rho}: mean {battery.mean_cost} vs analytic {expected}"
            )

    def test_dnf_expected_cost_convergence(self):
        rng = np.random.default_rng(11)
        tree = random_dnf_tree(rng, 4, 4, 2.0)
        schedule = random_schedule(tree, rng)
        expected = dnf_schedule_cost(tree, schedule)
        battery = run_battery(tree, schedule, 20_000, seed=0)
        assert abs(battery.mean_cost - expected) <= 5 * max(battery.std_error, 1e-12)

    def test_montecarlo_rejects_unknown_engine(self):
        # One trial engine: monte_carlo_cost takes no engine at all.
        tree = DnfTree([[Leaf("A", 1, 0.5)]], {"A": 1.0})
        for engine in ("quantum", "scalar"):
            with pytest.raises(TypeError):
                monte_carlo_cost(tree, (0,), n_samples=10, engine=engine)


class TestBatchResult:
    def test_partitions_and_shapes(self):
        rng = np.random.default_rng(3)
        tree = random_dnf_tree(rng, 3, 3, 2.0)
        schedule = random_schedule(tree, rng)
        batch = VectorizedExecutor(tree).run_batch(schedule, 100, seed=1)
        assert batch.n_trials == 100
        assert batch.n_leaves == tree.size
        assert batch.evaluated.shape == (100, tree.size)
        assert np.array_equal(batch.skipped_mask(), ~batch.evaluated)
        assert np.all(batch.n_evaluated() >= 1)
        assert 0.0 <= batch.true_rate <= 1.0
        assert batch.mean_cost == pytest.approx(float(batch.costs.mean()))

    def test_outcome_matrix_injection_validation(self):
        tree = DnfTree([[Leaf("A", 1, 0.5), Leaf("B", 1, 0.5)]], {"A": 1.0, "B": 1.0})
        executor = VectorizedExecutor(tree)
        with pytest.raises(StreamError):
            executor.run_batch((0, 1), outcomes=np.zeros((4, 3), dtype=bool))
        with pytest.raises(StreamError):
            executor.run_batch((0, 1), outcomes=np.zeros((0, 2), dtype=bool))
        with pytest.raises(StreamError):
            executor.run_batch((0, 1), 5, outcomes=np.zeros((4, 2), dtype=bool))
        with pytest.raises(StreamError):
            executor.run_batch((0, 1), None)
        with pytest.raises(StreamError):
            executor.run_batch((0, 1), 0)

    def test_program_cache_reused(self):
        tree = DnfTree([[Leaf("A", 1, 0.5), Leaf("B", 1, 0.5)]], {"A": 1.0, "B": 1.0})
        executor = VectorizedExecutor(tree)
        first = executor.compile((0, 1))
        assert executor.compile([0, 1]) is first
        assert executor.compile((1, 0)) is not first


class TestCompiledSchedule:
    def test_arrays_describe_the_tree(self):
        tree = DnfTree(
            [[Leaf("A", 2, 0.6), Leaf("B", 1, 0.4)], [Leaf("A", 3, 0.7)]],
            {"A": 2.0, "B": 1.5},
        )
        program = compile_schedule(tree, (2, 0, 1))
        assert program.n_leaves == 3
        assert program.n_slots == 2
        assert list(program.order) == [2, 0, 1]
        assert list(program.items) == [2, 1, 3]
        assert list(program.unit_costs) == [2.0, 1.5, 2.0]
        assert program.slot_streams == ("A", "B")
        # Every leaf's chain starts at its own node and ends at the root.
        for g in range(3):
            chain = program.chains[g]
            chain = chain[chain >= 0]
            assert chain[0] == program.leaf_node_ids[g]
            assert chain[-1] == 0 or program.n_nodes == 1

    def test_reuses_supplied_index(self):
        tree = DnfTree([[Leaf("A", 1, 0.5)]], {"A": 1.0})
        index = TreeIndex(tree)
        program = compile_schedule(tree, (0,), index=index)
        assert program.index is index

    def test_works_for_and_trees(self):
        tree = AndTree([Leaf("A", 2, 0.5), Leaf("B", 1, 0.5)], {"A": 1.0, "B": 1.0})
        program = compile_schedule(tree, (1, 0))
        assert program.n_leaves == 2


def _trial_path_cases():
    rng = np.random.default_rng(4)
    dnf = random_dnf_tree(rng, 3, 4, 2.0)
    and_tree = sample_and_tree(rng, AndTreeConfig(m=6, rho=2.0))
    query = parse_query("(A[2] p=0.3 AND (B[1] p=0.6 OR C[3] p=0.4)) OR A[4] p=0.7").tree
    return [
        pytest.param(and_tree, algorithm1_order(and_tree), id="and"),
        pytest.param(dnf, random_schedule(dnf, rng), id="dnf"),
        pytest.param(query, tuple(range(query.size)), id="query"),
    ]


@pytest.mark.parametrize("tree, schedule", _trial_path_cases())
@pytest.mark.parametrize("seed", [0, 7])
def test_trial_paths_agree_per_seed(tree, schedule, seed):
    """monte_carlo_cost, run_battery and run_batch draw one outcome matrix."""
    batch = VectorizedExecutor(tree).run_batch(
        schedule, 1500, rng=np.random.default_rng(seed)
    )
    battery = run_battery(tree, schedule, 1500, seed=seed)
    estimate = monte_carlo_cost(tree, schedule, n_samples=1500, seed=seed)
    assert isinstance(battery, TrialBatteryResult)
    assert np.array_equal(battery.costs, batch.costs)
    assert np.array_equal(battery.values, batch.values)
    assert battery.mean_cost == batch.mean_cost == estimate.mean
    assert battery.std_error == batch.std_error == estimate.std_error
    assert battery.ci95 == estimate.ci95


class TestRunBattery:
    def test_workers_fan_out_deterministic(self):
        rng = np.random.default_rng(5)
        tree = random_dnf_tree(rng, 2, 3, 1.5)
        schedule = random_schedule(tree, rng)
        one = run_battery(tree, schedule, 1000, seed=3, workers=2)
        two = run_battery(tree, schedule, 1000, seed=3, workers=2)
        assert one.n_trials == 1000
        assert np.array_equal(one.costs, two.costs)

    def test_validation_errors(self):
        tree = DnfTree([[Leaf("A", 1, 0.5)]], {"A": 1.0})
        with pytest.raises(StreamError):
            run_battery(tree, (0,), 0)
        for engine in ("gpu", "scalar"):
            with pytest.raises(TypeError):
                run_battery(tree, (0,), 10, engine=engine)
        with pytest.raises(StreamError):
            run_battery(tree, (0,), 10, rng=np.random.default_rng(0), workers=2)

    def test_estimate_schedule_cost_dispatch(self):
        tree = DnfTree([[Leaf("A", 2, 0.5), Leaf("A", 3, 0.5)]], {"A": 1.0})
        schedule = (0, 1)
        analytic = estimate_schedule_cost(tree, schedule)
        assert analytic == dnf_schedule_cost(tree, schedule)
        simulated = estimate_schedule_cost(
            tree, schedule, engine="vectorized", n_trials=20_000, seed=0
        )
        assert simulated == pytest.approx(analytic, rel=0.05)
        for engine in ("gpu", "scalar"):
            with pytest.raises(StreamError):
                estimate_schedule_cost(tree, schedule, engine=engine, n_trials=10)
