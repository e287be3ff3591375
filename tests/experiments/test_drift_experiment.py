"""The drift experiment's acceptance criteria (ISSUE 3).

Under a step change in leaf selectivities with a fixed seed, adaptive
serving's post-drift mean round cost must land within 10% of the
oracle-replan baseline, while the static plan stays measurably worse.
"""

from __future__ import annotations

import pytest

from repro.adaptive import AdaptivePolicy
from repro.errors import StreamError
from repro.experiments.drift import default_drift_population, run_drift

# Small enough for CI, large enough for the lag to amortize.
KWARGS = dict(n_queries=8, cluster_size=4, rounds=240, drift_round=80, seed=0)


@pytest.fixture(scope="module")
def report():
    return run_drift(**KWARGS)


class TestAcceptance:
    def test_adaptive_within_10_percent_of_oracle(self, report):
        assert report.adaptive_vs_oracle <= 1.10

    def test_static_measurably_worse_than_oracle(self, report):
        assert report.static_vs_oracle >= 1.15
        # ... and worse than adaptive too, not just worse than the oracle.
        assert report.post_drift_mean(report.static) > 1.1 * report.post_drift_mean(
            report.adaptive
        )

    def test_drift_is_detected_with_bounded_lag(self, report):
        assert report.adaptive.replans > 0
        assert report.detection_lag is not None
        assert report.detection_lag <= 64  # the policy window

    def test_oracle_replans_once_per_cluster(self, report):
        assert report.oracle.replans == 2  # 8 queries / cluster_size 4
        assert all(r == KWARGS["drift_round"] for r in report.oracle.replan_rounds)

    def test_static_never_replans(self, report):
        assert report.static.replans == 0

    def test_pre_drift_costs_agree_across_modes(self, report):
        """Before the drift all three servers run the identical plan on the
        identical outcome tape, so their cost prefixes must agree."""
        pre = KWARGS["drift_round"]
        assert report.static.round_costs[:pre] == report.oracle.round_costs[:pre]
        # The adaptive server may re-plan pre-drift only on estimation noise;
        # its mean must still match closely.
        assert report.adaptive.mean_cost(0, pre) == pytest.approx(
            report.static.mean_cost(0, pre), rel=0.02
        )


class TestDeterminismAndEngines:
    def test_same_seed_reproduces_exactly(self):
        a = run_drift(**KWARGS)
        b = run_drift(**KWARGS)
        assert a.adaptive.round_costs == b.adaptive.round_costs
        assert a.adaptive.replan_rounds == b.adaptive.replan_rounds


class TestPlumbing:
    def test_population_shapes(self):
        population = default_drift_population(5, cluster_size=2, seed=1)
        assert len(population) == 5
        streams = {tree.leaves[0].stream for _, tree, _ in population}
        assert len({s[-1] for s in streams}) >= 2  # multiple clusters
        for _, tree, drift in population:
            assert drift.n_leaves == tree.size
            assert not drift.is_static

    def test_bad_drift_round_rejected(self):
        with pytest.raises(StreamError):
            run_drift(rounds=50, drift_round=50)

    def test_custom_policy_is_used(self):
        tight = AdaptivePolicy(window=16, threshold=0.3, min_samples=8, cooldown=4)
        report = run_drift(policy=tight, **KWARGS)
        assert report.adaptive.replans > 0

    def test_summary_rows_render(self, report):
        rows = report.summary_rows()
        assert [row[0] for row in rows] == ["static", "adaptive", "oracle"]
        assert "drift at round" in report.describe()
