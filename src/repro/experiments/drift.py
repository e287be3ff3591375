"""Selectivity-drift experiment: static plans vs adaptive vs oracle re-planning.

The scenario: a population of isomorphic queries is admitted with accurate
selectivity estimates, then the ground truth steps at a known round (a cheap
stream's predicate flips from almost-never-true to almost-always-true, which
inverts the cost-optimal probe order). Three servers run the identical
ground truth — per-query :class:`~repro.engine.executor.DriftingBernoulliOracle`
instances with the same seeds draw the *same outcome tape* regardless of the
plan, so every cost difference is attributable to planning alone:

* **static** — the admission plan forever (what `repro.service` did before
  adaptivity);
* **adaptive** — ``QueryServer(adaptive=AdaptivePolicy(...))``: posteriors
  pooled per canonical leaf, drift detection, automatic re-plan;
* **oracle** — a forced :meth:`~repro.service.server.QueryServer.replan_query`
  with the *true* post-drift probabilities at the exact drift round (no
  detection lag, no estimation noise): the upper baseline adaptivity is
  measured against.

The headline number is the post-drift mean round cost: adaptive should land
within a few percent of the oracle (its only handicap is detection lag),
while static pays the stale plan's full price every round.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.adaptive import AdaptivePolicy
from repro.core.leaf import Leaf
from repro.core.tree import DnfTree
from repro.engine.executor import DriftingBernoulliOracle
from repro.errors import StreamError
from repro.generators.drift_scenarios import step_drift_by_stream
from repro.obs import Telemetry
from repro.service.server import DEFAULT_SCHEDULER, QueryServer
from repro.service.simulate import shuffled_isomorph
from repro.streams.drift import DriftSchedule
from repro.streams.registry import StreamRegistry
from repro.streams.sources import GaussianSource
from repro.streams.stream import StreamSpec

__all__ = ["DriftModeResult", "DriftReport", "default_drift_population", "run_drift"]

#: Stream-name stems of the default scenario: per cluster ``c`` the drifting
#: stream ``drifty{c}`` is cheap and ``steady{c}`` expensive — so the drifted
#: regime flips the cost-optimal probe order inside every cluster.
_CHEAP, _EXPENSIVE = "drifty", "steady"


@dataclass(frozen=True)
class DriftModeResult:
    """One serving mode's cost trajectory over the drift scenario."""

    mode: str
    round_costs: tuple[float, ...]
    replans: int
    replan_rounds: tuple[int, ...]

    @property
    def total_cost(self) -> float:
        return float(sum(self.round_costs))

    @property
    def mean_round_cost(self) -> float:
        return self.total_cost / len(self.round_costs) if self.round_costs else 0.0

    def mean_cost(self, start: int = 0, end: int | None = None) -> float:
        """Mean round cost over rounds ``[start, end)``."""
        window = self.round_costs[start:end]
        return float(np.mean(window)) if window else 0.0


@dataclass(frozen=True)
class DriftReport:
    """Static vs adaptive vs oracle over one drift schedule."""

    rounds: int
    drift_round: int
    n_queries: int
    seed: int
    static: DriftModeResult
    adaptive: DriftModeResult
    oracle: DriftModeResult

    @property
    def modes(self) -> tuple[DriftModeResult, DriftModeResult, DriftModeResult]:
        return (self.static, self.adaptive, self.oracle)

    def post_drift_mean(self, mode: DriftModeResult) -> float:
        return mode.mean_cost(self.drift_round)

    @property
    def detection_lag(self) -> int | None:
        """Rounds between the drift and the adaptive server's first re-plan
        at or after it (None when it never re-planned)."""
        for round_index in self.adaptive.replan_rounds:
            if round_index >= self.drift_round:
                return round_index - self.drift_round
        return None

    @property
    def adaptive_vs_oracle(self) -> float:
        """Post-drift mean-cost ratio, adaptive / oracle."""
        oracle = self.post_drift_mean(self.oracle)
        return self.post_drift_mean(self.adaptive) / oracle if oracle else 1.0

    @property
    def static_vs_oracle(self) -> float:
        """Post-drift mean-cost ratio, static / oracle."""
        oracle = self.post_drift_mean(self.oracle)
        return self.post_drift_mean(self.static) / oracle if oracle else 1.0

    def summary_headers(self) -> tuple[str, ...]:
        return ("mode", "total cost", "pre-drift /round", "post-drift /round", "replans")

    def summary_rows(self) -> list[tuple[str, str, str, str, str]]:
        rows = []
        for mode in self.modes:
            rows.append(
                (
                    mode.mode,
                    f"{mode.total_cost:.6g}",
                    f"{mode.mean_cost(0, self.drift_round):.6g}",
                    f"{self.post_drift_mean(mode):.6g}",
                    str(mode.replans),
                )
            )
        return rows

    def describe(self) -> str:
        lag = self.detection_lag
        return (
            f"drift at round {self.drift_round}/{self.rounds}, {self.n_queries} queries:"
            f" adaptive/oracle = {self.adaptive_vs_oracle:.3f},"
            f" static/oracle = {self.static_vs_oracle:.3f},"
            f" detection lag = {lag if lag is not None else 'n/a'} rounds"
        )


def _n_clusters(n_queries: int, cluster_size: int) -> int:
    return (n_queries + cluster_size - 1) // cluster_size


def _drift_registry(
    seed: int, cheap_cost: float, expensive_cost: float, n_clusters: int
) -> StreamRegistry:
    registry = StreamRegistry()
    for c in range(n_clusters):
        registry.add(
            StreamSpec(f"{_CHEAP}{c}", cheap_cost),
            GaussianSource(seed=seed * 7919 + 2 * c + 1),
        )
        registry.add(
            StreamSpec(f"{_EXPENSIVE}{c}", expensive_cost),
            GaussianSource(seed=seed * 7919 + 2 * c + 2),
        )
    return registry


def default_drift_population(
    n_queries: int,
    *,
    seed: int = 0,
    cluster_size: int = 4,
    pre_prob: float = 0.05,
    post_prob: float = 0.9,
    steady_prob: float = 0.6,
    drift_round: int = 120,
) -> list[tuple[str, DnfTree, DriftSchedule]]:
    """Clusters of isomorphs of an order-flipping template, plus their drifts.

    Each cluster ``c`` runs ``OR(drifty{c}[2] p=pre, steady{c}[3] p=steady)``
    on its own stream pair: with the admission probabilities the
    expensive-but-likely leaf resolves the OR cheapest in expectation, but
    once the cheap leaf's selectivity steps to ``post_prob`` the optimal
    order inverts — exactly the regime change a static plan cannot follow.
    Isomorphs inside a cluster share a canonical key, so the adaptive server
    pools their probe outcomes; separate clusters keep the shared item cache
    from flattening the cost contrast between plans.
    """
    if n_queries < 1:
        raise StreamError(f"need at least one query, got {n_queries}")
    if cluster_size < 1:
        raise StreamError(f"cluster size must be >= 1, got {cluster_size}")
    rng = np.random.default_rng(seed)
    population = []
    for q in range(n_queries):
        c = q // cluster_size
        cheap, expensive = f"{_CHEAP}{c}", f"{_EXPENSIVE}{c}"
        template = DnfTree(
            [[Leaf(cheap, 2, pre_prob)], [Leaf(expensive, 3, steady_prob)]],
            costs={cheap: 1.0, expensive: 5.0},
        )
        tree = shuffled_isomorph(template, rng)
        schedule = step_drift_by_stream(tree, drift_round, {cheap: post_prob})
        population.append((f"q{q:03d}", tree, schedule))
    return population


def _serve(
    population: Sequence[tuple[str, DnfTree, DriftSchedule]],
    registry_seed: int,
    oracle_seed: int,
    *,
    scheduler: str,
    rounds: int,
    adaptive: AdaptivePolicy | None,
    cheap_cost: float,
    expensive_cost: float,
    n_clusters: int,
    oracle_replan_round: int | None = None,
    telemetry: Telemetry | None = None,
) -> tuple[QueryServer, DriftModeResult, str]:
    registry = _drift_registry(registry_seed, cheap_cost, expensive_cost, n_clusters)
    server = QueryServer(
        registry, scheduler=scheduler, adaptive=adaptive, telemetry=telemetry
    )
    for ordinal, (name, tree, drift) in enumerate(population):
        server.register(
            name,
            tree,
            oracle=DriftingBernoulliOracle(drift, seed=oracle_seed * 100_003 + ordinal),
        )
    mode = "adaptive" if adaptive is not None else "static"
    if oracle_replan_round is None:
        report = server.run_batch(rounds)
        round_costs = tuple(report.round_costs)
    else:
        mode = "oracle"
        first = server.run_batch(oracle_replan_round)
        replanned: set[str] = set()
        for name, _, drift in population:
            key = server.query(name).canonical.key
            if key in replanned:
                continue
            replanned.add(key)
            truth = drift.probs_at(drift.settled_after())
            server.replan_query(name, {g: float(p) for g, p in enumerate(truth)})
        second = server.run_batch(rounds - oracle_replan_round)
        round_costs = tuple(first.round_costs) + tuple(second.round_costs)
    return (
        server,
        DriftModeResult(
            mode=mode,
            round_costs=round_costs,
            replans=len(server.replan_log),
            replan_rounds=tuple(event.round_index for event in server.replan_log),
        ),
        mode,
    )


def run_drift(
    *,
    n_queries: int = 12,
    cluster_size: int = 4,
    rounds: int = 360,
    drift_round: int = 120,
    seed: int = 0,
    scheduler: str = DEFAULT_SCHEDULER,
    policy: AdaptivePolicy | None = None,
    pre_prob: float = 0.05,
    post_prob: float = 0.9,
    steady_prob: float = 0.6,
    cheap_cost: float = 1.0,
    expensive_cost: float = 5.0,
    telemetry: Telemetry | None = None,
) -> DriftReport:
    """Run the three serving modes over one identical drift scenario.

    All three populations draw their outcomes from per-query drifting
    oracles seeded identically, and a drifting oracle's random-tape
    consumption is independent of the executing plan — so the three cost
    trajectories are exactly comparable, round by round.

    ``telemetry`` instruments the *adaptive* mode only — the mode whose
    replan events the trace is for; the static and oracle baselines run
    untraced so the timeline stays a single coherent story.
    """
    if not 0 < drift_round < rounds:
        raise StreamError(
            f"drift round must fall inside the run, got {drift_round}/{rounds}"
        )
    if policy is None:
        policy = AdaptivePolicy(window=64, threshold=0.25, min_samples=24, cooldown=16)
    population = default_drift_population(
        n_queries,
        seed=seed,
        cluster_size=cluster_size,
        pre_prob=pre_prob,
        post_prob=post_prob,
        steady_prob=steady_prob,
        drift_round=drift_round,
    )
    common = dict(
        scheduler=scheduler,
        rounds=rounds,
        cheap_cost=cheap_cost,
        expensive_cost=expensive_cost,
        n_clusters=_n_clusters(n_queries, cluster_size),
    )
    _, static, _ = _serve(population, seed, seed, adaptive=None, **common)
    _, adaptive, _ = _serve(
        population, seed, seed, adaptive=policy, telemetry=telemetry, **common
    )
    _, oracle, _ = _serve(
        population, seed, seed, adaptive=None, oracle_replan_round=drift_round, **common
    )
    return DriftReport(
        rounds=rounds,
        drift_round=drift_round,
        n_queries=n_queries,
        seed=seed,
        static=static,
        adaptive=adaptive,
        oracle=oracle,
    )
