"""Serving-layer observability: per-query and aggregate counters.

The serving layer's whole value proposition — plans paid once, windows paid
once — must be *measurable*, so the server maintains a
:class:`ServiceMetrics` ledger: per-query cost/probe/outcome counters,
aggregate sharing counters (items saved, free probes), the plan cache's
hit rate, and a per-round cost series for tail percentiles (p50/p95/p99).
Every round reaches the ledger the same way: the round loop folds its
:class:`~repro.service.shared_plan.RoundStats` in through
:meth:`ServiceMetrics.record_round`, the one place a round's numbers are
added to the ledger.

The percentile properties route through :class:`repro.obs.Histogram` —
the same fixed-bucket interpolation the cluster's telemetry histograms
use — so a shard's ``ServiceMetrics`` percentiles and the cluster-level
metrics registry agree on what "p99 round cost" means (one bucketing
scheme, one interpolation rule). The exact nearest-rank :func:`percentile`
stays available for callers that want the raw order statistic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.obs.metrics import Histogram
from repro.service.shared_plan import RoundStats

__all__ = ["QueryStats", "ServiceMetrics", "percentile", "ROUND_COST_WINDOW"]

#: Sliding-window size for the per-round cost series. The server runs
#: indefinitely, so the ledger cannot keep every round's cost: the window
#: bounds memory at a few pages while keeping the percentile scope recent
#: enough to reflect the *current* population (a re-plan or churn event
#: washes out of the tail statistics within one window, not never). Lifetime
#: aggregates (``rounds``/``total_cost``) are unaffected by the truncation.
ROUND_COST_WINDOW = 4096


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (``q`` in [0, 100]).

    Robust on degenerate windows: an empty ``values`` yields 0.0 (after
    ``q`` validation — an out-of-range ``q`` is a caller bug regardless of
    the data) and a singleton window yields its only element for every
    ``q``.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    if not values:
        return 0.0
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = max(0, min(len(ordered) - 1, round(q / 100.0 * (len(ordered) - 1))))
    return ordered[rank]


@dataclass
class QueryStats:
    """Lifetime counters of one registered query."""

    rounds: int = 0
    cost: float = 0.0
    true_count: int = 0
    probes: int = 0
    items_fetched: int = 0
    items_saved: int = 0

    @property
    def mean_cost(self) -> float:
        return self.cost / self.rounds if self.rounds else 0.0

    @property
    def true_rate(self) -> float:
        return self.true_count / self.rounds if self.rounds else 0.0


@dataclass
class ServiceMetrics:
    """Aggregate view of a :class:`~repro.service.server.QueryServer`'s history.

    ``items_saved`` counts data items a probe needed but found already in the
    shared cache — each one is a unit of acquisition cost some query did not
    pay thanks to sharing (within a round *and* across rounds of the
    continuous stream). ``free_probes`` counts leaf evaluations that cost
    nothing at all.

    ``round_costs`` keeps only the most recent :data:`ROUND_COST_WINDOW`
    rounds (the server runs indefinitely; the percentiles are over that
    sliding window, while ``total_cost``/``rounds`` cover the full lifetime).
    """

    rounds: int = 0
    total_cost: float = 0.0
    total_probes: int = 0
    free_probes: int = 0
    items_fetched: int = 0
    items_saved: int = 0
    registrations: int = 0
    deregistrations: int = 0
    #: Queries transplanted in/out by shard migration (split/drain/rebalance).
    #: Deliberately separate from registrations/deregistrations: a migration
    #: is a placement change, not population churn, and elastic policies key
    #: off the churn counters.
    migrations_in: int = 0
    migrations_out: int = 0
    replans: int = 0
    #: Drift-triggered re-plans suppressed by :class:`~repro.adaptive.AdaptivePolicy`
    #: hysteresis (``expected_saving`` below ``min_saving``).
    replans_suppressed: int = 0
    plan_cache_hit_rate: float = 0.0
    round_costs: list[float] = field(default_factory=list)
    per_query: dict[str, QueryStats] = field(default_factory=dict)

    # -- recording ------------------------------------------------------

    def record_round(self, stats: RoundStats, values: Mapping[str, bool]) -> None:
        """Fold one executed round into the aggregate and per-query counters.

        ``values`` maps every resident to its root value, in registration
        order; a resident with no evaluated probe still serves the round
        (``rounds + 1``) at cost 0.
        """
        self.rounds += 1
        self.total_cost += stats.cost
        self.total_probes += stats.probes
        self.free_probes += stats.free_probes
        self.items_fetched += stats.items_fetched
        self.items_saved += stats.items_saved
        self.round_costs.append(stats.cost)
        if len(self.round_costs) > ROUND_COST_WINDOW:
            del self.round_costs[: -ROUND_COST_WINDOW]
        per_query = self.per_query
        for name, value in values.items():
            query_stats = per_query.get(name)
            if query_stats is None:
                query_stats = per_query[name] = QueryStats()
            query_stats.rounds += 1
            query_stats.cost += stats.query_cost.get(name, 0.0)
            query_stats.probes += stats.query_probes.get(name, 0)
            query_stats.items_fetched += stats.query_items_fetched.get(name, 0)
            query_stats.items_saved += stats.query_items_saved.get(name, 0)
            if value:
                query_stats.true_count += 1

    def query_stats(self, name: str) -> QueryStats:
        return self.per_query.setdefault(name, QueryStats())

    # -- derived --------------------------------------------------------

    @property
    def mean_round_cost(self) -> float:
        return self.total_cost / self.rounds if self.rounds else 0.0

    def round_cost_histogram(self) -> Histogram:
        """The sliding window loaded into a telemetry histogram.

        Built on demand (report time, never the round loop) so the
        percentile properties interpolate with exactly the bucketing the
        cluster's metrics registry uses — service-level and cluster-level
        percentiles are the same function of the same buckets.
        """
        hist = Histogram()
        for cost in self.round_costs:
            hist.observe(cost)
        return hist

    @property
    def p50_round_cost(self) -> float:
        return self.round_cost_histogram().percentile(50.0)

    @property
    def p95_round_cost(self) -> float:
        return self.round_cost_histogram().percentile(95.0)

    @property
    def p99_round_cost(self) -> float:
        return self.round_cost_histogram().percentile(99.0)

    @property
    def free_probe_rate(self) -> float:
        return self.free_probes / self.total_probes if self.total_probes else 0.0

    @property
    def sharing_rate(self) -> float:
        """Fraction of needed items served from the shared cache."""
        needed = self.items_fetched + self.items_saved
        return self.items_saved / needed if needed else 0.0

    def summary(self) -> str:
        """Multi-line human-readable report."""
        lines = [
            f"service: {self.rounds} rounds, {len(self.per_query)} queries tracked",
            f"  total cost        {self.total_cost:.6g}"
            f" ({self.mean_round_cost:.6g}/round,"
            f" p50 {self.p50_round_cost:.6g}, p95 {self.p95_round_cost:.6g},"
            f" p99 {self.p99_round_cost:.6g})",
            f"  probes            {self.total_probes}"
            f" ({self.free_probe_rate:.1%} free via sharing)",
            f"  items             {self.items_fetched} fetched,"
            f" {self.items_saved} saved ({self.sharing_rate:.1%} shared)",
            f"  plan cache        hit rate {self.plan_cache_hit_rate:.1%}",
            f"  churn             {self.registrations} registered,"
            f" {self.deregistrations} deregistered,"
            f" {self.migrations_in}/{self.migrations_out} migrated in/out,"
            f" {self.replans} adaptive replans"
            f" ({self.replans_suppressed} suppressed)",
        ]
        for name in sorted(self.per_query):
            stats = self.per_query[name]
            lines.append(
                f"  {name}: {stats.mean_cost:.6g}/round over {stats.rounds} rounds,"
                f" TRUE rate {stats.true_rate:.3f}"
            )
        return "\n".join(lines)
