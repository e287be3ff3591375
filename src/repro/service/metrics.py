"""Serving-layer observability: the server's lifetime aggregate counters.

The serving layer's whole value proposition — plans paid once, windows paid
once — must be *measurable*, so the server maintains a
:class:`ServiceMetrics` ledger: aggregate sharing counters (items saved,
free probes), churn counters, the plan cache's hit rate, and a per-round
cost series for tail percentiles (p50/p95/p99). Rounds reach the ledger one
way: the server's batch tally folds every round once, and the finished
:class:`~repro.service.server.BatchReport` (a :meth:`QueryServer.step
<repro.service.server.QueryServer.step>` is a one-round batch) is folded in
through :meth:`ServiceMetrics.record_batch`, at O(1) cost per batch plus one
cost-window append per round.

The ledger keeps no per-query numbers. Those travel one path only: each
round's :class:`~repro.service.shared_plan.RoundStats` into the batch's
report (and, with telemetry on, the per-query round-cost histograms).

The percentile properties route through :class:`repro.obs.Histogram` —
the same fixed-bucket interpolation the cluster's telemetry histograms
use — so a shard's ``ServiceMetrics`` percentiles and the cluster-level
metrics registry agree on what "p99 round cost" means (one bucketing
scheme, one interpolation rule).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.obs.metrics import Histogram

if TYPE_CHECKING:
    from repro.service.server import BatchReport

__all__ = ["ServiceMetrics", "ROUND_COST_WINDOW"]

#: Sliding-window size for the per-round cost series. The server runs
#: indefinitely, so the ledger cannot keep every round's cost: the window
#: bounds memory at a few pages while keeping the percentile scope recent
#: enough to reflect the *current* population (a re-plan or churn event
#: washes out of the tail statistics within one window, not never). Lifetime
#: aggregates (``rounds``/``total_cost``) are unaffected by the truncation.
ROUND_COST_WINDOW = 4096


@dataclass
class ServiceMetrics:
    """Aggregate view of a :class:`~repro.service.server.QueryServer`'s history.

    Every field is O(1) in the population: the ledger holds no per-query
    entry, so it stays the same size however many queries come and go.

    ``items_saved`` counts data items a probe needed but found already in the
    shared cache — each one is a unit of acquisition cost some query did not
    pay thanks to sharing (within a round *and* across rounds of the
    continuous stream). ``free_probes`` counts leaf evaluations that cost
    nothing at all.

    ``round_costs`` keeps only the most recent :data:`ROUND_COST_WINDOW`
    rounds (the server runs indefinitely; the percentiles are over that
    sliding window, while ``total_cost``/``rounds`` cover the full lifetime).

    The round fields (``rounds`` through ``items_saved``,
    ``plan_cache_hit_rate`` and ``round_costs``) advance once per batch, by
    :meth:`record_batch`; the churn, migration and re-plan counters are
    incremented by the server where those events happen.
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

    # -- recording ------------------------------------------------------

    def record_batch(self, report: BatchReport) -> None:
        """Fold one served batch into the aggregates and the cost window.

        ``total_cost`` adds the batch's round costs one by one, so a batch
        of N rounds and N one-round batches leave the same ledger.
        """
        self.rounds += report.rounds
        for cost in report.round_costs:
            self.total_cost += cost
        self.total_probes += report.probes
        self.free_probes += report.free_probes
        self.items_fetched += report.items_fetched
        self.items_saved += report.items_saved
        self.plan_cache_hit_rate = report.plan_cache_hit_rate
        self.round_costs.extend(report.round_costs)
        if len(self.round_costs) > ROUND_COST_WINDOW:
            del self.round_costs[: -ROUND_COST_WINDOW]

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
            f"service: {self.rounds} rounds",
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
        return "\n".join(lines)
