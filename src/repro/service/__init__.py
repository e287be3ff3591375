"""Shared multi-query serving layer.

The paper optimizes one tree at a time; a serving device (or fleet) runs
*populations* of queries over the same streams. This package turns the
single-query machinery into a multi-tenant server:

* :mod:`~repro.service.canonical` — canonical query identities (isomorphic
  trees hash equal, duplicate leaves fold away, probabilities compare at 12
  decimals so float noise cannot split a key);
* :mod:`~repro.service.plan_cache` — LRU cache of canonical schedules, so a
  query shape pays its scheduling cost once across the whole population;
* :mod:`~repro.service.shared_plan` — the round kernel: step *k* of every
  resident's schedule at once over per-slot rows the server keeps across
  churn, one shared cache and per-query early termination (one fetch of a
  window serves every query that reads it; the first in registration order
  pays);
* :mod:`~repro.service.server` — the :class:`QueryServer`
  (register/deregister/step/run_batch) plus the :func:`run_isolated`
  no-sharing baseline;
* :mod:`~repro.service.metrics` — the server's lifetime aggregate counters
  (cost, probes saved by sharing, plan-cache hit rate, p50/p95/p99 round
  cost, routed through the :mod:`repro.obs` histogram buckets); per-query
  numbers live only in each batch's :class:`BatchReport`;
* :mod:`~repro.service.simulate` — synthetic template-based populations for
  demos and benchmarks.
"""

from repro.service.canonical import (
    CanonicalForm,
    canonical_key,
    canonicalize,
    quantize_prob,
)
from repro.service.metrics import ROUND_COST_WINDOW, ServiceMetrics
from repro.service.plan_cache import CachedPlan, PlanCache
from repro.service.server import (
    BatchReport,
    PerQuery,
    QueryServer,
    RegisteredQuery,
    run_isolated,
)
from repro.service.shared_plan import RoundStats
from repro.service.simulate import (
    shuffled_isomorph,
    synthetic_population,
    synthetic_registry,
)

__all__ = [
    "CanonicalForm",
    "canonicalize",
    "canonical_key",
    "quantize_prob",
    "PlanCache",
    "CachedPlan",
    "RoundStats",
    "QueryServer",
    "RegisteredQuery",
    "BatchReport",
    "PerQuery",
    "run_isolated",
    "ServiceMetrics",
    "ROUND_COST_WINDOW",
    "shuffled_isomorph",
    "synthetic_population",
    "synthetic_registry",
]
