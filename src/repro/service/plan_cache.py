"""LRU plan cache: pay the scheduling cost once per canonical query.

Scheduling is the expensive part of admitting a query (the dynamic
AND-ordered heuristics re-evaluate Proposition 2 prefixes; the exhaustive
optimum is exponential). In a population of millions of users the same query
shapes recur constantly, so the serving layer caches *canonical* schedules:
the key is ``(canonical tree key, scheduler name)`` and the value is the
schedule of the canonical tree, which :meth:`~repro.service.canonical.CanonicalForm.expand_schedule`
translates to each registered original.

The cache is a plain ``OrderedDict`` LRU guarded by a lock — safe to share
between a server and background admission threads.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro.core.cost import dnf_schedule_cost
from repro.core.heuristics.base import Scheduler
from repro.core.schedule import Schedule
from repro.core.tree import DnfTree
from repro.errors import ReproError
from repro.service.canonical import CanonicalForm

__all__ = ["CachedPlan", "PlanCache"]


@dataclass(frozen=True)
class CachedPlan:
    """A scheduling decision for one canonical tree."""

    key: str
    scheduler_name: str
    schedule: Schedule
    cost: float

    @classmethod
    def build(cls, key: str, tree: DnfTree, scheduler: Scheduler) -> CachedPlan:
        """Schedule ``tree`` with ``scheduler`` and cost the schedule.

        The one way a plan is made, cached or not: ``tree`` is the canonical
        tree of ``key``, or the same shape re-probed under a belief update.
        """
        schedule = tuple(scheduler.schedule(tree))
        return cls(
            key=key,
            scheduler_name=scheduler.name,
            schedule=schedule,
            cost=dnf_schedule_cost(tree, schedule, validate=True),
        )


class PlanCache:
    """Bounded LRU cache of canonical schedules.

    Parameters
    ----------
    capacity:
        Maximum number of cached plans; the least-recently-used entry is
        evicted on overflow.
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ReproError(f"plan cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._plans: OrderedDict[tuple[str, str], CachedPlan] = OrderedDict()
        #: canonical key -> scheduler names cached for it. Kept in lockstep
        #: with ``_plans`` so invalidate is O(entries dropped), not
        #: O(cache size) — a replan storm must not stall admissions.
        self._by_key: dict[str, set[str]] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __getstate__(self) -> dict:
        # Drop the lock (process-local) so a cache snapshot can cross a
        # process boundary; counters and the LRU order pickle as-is.
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._plans)

    def __contains__(self, key: tuple[str, str]) -> bool:
        with self._lock:
            return key in self._plans

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when never queried).

        The ``hits``/``misses`` pair is snapshotted under the lock so a
        concurrent admission cannot be observed between the two reads.
        """
        with self._lock:
            hits, misses = self.hits, self.misses
        total = hits + misses
        return hits / total if total else 0.0

    def plan(self, form: CanonicalForm, scheduler: Scheduler) -> CachedPlan:
        """Schedule ``form.tree`` with ``scheduler``, through the cache.

        The returned plan's schedule addresses the *canonical* tree; callers
        expand it per registered query. A miss schedules outside the lock
        (heuristics can be slow and the result is deterministic, so a racing
        duplicate computation is harmless) and then publishes: the miss is
        counted at insert time, so two racing admissions of the same key
        settle as exactly one miss (the insert winner) and one hit (the
        loser, which is served the winner's entry).
        """
        plan = self.lookup(form.key, scheduler.name)
        if plan is None:
            plan, _ = self.publish(CachedPlan.build(form.key, form.tree, scheduler))
        return plan

    def _insert_locked(self, cache_key: tuple[str, str], plan: CachedPlan) -> None:
        """Insert + evict under the caller's lock, keeping the key index true."""
        self._plans[cache_key] = plan
        self._by_key.setdefault(cache_key[0], set()).add(cache_key[1])
        while len(self._plans) > self.capacity:
            (evicted_key, evicted_name), _ = self._plans.popitem(last=False)
            self._discard_index(evicted_key, evicted_name)
            self.evictions += 1

    def _discard_index(self, key: str, scheduler_name: str) -> None:
        names = self._by_key.get(key)
        if names is not None:
            names.discard(scheduler_name)
            if not names:
                del self._by_key[key]

    def lookup(self, key: str, scheduler_name: str) -> CachedPlan | None:
        """Counted read half of the read-through protocol.

        A hit is counted here, because a caller that finds a plan does not
        follow up with :meth:`publish`: :meth:`plan` is exactly (``lookup``
        hit) or (``lookup`` miss + ``publish``). A lookup miss is
        deliberately *not* counted here: the miss belongs to the insert
        (see :meth:`plan`'s race note), so two callers racing on the same
        key settle as one miss and one hit.
        """
        with self._lock:
            plan = self._plans.get((key, scheduler_name))
            if plan is not None:
                self.hits += 1
                self._plans.move_to_end((key, scheduler_name))
            return plan

    def publish(self, plan: CachedPlan) -> tuple[CachedPlan, bool]:
        """Counted write half of the read-through protocol.

        Inserts ``plan`` built after a :meth:`lookup` miss and returns
        ``(winner, inserted)``: on a racing insert of the same key the
        existing entry wins and the caller is served a hit.
        """
        cache_key = (plan.key, plan.scheduler_name)
        with self._lock:
            existing = self._plans.get(cache_key)
            if existing is not None:
                self.hits += 1
                self._plans.move_to_end(cache_key)
                return existing, False
            self.misses += 1
            self._insert_locked(cache_key, plan)
            return plan, True

    def invalidate(self, key: str) -> int:
        """Drop every cached plan for canonical tree ``key``; returns count dropped.

        O(schedulers cached for ``key``) via the per-key index — independent
        of cache size, so replan storms on a large cache cannot stall
        concurrent admissions on the shared lock.
        """
        with self._lock:
            names = self._by_key.pop(key, None)
            if not names:
                return 0
            for scheduler_name in names:
                del self._plans[(key, scheduler_name)]
            return len(names)

    def clear(self) -> None:
        with self._lock:
            self._plans.clear()
            self._by_key.clear()

    def stats(self) -> dict[str, float]:
        """Counter snapshot for metrics export (one consistent view)."""
        with self._lock:
            hits, misses = self.hits, self.misses
            total = hits + misses
            return {
                "size": float(len(self._plans)),
                "capacity": float(self.capacity),
                "hits": float(hits),
                "misses": float(misses),
                "evictions": float(self.evictions),
                "hit_rate": hits / total if total else 0.0,
            }
