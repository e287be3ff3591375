"""LRU plan cache: pay the scheduling cost once per canonical query.

Scheduling is the expensive part of admitting a query (the dynamic
AND-ordered heuristics re-evaluate Proposition 2 prefixes; the exhaustive
optimum is exponential). In a population of millions of users the same query
shapes recur constantly, so the serving layer caches *canonical* schedules:
the key is ``(canonical tree key, scheduler name)`` and the value is the
schedule of the canonical tree, which :meth:`~repro.service.canonical.CanonicalForm.expand_schedule`
translates to each registered original.

The cache is a plain ``OrderedDict`` LRU guarded by a lock — safe to share
between a server and background admission threads, and between thread
shards. A server *pins* the shape of every resident query, and eviction
passes over pinned plans: a shape that still has residents stays cached, so
its next isomorph is a hit however many other shapes come and go.
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
        Maximum number of cached plans; on overflow the least-recently-used
        entry that no resident pins (:meth:`pin`) is evicted. Pinned plans
        are never evicted, so while more shapes than ``capacity`` are
        resident the cache holds them all.
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
        #: Residents per ``(key, scheduler name)``, whether or not a plan is
        #: cached for it, and the cached plans nobody pins, in LRU order:
        #: the eviction candidates.
        self._pins: dict[tuple[str, str], int] = {}
        self._idle: OrderedDict[tuple[str, str], None] = OrderedDict()
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
        # The new plan is no eviction candidate of its own insert: its
        # admission pins it next.
        self._evict_locked()
        if cache_key not in self._pins:
            self._idle[cache_key] = None

    def _evict_locked(self) -> None:
        """Evict least-recently-used unpinned plans while over capacity."""
        while len(self._plans) > self.capacity and self._idle:
            evicted, _ = self._idle.popitem(last=False)
            del self._plans[evicted]
            self._discard_index(*evicted)
            self.evictions += 1

    def pin(self, key: str, scheduler_name: str) -> None:
        """Count one more resident of ``key`` planned by ``scheduler_name``."""
        cache_key = (key, scheduler_name)
        with self._lock:
            self._pins[cache_key] = self._pins.get(cache_key, 0) + 1
            self._idle.pop(cache_key, None)

    def unpin(self, key: str, scheduler_name: str) -> None:
        """Count one resident fewer; the last one's plan becomes evictable."""
        cache_key = (key, scheduler_name)
        with self._lock:
            left = self._pins[cache_key] - 1
            if left:
                self._pins[cache_key] = left
                return
            del self._pins[cache_key]
            if cache_key in self._plans:
                self._idle[cache_key] = None
                self._evict_locked()

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
                self._touch_locked((key, scheduler_name))
            return plan

    def _touch_locked(self, cache_key: tuple[str, str]) -> None:
        """Mark a plan most recently used (only unpinned plans are ranked)."""
        if cache_key in self._idle:
            self._idle.move_to_end(cache_key)

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
                self._touch_locked(cache_key)
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
                self._idle.pop((key, scheduler_name), None)
            return len(names)

    def clear(self) -> None:
        """Drop every cached plan; the pins stay, as their residents do."""
        with self._lock:
            self._plans.clear()
            self._by_key.clear()
            self._idle.clear()

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
