"""Plan cache: hit/miss accounting, LRU eviction, scheduler separation."""

from __future__ import annotations

import threading
from collections import OrderedDict

import pytest

from repro import DnfTree, Leaf
from repro.core.cost import dnf_schedule_cost
from repro.core.heuristics import get_scheduler
from repro.errors import ReproError
from repro.service import PlanCache, canonicalize


def make_tree(prob: float) -> DnfTree:
    return DnfTree(
        [[Leaf("A", 2, prob), Leaf("B", 1, 0.5)], [Leaf("C", 1, 0.3)]],
        costs={"A": 1.0, "B": 2.0, "C": 0.5},
    )


@pytest.fixture
def scheduler():
    return get_scheduler("and-inc-c-over-p-dynamic")


class TestPlanCache:
    def test_first_lookup_misses_then_hits(self, scheduler):
        cache = PlanCache(capacity=4)
        form = canonicalize(make_tree(0.4))
        first = cache.plan(form, scheduler)
        second = cache.plan(form, scheduler)
        assert first is second
        assert (cache.hits, cache.misses) == (1, 1)
        assert cache.hit_rate == pytest.approx(0.5)

    def test_plan_matches_direct_scheduling(self, scheduler):
        cache = PlanCache()
        form = canonicalize(make_tree(0.4))
        plan = cache.plan(form, scheduler)
        assert plan.schedule == tuple(scheduler.schedule(form.tree))
        assert plan.cost == pytest.approx(
            dnf_schedule_cost(form.tree, plan.schedule)
        )

    def test_distinct_trees_occupy_distinct_slots(self, scheduler):
        cache = PlanCache(capacity=8)
        cache.plan(canonicalize(make_tree(0.4)), scheduler)
        cache.plan(canonicalize(make_tree(0.6)), scheduler)
        assert len(cache) == 2
        assert cache.misses == 2

    def test_distinct_schedulers_cached_separately(self):
        cache = PlanCache()
        form = canonicalize(make_tree(0.4))
        cache.plan(form, get_scheduler("and-inc-c-over-p-dynamic"))
        cache.plan(form, get_scheduler("leaf-inc-c"))
        assert len(cache) == 2
        assert cache.misses == 2

    def test_lru_eviction_order(self, scheduler):
        cache = PlanCache(capacity=2)
        forms = [canonicalize(make_tree(p)) for p in (0.2, 0.4, 0.6)]
        cache.plan(forms[0], scheduler)
        cache.plan(forms[1], scheduler)
        cache.plan(forms[0], scheduler)  # refresh 0 -> 1 is now LRU
        cache.plan(forms[2], scheduler)  # evicts 1
        assert cache.evictions == 1
        assert (forms[0].key, scheduler.name) in cache
        assert (forms[1].key, scheduler.name) not in cache
        assert (forms[2].key, scheduler.name) in cache

    def test_invalidate_drops_all_scheduler_variants(self, scheduler):
        cache = PlanCache()
        form = canonicalize(make_tree(0.4))
        cache.plan(form, scheduler)
        cache.plan(form, get_scheduler("leaf-inc-c"))
        assert cache.invalidate(form.key) == 2
        assert len(cache) == 0

    def test_capacity_must_be_positive(self):
        with pytest.raises(ReproError):
            PlanCache(capacity=0)

    def test_stats_snapshot(self, scheduler):
        cache = PlanCache(capacity=4)
        form = canonicalize(make_tree(0.4))
        cache.plan(form, scheduler)
        cache.plan(form, scheduler)
        stats = cache.stats()
        assert stats["hits"] == 1.0
        assert stats["misses"] == 1.0
        assert stats["size"] == 1.0
        assert stats["hit_rate"] == pytest.approx(0.5)


class TestPlanCacheConcurrency:
    """Regression: counter races under concurrent admissions.

    Before the fix, ``hit_rate`` read ``hits``/``misses`` without the lock
    and every thread racing through the unlocked miss path counted its own
    miss — so N racing admissions of one shape could record N misses even
    though the cache ends up holding (and serving) a single entry.
    """

    def test_racing_admissions_single_count_per_shape(self, scheduler):
        cache = PlanCache(capacity=64)
        forms = [canonicalize(make_tree(p)) for p in (0.2, 0.4, 0.6, 0.8)]
        n_threads, per_thread = 8, 40
        barrier = threading.Barrier(n_threads)
        errors: list[Exception] = []

        def hammer(thread_index: int) -> None:
            try:
                barrier.wait()
                for i in range(per_thread):
                    form = forms[(thread_index + i) % len(forms)]
                    plan = cache.plan(form, scheduler)
                    assert plan.key == form.key
                    cache.hit_rate  # exercise the snapshot path concurrently
            except Exception as exc:  # pragma: no cover - only on regression
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(t,)) for t in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        total_lookups = n_threads * per_thread
        stats = cache.stats()
        # Exactly one miss per distinct shape, no matter how many threads
        # raced the first computation; every other lookup settled as a hit.
        assert stats["misses"] == float(len(forms))
        assert stats["hits"] == float(total_lookups - len(forms))
        assert stats["evictions"] == 0.0
        assert len(cache) == len(forms)
        assert cache.hit_rate == pytest.approx(
            (total_lookups - len(forms)) / total_lookups
        )

    def test_racing_insert_returns_first_entry(self, scheduler):
        """The loser of a compute race is served the winner's plan object."""
        from collections import OrderedDict

        class OneMissDict(OrderedDict):
            """Pretends the entry is absent for exactly one lookup —
            the loser thread's view before the winner's insert landed."""

            misses_left = 1

            def get(self, key, default=None):
                if self.misses_left:
                    self.misses_left -= 1
                    return default
                return super().get(key, default)

        cache = PlanCache(capacity=8)
        form = canonicalize(make_tree(0.4))
        winner = cache.plan(form, scheduler)
        cache._plans = OneMissDict(cache._plans)
        loser = cache.plan(form, scheduler)
        assert loser is winner  # insert-time check found the existing entry
        assert cache.stats()["misses"] == 1.0  # still single-counted
        assert cache.stats()["hits"] == 1.0  # the loser settled as a hit


class TestReadThroughProtocol:
    """``lookup``/``publish``: the split halves of ``plan`` used by process
    workers over the command channel. The accounting invariant: any
    interleaving of (lookup miss -> compute -> publish) pairs records exactly
    what the same sequence of in-process ``plan`` calls would have."""

    def test_lookup_miss_counts_nothing(self, scheduler):
        cache = PlanCache(capacity=4)
        form = canonicalize(make_tree(0.4))
        assert cache.lookup(form.key, scheduler.name) is None
        assert (cache.hits, cache.misses) == (0, 0)

    def test_publish_then_lookup_matches_plan_accounting(self, scheduler):
        split = PlanCache(capacity=4)
        fused = PlanCache(capacity=4)
        form = canonicalize(make_tree(0.4))

        computed = fused.plan(form, scheduler)  # reference: one plan() miss
        assert split.lookup(form.key, scheduler.name) is None
        winner, inserted = split.publish(computed)
        assert inserted and winner is computed
        # reference: one plan() hit
        fused.plan(form, scheduler)
        hit = split.lookup(form.key, scheduler.name)
        assert hit is computed
        assert split.stats() == fused.stats()

    def test_publish_race_serves_existing_entry_as_hit(self, scheduler):
        cache = PlanCache(capacity=4)
        form = canonicalize(make_tree(0.4))
        first = cache.plan(form, scheduler)
        # A worker that lost the race publishes its own computation of the
        # same shape; the resident entry wins and the publish settles as a
        # hit — identical to plan()'s insert-time re-check.
        rival = cache.plan(canonicalize(make_tree(0.4)), scheduler)
        assert rival is first
        winner, inserted = cache.publish(first)
        assert winner is first and not inserted
        assert cache.stats()["misses"] == 1.0

    def test_publish_respects_capacity(self, scheduler):
        cache = PlanCache(capacity=2)
        plans = [
            PlanCache(capacity=1).plan(canonicalize(make_tree(p)), scheduler)
            for p in (0.2, 0.4, 0.6)
        ]
        for plan in plans:
            cache.publish(plan)
        assert len(cache) == 2
        assert cache.evictions == 1
        assert (plans[0].key, scheduler.name) not in cache

    def test_lookup_refreshes_lru_position(self, scheduler):
        cache = PlanCache(capacity=2)
        forms = [canonicalize(make_tree(p)) for p in (0.2, 0.4, 0.6)]
        cache.plan(forms[0], scheduler)
        cache.plan(forms[1], scheduler)
        cache.lookup(forms[0].key, scheduler.name)  # refresh 0 -> 1 is LRU
        cache.plan(forms[2], scheduler)
        assert (forms[0].key, scheduler.name) in cache
        assert (forms[1].key, scheduler.name) not in cache


class _NoIteration(OrderedDict):
    """An OrderedDict that forbids whole-dict scans — the invalidate
    regression guard: the old implementation collected matching keys with a
    full ``for key in self._plans`` sweep under the lock."""

    def __iter__(self):
        raise AssertionError("invalidate must not scan the whole plan cache")

    def keys(self):
        raise AssertionError("invalidate must not scan the whole plan cache")


class TestIndexedInvalidate:
    def test_invalidate_does_not_scan_the_cache(self, scheduler):
        cache = PlanCache(capacity=64)
        forms = [canonicalize(make_tree(0.1 + i * 0.08)) for i in range(8)]
        for form in forms:
            cache.plan(form, scheduler)
        cache._plans = _NoIteration(cache._plans.items())
        assert cache.invalidate(forms[3].key) == 1
        assert cache.invalidate(forms[3].key) == 0  # already gone, still no scan

    def test_index_survives_eviction(self, scheduler):
        cache = PlanCache(capacity=2)
        forms = [canonicalize(make_tree(p)) for p in (0.2, 0.4, 0.6)]
        for form in forms:
            cache.plan(form, scheduler)
        # forms[0] was evicted; its index entry must be gone too.
        assert cache.invalidate(forms[0].key) == 0
        assert cache.invalidate(forms[1].key) == 1
        assert cache.invalidate(forms[2].key) == 1

    def test_index_tracks_scheduler_variants(self, scheduler):
        cache = PlanCache(capacity=8)
        form = canonicalize(make_tree(0.4))
        cache.plan(form, scheduler)
        cache.plan(form, get_scheduler("leaf-inc-c"))
        assert cache.invalidate(form.key) == 2
        assert len(cache) == 0

    def test_concurrent_invalidate_keeps_index_consistent(self, scheduler):
        cache = PlanCache(capacity=128)
        forms = [canonicalize(make_tree(0.05 + i * 0.06)) for i in range(12)]
        barrier = threading.Barrier(6)
        errors: list[Exception] = []

        def churn(thread_index: int) -> None:
            try:
                barrier.wait()
                for i in range(60):
                    form = forms[(thread_index + i) % len(forms)]
                    if i % 5 == 4:
                        cache.invalidate(form.key)
                    else:
                        cache.plan(form, scheduler)
            except Exception as exc:  # pragma: no cover - only on regression
                errors.append(exc)

        threads = [
            threading.Thread(target=churn, args=(t,)) for t in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        indexed = {
            (key, name)
            for key, names in cache._by_key.items()
            for name in names
        }
        assert indexed == set(cache._plans)


class TestPinnedShapes:
    """A resident's shape stays cached: eviction passes over pinned plans."""

    def test_pinned_plan_survives_eviction_until_unpinned(self, scheduler):
        cache = PlanCache(capacity=2)
        forms = [canonicalize(make_tree(p)) for p in (0.2, 0.4, 0.6, 0.8)]
        cache.plan(forms[0], scheduler)
        cache.pin(forms[0].key, scheduler.name)
        for form in forms[1:]:
            cache.plan(form, scheduler)
        # The least recently used plan is pinned: the next-oldest goes.
        assert (forms[0].key, scheduler.name) in cache
        assert (forms[1].key, scheduler.name) not in cache
        assert len(cache) == 2
        # Unpinned, it is the most recently used plan, evicted second.
        cache.unpin(forms[0].key, scheduler.name)
        cache.plan(forms[1], scheduler)
        assert (forms[0].key, scheduler.name) in cache
        cache.plan(forms[2], scheduler)
        assert (forms[0].key, scheduler.name) not in cache

    def test_every_resident_shape_stays_when_over_capacity(self, scheduler):
        """More pinned shapes than capacity: none is evicted or rebuilt."""
        cache = PlanCache(capacity=2)
        forms = [canonicalize(make_tree(p)) for p in (0.1, 0.3, 0.5, 0.7)]
        for form in forms:
            cache.plan(form, scheduler)
            cache.pin(form.key, scheduler.name)
        for form in forms:
            cache.plan(form, scheduler)
        assert (cache.misses, cache.hits, cache.evictions) == (4, 4, 0)

    def test_servers_sharing_a_cache_count_their_residents_together(self):
        """Thread shards share one cache: a shape stays pinned until its last
        resident on any server leaves."""
        from repro.service import QueryServer, synthetic_registry

        cache = PlanCache(capacity=1)
        registry = synthetic_registry(3, seed=0)
        a, b, c = registry.names[:3]
        one = DnfTree([[Leaf(a, 1, 0.5)], [Leaf(b, 1, 0.5)]])
        other = DnfTree([[Leaf(c, 2, 0.5), Leaf(a, 1, 0.4)]])
        key = canonicalize(one).key
        left = QueryServer(registry, plan_cache=cache)
        right = QueryServer(registry, plan_cache=cache)
        left.register("l", one)
        right.register("r", one)
        left.deregister("l")
        right.register("o", other)  # over capacity: "one" is still pinned
        assert any(k == key for k, _ in cache._plans)
        right.deregister("r")
        right.register("o2", other)
        assert not any(k == key for k, _ in cache._plans)
