"""The original O(probes x queries) shared-plan greedy, kept as a test oracle.

Every step rescans every query's next-up leaf and takes the strict minimum of
``(marginal_cost / (failure_prob + eps), -remaining_stream_demand)`` in
registration order. :func:`repro.service.shared_plan.merge_schedules` must
return exactly this plan — same probes, same order, same planned windows —
as ``(slot, gindex)`` pairs over the queries in registration order.
"""

from __future__ import annotations

from typing import Mapping

from repro.core.schedule import Schedule
from repro.errors import StreamError
from repro.service.shared_plan import _EPSILON, SharedPlan


def reference_merge(
    trees: Mapping[str, object],
    schedules: Mapping[str, Schedule],
    costs: Mapping[str, float],
) -> SharedPlan:
    if set(trees) != set(schedules):
        raise StreamError(
            f"trees and schedules disagree: {sorted(trees)} vs {sorted(schedules)}"
        )
    names = list(trees)
    leaves = {name: trees[name].leaves for name in names}
    pointers = {name: 0 for name in names}
    demand: dict[str, int] = {}
    for name in names:
        for g in schedules[name]:
            leaf = leaves[name][g]
            demand[leaf.stream] = demand.get(leaf.stream, 0) + 1
    planned: dict[str, int] = {}
    order: list[tuple[int, int]] = []
    total = sum(len(schedules[name]) for name in names)
    while len(order) < total:
        best_slot: int | None = None
        best_score: tuple[float, int] | None = None
        for slot, name in enumerate(names):
            ptr = pointers[name]
            if ptr >= len(schedules[name]):
                continue
            leaf = leaves[name][schedules[name][ptr]]
            missing = max(0, leaf.items - planned.get(leaf.stream, 0))
            marginal = missing * costs.get(leaf.stream, 1.0)
            score = (marginal / (leaf.fail + _EPSILON), -demand[leaf.stream])
            if best_score is None or score < best_score:
                best_score = score
                best_slot = slot
        assert best_slot is not None
        best_name = names[best_slot]
        g = schedules[best_name][pointers[best_name]]
        leaf = leaves[best_name][g]
        planned[leaf.stream] = max(planned.get(leaf.stream, 0), leaf.items)
        demand[leaf.stream] -= 1
        pointers[best_name] += 1
        order.append((best_slot, g))
    return SharedPlan(names=tuple(names), order=tuple(order), planned_items=planned)
