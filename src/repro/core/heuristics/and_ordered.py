"""AND-ordered heuristics (paper §IV-D, second family).

These exploit Theorem 2 (some optimal schedule is depth-first) and
Algorithm 1 (optimal within one AND node): each AND node's leaves are ordered
by Algorithm 1, the node's expected cost ``C`` and success probability ``p``
are computed for that order, and the AND *blocks* are then sorted:

* decreasing ``p`` — maximize the chance of short-circuiting the OR early;
* increasing ``C`` — cheapest AND first;
* increasing ``C/p`` — cheapest per unit of success probability.

The last two exist in two flavours (paper's "static"/"dynamic"):

* **static** — each AND's cost is computed in isolation, as if it were the
  only child of the OR;
* **dynamic** — ANDs are picked one at a time, and each candidate's cost is
  its *marginal* expected cost given the ANDs already scheduled — i.e.
  accounting for the probability that items it needs were already acquired —
  computed with the Proposition 2 prefix machinery
  (:meth:`~repro.core.cost.DnfPrefixCost.peek_block`).

The paper's experiments find "AND-ordered, increasing C/p, dynamic" to be the
best heuristic overall.
"""

from __future__ import annotations

import math
from typing import ClassVar

from repro.core.andtree_optimal import algorithm1_order
from repro.core.cost import DnfPrefixCost, and_tree_cost
from repro.core.heuristics.base import Scheduler, register_scheduler
from repro.core.schedule import Schedule
from repro.core.tree import DnfTree

__all__ = [
    "and_block_plan",
    "AndOrderedDecreasingP",
    "AndOrderedIncreasingCStatic",
    "AndOrderedIncreasingCDynamic",
    "AndOrderedIncreasingCOverPStatic",
    "AndOrderedIncreasingCOverPDynamic",
]

#: One AND block's plan: ``(gindices, isolated cost, success probability)``.
BlockPlan = tuple[list[int], float, float]


def and_block_plan(tree: DnfTree, and_index: int) -> BlockPlan:
    """Plan one AND node in isolation.

    Returns ``(gindices, cost, prob)``: the node's leaves as global indices in
    Algorithm-1 order, the expected cost of evaluating the node alone from an
    empty cache, and its success probability.
    """
    and_tree = tree.and_tree(and_index)
    order = algorithm1_order(and_tree)
    cost = and_tree_cost(and_tree, order, validate=False)
    gindices = [tree.gindex(and_index, j) for j in order]
    return gindices, cost, tree.and_success_prob(and_index)


def _block_plans(tree: DnfTree) -> list[BlockPlan]:
    """All AND blocks' plans, in AND-index order."""
    return [and_block_plan(tree, i) for i in range(tree.n_ands)]


def _ratio(cost: float, prob: float) -> float:
    """``C/p`` with the conventional guards for ``p = 0``."""
    if prob <= 0.0:
        return math.inf if cost > 0.0 else 0.0
    return cost / prob


class _StaticAndOrdered(Scheduler):
    """Sort isolated AND blocks by a (cost, prob) key; concatenate."""

    def _key(self, cost: float, prob: float) -> float:
        raise NotImplementedError

    def schedule(self, tree: DnfTree) -> Schedule:
        plans = _block_plans(tree)
        order = sorted(
            range(tree.n_ands),
            key=lambda i: (self._key(plans[i][1], plans[i][2]), i),
        )
        schedule: list[int] = []
        for i in order:
            schedule.extend(plans[i][0])
        return tuple(schedule)


class _DynamicAndOrdered(Scheduler):
    """Greedy block selection with marginal (prefix-aware) AND costs."""

    def _key(self, cost: float, prob: float) -> float:
        raise NotImplementedError

    def schedule(self, tree: DnfTree) -> Schedule:
        plans = _block_plans(tree)
        prefix = DnfPrefixCost(tree)
        remaining = list(range(tree.n_ands))
        schedule: list[int] = []
        while remaining:
            best_and = remaining[0]
            best_key = math.inf
            for i in remaining:
                marginal = prefix.peek_block(plans[i][0])
                key = self._key(marginal, plans[i][2])
                if key < best_key:
                    best_key = key
                    best_and = i
            remaining.remove(best_and)
            for g in plans[best_and][0]:
                prefix.push(g)
            schedule.extend(plans[best_and][0])
        return tuple(schedule)


@register_scheduler
class AndOrderedDecreasingP(_StaticAndOrdered):
    """ANDs by decreasing success probability (static only, as in the paper)."""

    name: ClassVar[str] = "and-dec-p"
    paper_label: ClassVar[str] = "AND-ord., dec. p, stat"

    def _key(self, cost: float, prob: float) -> float:
        return -prob


@register_scheduler
class AndOrderedIncreasingCStatic(_StaticAndOrdered):
    """ANDs by increasing isolated expected cost."""

    name: ClassVar[str] = "and-inc-c-static"
    paper_label: ClassVar[str] = "AND-ord., inc. C, stat"

    def _key(self, cost: float, prob: float) -> float:
        return cost


@register_scheduler
class AndOrderedIncreasingCDynamic(_DynamicAndOrdered):
    """ANDs by increasing *marginal* expected cost given the chosen prefix."""

    name: ClassVar[str] = "and-inc-c-dynamic"
    paper_label: ClassVar[str] = "AND-ord., inc. C, dyn"

    def _key(self, cost: float, prob: float) -> float:
        return cost


@register_scheduler
class AndOrderedIncreasingCOverPStatic(_StaticAndOrdered):
    """ANDs by increasing isolated cost / success probability."""

    name: ClassVar[str] = "and-inc-c-over-p-static"
    paper_label: ClassVar[str] = "AND-ord., inc. C/p, stat"

    def _key(self, cost: float, prob: float) -> float:
        return _ratio(cost, prob)


@register_scheduler
class AndOrderedIncreasingCOverPDynamic(_DynamicAndOrdered):
    """ANDs by increasing marginal cost / success probability — the paper's winner."""

    name: ClassVar[str] = "and-inc-c-over-p-dynamic"
    paper_label: ClassVar[str] = "AND-ord., inc. C/p, dyn"

    def _key(self, cost: float, prob: float) -> float:
        return _ratio(cost, prob)
