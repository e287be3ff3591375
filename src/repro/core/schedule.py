"""Schedules: linear leaf-evaluation orders (the paper's *linear strategies*).

A schedule for a tree with ``m`` leaves is a permutation of the global leaf
indices ``0..m-1``. For DNF trees, *depth-first* schedules — those that
process AND nodes one at a time — play a special role: Theorem 2 of the paper
proves that some optimal schedule is always depth-first, which is what makes
exhaustive search (and the AND-ordered heuristics) tractable.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.tree import AndTree, DnfTree, QueryTree
from repro.errors import InvalidScheduleError

__all__ = [
    "Schedule",
    "validate_schedule",
    "identity_schedule",
    "random_schedule",
    "is_depth_first",
    "depth_first_blocks",
    "make_depth_first",
    "as_depth_first_orders",
]

#: A schedule is a tuple of global leaf indices.
Schedule = tuple[int, ...]

_TreeLike = AndTree | DnfTree | QueryTree


def _tree_size(tree: _TreeLike) -> int:
    return len(tree.leaves)


def validate_schedule(tree: _TreeLike | int, schedule: Sequence[int]) -> Schedule:
    """Check that ``schedule`` is a permutation of the tree's leaf indices.

    ``tree`` may also be given as its leaf count. Returns the schedule as a
    canonical tuple; raises :class:`~repro.errors.InvalidScheduleError`
    otherwise.
    """
    size = tree if isinstance(tree, int) else _tree_size(tree)
    sched = tuple(int(idx) for idx in schedule)
    if len(sched) != size:
        raise InvalidScheduleError(
            f"schedule has {len(sched)} entries but the tree has {size} leaves"
        )
    if sorted(sched) != list(range(size)):
        raise InvalidScheduleError(f"schedule {sched!r} is not a permutation of 0..{size - 1}")
    return sched


def identity_schedule(tree: _TreeLike) -> Schedule:
    """The declaration-order schedule ``(0, 1, ..., m-1)``."""
    return tuple(range(_tree_size(tree)))


def random_schedule(tree: _TreeLike, rng: np.random.Generator) -> Schedule:
    """A uniformly random permutation of the leaves."""
    return tuple(int(i) for i in rng.permutation(_tree_size(tree)))


def is_depth_first(tree: DnfTree, schedule: Sequence[int]) -> bool:
    """True iff the schedule evaluates AND nodes one by one (Theorem 2 shape).

    Formally: the sequence of AND indices visited by the schedule has each
    AND's leaves in one contiguous block.
    """
    sched = validate_schedule(tree, schedule)
    seen_complete: set[int] = set()
    current = -1
    count = 0
    for g in sched:
        a = tree.and_of(g)
        if a == current:
            count += 1
        else:
            if a in seen_complete:
                return False
            if current >= 0 and count != len(tree.ands[current]):
                return False
            if current >= 0:
                seen_complete.add(current)
            current = a
            count = 1
    return count == len(tree.ands[current])


def depth_first_blocks(tree: DnfTree, schedule: Sequence[int]) -> list[tuple[int, list[int]]]:
    """Decompose a depth-first schedule into ``(and_index, [positions])`` blocks.

    Positions are within-AND leaf positions (the ``j`` of ``l_{i,j}``), in
    evaluation order. Raises if the schedule is not depth-first.
    """
    if not is_depth_first(tree, schedule):
        raise InvalidScheduleError("schedule is not depth-first")
    blocks: list[tuple[int, list[int]]] = []
    for g in schedule:
        a, j = tree.ref(g)
        if blocks and blocks[-1][0] == a:
            blocks[-1][1].append(j)
        else:
            blocks.append((a, [j]))
    return blocks


def make_depth_first(
    tree: DnfTree,
    and_order: Sequence[int],
    leaf_orders: Sequence[Sequence[int]] | None = None,
) -> Schedule:
    """Build a depth-first schedule from an AND order and per-AND leaf orders.

    Parameters
    ----------
    and_order:
        Permutation of ``range(tree.n_ands)`` giving the block order.
    leaf_orders:
        ``leaf_orders[i]`` is the within-AND evaluation order (a permutation
        of positions ``range(m_i)``) for AND node ``i`` — indexed by AND
        *node* id, not by block position. ``None`` means declaration order
        everywhere.
    """
    if sorted(and_order) != list(range(tree.n_ands)):
        raise InvalidScheduleError(
            f"and_order {list(and_order)!r} is not a permutation of the AND nodes"
        )
    schedule: list[int] = []
    for a in and_order:
        size = len(tree.ands[a])
        order = list(range(size)) if leaf_orders is None else list(leaf_orders[a])
        if sorted(order) != list(range(size)):
            raise InvalidScheduleError(
                f"leaf order {order!r} is not a permutation of AND {a}'s positions"
            )
        schedule.extend(tree.gindex(a, j) for j in order)
    return tuple(schedule)


def as_depth_first_orders(
    tree: DnfTree, schedule: Sequence[int]
) -> tuple[list[int], list[list[int]]]:
    """Inverse of :func:`make_depth_first`: recover (and_order, leaf_orders)."""
    blocks = depth_first_blocks(tree, schedule)
    and_order = [a for a, _ in blocks]
    leaf_orders: list[list[int]] = [[] for _ in range(tree.n_ands)]
    for a, positions in blocks:
        leaf_orders[a] = list(positions)
    return and_order, leaf_orders
