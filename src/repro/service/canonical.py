"""Canonical query identities for cross-query plan sharing.

Two users rarely submit byte-identical queries, but they very often submit
*isomorphic* ones: the same leaves declared in a different order, or the same
predicate repeated. Scheduling cost (the expensive part of serving a query)
depends only on the canonical identity, so the serving layer keys its plan
cache on it — "pay one, get hundreds".

:func:`canonicalize` maps any DNF-shaped tree to a :class:`CanonicalForm`:

* leaves inside each AND node are sorted by ``(stream, items, prob)``;
* *identical* leaves inside one AND node are deduplicated into a single
  pseudo-leaf with probability ``p**k``. Under the paper's model (leaves
  are independent, as with a Bernoulli oracle) this is exact: ``k``
  independent copies of the same ``(stream, items, p)`` predicate, evaluated
  back-to-back, cost exactly one window fetch and pass with probability
  ``p**k`` — so for scheduling purposes they *are* one leaf. With a
  data-driven oracle (:class:`~repro.engine.executor.PredicateOracle`) the
  copies are perfectly correlated instead, so the folded probability is an
  under-estimate (the true joint pass probability is ``p``); the schedule
  stays valid, just tuned to the independence assumption;
* AND nodes are sorted by their (already canonical) leaf tuples;
* the cost table is restricted to the streams actually used.

The canonical form remembers, for every canonical leaf, which original
global leaf indices it covers, so a schedule computed once on the canonical
tree transfers to every isomorphic original via :meth:`CanonicalForm.expand_schedule`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence, Union

from repro.core.leaf import Leaf
from repro.core.schedule import Schedule, validate_schedule
from repro.core.tree import AndTree, DnfTree, QueryTree
from repro.errors import InvalidTreeError
from repro.lang.serialize import tree_to_canonical_json

__all__ = ["CanonicalForm", "canonicalize", "canonical_key", "quantize_prob"]

#: Probabilities are compared and keyed at this precision. Float arithmetic
#: on the way into a query (parsers, belief updates, ``p**k`` folds) leaves
#: ~1e-16 noise on semantically identical probabilities; comparing them with
#: exact ``==`` silently splits isomorphic queries into distinct canonical
#: keys and defeats the plan cache. 12 decimals is far below any meaningful
#: selectivity difference and far above accumulated rounding noise.
_PROB_DECIMALS = 12


def quantize_prob(prob: float) -> float:
    """``prob`` rounded to the canonical comparison precision (12 decimals)."""
    return round(float(prob), _PROB_DECIMALS)

TreeLike = Union[AndTree, DnfTree, QueryTree]


@dataclass(frozen=True)
class CanonicalForm:
    """A tree's canonical identity plus the leaf mapping back to the original.

    Attributes
    ----------
    key:
        Stable hex digest identifying the canonical tree (including costs).
        Equal for isomorphic trees, distinct otherwise.
    tree:
        The canonical :class:`DnfTree` (sorted, deduplicated). Schedulers run
        on this tree.
    leaf_map:
        ``leaf_map[g]`` is the tuple of *original-tree* global leaf indices
        covered by canonical leaf ``g`` (length > 1 when duplicates were
        folded).
    original_size:
        Leaf count of the original tree (for schedule validation).
    """

    key: str
    tree: DnfTree
    leaf_map: tuple[tuple[int, ...], ...]
    original_size: int

    @property
    def deduped(self) -> bool:
        """True when at least two original leaves were folded together."""
        return any(len(group) > 1 for group in self.leaf_map)

    @cached_property
    def origin_to_canonical(self) -> tuple[int, ...]:
        """Inverse of :attr:`leaf_map`: original leaf index -> canonical leaf index."""
        inverse = [0] * self.original_size
        for canonical_g, group in enumerate(self.leaf_map):
            for original_g in group:
                inverse[original_g] = canonical_g
        return tuple(inverse)

    @property
    def fold_sizes(self) -> tuple[int, ...]:
        """Number of original leaves folded into each canonical leaf."""
        return tuple(len(group) for group in self.leaf_map)

    def reprobed_tree(self, probs: Sequence[float]) -> DnfTree:
        """The canonical tree with its leaf probabilities replaced.

        ``probs[g]`` becomes canonical leaf ``g``'s success probability —
        the structure (streams, items, AND grouping) is untouched, so a
        schedule of the returned tree is a valid schedule of :attr:`tree`.
        This is what incremental re-planning schedules against.
        """
        if len(probs) != self.tree.size:
            raise InvalidTreeError(
                f"need {self.tree.size} probabilities, got {len(probs)}"
            )
        return _with_leaf_probs(self.tree, probs)

    def reprobed_original(self, tree: DnfTree, base_probs: Sequence[float]) -> DnfTree:
        """An *original* tree re-probed with per-canonical-leaf base probabilities.

        Each original leaf takes the (per-copy) probability of the canonical
        leaf covering it — the original-tree counterpart of
        :meth:`reprobed_tree`, used to carry a re-plan's belief back to the
        registered query.
        """
        if tree.size != self.original_size:
            raise InvalidTreeError(
                f"canonical form covers {self.original_size} leaves, tree has {tree.size}"
            )
        if len(base_probs) != len(self.leaf_map):
            raise InvalidTreeError(
                f"need {len(self.leaf_map)} probabilities, got {len(base_probs)}"
            )
        origin = self.origin_to_canonical
        return _with_leaf_probs(
            tree, [base_probs[origin[g]] for g in range(tree.size)]
        )

    def expand_schedule(self, schedule: Schedule) -> Schedule:
        """Translate a canonical-tree schedule into an original-tree schedule.

        Each canonical leaf expands to its covered original leaves,
        back-to-back (the later copies hit a warm cache, so adjacency
        preserves the canonical schedule's cost structure exactly).
        """
        schedule = validate_schedule(self.tree, schedule)
        expanded: list[int] = []
        for g in schedule:
            expanded.extend(self.leaf_map[g])
        if len(expanded) != self.original_size:
            raise InvalidTreeError(
                f"canonical form covers {len(expanded)} leaves, original has {self.original_size}"
            )
        return tuple(expanded)


def _with_leaf_probs(tree: DnfTree, probs: Sequence[float]) -> DnfTree:
    """``tree`` with leaf ``g``'s probability replaced by ``probs[g]``."""
    groups: list[list[Leaf]] = []
    g = 0
    for group in tree.ands:
        new_group = []
        for leaf in group:
            new_group.append(leaf.with_prob(float(probs[g])))
            g += 1
        groups.append(new_group)
    return DnfTree(groups, dict(tree.costs))


def _as_dnf(tree: TreeLike) -> DnfTree:
    if isinstance(tree, DnfTree):
        return tree
    if isinstance(tree, AndTree):
        return tree.to_dnf()
    if isinstance(tree, QueryTree):
        return tree.as_dnf()
    raise InvalidTreeError(f"cannot canonicalize {type(tree).__name__}")


def canonicalize(tree: TreeLike) -> CanonicalForm:
    """Compute the canonical form of a DNF-shaped tree.

    Accepts :class:`AndTree` (viewed as a one-AND DNF), :class:`DnfTree`,
    and DNF-shaped :class:`QueryTree` (raises otherwise, mirroring
    :meth:`QueryTree.as_dnf`).
    """
    dnf = _as_dnf(tree)
    # Per AND node: sort leaf positions canonically, then fold runs of
    # identical (stream, items, prob) leaves into one pseudo-leaf.
    canon_groups: list[tuple[tuple[Leaf, ...], tuple[tuple[int, ...], ...]]] = []
    for a, group in enumerate(dnf.ands):
        order = sorted(
            range(len(group)),
            key=lambda j: (group[j].stream, group[j].items, quantize_prob(group[j].prob)),
        )
        leaves: list[Leaf] = []
        covered: list[tuple[int, ...]] = []
        for j in order:
            leaf = dnf.ands[a][j]
            g_orig = dnf.gindex(a, j)
            if leaves and (
                leaves[-1].stream == leaf.stream
                and leaves[-1].items == leaf.items
                and _same_base_prob(covered[-1], dnf, leaf)
            ):
                merged = leaves[-1]
                leaves[-1] = Leaf(
                    merged.stream, merged.items, merged.prob * leaf.prob
                )
                covered[-1] = covered[-1] + (g_orig,)
            else:
                leaves.append(Leaf(leaf.stream, leaf.items, leaf.prob))
                covered.append((g_orig,))
        canon_groups.append((tuple(leaves), tuple(covered)))
    # Sort AND nodes by their canonical leaf tuples (stable identity).
    group_order = sorted(
        range(len(canon_groups)),
        key=lambda i: tuple(
            (leaf.stream, leaf.items, quantize_prob(leaf.prob))
            for leaf in canon_groups[i][0]
        ),
    )
    ands = [list(canon_groups[i][0]) for i in group_order]
    leaf_map: list[tuple[int, ...]] = []
    for i in group_order:
        leaf_map.extend(canon_groups[i][1])
    used = {leaf.stream for group in ands for leaf in group}
    costs = {name: dnf.costs[name] for name in sorted(used)}
    canon_tree = DnfTree(ands, costs)
    # The key payload quantizes probabilities to the same precision as the
    # fold/sort comparisons above, so isomorphs whose probs differ only by
    # float-arithmetic noise land on one key. The canonical *tree* keeps the
    # exact probabilities (schedulers and re-planning see unrounded values).
    payload_tree = _with_leaf_probs(
        canon_tree, [quantize_prob(leaf.prob) for leaf in canon_tree.leaves]
    )
    payload = tree_to_canonical_json(payload_tree)
    key = hashlib.sha256(payload.encode("utf-8")).hexdigest()
    return CanonicalForm(
        key=key,
        tree=canon_tree,
        leaf_map=tuple(leaf_map),
        original_size=dnf.size,
    )


def _same_base_prob(covered: tuple[int, ...], dnf: DnfTree, leaf: Leaf) -> bool:
    """True when every original leaf already folded here has ``leaf``'s prob.

    The folded pseudo-leaf carries the *product* probability, so comparing
    against it directly would never match; compare against the original run.
    Probabilities are compared quantized (:func:`quantize_prob`): exact
    float ``==`` split isomorphs differing by arithmetic noise into
    distinct canonical keys.
    """
    first = dnf.leaves[covered[0]]
    return quantize_prob(first.prob) == quantize_prob(leaf.prob)


def canonical_key(tree: TreeLike) -> str:
    """Shorthand for ``canonicalize(tree).key``."""
    return canonicalize(tree).key
