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

The form is computed in one pass over plain ``(stream, items, prob)``
tuples: the key hashes the same JSON payload
:func:`~repro.lang.serialize.tree_to_canonical_json` writes for the
canonical tree with quantized probabilities, and the canonical
:class:`~repro.core.tree.DnfTree` itself (:attr:`CanonicalForm.tree`) is
built only when something reads it — a plan-cache miss or a re-plan. An
admission that hits the plan cache builds no tree at all.

The canonical form remembers, for every canonical leaf, which original
global leaf indices it covers, so a schedule computed once on the canonical
tree transfers to every isomorphic original via :meth:`CanonicalForm.expand_schedule`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Sequence, Union

from repro.core.leaf import Leaf
from repro.core.schedule import Schedule, validate_schedule
from repro.core.tree import AndTree, DnfTree, QueryTree
from repro.errors import InvalidTreeError

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

#: The encoder of ``tree_to_canonical_json`` (``json.dumps`` with sorted keys
#: and compact separators), built once.
_PAYLOAD_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"))

#: A canonical leaf as plain data: ``(stream, items, prob)``.
CanonicalLeaf = tuple[str, int, float]


@dataclass(frozen=True)
class CanonicalForm:
    """A tree's canonical identity plus the leaf mapping back to the original.

    Attributes
    ----------
    key:
        Stable hex digest identifying the canonical tree (including costs).
        Equal for isomorphic trees, distinct otherwise.
    ands:
        The canonical AND nodes (sorted, deduplicated), each a tuple of
        ``(stream, items, prob)`` leaves with exact (unquantized)
        probabilities.
    costs:
        ``(stream, cost per item)`` pairs for the streams the canonical
        tree uses, sorted by stream.
    leaf_map:
        ``leaf_map[g]`` is the tuple of *original-tree* global leaf indices
        covered by canonical leaf ``g`` (length > 1 when duplicates were
        folded).
    original_size:
        Leaf count of the original tree (for schedule validation).

    :attr:`tree` is the canonical :class:`DnfTree` schedulers run on, built
    from :attr:`ands` and :attr:`costs` on first read.
    """

    key: str
    ands: tuple[tuple[CanonicalLeaf, ...], ...]
    costs: tuple[tuple[str, float], ...]
    leaf_map: tuple[tuple[int, ...], ...]
    original_size: int

    @cached_property
    def tree(self) -> DnfTree:
        """The canonical :class:`DnfTree` (sorted, deduplicated)."""
        return DnfTree(
            [[Leaf(*leaf) for leaf in group] for group in self.ands], dict(self.costs)
        )

    @property
    def deduped(self) -> bool:
        """True when at least two original leaves were folded together."""
        return len(self.leaf_map) < self.original_size

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
        if len(probs) != len(self.leaf_map):
            raise InvalidTreeError(
                f"need {len(self.leaf_map)} probabilities, got {len(probs)}"
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
        ``schedule`` must be a permutation of the canonical leaves.
        """
        schedule = validate_schedule(len(self.leaf_map), schedule)
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
    # Per AND node: sort the leaves by (stream, items, quantized prob), ties
    # in declaration order, then fold each run of equal sort keys into one
    # pseudo-leaf whose probability is the run's product, left to right.
    # Probabilities compare quantized (round(prob, 12), as quantize_prob):
    # exact float == would split isomorphs differing by arithmetic noise into
    # distinct keys. Per AND node, ``groups`` holds its leaves' sort keys,
    # its canonical leaves and the original leaves each covers.
    groups: list[
        tuple[tuple[CanonicalLeaf, ...], tuple[CanonicalLeaf, ...], list[tuple[int, ...]]]
    ] = []
    first = 0
    for group in dnf.ands:
        rows = sorted(
            [
                (leaf.stream, leaf.items, round(leaf.prob, _PROB_DECIMALS), g, leaf.prob)
                for g, leaf in enumerate(group, first)
            ]
        )
        first += len(group)
        keys: list[CanonicalLeaf] = []
        leaves: list[CanonicalLeaf] = []
        covered: list[tuple[int, ...]] = []
        for stream, items, quantized, g, prob in rows:
            if keys and keys[-1] == (stream, items, quantized):
                leaves[-1] = (stream, items, leaves[-1][2] * prob)
                covered[-1] += (g,)
            else:
                keys.append((stream, items, quantized))
                leaves.append((stream, items, prob))
                covered.append((g,))
        # The sort key of a folded leaf is its product probability, quantized.
        if len(covered) < len(rows):
            keys = [
                (stream, items, round(prob, _PROB_DECIMALS)) if len(run) > 1 else key
                for key, (stream, items, prob), run in zip(keys, leaves, covered)
            ]
        groups.append((tuple(keys), tuple(leaves), covered))
    # Sort AND nodes by their canonical leaf keys, ties in declaration order.
    groups.sort(key=itemgetter(0))
    leaf_map: list[tuple[int, ...]] = []
    for _, _, covered in groups:
        leaf_map.extend(covered)
    used = {leaf[0] for _, leaves, _ in groups for leaf in leaves}
    costs = tuple((name, dnf.costs[name]) for name in sorted(used))
    # The key hashes tree_to_canonical_json's payload for the canonical tree
    # with quantized probabilities, so isomorphs whose probs differ only by
    # float-arithmetic noise land on one key. The canonical leaves keep the
    # exact probabilities (schedulers and re-planning see unrounded values).
    payload = _PAYLOAD_JSON.encode(
        {
            "type": "dnf-tree",
            "ands": sorted(tuple(sorted(keys)) for keys, _, _ in groups),
            "costs": dict(costs),
        }
    )
    return CanonicalForm(
        key=hashlib.sha256(payload.encode("utf-8")).hexdigest(),
        ands=tuple(leaves for _, leaves, _ in groups),
        costs=costs,
        leaf_map=tuple(leaf_map),
        original_size=dnf.size,
    )


def canonical_key(tree: TreeLike) -> str:
    """Shorthand for ``canonicalize(tree).key``."""
    return canonicalize(tree).key
