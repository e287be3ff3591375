"""The original tree-building canonicalization, kept as a test oracle.

It builds the canonical :class:`~repro.core.tree.DnfTree` leaf by leaf
(folding duplicates into new :class:`~repro.core.leaf.Leaf` objects), then
re-probes a second copy with quantized probabilities and hashes its
:func:`~repro.lang.serialize.tree_to_canonical_json` payload.
:func:`repro.service.canonical.canonicalize` must give the same key, leaf
map and canonical tree for every DNF-shaped input.
"""

from __future__ import annotations

import hashlib
from typing import NamedTuple, Sequence, Union

from repro.core.leaf import Leaf
from repro.core.tree import AndTree, DnfTree, QueryTree
from repro.lang.serialize import tree_to_canonical_json
from repro.service.canonical import quantize_prob


class ReferenceForm(NamedTuple):
    key: str
    tree: DnfTree
    leaf_map: tuple[tuple[int, ...], ...]
    original_size: int


def _with_leaf_probs(tree: DnfTree, probs: Sequence[float]) -> DnfTree:
    groups: list[list[Leaf]] = []
    g = 0
    for group in tree.ands:
        new_group = []
        for leaf in group:
            new_group.append(leaf.with_prob(float(probs[g])))
            g += 1
        groups.append(new_group)
    return DnfTree(groups, dict(tree.costs))


def _as_dnf(tree: Union[AndTree, DnfTree, QueryTree]) -> DnfTree:
    if isinstance(tree, DnfTree):
        return tree
    if isinstance(tree, AndTree):
        return tree.to_dnf()
    return tree.as_dnf()


def _same_base_prob(covered: tuple[int, ...], dnf: DnfTree, leaf: Leaf) -> bool:
    first = dnf.leaves[covered[0]]
    return quantize_prob(first.prob) == quantize_prob(leaf.prob)


def reference_canonicalize(tree: Union[AndTree, DnfTree, QueryTree]) -> ReferenceForm:
    dnf = _as_dnf(tree)
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
                leaves[-1] = Leaf(merged.stream, merged.items, merged.prob * leaf.prob)
                covered[-1] = covered[-1] + (g_orig,)
            else:
                leaves.append(Leaf(leaf.stream, leaf.items, leaf.prob))
                covered.append((g_orig,))
        canon_groups.append((tuple(leaves), tuple(covered)))
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
    payload_tree = _with_leaf_probs(
        canon_tree, [quantize_prob(leaf.prob) for leaf in canon_tree.leaves]
    )
    payload = tree_to_canonical_json(payload_tree)
    key = hashlib.sha256(payload.encode("utf-8")).hexdigest()
    return ReferenceForm(key, canon_tree, tuple(leaf_map), dnf.size)
