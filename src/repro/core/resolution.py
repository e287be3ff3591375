"""Short-circuit resolution of AND-OR trees.

This module factors out the evaluation semantics shared by the execution
engine, the Monte-Carlo estimator and the exact schedule-cost evaluator:

* an AND node resolves FALSE as soon as one child is FALSE and TRUE once all
  children are TRUE;
* an OR node resolves TRUE as soon as one child is TRUE and FALSE once all
  children are FALSE;
* a leaf is *skipped* (never evaluated, costing nothing) whenever one of its
  ancestors is already resolved;
* the query stops as soon as the root is resolved.

:class:`TreeIndex` precomputes the structure once per tree;
:class:`ResolutionState` is the cheap mutable evaluation state.
"""

from __future__ import annotations

from typing import Union

from repro.core.tree import AndNode, AndTree, DnfTree, LeafNode, Node, OrNode, QueryTree

__all__ = [
    "TreeIndex",
    "ResolutionState",
    "UNRESOLVED",
    "TRUE",
    "FALSE",
    "KIND_LEAF",
    "KIND_AND",
    "KIND_OR",
]

UNRESOLVED = 0
TRUE = 1
FALSE = 2

#: Node-kind encoding used by TreeIndex.kinds (and every consumer of it).
KIND_LEAF = 0
KIND_AND = 1
KIND_OR = 2


def _as_query_tree(tree: Union[QueryTree, AndTree, DnfTree]) -> QueryTree:
    if isinstance(tree, QueryTree):
        return tree
    if isinstance(tree, AndTree):
        return tree.to_dnf().to_query_tree()
    return tree.to_query_tree()


class TreeIndex:
    """Immutable structural index of an AND-OR tree for fast resolution.

    Node ids are assigned in depth-first pre-order with the root as node 0.
    Leaf *global indices* follow the tree's left-to-right leaf order, matching
    :attr:`QueryTree.leaves` (and, for trees built from a :class:`DnfTree`,
    matching the DNF global leaf indices).
    """

    __slots__ = (
        "tree",
        "kinds",
        "children",
        "parent",
        "leaf_node_ids",
        "leaf_ancestors",
        "n_nodes",
    )

    def __init__(self, tree: Union[QueryTree, AndTree, DnfTree]) -> None:
        qtree = _as_query_tree(tree)
        self.tree = qtree
        kinds: list[int] = []
        children: list[list[int]] = []
        parent: list[int] = []
        leaf_node_ids: list[int] = []

        def visit(node: Node, parent_id: int) -> int:
            node_id = len(kinds)
            if isinstance(node, LeafNode):
                kinds.append(KIND_LEAF)
            elif isinstance(node, AndNode):
                kinds.append(KIND_AND)
            elif isinstance(node, OrNode):
                kinds.append(KIND_OR)
            else:  # pragma: no cover - tree validation prevents this
                raise TypeError(f"unknown node type {type(node)!r}")
            children.append([])
            parent.append(parent_id)
            if isinstance(node, LeafNode):
                leaf_node_ids.append(node_id)
            else:
                for child in node.children:
                    child_id = visit(child, node_id)
                    children[node_id].append(child_id)
            return node_id

        visit(qtree.root, -1)
        self.kinds = tuple(kinds)
        self.children = tuple(tuple(ids) for ids in children)
        self.parent = tuple(parent)
        self.leaf_node_ids = tuple(leaf_node_ids)
        self.n_nodes = len(kinds)
        ancestors: list[tuple[int, ...]] = []
        for node_id in leaf_node_ids:
            path = []
            cursor = parent[node_id]
            while cursor >= 0:
                path.append(cursor)
                cursor = parent[cursor]
            ancestors.append(tuple(path))
        self.leaf_ancestors = tuple(ancestors)

    def new_state(self) -> "ResolutionState":
        """Fresh evaluation state with every node unresolved."""
        return ResolutionState(self)


class ResolutionState:
    """Mutable short-circuit state: node values plus resolved-children counts."""

    __slots__ = ("index", "values", "resolved_children")

    def __init__(self, index: TreeIndex) -> None:
        self.index = index
        self.values = [UNRESOLVED] * index.n_nodes
        self.resolved_children = [0] * index.n_nodes

    def copy(self) -> "ResolutionState":
        clone = ResolutionState.__new__(ResolutionState)
        clone.index = self.index
        clone.values = list(self.values)
        clone.resolved_children = list(self.resolved_children)
        return clone

    def signature(self) -> bytes:
        """Hashable snapshot of the resolution state (for memoization)."""
        return bytes(self.values)

    @property
    def root_value(self) -> bool | None:
        """Root truth value, or ``None`` while unresolved."""
        value = self.values[0]
        return None if value == UNRESOLVED else value == TRUE

    def is_skipped(self, leaf_gindex: int) -> bool:
        """True when the leaf's evaluation is short-circuited away."""
        for ancestor in self.index.leaf_ancestors[leaf_gindex]:
            if self.values[ancestor] != UNRESOLVED:
                return True
        # A bare-leaf tree: the leaf itself resolved means "stop".
        return self.values[self.index.leaf_node_ids[leaf_gindex]] != UNRESOLVED

    def set_leaf(self, leaf_gindex: int, outcome: bool) -> None:
        """Record a leaf outcome and propagate resolutions toward the root."""
        node_id = self.index.leaf_node_ids[leaf_gindex]
        self._resolve(node_id, TRUE if outcome else FALSE)

    def _resolve(self, node_id: int, value: int) -> None:
        if self.values[node_id] != UNRESOLVED:
            return
        self.values[node_id] = value
        parent_id = self.index.parent[node_id]
        if parent_id < 0:
            return
        self.resolved_children[parent_id] += 1
        kind = self.index.kinds[parent_id]
        n_children = len(self.index.children[parent_id])
        if kind == KIND_AND:
            if value == FALSE:
                self._resolve(parent_id, FALSE)
            elif self.resolved_children[parent_id] == n_children:
                # All children resolved and none FALSE (a FALSE child would
                # have resolved the AND already): the AND is TRUE.
                self._resolve(parent_id, TRUE)
        else:  # OR
            if value == TRUE:
                self._resolve(parent_id, TRUE)
            elif self.resolved_children[parent_id] == n_children:
                self._resolve(parent_id, FALSE)
