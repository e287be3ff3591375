"""Query-tree data structures: AND-trees, DNF trees, and general AND-OR trees.

Three levels of generality, mirroring the paper:

* :class:`AndTree` — a single AND operator over leaves (Section III).
* :class:`DnfTree` — an OR of AND nodes (Section IV).
* :class:`QueryTree` — an arbitrary rooted AND-OR tree (the general PAOTR
  setting, whose complexity is open even in the read-once case). A
  :class:`QueryTree` can report whether it is an AND-tree / DNF tree and
  convert to the specialized representations; a general tree can also be
  *expanded* to DNF by distributing AND over OR (with a size guard, since the
  expansion can be exponential).

Every tree carries its stream cost table ``costs`` (cost per data item,
``c(S_k)`` in the paper), because a PAOTR instance is the pair
(tree, stream costs).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence, Union

from repro.core.leaf import Leaf
from repro.errors import InvalidTreeError

__all__ = [
    "AndTree",
    "DnfTree",
    "QueryTree",
    "LeafNode",
    "AndNode",
    "OrNode",
    "Node",
]


def _normalize_costs(
    costs: Mapping[str, float] | None, streams: Iterable[str], default_cost: float
) -> dict[str, float]:
    """Build a validated stream->cost-per-item table covering ``streams``."""
    table = dict(costs) if costs is not None else {}
    for name in streams:
        if name not in table:
            if costs is not None:
                raise InvalidTreeError(f"no cost given for stream {name!r}")
            table[name] = default_cost
    for name, value in table.items():
        value = float(value)
        if math.isnan(value) or value < 0.0:
            raise InvalidTreeError(f"cost of stream {name!r} must be >= 0, got {value!r}")
        table[name] = value
    return table


# ---------------------------------------------------------------------------
# AND-trees
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AndTree:
    """A single-level AND query: the conjunction of its leaves.

    Parameters
    ----------
    leaves:
        The predicate leaves, in an arbitrary but fixed declaration order.
        Schedules refer to leaves by their index in this tuple.
    costs:
        Mapping from stream name to cost per data item. If omitted, every
        stream referenced by a leaf costs ``default_cost`` per item.
    default_cost:
        Cost per item used for streams missing from ``costs`` when ``costs``
        is ``None``.
    """

    leaves: tuple[Leaf, ...]
    costs: Mapping[str, float] = field(default_factory=dict)

    def __init__(
        self,
        leaves: Sequence[Leaf],
        costs: Mapping[str, float] | None = None,
        *,
        default_cost: float = 1.0,
    ) -> None:
        leaves = tuple(leaves)
        if not leaves:
            raise InvalidTreeError("an AND-tree needs at least one leaf")
        if not all(isinstance(leaf, Leaf) for leaf in leaves):
            raise InvalidTreeError("AndTree leaves must be Leaf instances")
        table = _normalize_costs(costs, (leaf.stream for leaf in leaves), default_cost)
        object.__setattr__(self, "leaves", leaves)
        object.__setattr__(self, "costs", table)

    # -- basic shape ---------------------------------------------------

    @property
    def m(self) -> int:
        """Number of leaves."""
        return len(self.leaves)

    def __len__(self) -> int:
        return len(self.leaves)

    def __iter__(self) -> Iterator[Leaf]:
        return iter(self.leaves)

    @property
    def streams(self) -> tuple[str, ...]:
        """Distinct stream names, in first-appearance order."""
        seen: dict[str, None] = {}
        for leaf in self.leaves:
            seen.setdefault(leaf.stream, None)
        return tuple(seen)

    @property
    def sharing_ratio(self) -> float:
        """Expected number of leaves per stream, ``rho = m / s`` (paper §III-B)."""
        return len(self.leaves) / len(self.streams)

    @property
    def is_read_once(self) -> bool:
        """True when no stream occurs in two leaves (the classical model)."""
        return len(self.streams) == len(self.leaves)

    def leaves_by_stream(self) -> dict[str, list[int]]:
        """Map stream name -> leaf indices using it, each list sorted by (items, index)."""
        groups: dict[str, list[int]] = {}
        for idx, leaf in enumerate(self.leaves):
            groups.setdefault(leaf.stream, []).append(idx)
        for name, idxs in groups.items():
            idxs.sort(key=lambda i: (self.leaves[i].items, i))
        return groups

    @property
    def success_prob(self) -> float:
        """Probability that the whole AND evaluates to TRUE."""
        out = 1.0
        for leaf in self.leaves:
            out *= leaf.prob
        return out

    @property
    def max_items(self) -> int:
        """Largest ``d_j`` over the leaves (``D`` in the paper's complexity bounds)."""
        return max(leaf.items for leaf in self.leaves)

    def to_dnf(self) -> "DnfTree":
        """View this AND-tree as a one-AND DNF tree (shares the cost table)."""
        return DnfTree([self.leaves], self.costs)

    def describe(self) -> str:
        """Multi-line human-readable summary."""
        lines = [f"AndTree: {self.m} leaves, {len(self.streams)} streams"]
        for idx, leaf in enumerate(self.leaves):
            lines.append(f"  [{idx}] {leaf.describe()}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# DNF trees
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DnfTree:
    """An OR of AND nodes (disjunctive normal form), the paper's Section IV.

    Leaves have two addressing schemes:

    * a *global index* ``g`` in ``range(size)``, flattening the AND nodes in
      order — this is what :class:`~repro.core.schedule` schedules use;
    * a *reference* ``(i, j)`` = (AND index, position within AND), the
      paper's ``l_{i,j}`` notation.

    ``ref(g)`` and ``gindex(i, j)`` convert between the two.
    """

    ands: tuple[tuple[Leaf, ...], ...]
    costs: Mapping[str, float] = field(default_factory=dict)
    # Flattened-addressing caches, filled by __init__ via object.__setattr__.
    _flat: tuple[Leaf, ...] = field(init=False, repr=False, compare=False)
    _refs: tuple[tuple[int, int], ...] = field(init=False, repr=False, compare=False)
    _starts: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __init__(
        self,
        ands: Sequence[Sequence[Leaf]],
        costs: Mapping[str, float] | None = None,
        *,
        default_cost: float = 1.0,
    ) -> None:
        groups = tuple(tuple(group) for group in ands)
        if not groups:
            raise InvalidTreeError("a DNF tree needs at least one AND node")
        for i, group in enumerate(groups):
            if not group:
                raise InvalidTreeError(f"AND node {i} has no leaves")
            if not all(isinstance(leaf, Leaf) for leaf in group):
                raise InvalidTreeError("DnfTree leaves must be Leaf instances")
        streams = (leaf.stream for group in groups for leaf in group)
        table = _normalize_costs(costs, streams, default_cost)
        object.__setattr__(self, "ands", groups)
        object.__setattr__(self, "costs", table)
        # Flattened addressing, precomputed once (trees are immutable).
        flat: list[Leaf] = []
        refs: list[tuple[int, int]] = []
        starts: list[int] = []
        for i, group in enumerate(groups):
            starts.append(len(flat))
            for j, leaf in enumerate(group):
                flat.append(leaf)
                refs.append((i, j))
        object.__setattr__(self, "_flat", tuple(flat))
        object.__setattr__(self, "_refs", tuple(refs))
        object.__setattr__(self, "_starts", tuple(starts))

    # -- addressing ----------------------------------------------------

    @property
    def leaves(self) -> tuple[Leaf, ...]:
        """All leaves flattened in (AND index, position) order."""
        return self._flat

    @property
    def size(self) -> int:
        """Total number of leaves, ``|L|``."""
        return len(self.leaves)

    def __len__(self) -> int:
        return self.size

    @property
    def n_ands(self) -> int:
        """Number of AND nodes, ``N``."""
        return len(self.ands)

    @property
    def and_sizes(self) -> tuple[int, ...]:
        """Number of leaves of each AND node, ``m_i``."""
        return tuple(len(group) for group in self.ands)

    def ref(self, gindex: int) -> tuple[int, int]:
        """Global leaf index -> ``(and_index, position_within_and)``."""
        return self._refs[gindex]

    def gindex(self, and_index: int, position: int) -> int:
        """``(and_index, position_within_and)`` -> global leaf index."""
        if not 0 <= and_index < len(self.ands):
            raise InvalidTreeError(f"AND index {and_index} out of range")
        if not 0 <= position < len(self.ands[and_index]):
            raise InvalidTreeError(f"leaf position {position} out of range in AND {and_index}")
        return self._starts[and_index] + position

    def and_of(self, gindex: int) -> int:
        """AND node index owning global leaf ``gindex``."""
        return self.ref(gindex)[0]

    def leaf(self, gindex: int) -> Leaf:
        """Leaf at global index ``gindex``."""
        return self.leaves[gindex]

    def and_leaf_gindices(self, and_index: int) -> range:
        """Global indices of the leaves of AND node ``and_index``."""
        start = self._starts[and_index]
        return range(start, start + len(self.ands[and_index]))

    # -- shape / statistics ---------------------------------------------

    @property
    def streams(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for leaf in self.leaves:
            seen.setdefault(leaf.stream, None)
        return tuple(seen)

    @property
    def sharing_ratio(self) -> float:
        """Expected number of leaves per stream over the whole tree."""
        return self.size / len(self.streams)

    @property
    def is_read_once(self) -> bool:
        """True when no stream occurs in two leaves anywhere in the tree."""
        return len(self.streams) == self.size

    @property
    def max_items(self) -> int:
        """``D``: the maximum number of items any leaf requires."""
        return max(leaf.items for leaf in self.leaves)

    def and_tree(self, and_index: int) -> AndTree:
        """AND node ``and_index`` viewed as a standalone :class:`AndTree`."""
        return AndTree(self.ands[and_index], self.costs)

    def and_success_prob(self, and_index: int) -> float:
        """Probability that AND node ``and_index`` evaluates to TRUE."""
        out = 1.0
        for leaf in self.ands[and_index]:
            out *= leaf.prob
        return out

    @property
    def success_prob(self) -> float:
        """Probability that the OR root evaluates to TRUE."""
        out = 1.0
        for i in range(self.n_ands):
            out *= 1.0 - self.and_success_prob(i)
        return 1.0 - out

    def to_query_tree(self) -> "QueryTree":
        """Convert to the general :class:`QueryTree` representation."""
        ors = OrNode([AndNode([LeafNode(leaf) for leaf in group]) for group in self.ands])
        return QueryTree(ors, self.costs)

    def describe(self) -> str:
        lines = [f"DnfTree: {self.n_ands} ANDs, {self.size} leaves, {len(self.streams)} streams"]
        for i, group in enumerate(self.ands):
            lines.append(f"  AND {i}:")
            for j, leaf in enumerate(group):
                lines.append(f"    l_{i},{j} [g={self.gindex(i, j)}] {leaf.describe()}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# General AND-OR trees
# ---------------------------------------------------------------------------


class Node:
    """Abstract node of a general AND-OR tree."""

    __slots__ = ()

    def iter_leaves(self) -> Iterator[Leaf]:
        raise NotImplementedError

    def simplified(self) -> "Node":
        """Collapse single-child operators and merge same-type nested operators."""
        raise NotImplementedError


@dataclass(frozen=True, slots=True)
class LeafNode(Node):
    """A leaf predicate wrapped as a tree node."""

    leaf: Leaf

    def iter_leaves(self) -> Iterator[Leaf]:
        yield self.leaf

    def simplified(self) -> "Node":
        return self


class _OperatorNode(Node):
    __slots__ = ("children",)
    children: tuple[Node, ...]
    symbol = "?"

    def __init__(self, children: Sequence[Node]) -> None:
        children = tuple(children)
        if not children:
            raise InvalidTreeError(f"{type(self).__name__} needs at least one child")
        if not all(isinstance(child, Node) for child in children):
            raise InvalidTreeError("operator children must be Node instances")
        object.__setattr__(self, "children", children)

    def __setattr__(self, name: str, value: object) -> None:  # immutability
        raise AttributeError(f"{type(self).__name__} is immutable")

    # Slots + a raising __setattr__ break default unpickling (it restores
    # slot state via setattr); rebuild through the same object.__setattr__
    # escape hatch the constructor uses. Query trees cross process
    # boundaries inside Migration payloads in the process-mode cluster.
    def __getstate__(self) -> tuple:
        return self.children

    def __setstate__(self, state: tuple) -> None:
        object.__setattr__(self, "children", state)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _OperatorNode):
            return NotImplemented
        return type(self) is type(other) and self.children == other.children

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.children))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self.children)!r})"

    def iter_leaves(self) -> Iterator[Leaf]:
        for child in self.children:
            yield from child.iter_leaves()

    def simplified(self) -> Node:
        flat: list[Node] = []
        for child in self.children:
            child = child.simplified()
            if isinstance(child, _OperatorNode) and type(child) is type(self):
                flat.extend(child.children)
            else:
                flat.append(child)
        if len(flat) == 1:
            return flat[0]
        return type(self)(flat)


class AndNode(_OperatorNode):
    """Conjunction: TRUE iff every child is TRUE (short-circuits on FALSE)."""

    __slots__ = ()
    symbol = "AND"


class OrNode(_OperatorNode):
    """Disjunction: TRUE iff some child is TRUE (short-circuits on TRUE)."""

    __slots__ = ()
    symbol = "OR"


def _leaf_children(node: _OperatorNode) -> list[Leaf]:
    """The leaves of an operator whose children are all leaf nodes."""
    leaves: list[Leaf] = []
    for child in node.children:
        if not isinstance(child, LeafNode):
            raise InvalidTreeError(
                f"expected a leaf child, got {type(child).__name__}"
            )
        leaves.append(child.leaf)
    return leaves


TreeLike = Union["QueryTree", AndTree, DnfTree]


@dataclass(frozen=True)
class QueryTree:
    """A general rooted AND-OR tree with probabilistic leaves.

    The root may be a bare :class:`LeafNode`, an :class:`AndNode` or an
    :class:`OrNode`; operators nest arbitrarily. Leaves get global indices in
    left-to-right depth-first order (``leaves`` tuple).
    """

    root: Node
    costs: Mapping[str, float] = field(default_factory=dict)
    # Depth-first leaf cache, filled by __init__ via object.__setattr__.
    _leaves: tuple[Leaf, ...] = field(init=False, repr=False, compare=False)

    def __init__(
        self,
        root: Node,
        costs: Mapping[str, float] | None = None,
        *,
        default_cost: float = 1.0,
    ) -> None:
        if not isinstance(root, Node):
            raise InvalidTreeError("QueryTree root must be a Node")
        leaves = tuple(root.iter_leaves())
        if not leaves:
            raise InvalidTreeError("a query tree needs at least one leaf")
        table = _normalize_costs(costs, (leaf.stream for leaf in leaves), default_cost)
        object.__setattr__(self, "root", root)
        object.__setattr__(self, "costs", table)
        object.__setattr__(self, "_leaves", leaves)

    @property
    def leaves(self) -> tuple[Leaf, ...]:
        """Leaves in depth-first left-to-right order (global index order)."""
        return self._leaves

    @property
    def size(self) -> int:
        return len(self.leaves)

    def __len__(self) -> int:
        return self.size

    @property
    def streams(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for leaf in self.leaves:
            seen.setdefault(leaf.stream, None)
        return tuple(seen)

    @property
    def is_read_once(self) -> bool:
        return len(self.streams) == len(self.leaves)

    @property
    def depth(self) -> int:
        """Number of operator levels (a bare leaf has depth 0)."""

        def rec(node: Node) -> int:
            if not isinstance(node, _OperatorNode):
                return 0
            return 1 + max(rec(child) for child in node.children)

        return rec(self.root)

    @property
    def num_nodes(self) -> int:
        """Total node count (operators + leaves)."""

        def rec(node: Node) -> int:
            if not isinstance(node, _OperatorNode):
                return 1
            return 1 + sum(rec(child) for child in node.children)

        return rec(self.root)

    # -- shape tests and conversions ------------------------------------

    def is_and_tree(self) -> bool:
        """True when the tree is a single AND over leaves (or a bare leaf)."""
        root = self.root
        if isinstance(root, LeafNode):
            return True
        return isinstance(root, AndNode) and all(
            isinstance(child, LeafNode) for child in root.children
        )

    def is_dnf(self) -> bool:
        """True when the tree is an OR of ANDs-of-leaves (accepting degenerate forms)."""
        root = self.root
        if isinstance(root, LeafNode):
            return True
        if isinstance(root, AndNode):
            return all(isinstance(child, LeafNode) for child in root.children)
        if not isinstance(root, OrNode):
            return False
        for child in root.children:
            if isinstance(child, LeafNode):
                continue
            if isinstance(child, AndNode) and all(
                isinstance(sub, LeafNode) for sub in child.children
            ):
                continue
            return False
        return True

    def as_and_tree(self) -> AndTree:
        """Convert to :class:`AndTree`; raises if the shape does not match."""
        if not self.is_and_tree():
            raise InvalidTreeError("tree is not a single-level AND-tree")
        return AndTree(self.leaves, self.costs)

    def as_dnf(self) -> DnfTree:
        """Convert to :class:`DnfTree`; raises if the tree is not already in DNF shape."""
        if not self.is_dnf():
            raise InvalidTreeError("tree is not in DNF shape; use expand_to_dnf()")
        root = self.root
        if isinstance(root, LeafNode):
            return DnfTree([[root.leaf]], self.costs)
        if isinstance(root, AndNode):
            return DnfTree([_leaf_children(root)], self.costs)
        if not isinstance(root, OrNode):
            raise InvalidTreeError(f"unexpected root node {type(root).__name__}")
        groups: list[list[Leaf]] = []
        for child in root.children:
            if isinstance(child, LeafNode):
                groups.append([child.leaf])
            elif isinstance(child, AndNode):
                groups.append(_leaf_children(child))
            else:
                raise InvalidTreeError(f"unexpected DNF child {type(child).__name__}")
        return DnfTree(groups, self.costs)

    def expand_to_dnf(self, *, max_terms: int = 4096) -> DnfTree:
        """Distribute AND over OR to obtain an equivalent DNF tree.

        The expansion of a general AND-OR tree can be exponentially large;
        ``max_terms`` bounds the number of generated AND terms.

        Note: expansion duplicates leaves across terms, so the resulting DNF
        is *not* probabilistically equivalent leaf-for-leaf (duplicated leaves
        become independent copies). It is intended for structural experiments,
        not for exact cost transfers — the paper's DNF results apply to trees
        that are DNF to begin with.
        """
        from repro.errors import BudgetExceededError

        def rec(node: Node) -> list[tuple[Leaf, ...]]:
            if isinstance(node, LeafNode):
                return [(node.leaf,)]
            if not isinstance(node, _OperatorNode):
                raise InvalidTreeError(f"unexpected node {type(node).__name__}")
            child_terms = [rec(child) for child in node.children]
            if isinstance(node, OrNode):
                merged = [term for terms in child_terms for term in terms]
                if len(merged) > max_terms:
                    raise BudgetExceededError(f"DNF expansion exceeds {max_terms} terms")
                return merged
            total = 1
            for terms in child_terms:
                total *= len(terms)
                if total > max_terms:
                    raise BudgetExceededError(f"DNF expansion exceeds {max_terms} terms")
            return [
                tuple(itertools.chain.from_iterable(combo))
                for combo in itertools.product(*child_terms)
            ]

        return DnfTree(rec(self.root), self.costs)

    @property
    def success_prob(self) -> float:
        """Probability the root evaluates to TRUE (independent leaves)."""

        def rec(node: Node) -> float:
            if isinstance(node, LeafNode):
                return node.leaf.prob
            if not isinstance(node, _OperatorNode):
                raise InvalidTreeError(f"unexpected node {type(node).__name__}")
            if isinstance(node, AndNode):
                out = 1.0
                for child in node.children:
                    out *= rec(child)
                return out
            out = 1.0
            for child in node.children:
                out *= 1.0 - rec(child)
            return 1.0 - out

        return rec(self.root)

    def describe(self) -> str:
        lines = [f"QueryTree: {self.size} leaves, {len(self.streams)} streams"]

        def rec(node: Node, indent: int) -> None:
            pad = "  " * indent
            if isinstance(node, LeafNode):
                lines.append(f"{pad}- {node.leaf.describe()}")
            elif isinstance(node, _OperatorNode):
                lines.append(f"{pad}{node.symbol}")
                for child in node.children:
                    rec(child, indent + 1)

        rec(self.root, 1)
        return "\n".join(lines)
