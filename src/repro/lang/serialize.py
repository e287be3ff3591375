"""Serialization: trees <-> dicts / JSON / DSL expressions.

* :func:`tree_to_dict` / :func:`tree_from_dict` — loss-free structured form
  for all three tree types (costs included);
* :func:`tree_to_json` / :func:`tree_from_json` — the same through JSON;
* :func:`to_expression` — render any tree in the query DSL's *abstract leaf*
  syntax (``A[5] p=0.75``), re-parseable with
  :func:`repro.lang.parser.parse_query` (structure, probabilities and items
  round-trip; predicate labels do not).
"""

from __future__ import annotations

import json
from typing import Any, Union

from repro.core.leaf import Leaf
from repro.core.tree import AndNode, AndTree, DnfTree, LeafNode, Node, OrNode, QueryTree
from repro.errors import ParseError

__all__ = [
    "leaf_to_dict",
    "leaf_from_dict",
    "tree_to_dict",
    "tree_from_dict",
    "tree_to_json",
    "tree_from_json",
    "tree_to_canonical_json",
    "to_expression",
]

TreeLike = Union[AndTree, DnfTree, QueryTree]


def leaf_to_dict(leaf: Leaf) -> dict[str, Any]:
    out: dict[str, Any] = {"stream": leaf.stream, "items": leaf.items, "prob": leaf.prob}
    if leaf.label:
        out["label"] = leaf.label
    return out


def leaf_from_dict(data: dict[str, Any]) -> Leaf:
    try:
        return Leaf(
            stream=data["stream"],
            items=int(data["items"]),
            prob=float(data["prob"]),
            label=str(data.get("label", "")),
        )
    except KeyError as exc:
        raise ParseError(f"leaf dict missing key {exc}") from None


def _node_to_dict(node: Node) -> dict[str, Any]:
    if isinstance(node, LeafNode):
        return {"leaf": leaf_to_dict(node.leaf)}
    if not isinstance(node, (AndNode, OrNode)):
        raise ParseError(f"cannot serialize node of type {type(node).__name__}")
    op = "and" if isinstance(node, AndNode) else "or"
    return {"op": op, "children": [_node_to_dict(child) for child in node.children]}


def _node_from_dict(data: dict[str, Any]) -> Node:
    if "leaf" in data:
        return LeafNode(leaf_from_dict(data["leaf"]))
    try:
        op = data["op"]
        children = [_node_from_dict(child) for child in data["children"]]
    except KeyError as exc:
        raise ParseError(f"node dict missing key {exc}") from None
    if op == "and":
        return AndNode(children)
    if op == "or":
        return OrNode(children)
    raise ParseError(f"unknown operator {op!r}")


def tree_to_dict(tree: TreeLike) -> dict[str, Any]:
    """Structured representation with a ``type`` tag and the cost table."""
    costs = dict(tree.costs)
    if isinstance(tree, AndTree):
        return {
            "type": "and-tree",
            "leaves": [leaf_to_dict(leaf) for leaf in tree.leaves],
            "costs": costs,
        }
    if isinstance(tree, DnfTree):
        return {
            "type": "dnf-tree",
            "ands": [[leaf_to_dict(leaf) for leaf in group] for group in tree.ands],
            "costs": costs,
        }
    if isinstance(tree, QueryTree):
        return {"type": "query-tree", "root": _node_to_dict(tree.root), "costs": costs}
    raise TypeError(f"cannot serialize {type(tree).__name__}")


def tree_from_dict(data: dict[str, Any]) -> TreeLike:
    """Inverse of :func:`tree_to_dict`."""
    kind = data.get("type")
    costs = data.get("costs")
    if kind == "and-tree":
        return AndTree([leaf_from_dict(leaf) for leaf in data["leaves"]], costs)
    if kind == "dnf-tree":
        return DnfTree(
            [[leaf_from_dict(leaf) for leaf in group] for group in data["ands"]], costs
        )
    if kind == "query-tree":
        return QueryTree(_node_from_dict(data["root"]), costs)
    raise ParseError(f"unknown tree type {kind!r}")


def tree_to_json(tree: TreeLike, **json_kwargs: Any) -> str:
    """JSON form of :func:`tree_to_dict` (kwargs forwarded to ``json.dumps``)."""
    return json.dumps(tree_to_dict(tree), **json_kwargs)


def tree_from_json(text: str) -> TreeLike:
    """Inverse of :func:`tree_to_json`."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    return tree_from_dict(data)


def _leaf_sort_key(leaf: Leaf) -> tuple[str, int, float]:
    return (leaf.stream, leaf.items, leaf.prob)


def tree_to_canonical_json(tree: TreeLike) -> str:
    """Deterministic JSON usable as a structural identity for a tree.

    Two trees that are *isomorphic* — equal up to the declaration order of
    leaves within AND nodes, of AND nodes under an OR, and of operator
    children in a general tree — produce the same string; structurally or
    probabilistically distinct trees (including distinct cost tables) do not.
    Normalization rules:

    * leaf ``label`` is dropped (it never affects cost or semantics);
    * sibling leaves/children are sorted by a canonical key;
    * the cost table is restricted to the streams the tree actually uses and
      emitted with sorted keys;
    * an :class:`AndTree` is emitted as its one-AND DNF form, so an AND-tree
      and its ``to_dnf()`` view share an identity.

    The service layer's plan-cache keys hash this payload for the
    deduplicated canonical tree (:func:`repro.service.canonical.canonicalize`
    encodes the same payload from plain leaf tuples, without building the
    tree; its golden-key tests pin the bytes).
    """
    used = set()
    for leaf in tree.leaves:
        used.add(leaf.stream)
    costs = {name: float(cost) for name, cost in tree.costs.items() if name in used}
    if isinstance(tree, AndTree):
        tree = tree.to_dnf()
    if isinstance(tree, DnfTree):
        groups = sorted(
            tuple(sorted(((leaf.stream, leaf.items, leaf.prob) for leaf in group)))
            for group in tree.ands
        )
        payload: dict[str, Any] = {"type": "dnf-tree", "ands": groups, "costs": costs}
    elif isinstance(tree, QueryTree):

        def node_key(node: Node) -> Any:
            if isinstance(node, LeafNode):
                return ["leaf", list(_leaf_sort_key(node.leaf))]
            if not isinstance(node, (AndNode, OrNode)):
                raise ParseError(
                    f"cannot canonicalize node of type {type(node).__name__}"
                )
            op = "and" if isinstance(node, AndNode) else "or"
            children = sorted(
                (node_key(child) for child in node.children),
                key=lambda key: json.dumps(key, sort_keys=True),
            )
            return [op, children]

        payload = {"type": "query-tree", "root": node_key(tree.root.simplified()), "costs": costs}
    else:
        raise TypeError(f"cannot canonicalize {type(tree).__name__}")
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _leaf_expression(leaf: Leaf) -> str:
    return f"{leaf.stream}[{leaf.items}] p={leaf.prob:g}"


def _node_expression(node: Node, *, parent: str) -> str:
    if isinstance(node, LeafNode):
        return _leaf_expression(node.leaf)
    if isinstance(node, AndNode):
        body = " AND ".join(_node_expression(child, parent="and") for child in node.children)
        return body
    body = " OR ".join(_node_expression(child, parent="or") for child in node.children)
    # OR under AND needs parentheses (AND binds tighter in the grammar).
    return f"({body})" if parent == "and" else body


def to_expression(tree: TreeLike) -> str:
    """Render in the DSL's abstract-leaf syntax (re-parseable)."""
    if isinstance(tree, AndTree):
        return " AND ".join(_leaf_expression(leaf) for leaf in tree.leaves)
    if isinstance(tree, DnfTree):
        groups = []
        for group in tree.ands:
            body = " AND ".join(_leaf_expression(leaf) for leaf in group)
            groups.append(f"({body})" if len(group) > 1 and tree.n_ands > 1 else body)
        return " OR ".join(groups)
    if isinstance(tree, QueryTree):
        return _node_expression(tree.root, parent="top")
    raise TypeError(f"cannot render {type(tree).__name__}")
