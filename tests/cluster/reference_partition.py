"""The pairwise overlap partitioner in exact arithmetic, kept as a test oracle.

Every overlap is summed per query *pair* over ``fractions.Fraction`` copies
of the float weights, so no sum depends on its order. This is the
partitioner's specification: :func:`repro.cluster.partition.partition_by_overlap`,
``shard_split_pieces`` and ``partition_report`` read the same numbers off
per-stream weight counts and must return exactly these placements, pieces
and (correctly rounded) report floats.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Sequence

from repro.cluster.partition import OverlapGraph

REFINE_SWEEPS = 2
COMMUNITY_SWEEPS = 6
MIN_SPLIT_KEEP = Fraction(3, 5)


def overlap(graph: OverlapGraph, a: str, b: str) -> Fraction:
    wa, wb = graph.weights[a], graph.weights[b]
    return sum(
        (Fraction(min(w, wb[s])) for s, w in wa.items() if s in wb), Fraction(0)
    )


def overlapping_pairs(
    graph: OverlapGraph, members: set[str] | None = None
) -> Iterator[tuple[str, str]]:
    """Every unordered pair sharing a stream (inside ``members``), once."""
    scope = graph.names if members is None else [n for n in graph.names if n in members]
    for i, a in enumerate(scope):
        for b in scope[i + 1 :]:
            if not graph.weights[a].keys().isdisjoint(graph.weights[b]):
                yield a, b


def neighbour_map(graph: OverlapGraph, members: set[str]) -> dict[str, list[str]]:
    neighbours: dict[str, list[str]] = {n: [] for n in graph.names if n in members}
    for a, b in overlapping_pairs(graph, members):
        neighbours[a].append(b)
        neighbours[b].append(a)
    return neighbours


def pair_weight(graph: OverlapGraph, names: Sequence[str]) -> Fraction:
    return sum(
        (overlap(graph, a, b) for a, b in overlapping_pairs(graph, set(names))),
        Fraction(0),
    )


def report_weights(
    graph: OverlapGraph, shards: Sequence[Sequence[str]]
) -> tuple[float, float, float]:
    """``(intra, cut, duplicated)`` of a full assignment, correctly rounded."""
    assignment = {name: i for i, shard in enumerate(shards) for name in shard}
    intra = cut = Fraction(0)
    for a, b in overlapping_pairs(graph):
        if assignment[a] == assignment[b]:
            intra += overlap(graph, a, b)
        else:
            cut += overlap(graph, a, b)
    duplicated = Fraction(0)
    streams = {s for name in graph.names for s in graph.weights[name]}
    for stream in streams:
        shard_max: dict[int, Fraction] = {}
        for name in graph.names:
            if stream in graph.weights[name]:
                weight = Fraction(graph.weights[name][stream])
                shard = assignment[name]
                shard_max[shard] = max(weight, shard_max.get(shard, Fraction(0)))
        duplicated += sum(shard_max.values()) - max(shard_max.values())
    return float(intra), float(cut), float(duplicated)


def community_split(graph: OverlapGraph, component: list[str]) -> list[list[str]]:
    neighbours = neighbour_map(graph, set(component))
    labels = {name: index for index, name in enumerate(component)}
    for _ in range(COMMUNITY_SWEEPS):
        moved = False
        for name in component:
            pull: dict[int, Fraction] = {}
            for other in neighbours[name]:
                label = labels[other]
                pull[label] = pull.get(label, Fraction(0)) + overlap(graph, name, other)
            if not pull:
                continue
            best = min(pull, key=lambda label: (-pull[label], label))
            if best != labels[name]:
                labels[name] = best
                moved = True
        if not moved:
            break
    grouped: dict[int, list[str]] = {}
    for name in component:
        grouped.setdefault(labels[name], []).append(name)
    return list(grouped.values())


def split_component(
    graph: OverlapGraph, component: list[str], cap: int
) -> list[list[str]]:
    remaining = list(component)
    pieces: list[list[str]] = []
    while remaining:
        if len(remaining) <= cap:
            pieces.append(remaining)
            break
        hub = max(
            remaining,
            key=lambda q: sum(
                (overlap(graph, q, o) for o in remaining if o != q), Fraction(0)
            ),
        )
        piece = [hub]
        remaining.remove(hub)
        attached = {s: Fraction(w) for s, w in graph.weights[hub].items()}
        while len(piece) < cap and remaining:
            best = max(
                remaining,
                key=lambda q: sum(
                    (
                        min(Fraction(w), attached.get(s, Fraction(0)))
                        for s, w in graph.weights[q].items()
                    ),
                    Fraction(0),
                ),
            )
            piece.append(best)
            remaining.remove(best)
            for s, w in graph.weights[best].items():
                attached[s] = max(Fraction(w), attached.get(s, Fraction(0)))
        pieces.append(piece)
    return pieces


def refine(
    graph: OverlapGraph, shards: list[list[str]], max_shard_queries: int | None
) -> list[list[str]]:
    assignment = {name: i for i, shard in enumerate(shards) for name in shard}
    neighbours = neighbour_map(graph, set(assignment))
    sizes = [len(shard) for shard in shards]
    for _ in range(REFINE_SWEEPS):
        moved = False
        for name in graph.names:
            current = assignment[name]
            pull: dict[int, Fraction] = {}
            for other in neighbours[name]:
                shard = assignment[other]
                pull[shard] = pull.get(shard, Fraction(0)) + overlap(graph, name, other)
            best_shard, best_pull = current, pull.get(current, Fraction(0))
            for shard, weight in sorted(pull.items()):
                if shard == current:
                    continue
                if max_shard_queries is not None and sizes[shard] >= max_shard_queries:
                    continue
                if weight > best_pull:
                    best_shard, best_pull = shard, weight
            if best_shard != current:
                assignment[name] = best_shard
                sizes[current] -= 1
                sizes[best_shard] += 1
                moved = True
        if not moved:
            break
    rebuilt: list[list[str]] = [[] for _ in shards]
    for name in graph.names:
        rebuilt[assignment[name]].append(name)
    return [shard for shard in rebuilt if shard]


def split_pieces(graph: OverlapGraph, *, allow_cut: bool = False) -> list[list[str]]:
    pieces = graph.components()
    if len(pieces) == 1 and allow_cut:
        pieces = community_split(graph, pieces[0])
    return pieces


def reference_partition(
    graph: OverlapGraph, k: int, *, max_shard_queries: int | None = None
) -> tuple[tuple[str, ...], ...]:
    """The shards ``partition_by_overlap`` must return for ``graph``."""
    pieces: list[list[str]] = []
    for component in graph.components():
        if max_shard_queries is not None and len(component) > max_shard_queries:
            pieces.extend(split_component(graph, component, max_shard_queries))
        else:
            pieces.append(component)
    target = -(-len(graph.names) // k)
    while len(pieces) < k:
        oversized = [piece for piece in pieces if len(piece) > target]
        if not oversized:
            break
        largest = max(oversized, key=len)
        sub = community_split(graph, largest)
        if len(sub) <= 1:
            break
        internal = pair_weight(graph, largest)
        kept = sum((pair_weight(graph, piece) for piece in sub), Fraction(0))
        if internal > 0 and kept < MIN_SPLIT_KEEP * internal:
            break
        pieces.remove(largest)
        pieces.extend(sub)
    n_shards = min(k, len(pieces))
    shards: list[list[str]] = [[] for _ in range(n_shards)]
    for piece in sorted(pieces, key=len, reverse=True):
        remaining = list(piece)
        while remaining:
            candidates = sorted(range(n_shards), key=lambda i: (len(shards[i]), i))
            if max_shard_queries is None:
                shards[candidates[0]].extend(remaining)
                break
            whole = next(
                (
                    i
                    for i in candidates
                    if len(shards[i]) + len(remaining) <= max_shard_queries
                ),
                None,
            )
            if whole is not None:
                shards[whole].extend(remaining)
                break
            lightest = candidates[0]
            space = max_shard_queries - len(shards[lightest])
            shards[lightest].extend(remaining[:space])
            remaining = remaining[space:]
    shards = [shard for shard in shards if shard]
    if len(shards) > 1:
        shards = refine(graph, shards, max_shard_queries)
    ordered = {name: i for i, name in enumerate(graph.names)}
    return tuple(tuple(sorted(shard, key=ordered.__getitem__)) for shard in shards)
