"""Max-flow / min-cut over directed networks with finite and infinite
capacities, returning the value together with a witnessing cut.

Infinity is ``math.inf``.  Parallel edges are kept apart: every edge has an
index (its insertion position) and cuts are reported as index tuples.
Capacities are Python integers, so sums cannot overflow.

``min_cut`` first decides, by a reachability pass restricted to infinite
edges, whether any finite cut exists at all.  It then interns the vertices
to integers and runs Dinic's blocking-flow algorithm over flat arrays:
edge ``k`` becomes the residual slots ``2k`` (forward) and ``2k + 1``
(reverse), with one array of slot heads, one of residual capacities and
one slot list per vertex.  Each phase builds a BFS level graph and finds
a blocking flow by a depth-first search with an explicit path stack and
a per-vertex slot pointer, so nothing recurses in proportion to path
length.  Infinite capacities are replaced by one more than the sum of the
finite ones, which no flow can saturate once no infinite path exists.

The returned cut is the set of edges leaving the vertices reachable from
the source in the final residual graph.  That set is the source side of
the inclusion-minimal minimum cut, the same for every maximum flow, so
the cut does not depend on the order in which augmenting paths are found.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Union

from .errors import InputError

INF = math.inf

Capacity = Union[int, float]


class Edge(NamedTuple):
    tail: str
    head: str
    capacity: Capacity


@dataclass(frozen=True)
class CutResult:
    value: Capacity
    edge_indices: tuple[int, ...]


class FlowNetwork:
    def __init__(self, source, target):
        if source == target:
            raise InputError("source and target must differ")
        self.source = source
        self.target = target
        self.edges: list[Edge] = []

    def add_edge(self, tail, head, capacity: Capacity) -> int:
        if capacity != INF:
            if not isinstance(capacity, int) or capacity < 0:
                raise InputError(
                    f"capacity must be a non-negative integer or INF, got {capacity!r}"
                )
        self.edges.append(Edge(tail, head, capacity))
        return len(self.edges) - 1

    def dump(self) -> str:
        lines = [f"source {self.source}", f"target {self.target}"]
        for e in self.edges:
            cap = "INF" if e.capacity == INF else str(e.capacity)
            lines.append(f"{e.tail} -> {e.head} [{cap}]")
        return "\n".join(lines) + "\n"


def _reaches(adjacency: dict, source, target) -> bool:
    seen = {source}
    stack = [source]
    while stack:
        v = stack.pop()
        if v == target:
            return True
        for w in adjacency.get(v, ()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return False


def min_cut(network: FlowNetwork) -> CutResult:
    """Minimum cut value and a witnessing set of edge indices.

    Value INF (with an empty index tuple) means the source reaches the
    target through infinite-capacity edges alone, so no finite cut exists.
    """
    infinite_adj: dict = {}
    for e in network.edges:
        if e.capacity == INF:
            infinite_adj.setdefault(e.tail, []).append(e.head)
    if _reaches(infinite_adj, network.source, network.target):
        return CutResult(INF, ())

    # vertex ids: source 0, target 1; slot 2k is edge k, slot 2k + 1 its reverse
    index = {network.source: 0, network.target: 1}
    ends: list[int] = []
    cap: list[int] = []
    finite_total = 0
    for e in network.edges:
        ends.append(index.setdefault(e.head, len(index)))
        ends.append(index.setdefault(e.tail, len(index)))
        if e.capacity != INF:
            finite_total += e.capacity
    unbounded = finite_total + 1
    for e in network.edges:
        cap.append(unbounded if e.capacity == INF else e.capacity)
        cap.append(0)
    n = len(index)
    out: list[list[int]] = [[] for _ in range(n)]
    for slot in range(0, len(ends), 2):
        out[ends[slot + 1]].append(slot)
        out[ends[slot]].append(slot + 1)

    value = 0
    while True:
        level = [-1] * n
        level[0] = 0
        queue = [0]
        for v in queue:
            below = level[v] + 1
            for slot in out[v]:
                w = ends[slot]
                if cap[slot] and level[w] < 0:
                    level[w] = below
                    queue.append(w)
        if level[1] < 0:
            break

        pointer = [0] * n
        path: list[int] = []  # slots from the source to v
        v = 0
        while True:
            if v == 1:
                sent = min(cap[slot] for slot in path)
                value += sent
                for slot in path:
                    cap[slot] -= sent
                    cap[slot ^ 1] += sent
                # resume from the tail of the first saturated slot
                for i, slot in enumerate(path):
                    if not cap[slot]:
                        break
                del path[i:]
                v = ends[path[-1]] if path else 0
                continue
            slots = out[v]
            below = level[v] + 1
            i = pointer[v]
            while i < len(slots):
                slot = slots[i]
                if cap[slot] and level[ends[slot]] == below:
                    break
                i += 1
            pointer[v] = i
            if i < len(slots):
                path.append(slot)
                v = ends[slot]
            elif path:
                # no blocking path leaves v in this phase
                level[v] = -1
                v = ends[path.pop() ^ 1]
                pointer[v] += 1
            else:
                break

    reachable = [False] * n
    reachable[0] = True
    stack = [0]
    while stack:
        for slot in out[stack.pop()]:
            w = ends[slot]
            if cap[slot] and not reachable[w]:
                reachable[w] = True
                stack.append(w)
    cut = tuple(
        k
        for k in range(len(network.edges))
        if reachable[ends[2 * k + 1]] and not reachable[ends[2 * k]]
    )
    return CutResult(value, cut)


def check_cut(network: FlowNetwork, edge_indices: Iterable[int]) -> bool:
    """Whether removing the given edges leaves no source-target path."""
    removed = frozenset(edge_indices)
    adjacency: dict = {}
    for index, e in enumerate(network.edges):
        if index not in removed:
            adjacency.setdefault(e.tail, []).append(e.head)
    return not _reaches(adjacency, network.source, network.target)
