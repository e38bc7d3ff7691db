"""Max-flow / min-cut over directed networks with finite and infinite
capacities, returning the value together with a witnessing cut.

Infinity is ``math.inf``.  Parallel edges are kept apart: every edge has an
index (its insertion position) and cuts are reported as index tuples.
Capacities are Python integers, so sums cannot overflow.

A ``FlowNetwork`` numbers its vertices on first use, the source 0 and the
target 1, and stores edge ``k`` as the residual slots ``2k`` (forward)
and ``2k + 1`` (reverse): one array of slot ends, one of capacities.
``add_edge`` numbers the ends of one edge at a time.  The product-network
builder in ``solvers`` reaches the useful part of a product, merges its
attachments into the terminals, numbers the vertices itself and writes
all its edges in one private call.  ``min_cut`` reads those arrays
directly.  Infinite capacities become one more than the sum of the finite
ones, so a reach along such slots alone decides whether any finite cut
exists; when one does, no flow can saturate them.  Dinic's algorithm then
levels the vertices per phase by their residual distance to the target,
found by a BFS backward from the target that stops once it reaches the
source, and finds a blocking flow by a depth-first search from the source
that steps only one level closer to the target each time.  The search
keeps an explicit path stack and a per-vertex slot pointer, so nothing
recurses in proportion to path length, and a vertex it has to leave drops
out of the phase.  Each vertex lists its forward slots before its reverse
ones.

The returned cut is the set of edges leaving the vertices reachable from
the source in the final residual graph.  That set is the source side of
the inclusion-minimal minimum cut, the same for every maximum flow, so
the cut does not depend on the order in which augmenting paths are found.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Union

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
    """A network stored as flat arrays; ``edges`` rebuilds its edge list."""

    def __init__(self, source, target):
        if source == target:
            raise InputError("source and target must differ")
        self.source = source
        self.target = target
        self._index = {source: 0, target: 1}  # vertex -> number, in number order
        self._ends: list[int] = []
        self._caps: list[Capacity] = []

    def add_edge(self, tail, head, capacity: Capacity) -> int:
        if capacity != INF and (
            isinstance(capacity, bool) or not isinstance(capacity, int) or capacity < 0
        ):
            raise InputError(
                f"capacity must be a non-negative integer or INF, got {capacity!r}"
            )
        index = self._index
        self._ends.append(index.setdefault(head, len(index)))
        self._ends.append(index.setdefault(tail, len(index)))
        self._caps.append(capacity)
        return len(self._caps) - 1

    def _add_numbered(self, vertices, ends, caps) -> None:
        """Append edges whose ends the caller has numbered already.

        ``vertices`` names the new numbers in order, starting at the
        current vertex count; ``ends`` holds the head and then the tail
        number of each edge, as ``_ends`` does; ``caps`` holds the
        capacities, which are not checked.
        """
        index = self._index
        index.update(zip(vertices, range(len(index), len(index) + len(vertices))))
        self._ends += ends
        self._caps += caps

    @property
    def edges(self) -> list[Edge]:
        names = list(self._index)
        ends = self._ends
        return [
            Edge(names[ends[2 * k + 1]], names[ends[2 * k]], c)
            for k, c in enumerate(self._caps)
        ]

    def dump(self) -> str:
        lines = [f"source {self.source}", f"target {self.target}"]
        for e in self.edges:
            cap = "INF" if e.capacity == INF else str(e.capacity)
            lines.append(f"{e.tail} -> {e.head} [{cap}]")
        return "\n".join(lines) + "\n"


def _residual_reach(out, ends, cap, floor: int) -> bytearray:
    """Marks the vertices reached from the source along slots of capacity >= floor."""
    reached = bytearray(len(out))
    reached[0] = 1
    stack = [0]
    while stack:
        for slot in out[stack.pop()]:
            w = ends[slot]
            if cap[slot] >= floor and not reached[w]:
                reached[w] = 1
                stack.append(w)
    return reached


def min_cut(network: FlowNetwork) -> CutResult:
    """Minimum cut value and a witnessing set of edge indices.

    Value INF (with an empty index tuple) means the source reaches the
    target through infinite-capacity edges alone, so no finite cut exists.
    """
    ends, caps = network._ends, network._caps
    unbounded = sum(c for c in caps if c != INF) + 1
    cap: list[int] = [0] * (2 * len(caps))  # residual capacity per slot
    cap[::2] = [unbounded if c == INF else c for c in caps]
    n = len(network._index)
    out: list[list[int]] = [[] for _ in range(n)]
    for slot in range(0, len(ends), 2):
        out[ends[slot + 1]].append(slot)
    for slot in range(1, len(ends), 2):
        out[ends[slot - 1]].append(slot)
    # only an INF slot holds more than the sum of the finite capacities
    if _residual_reach(out, ends, cap, unbounded)[1]:
        return CutResult(INF, ())

    value = 0
    while True:
        # residual distance to the target: slot s leads from v to w, and its
        # partner s ^ 1 from w into v, so the partner's capacity counts
        dist = [-1] * n
        dist[1] = 0
        queue = [1]
        for v in queue:
            farther = dist[v] + 1
            for slot in out[v]:
                w = ends[slot]
                if dist[w] < 0 and cap[slot ^ 1]:
                    dist[w] = farther
                    queue.append(w)
            if dist[0] >= 0:
                break
        else:
            break  # the source no longer reaches the target

        pointer = [0] * n
        path: list[int] = []  # slots from the source to v
        v = 0
        while True:
            if v == 1:
                sent = cap[path[0]]
                for slot in path:
                    if cap[slot] < sent:
                        sent = cap[slot]
                value += sent
                # resume from the tail of the first saturated slot
                first = -1
                for i, slot in enumerate(path):
                    cap[slot] -= sent
                    cap[slot ^ 1] += sent
                    if first < 0 and not cap[slot]:
                        first = i
                del path[first:]
                v = ends[path[-1]] if path else 0
                continue
            slots = out[v]
            closer = dist[v] - 1
            i = pointer[v]
            while i < len(slots):
                slot = slots[i]
                if cap[slot] and dist[ends[slot]] == closer:
                    break
                i += 1
            pointer[v] = i
            if i < len(slots):
                path.append(slot)
                v = ends[slot]
            elif path:
                # no blocking path leaves v in this phase
                dist[v] = -1
                v = ends[path.pop() ^ 1]
                pointer[v] += 1
            else:
                break

    reachable = _residual_reach(out, ends, cap, 1)
    cut = tuple(
        k
        for k in range(len(caps))
        if reachable[ends[2 * k + 1]] and not reachable[ends[2 * k]]
    )
    return CutResult(value, cut)

