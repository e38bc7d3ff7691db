"""Min-cut solver against brute-force subset enumeration."""

import math
import random

import pytest

import oracles
from rpqres import flow
from rpqres.errors import InputError


def network_of(edges, source="s", target="t"):
    net = flow.FlowNetwork(source, target)
    for tail, head, cap in edges:
        net.add_edge(tail, head, cap)
    return net


def reaches(edges, start, forward=True):
    """The vertices ``start`` reaches along ``edges``, or that reach it."""
    step: dict = {}
    for tail, head, _ in edges:
        a, b = (tail, head) if forward else (head, tail)
        step.setdefault(a, []).append(b)
    seen, stack = {start}, [start]
    while stack:
        for w in step.get(stack.pop(), ()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def check_cut(network, edge_indices) -> bool:
    """Whether removing the given edges leaves no source-target path."""
    removed = frozenset(edge_indices)
    kept = [e for index, e in enumerate(network.edges) if index not in removed]
    return network.target not in reaches(kept, network.source)


def test_single_edge():
    net = network_of([("s", "t", 3)])
    cut = flow.min_cut(net)
    assert cut.value == 3
    assert cut.edge_indices == (0,)


def test_disconnected_is_zero():
    net = network_of([("s", "a", 5)])
    cut = flow.min_cut(net)
    assert cut.value == 0
    assert cut.edge_indices == ()


def test_infinite_path_has_no_cut():
    net = network_of([("s", "a", flow.INF), ("a", "t", flow.INF)])
    cut = flow.min_cut(net)
    assert math.isinf(cut.value)
    assert cut.edge_indices == ()


def test_infinite_edge_is_never_cut():
    net = network_of([("s", "a", flow.INF), ("a", "t", 2), ("s", "t", 3)])
    cut = flow.min_cut(net)
    assert cut.value == 5
    assert set(cut.edge_indices) == {1, 2}


def test_cut_side_follows_reverse_residual_edges():
    # the shortest path s-w-v-t saturates s-w, yet w stays on the source
    # side, reached back along w-v, so v-t alone is cut
    net = network_of(
        [("s", "w", 1), ("w", "v", 1), ("v", "t", 1),
         ("s", "x", 5), ("x", "y", 5), ("y", "v", 5)]
    )
    assert flow.min_cut(net) == flow.CutResult(1, (2,))


def test_parallel_edges_add_up():
    net = network_of([("s", "t", 1), ("s", "t", 2)])
    assert flow.min_cut(net).value == 3


def test_diamond():
    net = network_of(
        [
            ("s", "a", 3),
            ("s", "b", 2),
            ("a", "t", 2),
            ("b", "t", 3),
            ("a", "b", 1),
        ]
    )
    # 2 along a-t, 2 along b-t fed by s-b, 1 along a-b-t
    assert flow.min_cut(net).value == 5


def test_capacity_validation():
    net = flow.FlowNetwork("s", "t")
    with pytest.raises(InputError):
        net.add_edge("s", "t", -1)
    with pytest.raises(InputError):
        net.add_edge("s", "t", 1.5)
    with pytest.raises(InputError):
        flow.FlowNetwork("s", "s")


@pytest.mark.parametrize("capacity", [True, False])
def test_bool_capacity_is_rejected(capacity):
    net = flow.FlowNetwork("s", "t")
    with pytest.raises(InputError):
        net.add_edge("s", "t", capacity)
    assert net.edges == []


def test_edges_keep_the_callers_vertices_in_insertion_order():
    net = flow.FlowNetwork("source", "target")
    added = [
        ("source", 7, flow.INF),
        (7, ("pair", 0), 3),
        (("pair", 0), "target", 0),
        (7, "target", 2),
        (7, "target", 2),
        (0, 7, 5),
        ("source", 0, flow.INF),
    ]
    assert [net.add_edge(*e) for e in added] == list(range(len(added)))
    assert net.edges == [flow.Edge(*e) for e in added]
    assert [type(v) for e in net.edges for v in e[:2]] == [
        type(v) for e in added for v in e[:2]
    ]
    assert flow.min_cut(net) == flow.CutResult(4, (2, 3, 4))


def test_dump_text():
    net = network_of([("s", 1, 4), (1, "t", flow.INF), ("s", "t", 0)])
    assert net.dump() == "source s\ntarget t\ns -> 1 [4]\n1 -> t [INF]\ns -> t [0]\n"


def test_long_infinite_chain_has_no_cut():
    nodes = ["s", *range(1, 200_000), "t"]
    net = network_of((u, v, flow.INF) for u, v in zip(nodes, nodes[1:]))
    assert flow.min_cut(net) == flow.CutResult(flow.INF, ())


def test_infinite_cycle_off_the_target_leaves_a_finite_cut():
    net = network_of(
        [("s", "a", flow.INF), ("a", "b", flow.INF), ("b", "a", flow.INF),
         ("b", "c", flow.INF), ("c", "s", flow.INF), ("a", "t", 4), ("c", "t", 3)]
    )
    assert flow.min_cut(net) == flow.CutResult(7, (5, 6))


def test_check_cut():
    net = network_of([("s", "a", 1), ("a", "t", 1)])
    assert check_cut(net, [0])
    assert check_cut(net, [1])
    assert not check_cut(net, [])


def random_network(rng, max_edges=10):
    nodes = ["s", "t", "u", "v", "w", "x"]
    edges = []
    for _ in range(rng.randint(1, max_edges)):
        tail, head = rng.sample(nodes, 2)
        cap = flow.INF if rng.random() < 0.15 else rng.randint(1, 6)
        edges.append((tail, head, cap))
    return edges


def test_min_cut_matches_bruteforce():
    rng = random.Random(1105)
    for _ in range(60):
        edges = random_network(rng)
        net = network_of(edges)
        cut = flow.min_cut(net)
        assert cut.value == oracles.brute_min_cut_value(edges, "s", "t")
        if not math.isinf(cut.value):
            # the returned indices really are a cut of the stated weight
            assert check_cut(net, cut.edge_indices)
            assert sum(edges[i][2] for i in cut.edge_indices) == cut.value


def test_long_path_does_not_recurse():
    # one augmenting path 50,000 edges long: no recursion along it
    caps = [5 + (i * 31) % 1000 for i in range(50_000)]
    caps[31_337] = 3
    nodes = ["s", *range(1, 50_000), "t"]
    cut = flow.min_cut(network_of(zip(nodes, nodes[1:], caps)))
    assert cut.value == 3
    assert cut.edge_indices == (31_337,)


def residual_side(nx, edges, source, target):
    """networkx's max-flow value and the vertices its residual graph
    reaches from the source; parallel edges are merged first."""
    G = nx.DiGraph()
    for tail, head, cap in edges:
        if G.has_edge(tail, head):
            G[tail][head]["capacity"] += cap
        else:
            G.add_edge(tail, head, capacity=cap)
    G.add_nodes_from((source, target))
    value, flows = nx.maximum_flow(G, source, target)
    reached = {source}
    stack = [source]
    while stack:
        u = stack.pop()
        nxt = [v for v in G.successors(u) if G[u][v]["capacity"] > flows[u][v]]
        nxt += [v for v in G.predecessors(u) if flows[v][u] > 0]
        for v in nxt:
            if v not in reached:
                reached.add(v)
                stack.append(v)
    return value, reached


def test_min_cut_agrees_with_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(2024)
    nodes = ["s", "t"] + [f"v{i}" for i in range(40)]
    finite = 0
    for _ in range(25):
        edges = []
        while len(edges) < 200:
            tail, head = rng.sample(nodes, 2)
            cap = flow.INF if rng.random() < 0.05 else rng.randint(1, 9)
            edges.append((tail, head, cap))
            if rng.random() < 0.1:
                edges.append((tail, head, rng.randint(1, 9)))
        cut = flow.min_cut(network_of(edges))
        try:
            value, reached = residual_side(nx, edges, "s", "t")
        except nx.NetworkXUnbounded:
            assert math.isinf(cut.value)
            continue
        finite += 1
        assert cut.value == value
        assert cut.edge_indices == tuple(
            i
            for i, (tail, head, _) in enumerate(edges)
            if tail in reached and head not in reached
        )
    assert finite >= 15


def test_pre_push_agrees_with_networkx():
    """Networks dense in two-edge paths s -> v -> t, which the pre-push
    fills before the first phase: a source edge shared by several target
    edges, parallel edges, an unbounded edge on either side of v, and v
    on longer paths too."""
    nx = pytest.importorskip("networkx")
    rng = random.Random(2028)
    seen = dict.fromkeys(("shared", "parallel", "unbounded", "longer", "finite cut"), 0)
    for _ in range(300):
        middle = [f"v{i}" for i in range(rng.randint(1, 8))]
        inner = middle + [f"w{i}" for i in range(rng.randint(0, 5))]
        edges = []
        for v in middle:
            for end in ("s", "t"):
                for _ in range(rng.randint(1, 3)):
                    cap = flow.INF if rng.random() < 0.08 else rng.randint(1, 9)
                    edges.append(("s", v, cap) if end == "s" else (v, "t", cap))
        for _ in range(rng.randint(0, 10)):
            tail, head = rng.choice(["s", *inner]), rng.choice([*inner, "t"])
            edges.append((tail, head, flow.INF if rng.random() < 0.3 else rng.randint(1, 9)))
        rng.shuffle(edges)
        net = network_of(edges)
        cut = flow.min_cut(net)
        assert cut == reference_min_cut(net), edges

        outs = {v: [h for t, h, _ in edges if t == v] for v in middle}
        pairs = [(tail, head) for tail, head, _ in edges]
        seen["shared"] += any(outs[v].count("t") > 1 for v in middle)
        seen["parallel"] += len(set(pairs)) < len(pairs)
        seen["unbounded"] += any(
            c == flow.INF and (tail == "s" or head == "t") and {tail, head} & set(middle)
            for tail, head, c in edges
        )
        seen["longer"] += any(h != "t" for v in middle for h in outs[v])
        try:
            value, reached = residual_side(nx, edges, "s", "t")
        except nx.NetworkXUnbounded:
            assert math.isinf(cut.value)
            continue
        seen["finite cut"] += 1
        assert cut.value == value
        assert cut.edge_indices == tuple(
            i
            for i, (tail, head, _) in enumerate(edges)
            if tail in reached and head not in reached
        )
    assert min(seen.values()) >= 100, seen


def test_min_cut_deterministic():
    rng = random.Random(7)
    edges = random_network(rng)
    first = flow.min_cut(network_of(edges))
    for _ in range(3):
        assert flow.min_cut(network_of(edges)) == first


# ---------------------------------------------------------------------------
# the source-levelled Dinic that min_cut replaced, as a reference


def reference_min_cut(network):
    """Dinic's algorithm with BFS levels counted from the source."""
    ends, caps = network._ends, network._caps
    unbounded = sum(c for c in caps if c != flow.INF) + 1
    cap = [0] * (2 * len(caps))
    cap[::2] = [unbounded if c == flow.INF else c for c in caps]
    n = len(network._index)
    out = [[] for _ in range(n)]
    for slot in range(0, len(ends), 2):
        out[ends[slot + 1]].append(slot)
        out[ends[slot]].append(slot + 1)
    if flow._residual_reach(out, ends, cap, unbounded)[1]:
        return flow.CutResult(flow.INF, ())

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
        path = []
        v = 0
        while True:
            if v == 1:
                sent = min(cap[slot] for slot in path)
                value += sent
                for slot in path:
                    cap[slot] -= sent
                    cap[slot ^ 1] += sent
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
                level[v] = -1
                v = ends[path.pop() ^ 1]
                pointer[v] += 1
            else:
                break

    reachable = flow._residual_reach(out, ends, cap, 1)
    cut = tuple(
        k
        for k in range(len(caps))
        if reachable[ends[2 * k + 1]] and not reachable[ends[2 * k]]
    )
    return flow.CutResult(value, cut)


def test_min_cut_matches_the_source_levelled_reference():
    rng = random.Random(2211)
    seen = dict.fromkeys(
        ("infinite", "parallel", "zero", "self-loop", "reaches only the target",
         "reached only from the source", "finite cut", "no finite cut"), 0)
    for _ in range(600):
        nodes = ["s", "t", *range(rng.randint(1, 12))]
        edges, unbounded = [], rng.choice((0.05, 0.3))
        for _ in range(rng.randint(1, 40)):
            tail, head = rng.choice(nodes), rng.choice(nodes)
            roll = rng.random()
            cap = flow.INF if roll < unbounded else 0 if roll < 0.4 else rng.randint(1, 9)
            edges.append((tail, head, cap))
            if rng.random() < 0.15:
                edges.append((tail, head, rng.randint(0, 9)))
        # a dangling tree into the target and one out of the source
        for end in ("t", "s"):
            for k in range(rng.randint(0, 3)):
                extra = f"{end}-side {k}"
                other = rng.choice([end, *[v for v in nodes if v not in ("s", "t")]])
                pair = (extra, other) if end == "t" else (other, extra)
                edges.append((*pair, rng.choice((0, 1, 5, flow.INF))))
        net = network_of(edges)
        got = flow.min_cut(net)
        assert got == reference_min_cut(net), edges

        from_s, to_t = reaches(edges, "s"), reaches(edges, "t", forward=False)
        pairs = [(tail, head) for tail, head, _ in edges]
        seen["infinite"] += any(c == flow.INF for _, _, c in edges)
        seen["parallel"] += len(set(pairs)) < len(pairs)
        seen["zero"] += any(c == 0 for _, _, c in edges)
        seen["self-loop"] += any(tail == head for tail, head in pairs)
        seen["reaches only the target"] += bool(to_t - from_s)
        seen["reached only from the source"] += bool(from_s - to_t)
        seen["finite cut" if got.value != flow.INF else "no finite cut"] += 1
    assert min(seen.values()) >= 50, seen


def parallel_chains(lengths):
    """Chains from s to t, one per length, each with one least capacity:
    the network, its minimum cut value and its cut edge indices."""
    net = flow.FlowNetwork("s", "t")
    value, cut = 0, []
    for length in lengths:
        narrow = 7 * length // 11
        nodes = ["s", *((length, i) for i in range(1, length)), "t"]
        for i, (tail, head) in enumerate(zip(nodes, nodes[1:])):
            cap = length if i == narrow else length + 1 + i % 3
            k = net.add_edge(tail, head, cap)
            if i == narrow:
                value += cap
                cut.append(k)
    return net, value, tuple(cut)


def test_many_phases_of_distinct_path_lengths():
    # each path length takes its own phase: 200 phases, one per chain
    net, value, cut = parallel_chains(range(1, 201))
    assert flow.min_cut(net) == flow.CutResult(value, cut)
    assert value == sum(range(1, 201))


def test_min_cut_leaves_the_network_untouched():
    net, value, cut = parallel_chains([3, 1, 4, 1, 5])
    for edge in (("s", "x", flow.INF), ("x", "t", 2), ("x", "x", 0), ("t", "s", 7)):
        net.add_edge(*edge)
    ends, caps = list(net._ends), list(net._caps)
    first = flow.min_cut(net)
    assert first == flow.CutResult(value + 2, (*cut, len(caps) - 3))
    assert (net._ends, net._caps) == (ends, caps)
    assert flow.min_cut(net) == first
    assert (net._ends, net._caps) == (ends, caps)
