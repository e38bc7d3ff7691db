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


def test_check_cut():
    net = network_of([("s", "a", 1), ("a", "t", 1)])
    assert flow.check_cut(net, [0])
    assert flow.check_cut(net, [1])
    assert not flow.check_cut(net, [])


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
            assert flow.check_cut(net, cut.edge_indices)
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


def test_min_cut_deterministic():
    rng = random.Random(7)
    edges = random_network(rng)
    first = flow.min_cut(network_of(edges))
    for _ in range(3):
        assert flow.min_cut(network_of(edges)) == first
