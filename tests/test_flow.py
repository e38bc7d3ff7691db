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


def check_cut(network, edge_indices) -> bool:
    """Whether removing the given edges leaves no source-target path."""
    removed = frozenset(edge_indices)
    adjacency: dict = {}
    for index, e in enumerate(network.edges):
        if index not in removed:
            adjacency.setdefault(e.tail, []).append(e.head)
    seen = {network.source}
    stack = [network.source]
    while stack:
        for w in adjacency.get(stack.pop(), ()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return network.target not in seen


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


def test_min_cut_deterministic():
    rng = random.Random(7)
    edges = random_network(rng)
    first = flow.min_cut(network_of(edges))
    for _ in range(3):
        assert flow.min_cut(network_of(edges)) == first
