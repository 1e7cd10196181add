"""Routing oracles against brute force on tiny random digraphs.

``repro.roadnet.reference`` is the behavioural oracle of the compiled
routing fast path, and ``test_routing_equivalence.py`` pins the two against
each other.  Agreement alone would not catch a defect they share, so this
suite checks both against exhaustive enumeration: on random directed graphs
with at most seven nodes, a depth-first search lists every simple path, and

* Dijkstra and A* (compiled and reference) must cost exactly the cheapest
  simple path — every edge is at least as long as the straight line between
  its endpoints, so the Euclidean A* heuristic stays admissible;
* Yen's ``k_shortest_paths`` with ``k`` at least the number of simple paths
  must return each simple path exactly once, loop-free, in non-decreasing
  cost; with a smaller ``k`` its costs must be the ``k`` smallest.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import NoPathError
from repro.roadnet import reference
from repro.roadnet import shortest_path as fast
from repro.roadnet.graph import RoadEdge, RoadNetwork, RoadNode
from repro.spatial import Point

pytestmark = pytest.mark.property

MAX_NODES = 7


@st.composite
def digraphs(draw):
    """A random digraph (distinct integer node positions, each edge length
    = Euclidean length + non-negative slack) and an od pair of two distinct
    nodes."""
    count = draw(st.integers(min_value=2, max_value=MAX_NODES))
    positions = draw(
        st.lists(
            st.tuples(st.integers(0, 2000), st.integers(0, 2000)),
            min_size=count,
            max_size=count,
            unique=True,
        )
    )
    network = RoadNetwork()
    for node_id, (x, y) in enumerate(positions):
        network.add_node(RoadNode(node_id, Point(float(x), float(y))))
    pairs = [(a, b) for a in range(count) for b in range(count) if a != b]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    for source, target in chosen:
        straight = network.node_location(source).distance_to(network.node_location(target))
        slack = draw(st.sampled_from([0.0, 0.0, 1.0, 37.5, 250.0, 1000.0]))
        network.add_edge(RoadEdge(source, target, straight + slack))
    # Distinct endpoints: a node path needs at least two nodes (route
    # queries never ask for a trip from a node to itself).
    origin, destination = draw(st.sampled_from(pairs))
    return network, origin, destination


def simple_paths(network, origin, destination):
    """Every simple path from ``origin`` to ``destination`` (DFS)."""
    found = []

    def walk(path):
        node = path[-1]
        if node == destination:
            found.append(list(path))
            return
        for neighbour in network.neighbors(node):
            if neighbour not in path:
                path.append(neighbour)
                walk(path)
                path.pop()

    walk([origin])
    return found


def cost_of(network, path):
    return reference.path_cost(network, path)


SEARCHES = {
    "dijkstra_compiled": fast.dijkstra_path,
    "dijkstra_reference": reference.dijkstra_path,
    "astar_compiled": fast.astar_path,
    "astar_reference": reference.astar_path,
}
YENS = {"compiled": fast.k_shortest_paths, "reference": reference.k_shortest_paths}


@settings(max_examples=150, deadline=None)
@given(graph=digraphs())
def test_single_path_searches_find_the_cheapest_simple_path(graph):
    network, origin, destination = graph
    paths = simple_paths(network, origin, destination)
    for name, search in SEARCHES.items():
        if not paths:
            with pytest.raises(NoPathError):
                search(network, origin, destination)
            continue
        path = search(network, origin, destination)
        assert path in paths, name
        assert math.isclose(
            cost_of(network, path),
            min(cost_of(network, candidate) for candidate in paths),
            rel_tol=1e-9,
            abs_tol=1e-9,
        ), name


@settings(max_examples=150, deadline=None)
@given(graph=digraphs(), shortfall=st.integers(min_value=1, max_value=4))
def test_k_shortest_paths_enumerate_simple_paths_in_cost_order(graph, shortfall):
    network, origin, destination = graph
    paths = simple_paths(network, origin, destination)
    if not paths:
        for yen in YENS.values():
            with pytest.raises(NoPathError):
                yen(network, origin, destination, 1)
        return
    all_costs = sorted(cost_of(network, path) for path in paths)
    for name, yen in YENS.items():
        # k >= the number of simple paths: every one, once, in cost order.
        listed = yen(network, origin, destination, len(paths) + shortfall)
        assert sorted(map(tuple, listed)) == sorted(map(tuple, paths)), name
        for path in listed:
            assert len(set(path)) == len(path), name
        costs = [cost_of(network, path) for path in listed]
        assert all(
            earlier <= later or math.isclose(earlier, later, rel_tol=1e-9)
            for earlier, later in zip(costs, costs[1:])
        ), name
        # A smaller k: exactly the k cheapest costs.
        k = max(1, len(paths) - shortfall)
        prefix = [cost_of(network, path) for path in yen(network, origin, destination, k)]
        assert len(prefix) == k, name
        for got, want in zip(prefix, all_costs[:k]):
            assert math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-9), name
