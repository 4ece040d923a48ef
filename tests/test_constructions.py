"""Builders for the named ordered graphs and colorings."""

import hashlib
import itertools
import random

import pytest

from conftest import graph_components
from orl.constructions import (
    BlockedOrderedGraph,
    TwoRegularSpec,
    alternating_cycle,
    alternating_path,
    blowup_path,
    complete_bipartite,
    eff_graph,
    nested_matching,
    order_max_degree_two,
    order_two_regular,
    parse_blocks,
    quadratic_lb_instance,
    serialize_blocks,
    tee_graph,
)
from orl.core import (
    BLUE,
    OrderedGraph,
    RED,
    UnorderedGraph,
    contains,
    interval_chromatic_number,
    serialize_ordered_graph,
)


# ---------------------------------------------------------------------------
# alternating paths and matchings
# ---------------------------------------------------------------------------

def test_alternating_path_small_cases():
    assert alternating_path(1).edges == frozenset()
    assert alternating_path(2).edges == {(1, 2)}
    assert alternating_path(3).edges == {(1, 3), (2, 3)}
    assert alternating_path(4).edges == {(1, 4), (2, 4), (2, 3)}
    with pytest.raises(ValueError):
        alternating_path(0)


def test_alternating_path_7_structure():
    p7 = alternating_path(7)
    assert p7.m == 6
    degrees = sorted(p7.degree(v) for v in range(1, 8))
    assert degrees == [1, 1, 2, 2, 2, 2, 2]
    # the degree-one endpoints sit at position 1 and position ceil((n+1)/2)
    assert p7.degree(1) == 1 and p7.degree(4) == 1
    assert graph_components(p7) == [7]


def test_alternating_path_splits_into_two_interval_classes():
    # every edge joins the first ceil(n/2) positions to the rest
    for n in range(2, 10):
        p = alternating_path(n)
        split = (n + 1) // 2
        assert all(a <= split < b for a, b in p.edges)
        assert interval_chromatic_number(p) == 2


def test_nested_matching():
    assert nested_matching(1).edges == {(1, 2)}
    assert nested_matching(2).edges == {(1, 4), (2, 3)}
    with pytest.raises(ValueError):
        nested_matching(0)


def test_nested_matching_inside_alternating_path():
    for pairs in range(1, 6):
        host = alternating_path(2 * pairs)
        assert contains(host, nested_matching(pairs)) is not None


def test_complete_bipartite():
    assert complete_bipartite(1, 1).edges == {(1, 2)}
    k43 = complete_bipartite(4, 3)
    assert k43.m == 12
    assert k43.edges == {(a, b) for a in range(1, 5) for b in range(5, 8)}
    for r in range(1, 5):
        for s in range(1, 5):
            assert interval_chromatic_number(complete_bipartite(r, s)) == 2


# ---------------------------------------------------------------------------
# alternating cycles
# ---------------------------------------------------------------------------

def test_alternating_cycle_triangle():
    c3 = alternating_cycle(3)
    assert c3.graph.edges == {(1, 2), (1, 3), (2, 3)}
    assert c3.outer_edge == (1, 2)
    assert c3.inner_edge is None


def test_alternating_cycle_6_exact():
    c6 = alternating_cycle(6)
    assert c6.graph.edges == {(1, 5), (1, 6), (2, 4), (2, 6), (3, 4), (3, 5)}
    assert c6.inner_edge == (3, 4)
    # the 6-cycle 1-6-2-4-3-5-1
    assert graph_components(c6.graph) == [6]


def test_alternating_cycle_8_and_9_markers():
    c8 = alternating_cycle(8)
    assert c8.inner_edge == (4, 5) and c8.outer_edge is None
    c9 = alternating_cycle(9)
    assert c9.inner_edge == (6, 7) and c9.outer_edge == (1, 2)
    for blocked in (c8, c9):
        degrees = {blocked.graph.degree(v) for v in range(1, blocked.graph.n + 1)}
        assert degrees == {2}
        assert graph_components(blocked.graph) == [blocked.graph.n]


@pytest.mark.parametrize("m", range(3, 31))
def test_alternating_cycle_regular_connected_blocked(m):
    blocked = alternating_cycle(m)
    g = blocked.graph
    assert g.n == m and g.m == m
    assert all(g.degree(v) == 2 for v in range(1, m + 1))
    assert graph_components(g) == [m]
    # blocks: disjoint order-obeying runs of size at most 2
    prev_end = 0
    for block in blocked.blocks:
        assert 1 <= len(block) <= 2
        assert block[0] > prev_end
        prev_end = block[-1]
    if blocked.inner_edge is not None:
        assert tuple(sorted(blocked.inner_edge)) in g.edges
    if blocked.outer_edge is not None:
        assert blocked.outer_edge == (1, 2)
    with pytest.raises(ValueError):
        alternating_cycle(2)


# ---------------------------------------------------------------------------
# blow-ups and gadgets
# ---------------------------------------------------------------------------

def test_blowup_path_is_path_for_k1():
    for n in range(1, 8):
        assert blowup_path(n, 1).graph == alternating_path(n)


def test_blowup_path_52():
    b = blowup_path(5, 2)
    assert b.graph.n == 10 and b.graph.m == 16
    assert b.blocks == ((1, 2), (3, 4), (5, 6), (7, 8), (9, 10))


def test_blowup_edge_and_vertex_counts():
    for n in range(1, 7):
        for k in range(1, 7):
            b = blowup_path(n, k)
            assert b.graph.n == n * k
            assert b.graph.m == k * k * (n - 1)
    for n in range(1, 9):
        for k in range(1, 9):
            assert blowup_path(n, k).graph.n == n * k
            assert tee_graph(n, k).graph.n == (k + 2) * n
            assert eff_graph(n, k).graph.n == (k + 2) * n


def test_tee_graph_structure():
    t = tee_graph(3, 2)
    assert t.graph.n == 12
    # every block vertex sees exactly the two endpoints of one matching edge
    matching = nested_matching(3).edges
    for i, block in enumerate(t.blocks, start=1):
        for w in block:
            nbrs = [u for u in t.graph.neighbors(w) if u <= 6]
            assert len(nbrs) == 2
            assert tuple(sorted(nbrs)) in matching
            assert tuple(sorted(nbrs)) == (i, 7 - i)


def test_eff_graph_is_tee_plus_blowup():
    t = tee_graph(3, 2)
    f = eff_graph(3, 2)
    blow = {
        (u, v)
        for i, j in alternating_path(3).edges
        for u in t.blocks[i - 1]
        for v in t.blocks[j - 1]
    }
    assert f.graph.edges == t.graph.edges | blow


def test_eff_graph_monotone_under_contains():
    for n in range(1, 5):
        for k in range(1, 5):
            small = eff_graph(n, k).graph
            for n2 in range(n, 5):
                for k2 in range(k, 5):
                    big = eff_graph(n2, k2).graph
                    assert contains(big, small) is not None, (n, k, n2, k2)


# ---------------------------------------------------------------------------
# 2-regular orderings
# ---------------------------------------------------------------------------

def test_order_two_regular_345():
    g = order_two_regular(TwoRegularSpec((3, 4, 5)))
    assert g.n == 12
    assert all(g.degree(v) == 2 for v in range(1, 13))
    assert graph_components(g) == [3, 4, 5]


def test_order_two_regular_component_multiset(rng):
    for _ in range(15):
        parts = []
        total = 0
        while total < 9:
            length = rng.randint(3, 6)
            parts.append(length)
            total += length
        g = order_two_regular(TwoRegularSpec(tuple(parts)))
        assert graph_components(g) == sorted(parts)
        assert all(g.degree(v) == 2 for v in range(1, g.n + 1))


def test_order_two_regular_bipartite_embeds_in_blowup():
    g = order_two_regular(TwoRegularSpec((6, 4)), bipartite_mode=True)
    assert contains(blowup_path(10, 2).graph, g) is not None


def test_order_two_regular_general_embeds_in_eff():
    g = order_two_regular(TwoRegularSpec((3, 4)))
    assert contains(eff_graph(3, 2).graph, g) is not None
    assert contains(eff_graph(7, 2).graph, g) is not None


def test_order_two_regular_validation():
    with pytest.raises(ValueError):
        order_two_regular(TwoRegularSpec((3, 4)), bipartite_mode=True)
    with pytest.raises(ValueError):
        order_two_regular(TwoRegularSpec((6, 5)), bipartite_mode=True)
    with pytest.raises(ValueError):
        TwoRegularSpec((2, 4))


def test_order_max_degree_two_restriction():
    # two paths and an isolated vertex: 1-2-3, 4-5, 6
    g = UnorderedGraph(6, [(1, 2), (2, 3), (4, 5)])
    ordered = order_max_degree_two(g)
    assert ordered.n == 6 and ordered.m == 3
    assert sorted(ordered.degree(v) for v in range(1, 7)) == [0, 1, 1, 1, 1, 2]
    # a cycle plus a path, bipartite mode
    g2 = UnorderedGraph(7, [(1, 2), (2, 3), (3, 4), (1, 4), (5, 6), (6, 7)])
    ordered2 = order_max_degree_two(g2, bipartite_mode=True)
    assert ordered2.n == 7 and ordered2.m == 6
    with pytest.raises(ValueError):
        order_max_degree_two(
            UnorderedGraph(3, [(1, 2), (2, 3), (1, 3)]), bipartite_mode=True
        )
    with pytest.raises(ValueError):
        order_max_degree_two(UnorderedGraph(4, [(1, 2), (1, 3), (1, 4)]))


def test_order_max_degree_two_empty_graph():
    for mode in (False, True):
        assert order_max_degree_two(UnorderedGraph(0), bipartite_mode=mode) == OrderedGraph(0)


def test_order_max_degree_two_output_embeds_in_eff():
    g = UnorderedGraph(5, [(1, 2), (2, 3), (4, 5)])
    ordered = order_max_degree_two(g)
    # the supergraph uses at most 3 vertices per path, so eff(9, 2) suffices
    assert contains(eff_graph(9, 2).graph, ordered) is not None


def _ordering_text(build, *args, **kwargs) -> str:
    try:
        return serialize_ordered_graph(build(*args, **kwargs))
    except ValueError:
        return "ValueError\n"


def _random_max_degree_two(rng: random.Random) -> UnorderedGraph:
    n = rng.randint(1, 16)
    degree = [0] * (n + 1)
    edges = set()
    for _ in range(rng.randint(0, 2 * n) if n > 1 else 0):
        a, b = sorted(rng.sample(range(1, n + 1), 2))
        if degree[a] < 2 and degree[b] < 2 and (a, b) not in edges:
            edges.add((a, b))
            degree[a] += 1
            degree[b] += 1
    return UnorderedGraph(n, edges)


def test_max_degree_two_orderings_golden():
    spec_edges = {
        (3, 4): [(1, 2), (1, 3), (2, 3), (4, 6), (4, 7), (5, 6), (5, 7)],
        (3, 4, 5): [(1, 4), (1, 5), (2, 3), (2, 9), (3, 8), (4, 5), (6, 11), (6, 12),
                    (7, 11), (7, 12), (8, 10), (9, 10)],
        (5, 3, 7): [(1, 6), (1, 8), (2, 5), (2, 9), (3, 4), (3, 11), (4, 10), (5, 9),
                    (6, 7), (7, 15), (8, 15), (10, 14), (11, 13), (12, 13), (12, 14)],
    }
    for lengths, edges in spec_edges.items():
        assert order_two_regular(TwoRegularSpec(lengths)).sorted_edges() == edges
    assert order_two_regular(TwoRegularSpec((4, 6)), bipartite_mode=True).sorted_edges() == [
        (1, 9), (1, 10), (2, 9), (2, 10), (3, 7), (3, 8), (4, 6), (4, 8), (5, 6), (5, 7)]
    paths = UnorderedGraph(6, [(1, 2), (2, 3), (4, 5)])
    assert order_max_degree_two(paths).sorted_edges() == [(1, 5), (2, 4), (5, 6)]
    square_and_path = UnorderedGraph(7, [(1, 2), (2, 3), (3, 4), (1, 4), (5, 6), (6, 7)])
    assert order_max_degree_two(square_and_path, bipartite_mode=True).sorted_edges() == [
        (1, 6), (1, 7), (2, 6), (2, 7), (3, 5), (4, 5)]

    rng = random.Random(20261018)
    digest = hashlib.sha256()
    for _ in range(2000):
        g = _random_max_degree_two(rng)
        for mode in (False, True):
            digest.update(_ordering_text(order_max_degree_two, g, bipartite_mode=mode).encode())
    for count in (1, 2, 3):
        for lengths in itertools.product(range(3, 9), repeat=count):
            for mode in (False, True):
                text = _ordering_text(order_two_regular, TwoRegularSpec(lengths), bipartite_mode=mode)
                digest.update(text.encode())
    assert digest.hexdigest() == "52e0fc4957a075b32383b1783b74292b2e3a41cf234ea6ac678ca84132fcbd60"


# ---------------------------------------------------------------------------
# the quadratic lower-bound instance
# ---------------------------------------------------------------------------

def test_quadratic_lb_instance_9():
    g, col = quadratic_lb_instance(9)
    assert g.n == 9
    assert graph_components(g) == [3, 3, 3]
    assert col.n == 8


def test_quadratic_lb_instance_18_shape():
    g, col = quadratic_lb_instance(18)
    assert g.n == 18
    assert graph_components(g) == [3, 3, 3, 3, 6]
    assert col.n == 40
    # blue forms 8 disjoint 5-cliques, red everything across
    for i in range(1, 41):
        for j in range(i + 1, 41):
            same = (i - 1) // 5 == (j - 1) // 5
            assert col.color(i, j) == (BLUE if same else RED)


def test_quadratic_lb_instance_validation():
    with pytest.raises(ValueError):
        quadratic_lb_instance(12)
    with pytest.raises(ValueError):
        quadratic_lb_instance(0)


# ---------------------------------------------------------------------------
# blocks sidecar
# ---------------------------------------------------------------------------

def test_blocks_sidecar_round_trip():
    for blocked in (
        alternating_cycle(9),
        blowup_path(4, 2),
        tee_graph(3, 2),
        eff_graph(2, 3),
    ):
        text = serialize_blocks(blocked)
        again = parse_blocks(text, blocked.graph)
        assert again.blocks == blocked.blocks
        assert again.inner_edge == blocked.inner_edge
        assert again.outer_edge == blocked.outer_edge


def test_blocked_graph_validation():
    g = OrderedGraph(4, [(1, 2), (3, 4)])
    with pytest.raises(ValueError):
        BlockedOrderedGraph(g, ((1, 3),))  # not consecutive
    with pytest.raises(ValueError):
        BlockedOrderedGraph(g, ((1, 2), (2, 3)))  # overlapping
    with pytest.raises(ValueError):
        BlockedOrderedGraph(g, ((1, 2),), inner_edge=(1, 3))  # not an edge
