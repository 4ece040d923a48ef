"""Core data model, formats, containment search, and interval machinery."""

import random
import re

import pytest

from conftest import all_graphs, brute_contains, brute_interval_chromatic
from orl.core import (
    BLUE,
    Coloring,
    Embedding,
    FormatError,
    IntervalPartition,
    OrderedGraph,
    RED,
    complete_graph,
    contains,
    interval_chromatic_number,
    pair_index,
    pair_iter,
    parse_coloring,
    parse_ordered_graph,
    parse_unordered_graph,
    search_embedding,
    serialize_coloring,
    serialize_ordered_graph,
    serialize_unordered_graph,
)
from orl.stochastic import blown_up_random_coloring, sample_permutation_matching


# ---------------------------------------------------------------------------
# types
# ---------------------------------------------------------------------------

def test_ordered_graph_invariants():
    g = OrderedGraph(3, [(3, 1), (2, 3)])
    assert g.edges == frozenset({(1, 3), (2, 3)})
    assert g.degree(3) == 2 and g.degree(1) == 1
    assert g.neighbors(3) == [1, 2] and g.neighbors(2) == [3]
    with pytest.raises(ValueError):
        OrderedGraph(3, [(1, 1)])
    with pytest.raises(ValueError):
        OrderedGraph(3, [(0, 2)])
    with pytest.raises(ValueError):
        OrderedGraph(3, [(2, 4)])


def test_ordered_isomorphism_is_edge_set_equality():
    assert OrderedGraph(3, [(1, 2)]) == OrderedGraph(3, [(2, 1)])
    assert OrderedGraph(3, [(1, 2)]) != OrderedGraph(4, [(1, 2)])
    assert OrderedGraph(3, [(1, 2)]) != OrderedGraph(3, [(1, 3)])


@pytest.mark.parametrize("cls", [OrderedGraph])
def test_graph_classes_normalize_edges_alike(cls):
    assert cls(4, [(3, 1), (1, 3), (2, 4)]).edges == frozenset({(1, 3), (2, 4)})
    for n, edges, message in [
        (-1, [], "vertex count must be non-negative"),
        (3, [(0, 2)], "edge (0,2) out of range 1..3"),
        (3, [(4, 2)], "edge (2,4) out of range 1..3"),
    ]:
        with pytest.raises(ValueError, match=re.escape(message)):
            cls(n, edges)
    with pytest.raises(ValueError, match="self-loop at vertex 2"):
        cls(3, [(2, 2)])


def test_embedding_validation_and_composition():
    e = Embedding(3, (2, 4, 7))
    assert e(2) == 4
    with pytest.raises(ValueError):
        Embedding(3, (2, 2, 7))
    with pytest.raises(ValueError):
        Embedding(3, (4, 2, 7))
    with pytest.raises(ValueError):
        Embedding(2, (1, 2, 3))
    outer = Embedding(7, (1, 3, 5, 7, 9, 11, 13))
    composed = e.compose(outer)
    assert composed.image == (3, 7, 13)


def test_interval_partition():
    p = IntervalPartition(6, (2, 0, 3, 1))
    assert p.bounds() == [(1, 2), (3, 2), (3, 5), (6, 6)]
    assert list(p.members(3)) == [3, 4, 5]
    assert p.interval_of(4) == 3
    assert p.interval_of(6) == 4
    with pytest.raises(ValueError):
        IntervalPartition(5, (2, 2))
    with pytest.raises(ValueError):
        IntervalPartition(4, (5, -1))


def test_pair_index_matches_iteration_order():
    for n in range(2, 8):
        for t, (i, j) in enumerate(pair_iter(n)):
            assert pair_index(i, j, n) == t


# ---------------------------------------------------------------------------
# og / col formats
# ---------------------------------------------------------------------------

def test_parse_ordered_graph_example():
    g = parse_ordered_graph("og 3 2\ne 1 3\ne 2 3\n")
    assert g == OrderedGraph(3, [(1, 3), (2, 3)])


def test_serialize_is_canonical_round_trip():
    text = "og 4 3\n e 2 4 \ne 1 4\ne 1 2\n"
    g = parse_ordered_graph(text)
    canonical = serialize_ordered_graph(g)
    assert canonical == "og 4 3\ne 1 2\ne 1 4\ne 2 4\n"
    assert serialize_ordered_graph(parse_ordered_graph(canonical)) == canonical


def test_parse_errors_carry_line_numbers():
    with pytest.raises(FormatError) as err:
        parse_ordered_graph("og 2 1\ne 2 2\n")
    assert err.value.line == 2 and "self-loop" in str(err.value)
    with pytest.raises(FormatError) as err:
        parse_ordered_graph("og 2 2\ne 1 2\ne 1 2\n")
    assert err.value.line == 3 and "duplicate" in str(err.value)
    with pytest.raises(FormatError) as err:
        parse_ordered_graph("og 2 1\ne 1 5\n")
    assert err.value.line == 2 and "out of range" in str(err.value)
    with pytest.raises(FormatError) as err:
        parse_ordered_graph("graph 2 1\ne 1 2\n")
    assert err.value.line == 1
    with pytest.raises(FormatError):
        parse_ordered_graph("og 3 2\ne 1 2\n")  # wrong edge count


def test_unordered_graph_format_round_trip():
    text = "adj 4 2\ne 1 2\ne 3 4\n"
    g = parse_unordered_graph(text)
    assert g.n == 4 and g.m == 2
    assert [g.degree(v) for v in range(1, 5)] == [1, 1, 1, 1]
    assert serialize_unordered_graph(g) == text


def test_adj_and_og_texts_with_the_same_edges_parse_alike():
    adj = parse_unordered_graph("adj 5 3\ne 4 2\ne 1 5\ne 2 3\n")
    og = parse_ordered_graph("og 5 3\ne 1 5\ne 2 3\ne 2 4\n")
    assert adj == og and hash(adj) == hash(og)
    assert adj.edges == og.edges == frozenset({(1, 5), (2, 3), (2, 4)})
    assert serialize_unordered_graph(adj) == serialize_ordered_graph(og).replace("og", "adj", 1)


def test_coloring_format_round_trip_any_input_order(rng):
    for _ in range(10):
        n = rng.randint(1, 7)
        col = Coloring.from_function(
            n, lambda i, j: RED if rng.random() < 0.5 else BLUE
        )
        lines = serialize_coloring(col).strip().split("\n")
        head, body = lines[0], lines[1:]
        rng.shuffle(body)
        again = parse_coloring("\n".join([head] + body))
        assert again == col
        assert serialize_coloring(again) == serialize_coloring(col)


def test_coloring_parse_errors():
    with pytest.raises(FormatError) as err:
        parse_coloring("col 3\nc 1 2 R\nc 1 3 B\n")
    assert "not total" in str(err.value)
    with pytest.raises(FormatError):
        parse_coloring("col 2\nc 1 2 X\n")
    with pytest.raises(FormatError) as err:
        parse_coloring("col 2\nc 1 2 R\nc 1 2 B\n")
    assert err.value.line == 3


def test_coloring_total_invariant():
    with pytest.raises(ValueError):
        Coloring(3, [RED, BLUE])
    col = Coloring(3, [RED, BLUE, RED])
    assert col.color(3, 2) == RED
    assert col.monochromatic_subgraph(RED).edges == frozenset({(1, 2), (2, 3)})


def test_graphs_agree_however_they_were_built():
    # parsed and monochromatic graphs are built from bitmasks, OrderedGraph
    # from edges; equality, hashing and the derived views must not tell
    gen = random.Random(20261018)
    for _ in range(300):
        n = gen.randint(0, 14)
        density = gen.random()
        edges = [e for e in pair_iter(n) if gen.random() < density]
        gen.shuffle(edges)
        text = f"og {n} {len(edges)}\n" + "".join(
            f"e {j} {i}\n" if gen.random() < 0.5 else f"e {i} {j}\n" for i, j in edges
        )
        built = OrderedGraph(n, edges)
        red = Coloring.from_function(n, lambda i, j: RED if (i, j) in built.edges else BLUE)
        for g in (parse_ordered_graph(text), red.monochromatic_subgraph(RED)):
            assert g == built and built == g
            assert hash(g) == hash(built)
            assert {built: "x"}[g] == "x" and len({g, built}) == 1
            assert g.m == built.m == len(edges)
            assert g.sorted_edges() == built.sorted_edges() == sorted(edges)
            assert g.edges == built.edges == frozenset(edges)
            assert g != OrderedGraph(n + 1, edges)


# ---------------------------------------------------------------------------
# containment
# ---------------------------------------------------------------------------

def test_contains_examples():
    assert contains(complete_graph(3), complete_graph(2)).image == (1, 2)
    alt3 = OrderedGraph(3, [(1, 3), (2, 3)])
    assert contains(complete_graph(3), alt3).image == (1, 2, 3)
    bip = OrderedGraph(4, [(1, 3), (1, 4), (2, 3), (2, 4)])
    assert contains(bip, complete_graph(3)) is None


def test_contains_empty_pattern():
    assert contains(OrderedGraph(0), OrderedGraph(0)).image == ()
    assert contains(complete_graph(3), OrderedGraph(0)).image == ()


def test_contains_is_reflexive(rng):
    for _ in range(20):
        n = rng.randint(0, 6)
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        g = OrderedGraph(n, rng.sample(pairs, rng.randint(0, len(pairs))))
        emb = contains(g, g)
        assert emb is not None and emb.image == tuple(range(1, n + 1))


def test_contains_transitive_on_witnesses(rng):
    for _ in range(30):
        n = rng.randint(1, 5)
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        pattern = OrderedGraph(n, rng.sample(pairs, rng.randint(0, len(pairs))))
        mid = complete_graph(n + rng.randint(0, 2))
        host = complete_graph(mid.n + rng.randint(0, 2))
        e1 = contains(mid, pattern)
        e2 = contains(host, mid)
        assert e1 is not None and e2 is not None
        both = e1.compose(e2)
        assert all(host.has_edge(both(a), both(b)) for a, b in pattern.edges)


def test_contains_agrees_with_brute_force_small_exhaustive():
    hosts = list(all_graphs(4))
    patterns = [g for n in range(0, 4) for g in all_graphs(n)]
    for host in hosts:
        for pattern in patterns:
            got = contains(host, pattern)
            expect = brute_contains(host, pattern)
            assert (got is None) == (expect is None)
            if got is not None:
                assert all(
                    host.has_edge(got(a), got(b)) for a, b in pattern.edges
                )


def test_contains_agrees_with_brute_force_sampled(rng):
    for _ in range(250):
        hn = rng.randint(1, 6)
        pn = rng.randint(1, 6)
        hpairs = [(i, j) for i in range(1, hn + 1) for j in range(i + 1, hn + 1)]
        ppairs = [(i, j) for i in range(1, pn + 1) for j in range(i + 1, pn + 1)]
        host = OrderedGraph(hn, rng.sample(hpairs, rng.randint(0, len(hpairs))))
        pattern = OrderedGraph(pn, rng.sample(ppairs, rng.randint(0, len(ppairs))))
        assert (contains(host, pattern) is None) == (
            brute_contains(host, pattern) is None
        )


def _random_graph(rng, n: int, density: float) -> OrderedGraph:
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    return OrderedGraph(n, [p for p in pairs if rng.random() < density])


@pytest.mark.parametrize("pinned", [True, False])
def test_search_embedding_is_the_leftmost_pinned_embedding(rng, pinned):
    # the exact tuple: brute_contains returns the lexicographically first image;
    # pinned hosts carry a planted copy at a random image, so an embedding
    # exists and the leftmost one is at or before the pinned image
    for _ in range(600 if pinned else 1500):
        pattern = _random_graph(rng, rng.randint(0, 7), rng.random())
        low = pattern.n if pinned else 0
        host = _random_graph(rng, rng.randint(low, 12), rng.random())
        pin = None
        if pinned:
            pin = tuple(sorted(rng.sample(range(1, host.n + 1), pattern.n)))
            host = OrderedGraph(host.n, set(host.edges) | {
                (pin[a - 1], pin[b - 1]) for a, b in pattern.edges
            })
        got = search_embedding(pattern.n, pattern.edges, host.n, host.adj)
        assert got == brute_contains(host, pattern), (pattern.edges, host.edges)
        assert pin is None or got <= pin, (pattern.edges, host.edges, pin)


@pytest.mark.parametrize("k", range(1, 7))
def test_search_embedding_on_matchings_in_blown_up_colorings(k):
    # the montecarlo shape, small enough for brute force: {i, k + pi(i)}
    # against both colors of a blown-up coloring, None included
    for seed in range(4):
        pattern = sample_permutation_matching(k, seed)
        for t, s in ((3, 5), (5, 3), (7, 2), (4, 3)):
            coloring = blown_up_random_coloring(t, s, 100 * k + seed)
            for color in (RED, BLUE):
                host = coloring.monochromatic_subgraph(color)
                got = search_embedding(pattern.n, pattern.edges, host.n, host.adj)
                assert got == brute_contains(host, pattern), (pattern.edges, t, s, color)


def test_search_embedding_rejects_a_crossing_matching_in_a_band_at_once():
    # {i, k + i} needs b_1 - a_1 >= k, and the band host joins x < y only
    # when y - x <= k - 1, so there is no copy; the forward check sees this
    # at the first placement, where a search without it takes minutes
    k = 14
    n = 3 * k
    pattern = OrderedGraph(2 * k, [(i, k + i) for i in range(1, k + 1)])
    band = [(x, y) for x in range(1, n + 1) for y in range(x + 1, min(n, x + k - 1) + 1)]
    host = OrderedGraph(n, band)
    assert search_embedding(pattern.n, pattern.edges, host.n, host.adj) is None


def test_search_embedding_depth_is_not_bounded_by_recursion():
    n = 1500
    path = OrderedGraph(n, [(i, i + 1) for i in range(1, n)])
    assert search_embedding(n, path.edges, n, path.adj) == tuple(range(1, n + 1))


# ---------------------------------------------------------------------------
# interval chromatic number
# ---------------------------------------------------------------------------

def test_interval_chromatic_examples():
    assert interval_chromatic_number(complete_graph(3)) == 3
    assert interval_chromatic_number(OrderedGraph(4, [(1, 4), (2, 3)])) == 2
    assert interval_chromatic_number(OrderedGraph(3)) == 1
    assert interval_chromatic_number(OrderedGraph(0)) == 0


def test_interval_chromatic_greedy_is_optimal_exhaustive():
    for n in range(1, 6):
        for g in all_graphs(n):
            assert interval_chromatic_number(g) == brute_interval_chromatic(g)


def test_interval_chromatic_greedy_is_optimal_sampled_n6(rng):
    pairs = [(i, j) for i in range(1, 7) for j in range(i + 1, 7)]
    for _ in range(150):
        g = OrderedGraph(6, rng.sample(pairs, rng.randint(0, len(pairs))))
        assert interval_chromatic_number(g) == brute_interval_chromatic(g)
