"""Witness extraction: alternating paths, blow-ups, tees, monochromatic copies."""

import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from conftest import (
    brute_contains,
    brute_longest_chain,
    brute_monochromatic_exists,
    brute_removal_process,
    brute_triangles,
    random_og_text,
    reference_tee_split,
)
from orl.constructions import (
    alternating_cycle,
    alternating_path,
    blowup_path,
    complete_bipartite,
    eff_graph,
    nested_matching,
    quadratic_lb_instance,
    tee_graph,
)
from orl.core import (
    BLUE,
    Coloring,
    OrderedGraph,
    RED,
    complete_graph,
    embedding_maps_edges,
    pair_iter,
    parse_ordered_graph,
)
from orl.embedder import (
    blowup_pipeline,
    count_triangles,
    find_alternating_path,
    find_monochromatic,
    is_block_respecting,
    largest_nested_matching,
    tee_pipeline,
    _run_removal_process,
    _tee_split,
)


def random_graph(rng, n, m):
    pairs = [(i, j) for i, j in pair_iter(n)]
    return OrderedGraph(n, rng.sample(pairs, m))


# ---------------------------------------------------------------------------
# alternating-path extraction
# ---------------------------------------------------------------------------

def adj_edges(adj):
    """The pairs (a, b), a < b, with bit b of adj[a] set."""
    return {(a, b) for a in range(len(adj)) for b in range(a + 1, len(adj)) if (adj[a] >> b) & 1}


def test_removal_process_manual_trace():
    # K_4: the first (odd) step strips every leftmost-neighbor edge {1, v}
    survivors, trace = _run_removal_process(complete_graph(4), 1)
    assert adj_edges(survivors) == {(2, 3), (2, 4), (3, 4)}
    assert trace[0] == {2: 1, 3: 1, 4: 1}
    # the second (even) step strips every rightmost-neighbor edge {v, 4}
    survivors2, trace2 = _run_removal_process(complete_graph(4), 2)
    assert adj_edges(survivors2) == {(2, 3)}
    assert trace2[1] == {2: 4, 3: 4}


@pytest.mark.parametrize("steps", [0, 1, 2, 3, 4, 5])
def test_removal_process_matches_brute_force(steps):
    gen = random.Random(160605628)
    for _ in range(1000):
        n, density = gen.randint(0, 14), gen.random()
        g = OrderedGraph(n, [e for e in pair_iter(n) if gen.random() < density])
        survivors, trace = _run_removal_process(g, steps)
        assert (adj_edges(survivors), trace) == brute_removal_process(g, steps), (g.edges, steps)


def test_find_alternating_path_k4():
    emb = find_alternating_path(complete_graph(4), 3)
    assert emb is not None and emb.image == (1, 2, 3)
    assert embedding_maps_edges(alternating_path(3), complete_graph(4), emb)


def test_find_alternating_path_trivial_cases():
    assert find_alternating_path(OrderedGraph(5), 2) is None
    assert find_alternating_path(OrderedGraph(5), 7) is None
    assert find_alternating_path(OrderedGraph(0), 1) is None
    assert find_alternating_path(OrderedGraph(2), 1).image == (1,)
    # n=2 returns the lexicographically smallest edge
    g = OrderedGraph(5, [(2, 5), (3, 4)])
    assert find_alternating_path(g, 2).image == (2, 5)


def test_find_alternating_path_threshold_property(rng):
    pattern_cache = {}
    for eps in (0.3, 0.4):
        for n in range(4, 9):
            N = math.ceil(n / eps)
            m = math.ceil(eps * N * N)
            pattern = pattern_cache.setdefault(n, alternating_path(n))
            for _ in range(60):
                host = random_graph(rng, N, m)
                emb = find_alternating_path(host, n)
                assert emb is not None
                assert embedding_maps_edges(pattern, host, emb)


def test_find_alternating_path_is_monotone(rng):
    # once the removal process leaves no edge, longer paths fail too
    for _ in range(40):
        n = rng.randint(2, 9)
        pairs = [(i, j) for i, j in pair_iter(n)]
        g = OrderedGraph(n, rng.sample(pairs, rng.randint(1, len(pairs))))
        for length in range(1, n + 1):
            if find_alternating_path(g, length) is None:
                assert find_alternating_path(g, length + 1) is None


# ---------------------------------------------------------------------------
# nested matchings
# ---------------------------------------------------------------------------

def test_largest_nested_matching(rng):
    # a bare nested matching is recovered whole
    pairs = largest_nested_matching(nested_matching(3).edges)
    assert pairs == [(1, 6), (2, 5), (3, 4)]
    # in a complete graph the matching uses n // 2 pairs
    pairs = largest_nested_matching(complete_graph(7).edges)
    assert len(pairs) == 3
    for (a, b), (c, d) in zip(pairs, pairs[1:]):
        assert a < c < d < b
    assert largest_nested_matching(OrderedGraph(4).edges) == []


def test_largest_nested_matching_matches_brute_force():
    # pairs with x >= y and repeated x or y included, as tee stage (g) passes
    gen = random.Random(19351975)
    for _ in range(2000):
        size = gen.randint(1, 12)
        pairs = [(gen.randint(1, size), gen.randint(1, size)) for _ in range(gen.randint(0, 30))]
        chain = largest_nested_matching(iter(pairs))
        assert len(chain) == brute_longest_chain(pairs), pairs
        assert set(chain) <= set(pairs)
        assert all(a < c and b > d for (a, b), (c, d) in zip(chain, chain[1:])), chain


def test_largest_nested_matching_is_maximum():
    gen = random.Random(1606)
    for _ in range(300):
        n, density = gen.randint(0, 9), gen.random()
        g = OrderedGraph(n, [e for e in pair_iter(n) if gen.random() < density])
        chain = largest_nested_matching(g.edges)
        m = len(chain)
        if m:
            # the lexicographically first copy, which brute_contains returns
            image = brute_contains(g, nested_matching(m))
            assert chain == [(image[i], image[2 * m - 1 - i]) for i in range(m)], g.edges
        assert brute_contains(g, nested_matching(m + 1)) is None, g.edges


# ---------------------------------------------------------------------------
# blow-up extraction
# ---------------------------------------------------------------------------

def test_blowup_identity_host():
    b = blowup_path(3, 2)
    d = 2
    emb = blowup_pipeline(b.graph, d, 3, 2).embedding
    assert emb is not None and emb.image == tuple(range(1, 7))


def test_blowup_complete_host():
    d = 2
    result = blowup_pipeline(complete_graph(12), d, 3, 2)
    assert result.embedding is not None
    pattern = blowup_path(3, 2)
    assert embedding_maps_edges(pattern.graph, complete_graph(12), result.embedding)
    assert is_block_respecting(result.embedding, pattern.blocks, d)


def test_blowup_empty_host_and_validation():
    assert blowup_pipeline(OrderedGraph(12), 2, 3, 2).embedding is None
    for d in (5, 0):
        with pytest.raises(ValueError):
            blowup_pipeline(complete_graph(12), d, 3, 2).embedding
    # equal intervals of a different size are a legal search space
    assert blowup_pipeline(complete_graph(12), 4, 3, 2).embedding is not None


def test_blowup_witnesses_on_random_dense_hosts(rng):
    d = 2
    pattern = blowup_path(3, 2)
    found = 0
    for _ in range(25):
        host = random_graph(rng, 14, 70)
        result = blowup_pipeline(host, d, 3, 2)
        if result.embedding is not None:
            found += 1
            assert embedding_maps_edges(pattern.graph, host, result.embedding)
            assert is_block_respecting(result.embedding, pattern.blocks, d)
    assert found > 0


# ---------------------------------------------------------------------------
# triangles and tee extraction
# ---------------------------------------------------------------------------

def test_count_triangles_examples():
    assert count_triangles(complete_graph(3)) == 1
    assert count_triangles(complete_graph(4)) == 4
    assert count_triangles(complete_graph(6)) == 20
    assert count_triangles(complete_bipartite(3, 4)) == 0
    assert count_triangles(OrderedGraph(0)) == 0


def test_count_triangles_matches_brute_force(rng):
    for _ in range(40):
        n = rng.randint(1, 30)
        pairs = [(i, j) for i, j in pair_iter(n)]
        g = OrderedGraph(n, rng.sample(pairs, rng.randint(0, min(len(pairs), 120))))
        assert count_triangles(g) == brute_triangles(g)


def test_tee_split_matches_listed_triangles():
    # stages (a)-(d) from bit counts against the per-triangle lists
    gen = random.Random(20261019)
    epsilons = [Fraction(1, 8), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)]
    reached = Counter()
    for _ in range(2000):
        n = gen.randint(0, 40)
        density = gen.uniform(0.05, 1)
        g = OrderedGraph(n, [e for e in pair_iter(n) if gen.random() < density])
        eps = gen.choice(epsilons)
        expected = reference_tee_split(g, eps)
        assert _tee_split(g, eps) == expected, (n, density, eps)
        reached[expected if isinstance(expected, str) else "legs"] += 1
    assert set(reached) == {"triangles", "long-right-legs", "supported-left-legs", "legs"}


def test_embed_pipelines_never_build_the_host_edge_set():
    # the extractions read `adj` only; `edges` of a parsed host is built
    # the first time it is read, which on these hosts would cost more than
    # the extraction itself
    gen = random.Random(20261018)
    big = parse_ordered_graph(random_og_text(gen, 240, 0.5))
    dense = parse_ordered_graph(random_og_text(gen, 40, 0.8))
    assert find_alternating_path(big, 12) is not None
    assert blowup_pipeline(big, 6, 4, 2).embedding is not None
    assert find_alternating_path(dense, 6) is not None
    assert tee_pipeline(dense, 4, 2, 1, Fraction(1, 8)).embedding is not None
    assert count_triangles(dense) == brute_triangles(dense)
    assert big._edges is None and dense._edges is None


def test_tee_complete_host():
    d = 2
    emb = tee_pipeline(complete_graph(18), d, 2, 1, Fraction(1, 8)).embedding
    assert emb is not None
    pattern = tee_graph(2, 1)
    assert embedding_maps_edges(pattern.graph, complete_graph(18), emb)
    assert is_block_respecting(emb, pattern.blocks, d)


def test_tee_triangle_free_host():
    d = 2
    result = tee_pipeline(complete_bipartite(9, 9), d, 2, 1, Fraction(1, 8))
    assert result.embedding is None
    assert result.failed_stage == "triangles"


def test_tee_verbatim_host():
    f = eff_graph(3, 2)
    d = 2
    emb = tee_pipeline(f.graph, d, 3, 2, Fraction(1, 8)).embedding
    assert emb is not None and emb.image == tuple(range(1, 13))


@pytest.mark.parametrize("n, k", [(0, 1), (3, 0), (-1, 2), (3, -2)])
def test_pipelines_reject_non_positive_n_and_k(n, k):
    host, d = eff_graph(3, 2).graph, 2
    with pytest.raises(ValueError, match="n and k must be positive"):
        tee_pipeline(host, d, n, k, Fraction(1, 8))
    with pytest.raises(ValueError, match="n and k must be positive"):
        blowup_pipeline(host, d, n, k)


def test_tee_validation():
    for d in (4, 0):
        with pytest.raises(ValueError):
            tee_pipeline(complete_graph(6), d, 1, 1, Fraction(1, 8)).embedding
    with pytest.raises(ValueError):
        tee_pipeline(complete_graph(6), 2, 1, 1, Fraction(3, 2)).embedding
    with pytest.raises(ValueError):
        tee_pipeline(complete_graph(6), 2, 1, 1, Fraction(0)).embedding


# the stage tee_pipeline(host, 2, 3, 2, 1/2) gives out at on each
# host of test_tee_pipeline_stages_golden: five hosts, N = 16..24, per density
TEE_GOLDEN_STAGES = [
    "triangles", "triangles", "second-matching", "supported-left-legs", "long-right-legs",
    "interval-links", "supported-left-legs", "supported-left-legs", "supported-left-legs",
    "supported-left-legs",
    "interval-links", "interval-links", "interval-links", "interval-links",
    "supported-left-legs",
    "interval-links", "second-matching", "second-matching", "second-matching", "interval-links",
    "second-matching", "second-matching", "second-matching", "second-matching", None,
    None, None, None, None, None,
]


def test_tee_pipeline_stages_golden():
    gen = random.Random(5628)
    pattern = tee_graph(3, 2)
    stages = []
    d = 2
    for i in range(30):
        big_n, density = 16 + 2 * (i % 5), (0.1, 0.2, 0.3, 0.5, 0.7, 0.9)[i // 5]
        host = OrderedGraph(big_n, [e for e in pair_iter(big_n) if gen.random() < density])
        result = tee_pipeline(host, d, 3, 2, Fraction(1, 2))
        stages.append(result.failed_stage)
        if result.embedding is not None:
            assert embedding_maps_edges(pattern.graph, host, result.embedding)
            assert is_block_respecting(result.embedding, pattern.blocks, d)
    assert stages == TEE_GOLDEN_STAGES


def test_tee_witnesses_verify_on_random_dense_hosts(rng):
    d = 2
    pattern = tee_graph(2, 1)
    found = 0
    for _ in range(20):
        host = random_graph(rng, 16, 100)
        result = tee_pipeline(host, d, 2, 1, Fraction(1, 4))
        if result.embedding is not None:
            found += 1
            assert embedding_maps_edges(pattern.graph, host, result.embedding)
            assert is_block_respecting(result.embedding, pattern.blocks, d)
    assert found > 0


# ---------------------------------------------------------------------------
# monochromatic copies
# ---------------------------------------------------------------------------

def test_find_monochromatic_all_red():
    col = Coloring.from_function(6, lambda i, j: RED)
    assert find_monochromatic(col, complete_graph(3), RED) is not None
    assert find_monochromatic(col, complete_graph(3), BLUE) is None


def test_pentagon_coloring_avoids_triangles():
    red = {(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)}
    col = Coloring.from_function(5, lambda i, j: RED if (i, j) in red else BLUE)
    assert find_monochromatic(col, complete_graph(3), RED) is None
    assert find_monochromatic(col, complete_graph(3), BLUE) is None
    # cross-check against the 10-triple brute scan
    assert not brute_monochromatic_exists(col, complete_graph(3), RED)
    assert not brute_monochromatic_exists(col, complete_graph(3), BLUE)


def test_find_monochromatic_agrees_with_brute_force(rng):
    patterns = [
        complete_graph(3),
        nested_matching(2),
        alternating_path(4),
        alternating_cycle(4).graph,
    ]
    for _ in range(40):
        n = rng.randint(4, 7)
        col = Coloring.from_function(
            n, lambda i, j: RED if rng.random() < 0.5 else BLUE
        )
        for pattern in patterns:
            if pattern.n > n:
                continue
            for color in (RED, BLUE):
                got = find_monochromatic(col, pattern, color)
                expect = brute_monochromatic_exists(col, pattern, color)
                assert (got is not None) == expect
                if got is not None:
                    assert all(
                        col.color(got(a), got(b)) == color for a, b in pattern.edges
                    )


def test_find_monochromatic_size_violation():
    col = Coloring.from_function(3, lambda i, j: RED)
    with pytest.raises(ValueError):
        find_monochromatic(col, complete_graph(4), RED)


def test_quadratic_lb_coloring_is_avoiding_at_n9():
    g, col = quadratic_lb_instance(9)
    # 9 pattern vertices cannot fit in the 8-vertex coloring: vacuous
    assert g.n == 9 and col.n == 8
