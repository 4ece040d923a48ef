"""Exact ordered Ramsey computation, certificates, and regular-graph counts."""

from fractions import Fraction

import pytest

from conftest import (
    all_graphs,
    brute_avoiding_exists,
    brute_count_with_degrees,
    lex_avoiding_coloring,
)
from orl import ramsey
from orl.constructions import alternating_path, nested_matching
from orl.core import (
    BLUE,
    Coloring,
    OrderedGraph,
    RED,
    complete_graph,
    contains,
)
from orl.ramsey import (
    Certificate,
    SearchStats,
    avoiding_coloring,
    avoids,
    count_labeled_graphs_with_degrees,
    count_rho_regular,
    enumerate_rho_regular,
    graphs_with_degrees,
    min_max_ordered_ramsey,
    ordered_ramsey,
    regular_count_formula,
    rho_regular_degree_data,
    verify_certificate,
)

# derived golden values, cross-checked below against full coloring enumeration
OR_NESTED_MATCHING_2 = 6
OR_CROSSING_MATCHING = 5  # {{1,3},{2,4}}
OR_SIDE_BY_SIDE_MATCHING = 6  # {{1,2},{3,4}}


# ---------------------------------------------------------------------------
# avoiding colorings
# ---------------------------------------------------------------------------

def test_avoiding_coloring_k2():
    k2 = complete_graph(2)
    assert avoiding_coloring(k2, 1) is not None  # vacuous
    assert avoiding_coloring(k2, 2) is None


def test_avoiding_coloring_k3():
    k3 = complete_graph(3)
    col = avoiding_coloring(k3, 5)
    assert col is not None
    assert verify_certificate(Certificate("lower", k3, 5, coloring=col))
    assert avoiding_coloring(k3, 6) is None


def test_avoiding_coloring_nested_matching_2():
    assert avoiding_coloring(nested_matching(2), 6) is None


def test_avoiding_coloring_found_colorings_actually_avoid(rng):
    patterns = [
        complete_graph(3),
        nested_matching(2),
        alternating_path(4),
        OrderedGraph(4, [(1, 3), (2, 4)]),
    ]
    for pattern in patterns:
        for N in range(pattern.n - 1, pattern.n + 2):
            col = avoiding_coloring(pattern, N)
            if col is not None:
                assert verify_certificate(
                    Certificate("lower", pattern, N, coloring=col)
                )


def test_avoiding_coloring_matches_full_enumeration():
    # independent oracle: enumerate every coloring of K_N for N <= 5
    patterns = [
        complete_graph(3),
        nested_matching(2),
        OrderedGraph(4, [(1, 3), (2, 4)]),
        OrderedGraph(4, [(1, 2), (3, 4)]),
        alternating_path(3),
    ]
    for pattern in patterns:
        for N in range(1, 6):
            got = avoiding_coloring(pattern, N)
            assert (got is not None) == brute_avoiding_exists(pattern, N), (
                pattern.edges,
                N,
            )


# (nodes, prunes) of the chronological lexicographic search, the oracle kept
# in conftest; any change to its search tree shows
@pytest.mark.parametrize(
    "pattern,N,nodes,prunes",
    [
        (complete_graph(3), 6, 987, 494),
        (OrderedGraph(4, [(1, 2), (3, 4)]), 6, 2815, 1408),
        (OrderedGraph(4, [(1, 4), (2, 3)]), 6, 103, 52),
        (OrderedGraph(4, [(1, 2), (1, 4), (2, 3)]), 9, 32315, 16158),
    ],
)
def test_avoiding_coloring_search_tree_golden(pattern, N, nodes, prunes):
    stats = SearchStats()
    assert lex_avoiding_coloring(pattern, N, stats) is None
    assert (stats.nodes, stats.prunes) == (nodes, prunes)


# (nodes, prunes) of the propagating search, exhausted at the value of each
# pattern of the perfbench ramsey-exact corpus; any change to pair choice or
# propagation shows
@pytest.mark.parametrize(
    "edges,N,nodes,prunes",
    [
        ([(1, 2), (1, 3), (2, 3)], 6, 19, 10),
        ([(1, 2), (3, 4)], 6, 1, 1),
        ([(1, 4), (2, 3)], 6, 1, 1),
        ([(1, 2), (1, 4), (2, 3)], 9, 9, 5),
        ([(1, 2), (1, 3), (2, 4)], 9, 5, 3),
        ([(1, 2), (2, 3), (2, 4)], 9, 103, 52),
        ([(1, 3), (1, 4), (2, 3), (2, 4)], 10, 451, 226),
    ],
)
def test_propagating_search_tree_golden(edges, N, nodes, prunes):
    stats = SearchStats()
    assert avoiding_coloring(OrderedGraph(max(max(e) for e in edges), edges), N, stats) is None
    assert (stats.nodes, stats.prunes) == (nodes, prunes)


# ordered Ramsey value of every ordered graph on n <= 4 vertices, listed in
# `all_graphs(n)` order (graph i has pair t of `pair_iter(n)` iff bit t of i
# is set); None: above 8
SMALL_VALUES = {
    0: [0],
    1: [1],
    2: [2, 2],
    3: [3, 3, 3, 4, 3, 5, 4, 6],
    4: [4, 4, 4, 5, 4, 6, 5, 6, 4, 6, 5, 7, 6, None, 7, None,
        4, 8, 5, None, 5, None, 7, None, 5, None, 7, None, 7, None, None, None,
        4, 6, 8, None, 6, None, None, None, 6, None, None, None, None, None, None, None,
        5, None, None, None, 6, None, None, None, 7, None, None, None, None, None, None, None],
}


@pytest.mark.parametrize("n", sorted(SMALL_VALUES))
def test_avoiding_coloring_agrees_with_lex_oracle(n):
    # every ordered graph on n vertices, K_0 .. K_8: the same outcome as the
    # lexicographic search, avoiders that avoid, and exhaustion from the value on
    for graph, value in zip(all_graphs(n), SMALL_VALUES[n], strict=True):
        for N in range(9):
            got = avoiding_coloring(graph, N)
            assert (got is None) == (lex_avoiding_coloring(graph, N) is None), (graph.edges, N)
            assert got is None or avoids(got, graph), (graph.edges, N)
            assert (got is None) == (value is not None and N >= value), (graph.edges, N)


def test_avoiding_coloring_depth_is_not_bounded_by_recursion():
    # 25 side-by-side pairs on 50 positions: the search is C(50, 2) pairs deep
    pattern = OrderedGraph(50, [(2 * i - 1, 2 * i) for i in range(1, 26)])
    col = avoiding_coloring(pattern, 50)
    assert col is not None
    assert verify_certificate(Certificate("lower", pattern, 50, coloring=col))


def test_avoiding_coloring_copy_table_bound(monkeypatch):
    # C(60, 30) copies of 15 side-by-side pairs: refused before any table is built
    pairs = OrderedGraph(30, [(2 * i - 1, 2 * i) for i in range(1, 16)])
    with pytest.raises(ValueError, match=r"C\(60, 30\) = 118264581564861424 copies"):
        avoiding_coloring(pairs, 60)
    monkeypatch.setattr(ramsey, "MAX_COPIES", 10)
    assert avoiding_coloring(complete_graph(3), 5) is not None  # C(5, 3) = 10
    with pytest.raises(ValueError, match=r"C\(6, 3\) = 20 copies"):
        avoiding_coloring(complete_graph(3), 6)


def test_copy_count_skips_isolated_vertices():
    gap = OrderedGraph(12, [(1, 2), (11, 12)])
    assert ramsey.copy_count(gap, 19) == 330  # C(11, 4), of C(19, 12) images
    assert ramsey.copy_count(gap, 11) == 0
    assert ramsey.copy_count(complete_graph(3), 6) == 20
    assert [ramsey.copy_count(OrderedGraph(3), N) for N in (2, 3, 9)] == [0, 1, 1]


def test_ordered_ramsey_stops_at_the_copy_table_bound(monkeypatch):
    monkeypatch.setattr(ramsey, "MAX_COPIES", 10)
    result = ordered_ramsey(complete_graph(3), 10)
    assert not result.exact and result.value == 6 and result.describe() == ">= 6"
    assert result.upper is None and result.lower.N == 5
    assert verify_certificate(result.lower)


def test_avoiding_coloring_edgeless_patterns():
    dots = OrderedGraph(3)
    assert avoiding_coloring(dots, 2) is not None
    assert avoiding_coloring(dots, 3) is None


# ---------------------------------------------------------------------------
# ordered Ramsey numbers
# ---------------------------------------------------------------------------

def test_ordered_ramsey_k2_k3():
    assert ordered_ramsey(complete_graph(2), 4).value == 2
    result = ordered_ramsey(complete_graph(3), 10)
    assert result.exact and result.value == 6
    assert result.lower.N == 5 and result.upper.N == 6
    assert verify_certificate(result.lower)
    assert verify_certificate(result.upper)


def test_ordered_ramsey_nested_matching_2_golden():
    result = ordered_ramsey(nested_matching(2), 10)
    assert result.exact and result.value == OR_NESTED_MATCHING_2
    # the pigeonhole upper bound 4k - 2 holds with equality at k = 2
    assert result.value <= 4 * 2 - 2


def test_ordered_ramsey_nested_matching_3_golden():
    result = ordered_ramsey(nested_matching(3), 10)
    assert result.exact and result.value == 10
    assert result.value <= 4 * 3 - 2


def test_ordered_ramsey_monotone_path_4_golden():
    # the classical value (n - 1)^2 + 1 of the monotone path on n vertices
    result = ordered_ramsey(OrderedGraph(4, [(1, 2), (2, 3), (3, 4)]), 12)
    assert result.exact and result.value == (4 - 1) ** 2 + 1
    assert verify_certificate(result.lower)


# the matchings {i, 3 + pi(i)} of interval chromatic number 2, for each
# permutation pi of [3] in lexicographic order
@pytest.mark.parametrize(
    "pi,value",
    [((1, 2, 3), 9), ((1, 3, 2), 10), ((2, 1, 3), 10), ((2, 3, 1), 11), ((3, 1, 2), 10),
     ((3, 2, 1), 10)],
)
def test_ordered_ramsey_interval_chromatic_2_matchings_golden(pi, value):
    pattern = OrderedGraph(6, [(i, 3 + pi[i - 1]) for i in range(1, 4)])
    result = ordered_ramsey(pattern, 12)
    assert result.exact and result.value == value
    assert verify_certificate(result.lower)


def test_ordered_ramsey_capped():
    result = ordered_ramsey(complete_graph(3), 5)
    assert not result.exact and result.value == 6
    assert result.upper is None and result.lower.N == 5


def test_ordered_ramsey_trivial_patterns():
    assert ordered_ramsey(OrderedGraph(1), 2).value == 1
    assert ordered_ramsey(OrderedGraph(0), 2).value == 0


def test_ordered_ramsey_monotone_in_host_size():
    # once exhausted at N, still exhausted at N + 1
    for pattern in (complete_graph(3), nested_matching(2)):
        value = ordered_ramsey(pattern, 8).value
        assert avoiding_coloring(pattern, value) is None
        assert avoiding_coloring(pattern, value + 1) is None


def test_ordered_ramsey_at_least_pattern_size_and_subgraph_monotone():
    corpus = [
        complete_graph(2),
        complete_graph(3),
        alternating_path(3),
        alternating_path(4),
        alternating_path(5),
        nested_matching(2),
        OrderedGraph(4, [(1, 3), (2, 4)]),
        OrderedGraph(4, [(1, 2), (3, 4)]),
        OrderedGraph(5, [(1, 4), (2, 3), (3, 5)]),
    ]
    cap = 8
    values = {g: ordered_ramsey(g, cap).value for g in corpus}
    for g, value in values.items():
        assert value >= g.n
    for small in corpus:
        for big in corpus:
            if small is big or contains(big, small) is None:
                continue
            assert values[big] >= values[small], (small.edges, big.edges)


# ---------------------------------------------------------------------------
# min/max over orderings
# ---------------------------------------------------------------------------

def test_min_max_single_edge():
    rep = min_max_ordered_ramsey(OrderedGraph(2, [(1, 2)]), 4)
    assert len(rep.results) == 1
    assert rep.minr.value == rep.maxr.value == 2


def test_min_max_triangle():
    rep = min_max_ordered_ramsey(OrderedGraph(3, [(1, 2), (1, 3), (2, 3)]), 8)
    assert len(rep.results) == 1
    assert rep.minr.value == rep.maxr.value == 6


def test_min_max_complete_graphs_have_one_ordering():
    for n in range(2, 5):
        g = OrderedGraph(
            n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        )
        rep = min_max_ordered_ramsey(g, max(n, 6))
        assert len(rep.results) == 1
        assert rep.minr.value == rep.maxr.value


def test_min_max_four_vertex_matching():
    rep = min_max_ordered_ramsey(OrderedGraph(4, [(1, 2), (3, 4)]), 8)
    patterns = {tuple(pat.sorted_edges()): res for pat, _, res in rep.results}
    assert set(patterns) == {
        ((1, 2), (3, 4)),
        ((1, 3), (2, 4)),
        ((1, 4), (2, 3)),
    }
    assert patterns[((1, 2), (3, 4))].value == OR_SIDE_BY_SIDE_MATCHING
    assert patterns[((1, 3), (2, 4))].value == OR_CROSSING_MATCHING
    assert patterns[((1, 4), (2, 3))].value == OR_NESTED_MATCHING_2
    assert rep.minr.value <= rep.maxr.value
    for _, _, res in rep.results:
        assert res.exact
        assert verify_certificate(res.lower)
        assert verify_certificate(res.upper)


def test_min_max_size_guard():
    with pytest.raises(ValueError):
        min_max_ordered_ramsey(OrderedGraph(8), 8)


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

def test_verify_certificate_pentagon():
    red = {(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)}
    col = Coloring.from_function(5, lambda i, j: RED if (i, j) in red else BLUE)
    assert verify_certificate(Certificate("lower", complete_graph(3), 5, coloring=col))


def test_verify_certificate_rejects_bad_lower():
    allred = Coloring.from_function(3, lambda i, j: RED)
    cert = Certificate("lower", complete_graph(3), 3, coloring=allred)
    assert not verify_certificate(cert)


def test_verify_certificate_upper():
    assert verify_certificate(Certificate("upper", complete_graph(3), 6))
    assert not verify_certificate(Certificate("upper", complete_graph(3), 5))


def test_certificate_validation():
    with pytest.raises(ValueError):
        Certificate("sideways", complete_graph(2), 3)
    with pytest.raises(ValueError):
        Certificate("lower", complete_graph(2), 3)  # missing coloring


# ---------------------------------------------------------------------------
# rho-regular counting
# ---------------------------------------------------------------------------

def test_degree_data():
    assert rho_regular_degree_data(Fraction(3), 4) == (3, 0, 6)
    assert rho_regular_degree_data(Fraction(5, 2), 4) == (2, 2, 5)
    with pytest.raises(ValueError):
        rho_regular_degree_data(Fraction(1), 3)  # odd degree sum
    with pytest.raises(ValueError):
        rho_regular_degree_data(Fraction(5), 4)  # degrees too large


def test_count_rho_regular_examples():
    assert count_rho_regular(Fraction(3), 4).exact_count == 1
    assert count_rho_regular(Fraction(2), 4).exact_count == 3
    assert count_rho_regular(Fraction(2), 5).exact_count == 12
    assert count_rho_regular(Fraction(1), 2).exact_count == 1
    assert count_rho_regular(Fraction(5, 2), 4).exact_count == 6
    with pytest.raises(ValueError):
        count_rho_regular(Fraction(2), 11)


def test_count_formula_comparison():
    for rho, n in ((Fraction(3), 4), (Fraction(2), 4), (Fraction(2), 5)):
        report = count_rho_regular(rho, n)
        assert report.formula_lower_bound is not None
        assert report.exact_count >= report.formula_lower_bound
    assert count_rho_regular(Fraction(1), 2).formula_lower_bound is None


def test_count_matches_adjacency_matrix_oracle():
    cases = [
        (Fraction(2), 4),
        (Fraction(2), 5),
        (Fraction(2), 6),
        (Fraction(3), 4),
        (Fraction(3), 6),
        (Fraction(5, 2), 4),
        (Fraction(3, 2), 4),
        (Fraction(1), 6),
        (Fraction(5, 3), 6),
    ]
    from itertools import combinations

    for rho, n in cases:
        d, surplus, _ = rho_regular_degree_data(rho, n)
        expected = 0
        for subset in combinations(range(n), surplus):
            degrees = [d] * n
            for v in subset:
                degrees[v] = d + 1
            expected += brute_count_with_degrees(tuple(degrees))
        assert count_rho_regular(rho, n).exact_count == expected, (rho, n)


def test_count_and_enumeration_agree():
    for rho, n in ((Fraction(2), 5), (Fraction(3), 4), (Fraction(5, 2), 4), (Fraction(2), 6)):
        assert len(enumerate_rho_regular(rho, n)) == count_rho_regular(rho, n).exact_count


def test_enumerated_graphs_are_valid():
    for edges in enumerate_rho_regular(Fraction(2), 5):
        g = OrderedGraph(5, edges)
        assert all(g.degree(v) == 2 for v in range(1, 6))


def test_count_labeled_graphs_basics():
    assert count_labeled_graphs_with_degrees((1, 1)) == 1
    assert count_labeled_graphs_with_degrees((2, 2, 2)) == 1
    assert count_labeled_graphs_with_degrees((1, 1, 1)) == 0
    assert count_labeled_graphs_with_degrees((3, 1, 1, 1)) == 1
    assert count_labeled_graphs_with_degrees(()) == 1
    assert len(list(graphs_with_degrees((2, 2, 2, 2)))) == 3


def test_formula_value_reference():
    # frozen reference for the (3, 4) estimate: 12! / (2^6 6! (3!)^4 e^9)
    value = regular_count_formula(Fraction(3), 4)
    assert value == pytest.approx(0.00098985, rel=1e-4)
