"""Exact ordered Ramsey computation, certificates, and regular-graph counts."""

import hashlib
import math
from fractions import Fraction
from itertools import combinations

import pytest

from conftest import (
    all_graphs,
    brute_avoiding_exists,
    brute_count_with_degrees,
    lex_avoiding_coloring,
    listed_graphs_with_degrees,
    listed_rho_regular,
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
    pair_iter,
    serialize_coloring,
)
from orl.ramsey import (
    SearchStats,
    avoiding_coloring,
    avoids,
    count_labeled_graphs,
    count_rho_regular,
    min_max_ordered_ramsey,
    ordered_ramsey,
    regular_count_formula,
    rho_regular_degree_data,
    rho_regular_graph,
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
    assert verify_certificate(k3, col)
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
                assert verify_certificate(pattern, col)


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
# pattern of the perfbench ramsey-exact corpus and at N = 14 for the matching
# {i, 4 + pi(i)}, pi = 2143; any change to pair choice or propagation shows
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
        ([(1, 6), (2, 5), (3, 8), (4, 7)], 14, 349, 175),
    ],
)
def test_propagating_search_tree_golden(edges, N, nodes, prunes):
    stats = SearchStats()
    assert avoiding_coloring(OrderedGraph(max(max(e) for e in edges), edges), N, stats) is None
    assert (stats.nodes, stats.prunes) == (nodes, prunes)


# (nodes, prunes) of the propagating search below the value, and the sha256
# of the avoider it returns in `col` format; any change to pair choice,
# propagation or the order of the branches shows
@pytest.mark.parametrize(
    "edges,N,nodes,prunes,avoider",
    [
        pytest.param([(1, 2), (1, 4), (2, 3), (3, 5), (4, 5)], 14, 152, 64,
                     "2bbb140e538e6d07bef6568bade099a38af8c93188b26d218eab3f514b905dab",
                     id="C5-12_14_23_35_45-14"),
        pytest.param([(1, 2), (1, 4), (2, 3), (3, 5), (4, 5)], 15, 144, 59,
                     "263dcfe4f948f78b190a979356e92e2abcb1670bc3c7d7d73d2859f66e85d24d",
                     id="C5-12_14_23_35_45-15"),
        pytest.param([(1, 2), (1, 3), (3, 5), (4, 5)], 13, 574, 276,
                     "74faf12248553615d0f32d4abfceebf1dd8c8d715c3d75d6b76fb70c6ae36b29",
                     id="P5-12_13_35_45-13"),
        pytest.param(list(combinations(range(1, 5), 2)), 12, 61, 14,
                     "410e8a0e8dc2122357cd1991337148b2e7444f3745ccdb38c0ef7c7bb6431320",
                     id="K4-12"),
    ],
)
def test_propagating_search_avoider_golden(edges, N, nodes, prunes, avoider):
    pattern = OrderedGraph(max(max(e) for e in edges), edges)
    stats = SearchStats()
    col = avoiding_coloring(pattern, N, stats)
    assert (stats.nodes, stats.prunes) == (nodes, prunes)
    assert hashlib.sha256(serialize_coloring(col).encode()).hexdigest() == avoider
    assert avoids(col, pattern)


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
    assert verify_certificate(pattern, col)


def refuse_to_build(pattern, N):
    raise AssertionError("the copy table was built")


def test_avoiding_coloring_copy_table_bound(monkeypatch):
    # C(60, 30) copies of 15 side-by-side pairs: refused before any table is built
    pairs = OrderedGraph(30, [(2 * i - 1, 2 * i) for i in range(1, 16)])
    with monkeypatch.context() as patched:
        patched.setattr(ramsey, "copy_table", refuse_to_build)
        with pytest.raises(ValueError, match=r"C\(60, 30\) = 118264581564861424 copies"):
            avoiding_coloring(pairs, 60)
    # K3 in K_5: 10 copies x (10 pairs + 32 x 3 index bits) = 1060 bits
    monkeypatch.setattr(ramsey, "MAX_TABLE_BITS", 1060)
    assert avoiding_coloring(complete_graph(3), 5) is not None
    with pytest.raises(ValueError, match=(
        r"^C\(6, 3\) = 20 copies x \(15 pairs \+ 32 x 3 index bits\) = 2220 table bits"
        r" exceed MAX_TABLE_BITS = 1060$"
    )):
        avoiding_coloring(complete_graph(3), 6)


def test_copy_table_bound_is_on_bits_not_copies(monkeypatch):
    # a single edge at N = 447 has C(447, 2) = 99681 copies, but its table
    # would take 99681 x (99681 + 32) bits, over 1.2 GB
    edge = OrderedGraph(2, [(1, 2)])
    assert ramsey.table_overflow(edge, 447)
    monkeypatch.setattr(ramsey, "copy_table", refuse_to_build)
    with pytest.raises(ValueError, match=r"^C\(447, 2\) = 99681 copies x \(99681 pairs"):
        avoiding_coloring(edge, 447)
    # the matching {i, 5 + pi(i)}, pi = 13452, at N = 22: C(22, 10) = 646646
    # copies x (231 pairs + 32 x 5 index bits) fit; no table is built here
    matching = OrderedGraph(10, [(i, 5 + p) for i, p in enumerate((1, 3, 4, 5, 2), 1)])
    assert ramsey.copy_count(matching, 22) == 646646
    assert ramsey.table_overflow(matching, 22) is None
    assert ramsey.table_overflow(matching, 23)
    # an edgeless pattern needs no table at any N
    assert ramsey.table_overflow(OrderedGraph(3), 10**6) is None


def test_copy_table_masks_match_the_copies():
    pattern = OrderedGraph(6, [(1, 3), (3, 6), (2, 4)])  # vertex 5 isolated
    N = 8
    pairs, through = ramsey.copy_table(pattern, N)
    m = len(pattern.edges)
    index = {pair: t for t, pair in enumerate(pair_iter(N))}
    images = sorted({
        tuple(index[ys[a - 1], ys[b - 1]] for a, b in pattern.sorted_edges())
        for ys in combinations(range(1, N + 1), pattern.n)
    })
    copies = [tuple(pairs[x:x + m]) for x in range(0, len(pairs), m)]
    assert sorted(copies) == images and len(copies) == ramsey.copy_count(pattern, N)
    assert through == [
        sum(1 << x for x, copy in enumerate(copies) if t in copy) for t in range(len(index))
    ]


def test_copy_count_skips_isolated_vertices():
    gap = OrderedGraph(12, [(1, 2), (11, 12)])
    assert ramsey.copy_count(gap, 19) == 330  # C(11, 4), of C(19, 12) images
    assert ramsey.copy_count(gap, 11) == 0
    assert ramsey.copy_count(complete_graph(3), 6) == 20
    assert [ramsey.copy_count(OrderedGraph(3), N) for N in (2, 3, 9)] == [0, 1, 1]


def test_ordered_ramsey_stops_at_the_copy_table_bound(monkeypatch):
    monkeypatch.setattr(ramsey, "MAX_TABLE_BITS", 1060)  # K3 in K_5, not K_6
    result = ordered_ramsey(complete_graph(3), 10)
    assert not result.exact and result.value == 6 and result.describe() == ">= 6"
    assert result.upper is None and result.lower.n == 5
    assert verify_certificate(result.pattern, result.lower)


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
    assert result.lower.n == 5 and result.upper.nodes > 0
    assert verify_certificate(result.pattern, result.lower)
    assert verify_certificate(result.pattern, result.value)


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
    assert verify_certificate(result.pattern, result.lower)


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
    assert verify_certificate(result.pattern, result.lower)


def test_ordered_ramsey_capped():
    result = ordered_ramsey(complete_graph(3), 5)
    assert not result.exact and result.value == 6
    assert result.upper is None and result.lower.n == 5


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
    patterns = {tuple(res.pattern.sorted_edges()): res for _, res in rep.results}
    assert set(patterns) == {
        ((1, 2), (3, 4)),
        ((1, 3), (2, 4)),
        ((1, 4), (2, 3)),
    }
    assert patterns[((1, 2), (3, 4))].value == OR_SIDE_BY_SIDE_MATCHING
    assert patterns[((1, 3), (2, 4))].value == OR_CROSSING_MATCHING
    assert patterns[((1, 4), (2, 3))].value == OR_NESTED_MATCHING_2
    assert rep.minr.value <= rep.maxr.value
    for _, res in rep.results:
        assert res.exact
        assert verify_certificate(res.pattern, res.lower)
        assert verify_certificate(res.pattern, res.value)


def test_min_max_size_guard():
    with pytest.raises(ValueError):
        min_max_ordered_ramsey(OrderedGraph(8), 8)


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

def test_verify_certificate_pentagon():
    red = {(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)}
    col = Coloring.from_function(5, lambda i, j: RED if (i, j) in red else BLUE)
    assert verify_certificate(complete_graph(3), col)


def test_verify_certificate_rejects_bad_lower():
    allred = Coloring.from_function(3, lambda i, j: RED)
    assert not verify_certificate(complete_graph(3), allred)


def test_verify_certificate_upper():
    assert verify_certificate(complete_graph(3), 6)
    assert not verify_certificate(complete_graph(3), 5)


# ---------------------------------------------------------------------------
# rho-regular counting
# ---------------------------------------------------------------------------

def test_degree_data():
    assert rho_regular_degree_data(Fraction(3), 4) == (3, 0)
    assert rho_regular_degree_data(Fraction(5, 2), 4) == (2, 2)
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


# count_rho_regular for every rho with denominator at most 4 that passes
# rho_regular_degree_data on n = 7..10 vertices, recorded from the counter
# that grouped equal degrees; the 2- and 3-regular rows are OEIS A001205 and
# A002829, and a 0 is a degree sequence with a degree above n - 1
RHO_REGULAR_COUNTS = {
    7: {
        "1/4": 21, "1/2": 105, "3/4": 105, "4/3": 2625, "5/3": 3507, "2": 465, "9/4": 9660,
        "5/2": 19355, "11/4": 5670, "10/3": 19355, "11/3": 9660, "4": 465, "17/4": 3507,
        "9/2": 2625, "19/4": 315, "16/3": 105, "17/3": 21, "6": 1, "25/4": 0, "13/2": 0,
        "27/4": 0,
    },
    8: {
        "1/4": 28, "1/2": 210, "2/3": 420, "3/4": 420, "1": 105, "5/4": 5040, "3/2": 27510,
        "5/3": 30016, "7/4": 30016, "2": 3507, "9/4": 119420, "5/2": 423990, "8/3": 282660,
        "11/4": 282660, "3": 19355, "13/4": 440720, "7/2": 1024380, "11/3": 440720,
        "15/4": 440720, "4": 19355, "17/4": 282660, "9/2": 423990, "14/3": 119420,
        "19/4": 119420, "5": 3507, "21/4": 30016, "11/2": 27510, "17/3": 5040, "23/4": 5040,
        "6": 105, "25/4": 420, "13/2": 210, "20/3": 28, "27/4": 28, "7": 1, "29/4": 0,
        "15/2": 0, "23/3": 0, "31/4": 0,
    },
    9: {
        "2/3": 1260, "5/4": 76860, "4/3": 76860, "3/2": 310716, "7/4": 286884, "2": 30016,
        "8/3": 11180820, "13/4": 37539180, "10/3": 37539180, "7/2": 66462606,
        "15/4": 25106760, "4": 1024380, "14/3": 37539180, "21/4": 11180820, "16/3": 11180820,
        "11/2": 8933652, "23/4": 1555092, "6": 30016, "20/3": 76860, "29/4": 1260,
        "22/3": 1260, "15/2": 378, "31/4": 36, "8": 1, "26/3": 0,
    },
    10: {
        "1/3": 630, "3/4": 4725, "1": 945, "4/3": 1181250, "7/4": 3026655, "2": 286884,
        "7/3": 186541320, "11/4": 195192900, "3": 11180820, "10/3": 3625164900,
        "15/4": 1745845920, "4": 66462606, "13/3": 10728320400, "19/4": 2512972350,
        "5": 66462606, "16/3": 5188453830, "23/4": 596943900, "6": 11180820,
        "19/3": 390385800, "27/4": 21448980, "7": 286884, "22/3": 3782520, "31/4": 94500,
        "8": 945, "25/3": 3150, "35/4": 45, "9": 1, "28/3": 0, "39/4": 0,
    },
}


@pytest.mark.parametrize("n", sorted(RHO_REGULAR_COUNTS))
def test_count_rho_regular_golden(n):
    counts = {}
    for rho in sorted({Fraction(p, q) for q in range(1, 5) for p in range(1, 4 * n)}):
        try:
            rho_regular_degree_data(rho, n)
        except ValueError:
            continue
        counts[str(rho)] = count_rho_regular(rho, n).exact_count
    assert counts == RHO_REGULAR_COUNTS[n]


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
    for rho, n in cases:
        d, surplus = rho_regular_degree_data(rho, n)
        expected = 0
        for subset in combinations(range(n), surplus):
            degrees = [d] * n
            for v in subset:
                degrees[v] = d + 1
            expected += brute_count_with_degrees(tuple(degrees))
        assert count_rho_regular(rho, n).exact_count == expected, (rho, n)


def test_count_and_enumeration_agree():
    for rho, n in ((Fraction(2), 5), (Fraction(3), 4), (Fraction(5, 2), 4), (Fraction(2), 6)):
        assert len(listed_rho_regular(rho, n)) == count_rho_regular(rho, n).exact_count


def test_enumerated_graphs_are_valid():
    for index in range(12):
        g = OrderedGraph(5, rho_regular_graph(Fraction(2), 5, index))
        assert all(g.degree(v) == 2 for v in range(1, 6))


def test_rho_regular_graph_is_the_listing_at_every_index():
    # every rho = p/q with q <= 4 and rho < 8 that has graphs on n <= 6
    # vertices: the index-th graph is the listing's index-th, edges in
    # lexicographic order, and the indices past the listing are rejected
    cases = graphs = 0
    for n in range(1, 7):
        for rho in sorted({Fraction(p, q) for q in range(1, 5) for p in range(1, 8 * q)}):
            try:
                count = count_rho_regular(rho, n).exact_count
            except ValueError:
                continue
            listed = listed_rho_regular(rho, n)
            assert len(listed) == count, (rho, n)
            for index, edges in enumerate(listed):
                got = rho_regular_graph(rho, n, index)
                assert got == sorted(edges), (rho, n, index)
            for index in (-1, count):
                with pytest.raises(ValueError, match="outside"):
                    rho_regular_graph(rho, n, index)
            cases += 1
            graphs += count
    assert (cases, graphs) == (63, 5401)


@pytest.mark.parametrize("rho", [Fraction(3), Fraction(5, 2)])
def test_rho_regular_graph_is_the_listing_at_seeded_indices(rho, rng):
    # 200 seeded indices on 8 vertices.  Relabelling maps the graphs of one
    # set of degree-(d+1) vertices onto those of any other, so the listing is
    # C(8, surplus) blocks of equal length; only the blocks that hold a drawn
    # index are listed (the whole listing of 5/2 on 8 is 423,990 graphs)
    n = 8
    d = math.floor(rho)
    surplus = math.ceil(rho * n) - d * n
    blocks = list(combinations(range(1, n + 1), surplus))
    count = count_rho_regular(rho, n).exact_count
    per = count // len(blocks)
    assert per * len(blocks) == count
    picked = sorted(rng.sample(range(len(blocks)), min(len(blocks), 4)))
    for b in picked:
        degrees = tuple(d + 1 if v in blocks[b] else d for v in range(1, n + 1))
        listed = list(listed_graphs_with_degrees(degrees))
        assert len(listed) == per
        for offset in rng.sample(range(per), 200 // len(picked)):
            index = b * per + offset
            assert rho_regular_graph(rho, n, index) == sorted(listed[offset]), (rho, index)


def test_count_labeled_graphs_basics():
    assert count_labeled_graphs((1, 1)) == 1
    assert count_labeled_graphs((2, 2, 2)) == 1
    assert count_labeled_graphs((1, 1, 1)) == 0
    assert count_labeled_graphs((3, 1, 1, 1)) == 1
    assert count_labeled_graphs(()) == 1
    assert len(list(listed_graphs_with_degrees((2, 2, 2, 2)))) == 3


def test_formula_value_reference():
    # frozen reference for the (3, 4) estimate: 12! / (2^6 6! (3!)^4 e^9)
    value = regular_count_formula(Fraction(3), 4)
    assert value == pytest.approx(0.00098985, rel=1e-4)
