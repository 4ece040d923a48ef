"""Seeded models, exact probability checks, and experiment drivers."""

import math
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path
import pytest

from conftest import listed_rho_regular, per_pair_blown_up_coloring
from orl.constructions import nested_matching, quadratic_lb_instance
from orl import embedder, ramsey, rng
from orl.core import (
    BLUE,
    RED,
    OrderedGraph,
    complete_graph,
    interval_chromatic_number,
)
from orl.ramsey import (
    avoids,
    count_rho_regular,
    verify_certificate,
)
from orl.rng import MASK64, Xoshiro256StarStar, splitmix64_stream, stream_for_trial
from orl.stochastic import (
    PairSetQuery,
    blown_up_random_coloring,
    coverage_experiment,
    matching_blowup_shape,
    matching_pair_probability,
    monte_carlo_avoidance,
    pair_coverage_stats,
    pairset_avoidance_bound,
    sample_permutation_matching,
    sample_rho_regular,
)


# ---------------------------------------------------------------------------
# the generator contract
# ---------------------------------------------------------------------------

def test_splitmix64_published_vector():
    # reference outputs of SplitMix64 started at state 0
    assert splitmix64_stream(0, 3) == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_xoshiro_golden_outputs():
    gen = Xoshiro256StarStar(0)
    assert [gen.next_u64() for _ in range(4)] == [
        11091344671253066420,
        13793997310169335082,
        1900383378846508768,
        7684712102626143532,
    ]
    gen = Xoshiro256StarStar(20260810)
    assert gen.next_u64() == 12684885414155370404


def test_generator_determinism_and_streams():
    a = Xoshiro256StarStar(7)
    b = Xoshiro256StarStar(7)
    assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]
    s0 = stream_for_trial(5, 0)
    s1 = stream_for_trial(5, 1)
    assert s0.next_u64() != s1.next_u64()
    assert stream_for_trial(5, 3).next_u64() == Xoshiro256StarStar(5 ^ 3).next_u64()


def test_next_bits_is_next_bit_draws():
    # counts on both sides of the 64-step lane edges, one lane to 313 lanes;
    # 2 to 18 lanes fall on both sides of every edge between groups of lane
    # starts, for groups of up to 8, and 65,536 bits (1,024 lanes) is the
    # largest draw sampled matrices make
    cases = [
        (seed, k)
        for seed in [0, 1, 7, 20260810, (1 << 64) - 1] + list(range(100, 140))
        for k in (0, 1, 36, 63, 64, 65, 100, 127, 128, 129, 4095, 4096, 4097)
    ]
    cases += [(seed, 64 * lanes - extra) for seed in (3, 20260811)
              for lanes in range(2, 19) for extra in (0, 63)]
    cases += [(seed, 20000) for seed in (2, 9, (1 << 64) - 2)]
    cases += [(11, 1 << 16)]
    for seed, k in cases:
        packed, single = Xoshiro256StarStar(seed), Xoshiro256StarStar(seed)
        bits = packed.next_bits(k)
        assert bits == sum(single.next_bit() << i for i in range(k)), (seed, k)
        assert packed.s == single.s
        assert packed.next_u64() == single.next_u64()


def test_lane_starts_are_64_step_jumps():
    # lane l of `_lane_words` is one generator stepped 64 * l times by
    # next_u64, which shares no code with the jump tables; 1 to 2 * GROUP + 1
    # lanes cover one, two and three lookups, full and partial
    for seed in (0, 5, 20260810, (1 << 64) - 1):
        start = Xoshiro256StarStar(seed).s
        for lanes in range(1, 2 * rng.GROUP + 2):
            words = rng._lane_words(list(start), lanes)
            single = Xoshiro256StarStar(seed)
            for lane in range(lanes):
                assert [(w >> (64 * lane)) & MASK64 for w in words] == single.s, (seed, lanes, lane)
                for _ in range(64):
                    single.next_u64()
            assert all(w >> (64 * lanes) == 0 for w in words), (seed, lanes)


def test_short_draws_never_build_the_jump_tables():
    # draws of at most 64 bits run one lane and need no jump: start-up and
    # montecarlo's 36-bit colorings never pay for the tables
    code = (
        "import sys; sys.path.insert(0, sys.argv[1])\n"
        "import orl.cli\n"
        "from orl import rng\n"
        "from orl.stochastic import blown_up_random_coloring\n"
        "blown_up_random_coloring(8, 3, 7)\n"
        "rng.Xoshiro256StarStar(7).next_bits(64)\n"
        "print(rng._jump_tables.cache_info().currsize)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-B", "-c", code, str(Path(rng.__file__).parents[1])],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0"]


def test_lanes_carry_nothing_across():
    # lane 0's 5 * s1 overflows 64 bits by 4, and lane 1's is 2^57 - 4 mod
    # 2^64: a carry out of lane 0 would flip lane 1's first output bit
    x = ((1 << 57) - 4) * pow(5, -1, 1 << 64) % (1 << 64)
    states = [[1, MASK64, 2, 3], [4, x, 5, 6]]
    words = [states[0][w] | states[1][w] << 64 for w in range(4)]
    out, end = rng._run_lanes(words, 2, 64, 63)
    for lane, state in enumerate(states):
        single = Xoshiro256StarStar(0)
        single.s = list(state)
        drawn = sum(single.next_bit() << i for i in range(64))
        assert (out >> (64 * lane)) & MASK64 == drawn, lane
        assert [(w >> (64 * lane)) & MASK64 for w in end] == single.s


def test_next_bits_rejects_a_negative_count():
    gen = Xoshiro256StarStar(5)
    with pytest.raises(ValueError):
        gen.next_bits(-1)
    assert gen.next_u64() == Xoshiro256StarStar(5).next_u64()


def test_next_below_range_and_shuffle_permutation():
    gen = Xoshiro256StarStar(11)
    draws = [gen.next_below(7) for _ in range(2000)]
    assert set(draws) <= set(range(7))
    assert set(draws) == set(range(7))
    assert sorted(Xoshiro256StarStar(3).permutation(8)) == list(range(1, 9))
    with pytest.raises(ValueError):
        gen.next_below(0)


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

def test_sample_permutation_matching_shape():
    assert sample_permutation_matching(1, 123).edges == {(1, 2)}
    for seed in range(20):
        m = sample_permutation_matching(5, seed)
        assert m.n == 10 and m.m == 5
        lefts = sorted(a for a, _ in m.edges)
        assert lefts == [1, 2, 3, 4, 5]
        assert all(a <= 5 < b for a, b in m.edges)
        assert interval_chromatic_number(m) == 2


def test_sample_permutation_matching_deterministic():
    assert (
        sample_permutation_matching(6, 99).edges
        == sample_permutation_matching(6, 99).edges
    )


def test_sample_permutation_matching_uniform_n3():
    draws = 60000
    counts = Counter()
    for seed in range(draws):
        counts[tuple(sorted(sample_permutation_matching(3, seed).edges))] += 1
    assert len(counts) == 6
    expected = draws / 6
    sigma = math.sqrt(draws * (1 / 6) * (5 / 6))
    for count in counts.values():
        assert abs(count - expected) <= 3 * sigma


def test_sample_rho_regular_exact_unique_graphs():
    assert sample_rho_regular(Fraction(1), 2, 5).edges == {(1, 2)}
    for seed in range(5):
        g = sample_rho_regular(Fraction(3), 4, seed)
        assert g.m == 6  # the complete graph is the only 3-regular graph on 4


@pytest.mark.parametrize("rho, n", [(Fraction(3), 8), (Fraction(2), 5), (Fraction(5, 3), 6),
                                    (Fraction(1), 8)])
def test_sample_rho_regular_exact_is_the_listed_graph_at_one_draw(rho, n):
    # one draw below the count picks the graph: the listing's graph at that index
    listed = listed_rho_regular(rho, n)
    for seed in range(20):
        expected = listed[Xoshiro256StarStar(seed).next_below(len(listed))]
        assert sample_rho_regular(rho, n, seed).edges == expected, seed


def test_sample_rho_regular_exact_uniform_cycles():
    draws = 12000
    counts = Counter()
    for seed in range(draws):
        g = sample_rho_regular(Fraction(2), 5, seed)
        counts[g.edges] += 1
    assert len(counts) == 12
    expected = draws / 12
    sigma = math.sqrt(draws * (1 / 12) * (11 / 12))
    for count in counts.values():
        assert abs(count - expected) <= 3 * sigma


def test_sample_rho_regular_configuration_valid_degrees(monkeypatch):
    # past EXACT_COUNT_LIMIT the configuration model draws; lowering the
    # limit puts the small rows on it too
    rows = [(Fraction(rho), n) for rho in ("2", "5/2", "3", "7/3") for n in range(11, 17)]
    rows = [(rho, n) for rho, n in rows if math.ceil(rho * n) % 2 == 0]
    assert len(rows) == 16
    for seed in range(30):
        for rho, n in rows:
            g = sample_rho_regular(rho, n, seed)
            d, surplus = math.floor(rho), math.ceil(rho * n) - math.floor(rho) * n
            expected = [d] * (n - surplus) + [d + 1] * surplus
            assert sorted(map(g.degree, range(1, n + 1))) == expected, (rho, n, seed)
    monkeypatch.setattr(ramsey, "EXACT_COUNT_LIMIT", 3)
    for seed in range(30):
        g = sample_rho_regular(Fraction(2), 6, seed)
        assert all(g.degree(v) == 2 for v in range(1, 7))
        g2 = sample_rho_regular(Fraction(5, 2), 4, seed)
        assert sorted(g2.degree(v) for v in range(1, 5)) == [2, 2, 3, 3]
    with pytest.raises(ValueError):
        sample_rho_regular(Fraction(1), 3, 0)


def test_sample_rho_regular_degree_at_least_vertex_count():
    for seed in range(3):
        with pytest.raises(ValueError, match="degrees must be below the vertex count"):
            sample_rho_regular(Fraction(2), 2, seed)


def test_sample_rho_regular_rejects_exactly_the_unrealizable_parameters(monkeypatch):
    # degrees that differ by at most 1 with an even sum are graphical exactly
    # when the largest is at most n - 1; the exact count is the oracle, taken
    # before the limit is lowered to put every row on the configuration
    # model.  Its first shuffle raises, so reaching it shows the parameters
    # were accepted, and a missed rejection fails instead of looping; the
    # rank path never shuffles
    class Accepted(Exception):
        pass

    def shuffle(gen, items):
        raise Accepted

    oracle = {}
    for n in range(1, 9):
        for rho in sorted({Fraction(a, b) for b in range(1, 5) for a in range(1, b * n + 1)}):
            try:
                oracle[rho, n] = count_rho_regular(rho, n).exact_count
            except ValueError:  # no degree sequence at all
                oracle[rho, n] = None
    assert sum(count == 0 for count in oracle.values()) >= 10
    monkeypatch.setattr(Xoshiro256StarStar, "shuffle", shuffle)
    for limit in (ramsey.EXACT_COUNT_LIMIT, 0):
        monkeypatch.setattr(ramsey, "EXACT_COUNT_LIMIT", limit)
        for (rho, n), count in oracle.items():
            if count is None:
                with pytest.raises(ValueError):
                    sample_rho_regular(rho, n, 1)
            elif count == 0:
                with pytest.raises(ValueError, match="no graph realizes these parameters"):
                    sample_rho_regular(rho, n, 1)
            elif limit:
                assert sample_rho_regular(rho, n, 1).n == n
            else:
                with pytest.raises(Accepted):
                    sample_rho_regular(rho, n, 1)


def test_blown_up_coloring_monochromatic_single_interval():
    col = blown_up_random_coloring(1, 4, 17)
    assert len(set(col.colors)) == 1


def test_blown_up_coloring_constant_on_interval_pairs():
    for seed in range(10):
        t, s = 3, 3
        col = blown_up_random_coloring(t, s, seed)

        def interval(v):
            return (v - 1) // s

        seen = {}
        for i in range(1, t * s + 1):
            for j in range(i + 1, t * s + 1):
                key = (interval(i), interval(j))
                seen.setdefault(key, set()).add(col.color(i, j))
        assert all(len(colors) == 1 for colors in seen.values())


def test_blown_up_coloring_hits_all_8_patterns():
    distinct = {blown_up_random_coloring(2, 2, seed).colors for seed in range(200)}
    assert len(distinct) == 8


def test_blown_up_coloring_golden_draw_order():
    # t = 3 draws its 6 index pairs (1,1) (1,2) (1,3) (2,2) (2,3) (3,3) in
    # lexicographic order, loops included; s = 2 expands them to K_6
    assert "".join(blown_up_random_coloring(3, 2, 4).colors) == "RBBBBBBBBBRRRRB"


def test_blown_up_coloring_is_the_per_pair_draw():
    # one next_bits draw and interval masks give what a next_bit per index
    # pair and a color per pair of K_{st} gave
    for t in range(1, 9):
        for s in range(1, 5):
            for seed in range(30):
                col = blown_up_random_coloring(t, s, seed)
                oracle = per_pair_blown_up_coloring(t, s, seed)
                assert col.colors == oracle.colors, (t, s, seed)
                assert col.red_adj == oracle.red_adj and col.blue_adj == oracle.blue_adj


def test_blown_up_coloring_determinism():
    assert (
        blown_up_random_coloring(3, 2, 4).colors
        == blown_up_random_coloring(3, 2, 4).colors
    )


# ---------------------------------------------------------------------------
# exact pair-avoidance probabilities
# ---------------------------------------------------------------------------

def test_matching_pair_probability_examples():
    q = PairSetQuery((frozenset({1}),), (frozenset({4}),), ((1, 1),))
    assert matching_pair_probability(q, 3) == Fraction(2, 3)
    q2 = PairSetQuery((frozenset({1}),), (frozenset({3}),), ((1, 1),))
    assert matching_pair_probability(q2, 2) == Fraction(1, 2)
    empty = PairSetQuery((), (), ())
    assert matching_pair_probability(empty, 3) == 1


def test_matching_pair_probability_validation():
    with pytest.raises(ValueError):
        matching_pair_probability(
            PairSetQuery((frozenset({1}), frozenset({1})), (frozenset({3}),), ()), 2
        )
    with pytest.raises(ValueError):
        matching_pair_probability(
            PairSetQuery((frozenset({1}),), (frozenset({1}),), ()), 2
        )
    with pytest.raises(ValueError):
        matching_pair_probability(
            PairSetQuery((frozenset({1}),), (frozenset({3}),), ((1, 2),)), 2
        )
    with pytest.raises(ValueError):
        matching_pair_probability(PairSetQuery((), (), ()), 9)


def test_matching_pair_probability_derangement_style():
    # forbidding the n diagonal pairs counts derangements
    n = 5
    q = PairSetQuery(
        tuple(frozenset({i}) for i in range(1, n + 1)),
        tuple(frozenset({n + i}) for i in range(1, n + 1)),
        tuple((i, i) for i in range(1, n + 1)),
    )
    derangements = 44
    assert matching_pair_probability(q, n) == Fraction(derangements, math.factorial(n))


def test_pairset_avoidance_bound_values():
    assert pairset_avoidance_bound(2, 4, 1, 4) == pytest.approx(math.exp(-0.25))
    # z = 0 collapses the estimate to 1
    assert pairset_avoidance_bound(1, 1, 5, 4) == 1.0
    with pytest.raises(ValueError):
        pairset_avoidance_bound(2, 5, 1, 4)


def test_exact_probability_below_bound_when_applicable():
    # d = 2, full T, singleton sets: bound < 1 and the precondition S <= |X_2||Y_2|
    for n in (4, 5, 6, 7):
        q = PairSetQuery(
            (frozenset({1}), frozenset({2})),
            (frozenset({n + 1}), frozenset({n + 2})),
            ((1, 1), (1, 2), (2, 1), (2, 2)),
        )
        exact = matching_pair_probability(q, n)
        bound = pairset_avoidance_bound(2, 4, 1, n)
        assert bound < 1
        assert exact < bound


# ---------------------------------------------------------------------------
# coverage and Monte Carlo
# ---------------------------------------------------------------------------

def test_pair_coverage_examples():
    assert pair_coverage_stats(nested_matching(2), [{1, 2}, {3, 4}]) == 1
    assert pair_coverage_stats(complete_graph(4), [{1, 2}, {3, 4}]) == 3
    assert pair_coverage_stats(OrderedGraph(4), [{1, 2}, {3, 4}]) == 0
    with pytest.raises(ValueError):
        pair_coverage_stats(complete_graph(4), [{1, 2}, {2, 3, 4}])
    with pytest.raises(ValueError):
        pair_coverage_stats(complete_graph(4), [{1, 2}])


def test_pair_coverage_exhaustive_partitions_matching():
    # over every 2-part partition of the 4 vertices, the nested matching
    # always meets at least one part pair
    def partitions_two(items):
        n = len(items)
        for bits in range(1, 2 ** n - 1):
            left = {items[k] for k in range(n) if (bits >> k) & 1}
            yield left, set(items) - left

    lowest = min(
        pair_coverage_stats(nested_matching(2), [a, b])
        for a, b in partitions_two([1, 2, 3, 4])
    )
    assert lowest == 1


def test_configuration_bias_report_small(monkeypatch):
    # total-variation distance between each sampler and the uniform
    # distribution over all rho-regular graphs on 4 vertices; limit 3 puts
    # n = 4 on the configuration model, limit 4 on the rank path
    trials = 1200
    for rho, seed, bound, limit in [(Fraction(2), 7, Fraction(1, 10), 3),
                                    (Fraction(3, 2), 9, Fraction(1, 5), 3),
                                    (Fraction(2), 7, Fraction(1, 10), 4),
                                    (Fraction(3, 2), 9, Fraction(1, 5), 4)]:
        monkeypatch.setattr(ramsey, "EXACT_COUNT_LIMIT", limit)
        support = listed_rho_regular(rho, 4)
        counts = Counter(sample_rho_regular(rho, 4, seed ^ k).edges for k in range(trials))
        assert set(counts) <= set(support)
        uniform = Fraction(1, len(support))
        tv = sum(abs(Fraction(counts[edges], trials) - uniform) for edges in support) / 2
        assert 0 <= tv < bound


def test_coverage_experiment_deterministic():
    g = nested_matching(3)
    a = coverage_experiment(g, 3, 2, 5, 42)
    b = coverage_experiment(g, 3, 2, 5, 42)
    assert a == b
    assert all(tr.covered_pairs >= 1 for tr in a)
    with pytest.raises(ValueError):
        coverage_experiment(g, 2, 2, 1, 0)


def test_monte_carlo_k2_never_avoids():
    report = monte_carlo_avoidance(complete_graph(2), 2, 2, 30, 9)
    assert report.avoidance_fraction == 0
    assert report.certificate is None


def test_monte_carlo_quadratic_injection():
    g, col = quadratic_lb_instance(9)
    assert avoids(col, g)
    assert verify_certificate(g, col)


def test_monte_carlo_searches_each_trial_once(monkeypatch):
    # the check that finds the certificate is the one verify runs, so an
    # avoiding trial costs two searches, not four
    calls = []
    real = embedder.find_monochromatic

    def counted(*args):
        calls.append(args)
        return real(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("orl.") and getattr(module, "find_monochromatic", None) is real:
            monkeypatch.setattr(module, "find_monochromatic", counted)
    trials = 100
    report = monte_carlo_avoidance(complete_graph(3), 5, 1, trials, 12)
    assert report.certificate is not None
    assert len(calls) <= 2 * trials
    found = report.certificate
    assert [color for col, _, color in calls if col is found] == [RED, BLUE]


def test_monte_carlo_matching_experiment_certificates_verify():
    t, s = matching_blowup_shape(8)
    assert s * t >= 16
    pattern = sample_permutation_matching(8, 31)
    report = monte_carlo_avoidance(pattern, t, s, 6, 31)
    assert 0 <= report.avoidance_fraction <= 1
    if report.certificate is not None:
        assert report.certificate.n == s * t
        assert verify_certificate(pattern, report.certificate)


def test_monte_carlo_finds_certificates_for_k3():
    # st = 5 < 6 = the triangle's Ramsey value, so avoiding colorings exist
    report = monte_carlo_avoidance(complete_graph(3), 5, 1, 400, 12)
    assert report.certificate is not None
    assert verify_certificate(complete_graph(3), report.certificate)
    assert report.avoidance_fraction > 0


def test_monte_carlo_determinism():
    a = monte_carlo_avoidance(nested_matching(2), 3, 2, 10, 77)
    b = monte_carlo_avoidance(nested_matching(2), 3, 2, 10, 77)
    assert a.trials == b.trials


# ---------------------------------------------------------------------------
# the blow-up shape `experiment montecarlo` takes without --t and --s
# ---------------------------------------------------------------------------

def test_matching_blowup_shape_golden():
    shapes = [matching_blowup_shape(n) for n in (2, 3, 8, 100, 1024, 5000)]
    assert shapes == [(1, 4), (1, 6), (1, 16), (1, 200), (5, 410), (20, 500)]
    with pytest.raises(ValueError, match="n must be at least 2"):
        matching_blowup_shape(1)


def test_experiment_config_blowup_shape_fits_matching():
    for n in (2, 4, 8, 32, 256):
        t, s = matching_blowup_shape(n)
        assert t >= 1 and s >= 1 and s * t >= 2 * n
