"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -s` to see the PASS lines and
measured runtimes; every tolerance is exact and every budget is asserted.
"""

import json
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from conftest import brute_matrix_contained
from orl.cli import EXIT_OK, dispatch
from orl.constructions import (
    TwoRegularSpec,
    alternating_path,
    blowup_path,
    eff_graph,
    nested_matching,
    order_two_regular,
    quadratic_lb_instance,
)
from orl.core import (
    OrderedGraph,
    complete_graph,
    contains,
    embedding_maps_edges,
    pair_iter,
)
from orl.embedder import find_alternating_path
from orl.patterns import complement, permutation_unavoidable
from orl.ramsey import (
    count_rho_regular,
    min_max_ordered_ramsey,
    ordered_ramsey,
    verify_certificate,
)
from orl.stochastic import PairSetQuery, matching_pair_probability, pairset_avoidance_bound


@contextmanager
def criterion(number: int, description: str, budget_s: float):
    start = time.time()
    yield
    elapsed = time.time() - start
    print(f"ACCEPTANCE {number}: PASS ({elapsed:.2f}s / budget {budget_s:.0f}s) {description}")
    assert elapsed < budget_s, f"criterion {number} exceeded its {budget_s}s budget"


def test_criterion_1_triangle_ramsey_number():
    with criterion(1, "exact OR of the ordered triangle is 6 with verified certificates", 10):
        result = ordered_ramsey(complete_graph(3), 8)
        assert result.exact and result.value == 6
        assert result.lower is not None and result.lower.n == 5
        assert verify_certificate(result.pattern, result.lower)
        assert result.upper is not None and result.upper.nodes > 0
        assert verify_certificate(result.pattern, result.value)


def test_criterion_2_nested_matching_ramsey_number():
    with criterion(2, "exact OR of the 2-pair nested matching is 6 (golden, <= 6)", 10):
        result = ordered_ramsey(nested_matching(2), 8)
        assert result.exact
        assert result.value == 6  # derived golden value, first computed here
        assert result.value <= 4 * 2 - 2
        assert verify_certificate(result.pattern, result.lower)
        assert verify_certificate(result.pattern, result.value)


def test_criterion_3_min_max_four_vertex_matching():
    with criterion(3, "min/max over the 3 orderings of the 4-vertex matching", 60):
        report = min_max_ordered_ramsey(OrderedGraph(4, [(1, 2), (3, 4)]), 8)
        assert len(report.results) == 3
        assert report.minr.value <= report.maxr.value
        assert report.minr.exact and report.maxr.exact
        for _, res in report.results:
            assert verify_certificate(res.pattern, res.lower)
            assert verify_certificate(res.pattern, res.value)


def test_criterion_4_alternating_path_threshold_suite():
    with criterion(4, "dense-host alternating-path extraction: 10000/10000 with verified witnesses", 120):
        rng = random.Random(20260810)
        for eps in (0.3, 0.4):
            for n in range(4, 9):
                N = math.ceil(n / eps)
                m = math.ceil(eps * N * N)
                pairs = list(pair_iter(N))
                pattern = alternating_path(n)
                for _ in range(1000):
                    host = OrderedGraph(N, rng.sample(pairs, m))
                    emb = find_alternating_path(host, n)
                    assert emb is not None, (eps, n)
                    assert embedding_maps_edges(pattern, host, emb)


def _compositions(total, minimum, even=False):
    if total == 0:
        yield ()
        return
    for first in range(minimum, total + 1):
        if even and first % 2:
            continue
        for rest in _compositions(total - first, minimum, even):
            yield (first,) + rest


def test_criterion_5_two_regular_embedding_pipeline():
    with criterion(5, "every 2-regular ordering embeds into its gadget host", 300):
        checked = 0
        for total in range(3, 11):
            host = eff_graph(total, 2).graph
            for lengths in _compositions(total, 3):
                g = order_two_regular(TwoRegularSpec(lengths))
                emb = contains(host, g)
                assert emb is not None, lengths
                assert embedding_maps_edges(g, host, emb)
                checked += 1
        assert checked == 27
        checked = 0
        for total in range(4, 13, 2):
            host = blowup_path(total, 2).graph
            for lengths in _compositions(total, 4, even=True):
                g = order_two_regular(TwoRegularSpec(lengths), bipartite_mode=True)
                emb = contains(host, g)
                assert emb is not None, lengths
                assert embedding_maps_edges(g, host, emb)
                checked += 1
        assert checked == 12


def test_criterion_6_quadratic_lower_bound_instance():
    with criterion(6, "the 40-vertex interval coloring avoids its 18-vertex pattern", 1800):
        g, col = quadratic_lb_instance(18)
        assert g.n == 18 and col.n == 40
        assert verify_certificate(g, col)


def test_criterion_7_regular_graph_counts():
    with criterion(7, "exact almost-regular counts match and dominate the estimate", 60):
        expected = {
            (Fraction(3), 4): 1,
            (Fraction(2), 4): 3,
            (Fraction(2), 5): 12,
            (Fraction(1), 2): 1,
        }
        for (rho, n), value in expected.items():
            report = count_rho_regular(rho, n)
            assert report.exact_count == value, (rho, n)
            if rho >= 2:
                assert report.formula_lower_bound is not None
                assert report.exact_count >= report.formula_lower_bound


def _pairset_corpus():
    """Fixed queries at n <= 7 whose closed-form estimate is below 1."""
    corpus = []
    for n in (4, 5, 6, 7):
        # two singleton set pairs on each side, all four pairs forbidden
        corpus.append(
            (
                n,
                PairSetQuery(
                    (frozenset({1}), frozenset({2})),
                    (frozenset({n + 1}), frozenset({n + 2})),
                    ((1, 1), (1, 2), (2, 1), (2, 2)),
                ),
                2,
                4,
                1,
            )
        )
    for n in (6, 7):
        # doubleton-by-singleton sides: S = |X_2||Y_2| = 2
        corpus.append(
            (
                n,
                PairSetQuery(
                    (frozenset({1, 2}), frozenset({3, 4})),
                    (frozenset({n + 1, n + 2}), frozenset({n + 3})),
                    ((1, 1), (1, 2), (2, 1), (2, 2)),
                ),
                2,
                4,
                2,
            )
        )
    return corpus


def test_criterion_8_pairset_probability_below_bound():
    with criterion(8, "exact avoidance probabilities sit strictly below the estimate", 120):
        checked = 0
        for n, query, d, r, S in _pairset_corpus():
            sizes_x = sorted((len(x) for x in query.X_sets), reverse=True)
            sizes_y = sorted((len(y) for y in query.Y_sets), reverse=True)
            assert sizes_x[-1] * sizes_y[-1] >= S  # the estimate's precondition
            bound = pairset_avoidance_bound(d, r, S, n)
            if bound >= 1:
                continue
            exact = matching_pair_probability(query, n)
            assert exact < bound, (n, float(exact), bound)
            checked += 1
        assert checked >= 4


def test_criterion_9_permutation_unavoidability():
    with criterion(9, "2x2 patterns are unavoidable at size 4 and avoidable at size 2", 120):
        report = permutation_unavoidable(2, 4)
        assert report.holds and report.exhaustive
        report2 = permutation_unavoidable(2, 2)
        assert not report2.holds and report2.exhaustive
        a, p = report2.counterexample_matrix, report2.counterexample_pattern
        assert not brute_matrix_contained(a, p)
        assert not brute_matrix_contained(complement(a), p)


SEEDED_COMMANDS = [
    ["sample", "matching", "--n", "8", "--seed", "7", "-o", "m.og"],
    ["sample", "regular", "--rho", "2", "--n", "6", "--seed", "3", "-o", "r.adj"],
    ["sample", "regular", "--rho", "5/2", "--n", "12", "--seed", "9", "-o", "rc.adj"],
    ["sample", "coloring", "--t", "3", "--s", "2", "--seed", "5", "-o", "c.col"],
    ["experiment", "montecarlo", "--pattern", "PATTERN", "--t", "3", "--s", "2",
     "--trials", "6", "--seed", "11", "--report", "mc.jsonl", "--emit-cert", "certs"],
    ["experiment", "montecarlo", "--pattern", "PATTERN", "--trials", "4", "--seed", "19",
     "--report", "mcd.jsonl"],
    ["experiment", "coverage", "--og", "PATTERN", "--parts", "2", "--max-size", "2",
     "--trials", "4", "--seed", "13", "--report", "cov.jsonl"],
]


def test_criterion_10_manifest_replay_determinism(tmp_path, capsys):
    with criterion(10, "every seeded command replays byte-identically from its manifest", 120):
        pattern = tmp_path / "nm2.og"
        pattern.write_text("og 4 2\ne 1 4\ne 2 3\n")
        for index, template in enumerate(SEEDED_COMMANDS):
            rundir = tmp_path / f"run{index}"
            rundir.mkdir()
            argv = []
            first_output = None
            for i, tok in enumerate(template):
                if tok == "PATTERN":
                    argv.append(str(pattern))
                elif i > 0 and template[i - 1] in ("-o", "--report", "--emit-cert"):
                    argv.append(str(rundir / tok))
                    if first_output is None:
                        first_output = rundir / tok
                else:
                    argv.append(tok)
            assert dispatch(argv) == EXIT_OK, argv
            manifest_path = str(first_output) + ".manifest.json"
            with open(manifest_path, encoding="utf-8") as fh:
                manifest = json.load(fh)
            assert manifest["outputs"], argv
            replay_dir = rundir / "replay"
            assert dispatch(["replay", manifest_path, "--outdir", str(replay_dir)]) == EXIT_OK
        capsys.readouterr()
