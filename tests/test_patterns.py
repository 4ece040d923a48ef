"""Binary matrix containment, unavoidability, and the matching dictionary."""

import pytest

from conftest import brute_matrix_contained, flat_unavoidable
from orl.core import BLUE, Coloring, FormatError, RED
from orl import patterns
from orl.patterns import (
    BinaryMatrix,
    coloring_matrix,
    complement,
    matching_matrix,
    parse_matrix,
    pattern_contained,
    permutation_matrices,
    permutation_unavoidable,
    serialize_matrix,
)
from orl.stochastic import sample_permutation_matching
from orl.embedder import find_monochromatic


def random_matrix(rng, rows, cols, density=0.5):
    return BinaryMatrix(
        tuple(
            tuple(1 if rng.random() < density else 0 for _ in range(cols))
            for _ in range(rows)
        )
    )


# ---------------------------------------------------------------------------
# containment
# ---------------------------------------------------------------------------

def test_contained_examples():
    assert not pattern_contained(BinaryMatrix([[0]]), BinaryMatrix([[1]]))
    ident = BinaryMatrix([[1, 0], [0, 1]])
    anti = BinaryMatrix([[0, 1], [1, 0]])
    assert pattern_contained(BinaryMatrix([[1, 1], [1, 1]]), ident)
    assert not pattern_contained(ident, anti)
    assert pattern_contained(ident, BinaryMatrix([[1]]))
    assert not pattern_contained(BinaryMatrix([[1]]), ident)  # too small


def test_contained_matches_brute_force(rng):
    for _ in range(120):
        a = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        b = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4), density=0.4)
        assert pattern_contained(a, b) == brute_matrix_contained(a, b)
    # patterns with an all-zero row and column, non-square shapes both ways,
    # and hosts smaller than the pattern in exactly one dimension
    hits = 0
    for pr, pc in [(1, 4), (4, 1), (2, 5), (5, 2), (3, 3)]:
        for _ in range(40):
            b = random_matrix(rng, pr, pc, density=0.5)
            if rng.random() < 0.5:
                zr, zc = rng.randrange(pr), rng.randrange(pc)
                b = BinaryMatrix(
                    tuple(
                        tuple(0 if r == zr or c == zc else x for c, x in enumerate(row))
                        for r, row in enumerate(b.entries)
                    )
                )
            shapes = [(pr - 1, pc + 2), (pr + 2, pc - 1), (pr + 1, pc + 3), (pr + 3, pc + 1)]
            for hr, hc in shapes:
                if hr < 1 or hc < 1:
                    continue
                a = random_matrix(rng, hr, hc, density=0.7)
                got = pattern_contained(a, b)
                assert got == brute_matrix_contained(a, b), (a.entries, b.entries)
                hits += got
    assert hits > 100


def test_pattern_contained_depth_is_not_bounded_by_recursion():
    # one stack level per pattern row: 1200 rows is past the recursion limit
    assert pattern_contained(BinaryMatrix([[1]] * 1500), BinaryMatrix([[1]] * 1200))


def test_failing_containment_is_bounded():
    # a k x 1 all-ones pattern against k - 1 one-rows and then zero-rows was
    # exponential in k: every placement of the first rows was retried
    for k, zeros in [(12, 12), (20, 20), (1200, 1200), (1200, 301)]:
        host = BinaryMatrix([[1]] * (k - 1) + [[0]] * zeros)
        assert not pattern_contained(host, BinaryMatrix([[1]] * k))


def test_bounded_containment_matches_brute_force(rng):
    # tall sparse patterns in hosts with sparse rows backtrack often, so most
    # of these searches run on the bounds of `BinaryMatrix.last_rows`
    found = 0
    for _ in range(400):
        hr, pr = rng.randint(2, 8), rng.randint(2, 5)
        a = random_matrix(rng, hr, rng.randint(2, 5), density=rng.choice([0.3, 0.5, 0.7]))
        b = random_matrix(rng, pr, rng.randint(1, 3), density=0.5)
        got = pattern_contained(a, b)
        assert got == brute_matrix_contained(a, b), (a.entries, b.entries)
        found += got
    assert 40 < found < 360


def test_contained_monotone(rng):
    for _ in range(40):
        a = random_matrix(rng, 5, 5)
        b = random_matrix(rng, 3, 3, density=0.4)
        if not pattern_contained(a, b):
            continue
        # adding ones to the host keeps containment
        richer = BinaryMatrix(
            tuple(
                tuple(
                    1 if rng.random() < 0.3 else a.entries[r][c] for c in range(5)
                )
                for r in range(5)
            )
        )
        assert pattern_contained(richer, b)
        # deleting a pattern row keeps containment
        if b.rows > 1:
            smaller = BinaryMatrix(b.entries[1:])
            assert pattern_contained(a, smaller)


def test_all_ones_contains_every_permutation():
    for n in range(1, 4):
        host = BinaryMatrix(tuple(tuple(1 for _ in range(n + 1)) for _ in range(n + 1)))
        for p in permutation_matrices(n):
            assert pattern_contained(host, p)


def test_complement_involution():
    ident = BinaryMatrix([[1, 0], [0, 1]])
    assert complement(BinaryMatrix([[0]])) == BinaryMatrix([[1]])
    assert complement(complement(ident)) == ident
    assert complement(ident) == BinaryMatrix([[0, 1], [1, 0]])


# ---------------------------------------------------------------------------
# unavoidability
# ---------------------------------------------------------------------------

def test_unavoidable_trivial():
    assert permutation_unavoidable(1, 1).holds


def test_unavoidable_2_2_false_with_verified_counterexample():
    report = permutation_unavoidable(2, 2)
    assert not report.holds and report.exhaustive
    a = report.counterexample_matrix
    p = report.counterexample_pattern
    assert not brute_matrix_contained(a, p)
    assert not brute_matrix_contained(complement(a), p)


def test_unavoidable_counterexamples_golden():
    # recorded before the containment search was compiled to row bitmasks
    report = permutation_unavoidable(2, 2)
    assert report.counterexample_matrix.entries == ((1, 0), (0, 0))
    assert report.counterexample_pattern.entries == ((1, 0), (0, 1))
    report = permutation_unavoidable(3, 4, mode="sample", trials=200, seed=5)
    assert not report.holds and not report.exhaustive
    assert report.counterexample_matrix.entries == (
        (1, 1, 1, 0), (0, 0, 1, 1), (0, 0, 0, 1), (0, 0, 1, 1)
    )
    assert report.counterexample_pattern.entries == ((0, 1, 0), (1, 0, 0), (0, 0, 1))


def test_unavoidable_exhaustive_matches_flat_scan():
    # the row-suffix pruning reports what the flat scan over every matrix does
    for N in range(1, 5):
        for n in range(1, N + 1):
            assert permutation_unavoidable(n, N) == flat_unavoidable(n, N), (n, N)


def test_unavoidable_size_5_goldens():
    # the flat scan reaches the same matrix after 46,479 matrices
    report = permutation_unavoidable(3, 5)
    assert not report.holds and report.exhaustive
    assert report.counterexample_matrix.entries == (
        (0, 1, 1, 1, 0), (0, 0, 1, 1, 0), (1, 0, 1, 1, 0), (1, 0, 0, 0, 0), (0, 0, 0, 0, 0)
    )
    assert report.counterexample_pattern.entries == ((0, 1, 0), (1, 0, 0), (0, 0, 1))
    assert permutation_unavoidable(2, 5).holds


def test_unavoidable_exhaustive_guard():
    with pytest.raises(ValueError):
        permutation_unavoidable(2, 6)
    with pytest.raises(ValueError):
        permutation_unavoidable(3, 6)
    with pytest.raises(ValueError):
        permutation_unavoidable(2, 4, mode="nope")


def test_unavoidable_checks_arguments_before_drawing_patterns(monkeypatch):
    drawn = []

    def counted(n):
        for p in permutation_matrices(n):
            drawn.append(p)
            yield p

    monkeypatch.setattr(patterns, "permutation_matrices", counted)
    # no 2 x 2 matrix holds a 7 x 7 pattern: the first pattern is the answer
    report = permutation_unavoidable(7, 2)
    assert len(drawn) <= 1
    assert report.counterexample_matrix.entries == ((0, 0), (0, 0))
    assert report.counterexample_pattern == BinaryMatrix(
        [[int(c == r) for c in range(7)] for r in range(7)]
    )
    with pytest.raises(ValueError, match="N <= 5"):
        permutation_unavoidable(7, 6)
    assert len(drawn) <= 1


def test_unavoidable_sampling_mode_small():
    # N = n^2 keeps every sampled matrix unavoidable
    report = permutation_unavoidable(2, 4, mode="sample", trials=50, seed=3)
    assert report.holds and not report.exhaustive
    # N = 2 < n^2: sampling finds a counterexample quickly
    report2 = permutation_unavoidable(2, 2, mode="sample", trials=200, seed=3)
    assert not report2.holds
    a, p = report2.counterexample_matrix, report2.counterexample_pattern
    assert not brute_matrix_contained(a, p)
    assert not brute_matrix_contained(complement(a), p)


# ---------------------------------------------------------------------------
# matching / coloring dictionary
# ---------------------------------------------------------------------------

def test_matching_matrix_is_permutation_matrix():
    for n, seed in [(4, 9), (1, 0), (2, 5), (3, 11), (5, 2), (6, 17), (8, 40)]:
        m = sample_permutation_matching(n, seed)
        pm = matching_matrix(m)
        assert pm.rows == pm.cols == n
        assert all(sum(row) == 1 for row in pm.entries)
        assert all(sum(col) == 1 for col in zip(*pm.entries))
        # row i has its one exactly at the partner of left vertex i
        for a, b in m.edges:
            assert pm.entries[a - 1][b - n - 1] == 1
    with pytest.raises(ValueError):
        matching_matrix(sample_permutation_matching(1, 0).__class__(3, [(1, 3)]))


def test_coloring_matrix_halves(rng):
    col = Coloring.from_function(4, lambda i, j: RED if j - i == 2 else BLUE)
    cm = coloring_matrix(col, RED)
    # entry (i, j) reflects the pair {i, 2 + j}
    assert cm.entries == ((1, 0), (0, 1))
    assert coloring_matrix(col, BLUE) == complement(cm)
    for _ in range(40):
        h = rng.randint(1, 8)
        col = Coloring.from_function(2 * h, lambda i, j: rng.choice((RED, BLUE)))
        for color in (RED, BLUE):
            cm = coloring_matrix(col, color)
            assert (cm.rows, cm.cols) == (h, h)
            assert cm.entries == tuple(
                tuple(int(col.color(i, h + j) == color) for j in range(1, h + 1))
                for i in range(1, h + 1)
            )


def test_dictionary_containment_implies_monochromatic_copy(rng):
    for trial in range(25):
        n = 3
        matching = sample_permutation_matching(n, 100 + trial)
        pattern = matching_matrix(matching)
        col = Coloring.from_function(
            8, lambda i, j: RED if rng.random() < 0.5 else BLUE
        )
        host = coloring_matrix(col, RED)
        if pattern_contained(host, pattern):
            assert find_monochromatic(col, matching, RED) is not None
        # an avoiding coloring can never contain the pattern either way
        if (
            find_monochromatic(col, matching, RED) is None
            and find_monochromatic(col, matching, BLUE) is None
        ):
            assert not pattern_contained(host, pattern)
            assert not pattern_contained(complement(host), pattern)


# ---------------------------------------------------------------------------
# the mat format
# ---------------------------------------------------------------------------

def test_mat_round_trip(rng):
    for _ in range(15):
        a = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        assert parse_matrix(serialize_matrix(a)) == a
    shapes = [(1, k) for k in range(1, 9)] + [(k, 1) for k in range(1, 9)]
    shapes += [(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(60)]
    for rows, cols in shapes:
        a = random_matrix(rng, rows, cols, density=rng.random())
        assert BinaryMatrix(a.entries) == a and BinaryMatrix(a.entries).entries == a.entries
        assert (a.rows, a.cols) == (rows, cols) == (len(a.entries), len(a.entries[0]))
        assert parse_matrix(serialize_matrix(a)).entries == a.entries
        b = random_matrix(rng, rows, cols, density=rng.random())
        assert (a == b) == (a.entries == b.entries)
        if a == b:
            assert hash(a) == hash(b)
    # the same masks in another width, or one row more, are another matrix
    ones = BinaryMatrix([[1, 0]])
    assert ones != BinaryMatrix([[1, 0, 0]]) and ones != BinaryMatrix([[1, 0], [0, 0]])
    assert len({ones, BinaryMatrix([[1, 0]]), BinaryMatrix([[1, 0, 0]])}) == 2


def test_mat_parse_errors():
    with pytest.raises(FormatError):
        parse_matrix("mat 2 2\n10\n")
    with pytest.raises(FormatError) as err:
        parse_matrix("mat 1 3\n012\n")
    assert err.value.line == 2
    with pytest.raises(FormatError):
        parse_matrix("matrix 1 1\n1\n")
    with pytest.raises(ValueError):
        BinaryMatrix([])
    with pytest.raises(ValueError):
        BinaryMatrix([[1, 0], [1]])
