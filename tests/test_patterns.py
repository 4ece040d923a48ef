"""Binary matrix containment, unavoidability, and the matching dictionary."""

import hashlib

import pytest

from conftest import brute_matrix_contained, flat_unavoidable, sampled_unavoidable
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
from orl.rng import Xoshiro256StarStar
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
    # no trial to sample: an error, not a report that holds, even for n > N
    drawn.clear()
    for trials in (0, -1):
        with pytest.raises(ValueError, match="trials must be at least 1"):
            permutation_unavoidable(3, 2, mode="sample", trials=trials, seed=1)
    assert not drawn


def test_unavoidable_sampling_limits_n_before_drawing_patterns(monkeypatch):
    # sampling lists all n! patterns before its first trial: 9! is refused
    def refused(n):
        raise AssertionError("drew a pattern")
        yield

    monkeypatch.setattr(patterns, "permutation_matrices", refused)
    with pytest.raises(ValueError, match="n <= 8"):
        permutation_unavoidable(9, 9, mode="sample", trials=1, seed=0)


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


# (n, N, seed, trials, counterexample): the counterexample's matrix and
# pattern as row masks, or a digest of them past 9 rows, or None when the
# report holds.  Recorded with one next_bits(N * N) draw per trial.  The
# cases take trials across and off draw-block edges, N * N up to 4,900 bits,
# counterexamples from trial 0 to 3,837, and n > N.  The rows from
# (3, 6, 4, 3000) on draw past 2^16 bits, put counterexamples inside the runs
# of trials 2^j - 1 through 2^(j+1) - 2, the blocks of a doubling schedule
# (at trials 619, 117 and 140, each with a lower pattern violating a later
# trial of its run, 140 also with a higher one, and at 9) and one on the last
# trial of such a run (1,022), and end the trials one before and one after
# the runs that end at trials 126 and 1,022.  The rows from (4, 5, 2, 1000)
# on ask for many trials but find a counterexample at trial 0, or at trial
# 3,837, past the first 2^16-bit block of 3-in-5 trials (trials 0 to 2,620).
SAMPLED_GOLDEN = [
    (1, 1, 1, 50, None),
    (2, 2, 1, 5, ((1, 1), (1, 2))),
    (2, 2, 21, 3, ((2, 2), (1, 2))),
    (2, 2, 5, 1, None),
    (3, 3, 1, 1, ((1, 3, 6), (1, 4, 2))),
    (3, 4, 5, 7, ((7, 12, 8, 12), (2, 1, 4))),
    (3, 4, 3, 2, None),
    (2, 3, 1, 5000, None),
    (3, 5, 13, 300, ((16, 7, 20, 28, 29), (2, 1, 4))),
    (3, 5, 3, 700, ((8, 24, 26, 6, 30), (1, 4, 2))),
    (3, 5, 5, 1100, ((0, 25, 5, 7, 7), (2, 4, 1))),
    (3, 5, 9, 1079, None),
    (3, 5, 9, 1080, ((2, 7, 5, 13, 12), (4, 1, 2))),
    (3, 5, 1, 1000, None),
    (3, 6, 1, 1000, None),
    (3, 6, 2, 333, None),
    (4, 5, 1, 1, ((25, 12, 29, 23, 7), (1, 2, 8, 4))),
    (4, 6, 1, 100, ((17, 35, 38, 48, 44, 46), (2, 1, 8, 4))),
    (4, 6, 9, 200, ((14, 15, 47, 51, 56, 9), (8, 1, 2, 4))),
    (4, 6, 3, 58, None),
    (4, 6, 3, 59, ((2, 30, 0, 3, 59, 10), (8, 4, 1, 2))),
    (3, 7, 1, 300, None),
    (3, 2, 1, 10, ((1, 2), (1, 2, 4))),
    (5, 3, 9, 4, ((6, 2, 7), (1, 2, 4, 8, 16))),
    (9, 4, 2, 1, ((13, 8, 4, 15), (1, 2, 4, 8, 16, 32, 64, 128, 256))),
    (9, 8, 3, 2, ((36, 153, 90, 131, 99, 175, 85, 186), (1, 2, 4, 8, 16, 32, 64, 128, 256))),
    (2, 65, 1, 3, None),
    (3, 65, 2, 2, None),
    (2, 70, 3, 2, None),
    (66, 65, 4, 3, ('bb5fb38a4cc4e28a', '1740ae45e8f1e850')),
    (1, 64, 5, 2, None),
    (3, 6, 4, 3000, None),
    (4, 7, 1, 1000, None),
    (3, 5, 22, 1000, ((7, 23, 28, 28, 0), (2, 4, 1))),
    (4, 6, 65, 130, ((49, 57, 6, 46, 4, 8), (8, 2, 4, 1))),
    (5, 8, 5, 300, ((225, 102, 41, 120, 61, 9, 35, 18), (8, 2, 4, 1, 16))),
    (3, 4, 9, 20, ((7, 6, 0, 1), (2, 1, 4))),
    (3, 5, 34, 1022, None),
    (3, 5, 34, 1024, ((30, 28, 15, 3, 1), (2, 1, 4))),
    (3, 6, 4, 126, None),
    (3, 6, 4, 128, None),
    (4, 5, 2, 1000, ((13, 4, 29, 17, 20), (1, 2, 8, 4))),
    (5, 6, 1, 1000, ((25, 22, 63, 30, 52, 13), (1, 4, 16, 8, 2))),
    (6, 8, 1, 1000, ((153, 245, 123, 116, 195, 186, 62, 117), (2, 1, 4, 16, 8, 32))),
    (9, 8, 3, 1000, ((36, 153, 90, 131, 99, 175, 85, 186), (1, 2, 4, 8, 16, 32, 64, 128, 256))),
    (3, 5, 4, 4000, ((28, 28, 0, 7, 17), (4, 1, 2))),
]


def _recorded(a: BinaryMatrix):
    masks = tuple(a.masks)
    return masks if len(masks) <= 9 else hashlib.sha256(repr(masks).encode()).hexdigest()[:16]


def _outcome(report):
    return None if report.holds else (
        _recorded(report.counterexample_matrix), _recorded(report.counterexample_pattern)
    )


def test_unavoidable_sample_mode_golden():
    for n, N, seed, trials, expected in SAMPLED_GOLDEN:
        report = permutation_unavoidable(n, N, mode="sample", trials=trials, seed=seed)
        assert report == sampled_unavoidable(n, N, seed, trials), (n, N, seed, trials)
        assert not report.exhaustive
        assert _outcome(report) == expected, (n, N, seed, trials)


@pytest.mark.parametrize("budget", [1, 30, 100, 1000])
def test_unavoidable_sampling_blocks_keep_the_per_trial_bits(monkeypatch, budget):
    # small draw blocks: one trial per draw when N * N > budget, else blocks
    # of budget // (N * N) trials; at 1,000 bits the counterexamples at
    # trials 33, 110, 117, 248, 610, 619, 1,007 and 3,837 lie inside
    # bit-sliced blocks of 27 or 40 trials, off their edges, and the one at
    # trial 1,079 ends its block
    monkeypatch.setattr(patterns, "DRAW_BLOCK_BITS", budget)
    for n, N, seed, trials, expected in SAMPLED_GOLDEN:
        if N > 8:
            continue
        report = permutation_unavoidable(n, N, mode="sample", trials=trials, seed=seed)
        assert _outcome(report) == expected, (n, N, seed, trials)


def test_unavoidable_sampling_slices_only_blocks_of_c_n_n_trials(monkeypatch):
    # a block is bit-sliced iff n <= N and it holds at least C(N, n) trials
    def refused(*args):
        raise AssertionError("bit-sliced a block")

    with monkeypatch.context() as m:
        m.setattr(patterns, "_sliced_violation", refused)
        for n, N, seed, trials, expected in SAMPLED_GOLDEN:
            if (n, N) in ((3, 65), (2, 70), (66, 65), (5, 3)):
                report = permutation_unavoidable(n, N, mode="sample", trials=trials, seed=seed)
                assert _outcome(report) == expected, (n, N, seed, trials)
        report = permutation_unavoidable(8, 12, mode="sample", trials=2, seed=7)
        a, p = report.counterexample_matrix, report.counterexample_pattern
        assert not p.contained_in(a.masks, 12)
        assert not p.contained_in(complement(a).masks, 12)

    # C(6, 3) = 20: 1,000 trials are one block of 36,000 bits, bit-sliced whole
    draws, calls = [], []
    next_bits, contained_in = Xoshiro256StarStar.next_bits, BinaryMatrix.contained_in
    monkeypatch.setattr(Xoshiro256StarStar, "next_bits",
                        lambda gen, count: draws.append(count) or next_bits(gen, count))
    monkeypatch.setattr(BinaryMatrix, "contained_in",
                        lambda p, *args: calls.append(len(draws)) or contained_in(p, *args))
    assert permutation_unavoidable(3, 6, mode="sample", trials=1000, seed=1).holds
    assert draws == [36000]
    assert not calls


def test_unavoidable_sampling_draws_one_trial_when_the_pattern_outsizes_the_host(monkeypatch):
    # every trial violates the first pattern, so one N * N-bit draw decides
    draws = []
    next_bits = Xoshiro256StarStar.next_bits
    monkeypatch.setattr(Xoshiro256StarStar, "next_bits",
                        lambda gen, count: draws.append(count) or next_bits(gen, count))
    for n, N, seed, trials, expected in SAMPLED_GOLDEN:
        if n > N:
            draws.clear()
            report = permutation_unavoidable(n, N, mode="sample", trials=trials, seed=seed)
            assert _outcome(report) == expected, (n, N, seed, trials)
            assert draws == [N * N], (n, N, seed, trials)


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
