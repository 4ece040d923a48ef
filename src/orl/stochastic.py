"""Seeded random models and fixed-size experimental checks.

Everything here is driven by the package PRNG (see orl.rng), so identical
seeds and parameters reproduce results bit for bit.  Logarithms in the
derived experiment parameters are base 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from typing import Iterable, Optional

from orl.core import BLUE, Coloring, OrderedGraph, RED
from orl.ramsey import (
    Certificate,
    avoids,
    enumerate_rho_regular,
    rho_regular_degree_data,
)
from orl.rng import Xoshiro256StarStar, stream_for_trial


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

def sample_permutation_matching(n: int, seed: int) -> OrderedGraph:
    """The ordered matching {i, n + pi(i)} for a seeded uniform permutation pi."""
    if n < 1:
        raise ValueError("n must be positive")
    gen = Xoshiro256StarStar(seed)
    pi = gen.permutation(n)
    return OrderedGraph(2 * n, [(i, n + pi[i - 1]) for i in range(1, n + 1)])


def sample_rho_regular(
    rho: Fraction, n: int, seed: int, mode: str = "configuration"
) -> OrderedGraph:
    """A random rho-regular graph on [n].

    mode "exact" (n <= 8): enumerate all rho-regular graphs and pick one
    uniformly.  mode "configuration": pick the set of degree-(d+1) vertices
    uniformly, run the configuration model on the resulting stubs, and
    re-pair on loop/multi-edge rejections while keeping the degree sequence;
    this is only approximately uniform across degree-sequence classes.
    """
    rho = Fraction(rho)
    if mode not in ("exact", "configuration"):
        raise ValueError("mode must be 'exact' or 'configuration'")
    d, surplus, _ = rho_regular_degree_data(rho, n)
    # degrees that differ by at most 1 and have an even sum are graphical
    # exactly when the largest is at most n - 1; past that, re-pairing the
    # configuration model would never end
    if d + (surplus > 0) > n - 1:
        raise ValueError("no graph realizes these parameters")
    gen = Xoshiro256StarStar(seed)
    if mode == "exact":
        graphs = enumerate_rho_regular(rho, n)
        return OrderedGraph(n, graphs[gen.next_below(len(graphs))])
    high = set(gen.subset(n, surplus))
    degrees = [d + 1 if v in high else d for v in range(1, n + 1)]
    stubs_template = [v for v in range(1, n + 1) for _ in range(degrees[v - 1])]
    while True:
        stubs = list(stubs_template)
        gen.shuffle(stubs)
        edges = set()
        ok = True
        for a, b in zip(stubs[0::2], stubs[1::2]):
            if a == b:
                ok = False
                break
            e = (a, b) if a < b else (b, a)
            if e in edges:
                ok = False
                break
            edges.add(e)
        if ok:
            return OrderedGraph(n, edges)


def blown_up_random_coloring(t: int, s: int, seed: int) -> Coloring:
    """Color each pair a <= b of t interval indices uniformly, loops (a, a)
    included, then expand to the complete order on s*t positions: an edge
    inherits the color of its interval-index pair, loops covering the
    within-interval pairs."""
    if t < 1 or s < 1:
        raise ValueError("t and s must be positive")
    gen = Xoshiro256StarStar(seed)
    # lexicographic draw order is contractual
    pair_color = {
        (a, b): RED if gen.next_bit() else BLUE
        for a in range(1, t + 1)
        for b in range(a, t + 1)
    }

    def color(i: int, j: int) -> str:
        return pair_color[((i - 1) // s + 1, (j - 1) // s + 1)]

    return Coloring.from_function(s * t, color)


# ---------------------------------------------------------------------------
# exact probability checks for random matchings
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PairSetQuery:
    """Disjoint left sets X_i in [n], right sets Y_j in [2n] \\ [n], and the
    index pairs whose crossing edges must all be absent."""

    X_sets: tuple[frozenset, ...]
    Y_sets: tuple[frozenset, ...]
    T: tuple[tuple[int, int], ...]

    def validate(self, n: int) -> None:
        seen: set[int] = set()
        for x in self.X_sets:
            if not x <= set(range(1, n + 1)):
                raise ValueError("X sets must lie in [n]")
            if x & seen:
                raise ValueError("X sets must be pairwise disjoint")
            seen |= x
        seen = set()
        for y in self.Y_sets:
            if not y <= set(range(n + 1, 2 * n + 1)):
                raise ValueError("Y sets must lie in the right class")
            if y & seen:
                raise ValueError("Y sets must be pairwise disjoint")
            seen |= y
        for i, j in self.T:
            if not (1 <= i <= len(self.X_sets) and 1 <= j <= len(self.Y_sets)):
                raise ValueError("T indexes a missing set")


EXACT_PROBABILITY_LIMIT = 8  # largest n that matching_pair_probability enumerates


def matching_pair_probability(query: PairSetQuery, n: int) -> Fraction:
    """Exact probability that the random matching has no edge between X_i and
    Y_j for every (i, j) in T, over all n! permutations."""
    if n > EXACT_PROBABILITY_LIMIT:
        raise ValueError(f"exact enumeration is limited to n <= {EXACT_PROBABILITY_LIMIT}")
    query.validate(n)
    forbidden = [set() for _ in range(n + 1)]  # forbidden[e]: banned right targets
    for i, j in query.T:
        for e in query.X_sets[i - 1]:
            forbidden[e] |= query.Y_sets[j - 1]
    good = 0
    total = 0
    for pi in permutations(range(1, n + 1)):
        total += 1
        if all(n + pi[e - 1] not in forbidden[e] for e in range(1, n + 1)):
            good += 1
    return Fraction(good, total)


def pairset_avoidance_bound(d: int, r: int, S: int, n: int) -> float:
    """Closed-form upper estimate exp(-(S/n) * floor((3d - sqrt(9d^2-8r))/4)^2)
    for the avoidance probability; meaningful only when it is below 1."""
    if r > d * d:
        raise ValueError("T cannot exceed d^2 pairs")
    z = math.floor((3 * d - math.sqrt(9 * d * d - 8 * r)) / 4)
    return math.exp(-(S / n) * z * z)


# ---------------------------------------------------------------------------
# pair coverage
# ---------------------------------------------------------------------------

def pair_coverage_stats(g: OrderedGraph, parts: Iterable[Iterable[int]]) -> int:
    """Number of index pairs (i <= j) whose part pair spans at least one edge.

    `parts` must cover the vertex set with pairwise disjoint sets.
    """
    part_list = [frozenset(p) for p in parts]
    seen: set[int] = set()
    for p in part_list:
        if p & seen:
            raise ValueError("parts must be pairwise disjoint")
        seen |= p
    if seen != set(range(1, g.n + 1)):
        raise ValueError("parts must cover the vertex set")
    index_of = {}
    for k, p in enumerate(part_list):
        for v in p:
            index_of[v] = k
    covered = set()
    for a, b in g.edges:
        i, j = index_of[a], index_of[b]
        covered.add((i, j) if i <= j else (j, i))
    return len(covered)


@dataclass(frozen=True)
class CoverageTrial:
    seed: int
    part_count: int
    max_size: int
    covered_pairs: int


def coverage_experiment(
    g: OrderedGraph,
    part_count: int,
    max_size: int,
    trials: int,
    seed: int,
) -> list[CoverageTrial]:
    """Seeded random partitions into at most `part_count` parts of size at
    most `max_size`; reports the covered pair count per trial."""
    if part_count * max_size < g.n:
        raise ValueError("parts cannot cover the vertex set")
    out = []
    for k in range(trials):
        gen = stream_for_trial(seed, k)
        vertices = list(range(1, g.n + 1))
        gen.shuffle(vertices)
        parts: list[list[int]] = [[] for _ in range(part_count)]
        for v in vertices:
            while True:
                idx = gen.next_below(part_count)
                if len(parts[idx]) < max_size:
                    parts[idx].append(v)
                    break
        covered = pair_coverage_stats(g, [p for p in parts if p])
        out.append(CoverageTrial(seed ^ k, part_count, max_size, covered))
    return out


# ---------------------------------------------------------------------------
# Monte Carlo avoidance
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AvoidanceTrial:
    trial: int
    seed: int
    avoided: bool


@dataclass(frozen=True)
class AvoidanceReport:
    pattern: OrderedGraph
    t: int
    s: int
    trials: tuple[AvoidanceTrial, ...]
    certificate: Optional[Certificate]

    @property
    def avoidance_fraction(self) -> Fraction:
        return Fraction(sum(tr.avoided for tr in self.trials), len(self.trials))


def monte_carlo_avoidance(
    pattern: OrderedGraph,
    t: int,
    s: int,
    trials: int,
    seed: int,
) -> AvoidanceReport:
    """Sample blown-up interval colorings and report how often they avoid the
    pattern in both colors.

    The first avoiding coloring is emitted as a lower-bound certificate (an
    avoiding coloring of K_{st} proves the Ramsey value exceeds st).  Each
    trial is decided by `ramsey.avoids`, the check `verify_certificate`
    runs, so the certificate is verified as it is found.
    A pattern larger than st is avoided vacuously by every trial.
    """
    records = []
    best: Optional[Certificate] = None
    for k in range(trials):
        col = blown_up_random_coloring(t, s, seed ^ k)
        avoided = avoids(col, pattern)
        records.append(AvoidanceTrial(k, seed ^ k, avoided))
        if avoided and best is None:
            best = Certificate("lower", pattern, s * t, coloring=col)
    return AvoidanceReport(pattern, t, s, tuple(records), best)


def matching_blowup_shape(n: int) -> tuple[int, int]:
    """The blow-up shape (t, s) for a random matching on 2n vertices:
    t = n / (20 log n) and s = n / (8 log n), rounded half up and clamped to
    at least 1, then s raised so that s*t >= 2n and the matching fits; tiny
    n make the raw formulas degenerate."""
    if n < 2:
        raise ValueError("n must be at least 2")
    log_n = math.log2(n)
    t = max(1, math.floor(n / (20 * log_n) + 0.5))
    s = max(1, math.floor(n / (8 * log_n) + 0.5))
    if s * t < 2 * n:
        s = -(-2 * n // t)
    return t, s
