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

from orl.core import (
    BLUE,
    Coloring,
    OrderedGraph,
    RED,
    UnorderedGraph,
    complete_with_loops,
)
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
) -> UnorderedGraph:
    """A random rho-regular graph on [n].

    mode "exact" (n <= 8): enumerate all rho-regular graphs and pick one
    uniformly.  mode "configuration": pick the set of degree-(d+1) vertices
    uniformly, run the configuration model on the resulting stubs, and
    re-pair on loop/multi-edge rejections while keeping the degree sequence;
    this is only approximately uniform across degree-sequence classes.
    """
    rho = Fraction(rho)
    gen = Xoshiro256StarStar(seed)
    if mode == "exact":
        graphs = enumerate_rho_regular(rho, n)
        if not graphs:
            raise ValueError("no graph realizes these parameters")
        return UnorderedGraph(n, graphs[gen.next_below(len(graphs))])
    if mode != "configuration":
        raise ValueError("mode must be 'exact' or 'configuration'")
    d, surplus, _ = rho_regular_degree_data(rho, n)
    if d >= n:
        raise ValueError("degrees must be below the vertex count")
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
            return UnorderedGraph(n, edges)


def blown_up_random_coloring(t: int, s: int, seed: int) -> Coloring:
    """Color the complete looped order on t interval indices uniformly, then
    expand to the complete order on s*t positions: an edge inherits the color
    of its interval-index pair, loops covering the within-interval pairs."""
    if t < 1 or s < 1:
        raise ValueError("t and s must be positive")
    gen = Xoshiro256StarStar(seed)
    base = complete_with_loops(t)
    loop_color: dict[tuple[int, int], str] = {}
    for pair in sorted(base.edges):  # lexicographic draw order is contractual
        loop_color[pair] = RED if gen.next_bit() else BLUE

    def interval_of(v: int) -> int:
        return (v - 1) // s + 1

    def color(i: int, j: int) -> str:
        a, b = interval_of(i), interval_of(j)
        return loop_color[(a, b) if a <= b else (b, a)]

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


def matching_pair_probability(query: PairSetQuery, n: int) -> Fraction:
    """Exact probability that the random matching has no edge between X_i and
    Y_j for every (i, j) in T, over all n! permutations."""
    if n > 8:
        raise ValueError("exact enumeration is limited to n <= 8")
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

def pair_coverage_stats(
    g: OrderedGraph | UnorderedGraph, parts: Iterable[Iterable[int]]
) -> int:
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


def cross_pair_coverage(
    g: OrderedGraph | UnorderedGraph,
    left_sets: Iterable[Iterable[int]],
    right_sets: Iterable[Iterable[int]],
) -> int:
    """Number of (left, right) set pairs joined by at least one edge."""
    from orl.core import edges_between

    lefts = [frozenset(s) for s in left_sets]
    rights = [frozenset(s) for s in right_sets]
    return sum(
        1 for x in lefts for y in rights if x and y and edges_between(g, x, y) > 0
    )


def interval_pair_event_frequency(
    n: int,
    left_sets: Iterable[Iterable[int]],
    right_sets: Iterable[Iterable[int]],
    threshold: int,
) -> tuple[Fraction, int, int]:
    """Over all n! matchings, how often the covered cross-pair count exceeds
    `threshold`; returns (frequency, min count, max count).

    This evaluates the two-sided interval statements at exhaustive scale
    (n <= 7); it reports, never asserts.
    """
    if n > 7:
        raise ValueError("exhaustive evaluation is limited to n <= 7")
    lefts = [frozenset(s) for s in left_sets]
    rights = [frozenset(s) for s in right_sets]
    above = 0
    lowest, highest = None, None
    total = 0
    for pi in permutations(range(1, n + 1)):
        total += 1
        g = OrderedGraph(2 * n, [(i, n + pi[i - 1]) for i in range(1, n + 1)])
        covered = cross_pair_coverage(g, lefts, rights)
        above += covered > threshold
        lowest = covered if lowest is None else min(lowest, covered)
        highest = covered if highest is None else max(highest, covered)
    return Fraction(above, total), lowest or 0, highest or 0


def set_partition_premise_ratio(
    rho: Fraction, n: int, s: int, t: int, M: int
) -> Fraction:
    """Exact value of t^n * C(t^2, M) * C(s^2 M, e) / D, where e is the edge
    count of rho-regular graphs on [n] and D their exact number.

    The partition-coverage statement applies with failure probability below
    any delta exceeding this ratio (and requires M <= C(t,2) + t).
    """
    from orl.ramsey import count_rho_regular, rho_regular_degree_data

    if M > t * (t - 1) // 2 + t:
        raise ValueError("M may not exceed the number of index pairs")
    _, _, edge_count = rho_regular_degree_data(rho, n)
    denominator = count_rho_regular(rho, n).exact_count
    if denominator == 0:
        raise ValueError("no graph realizes these parameters")
    numerator = t**n * math.comb(t * t, M) * math.comb(s * s * M, edge_count)
    return Fraction(numerator, denominator)


@dataclass(frozen=True)
class CoverageTrial:
    seed: int
    part_count: int
    max_size: int
    covered_pairs: int


def coverage_experiment(
    g: OrderedGraph | UnorderedGraph,
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


def configuration_bias_report(
    rho: Fraction, n: int, trials: int, seed: int
) -> Fraction:
    """Total-variation distance between the configuration-model sampler and
    the uniform distribution over all rho-regular graphs, measured
    empirically at tiny n where the exact support is enumerable."""
    support = enumerate_rho_regular(rho, n)
    counts = {edges: 0 for edges in support}
    for k in range(trials):
        g = sample_rho_regular(rho, n, (seed ^ k) & ((1 << 64) - 1), mode="configuration")
        counts[g.edges] += 1
    uniform = Fraction(1, len(support))
    return sum(
        abs(Fraction(c, trials) - uniform) for c in counts.values()
    ) / 2


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
        if not self.trials:
            return Fraction(0)
        return Fraction(sum(tr.avoided for tr in self.trials), len(self.trials))


def monte_carlo_avoidance(
    pattern: OrderedGraph,
    t: int,
    s: int,
    trials: int,
    seed: int,
    inject_first: Optional[Coloring] = None,
) -> AvoidanceReport:
    """Sample blown-up interval colorings and report how often they avoid the
    pattern in both colors.

    The first avoiding coloring is emitted as a lower-bound certificate (an
    avoiding coloring of K_{st} proves the Ramsey value exceeds st).  Each
    trial is decided by `ramsey.avoids`, the check `verify_certificate`
    runs, so the certificate is verified as it is found.  `inject_first`
    replaces trial 0 by a fixed coloring of K_{st}, letting deterministic
    constructions ride the same reporting.
    A pattern larger than st is avoided vacuously by every trial.
    """
    records = []
    best: Optional[Certificate] = None
    for k in range(trials):
        if k == 0 and inject_first is not None:
            if inject_first.n != s * t:
                raise ValueError("injected coloring must cover K_{st}")
            col = inject_first
        else:
            col = blown_up_random_coloring(t, s, seed ^ k)
        avoided = avoids(col, pattern)
        records.append(AvoidanceTrial(k, seed ^ k, avoided))
        if avoided and best is None:
            best = Certificate("lower", pattern, s * t, coloring=col)
    return AvoidanceReport(pattern, t, s, tuple(records), best)


# ---------------------------------------------------------------------------
# experiment parameter presets
# ---------------------------------------------------------------------------

def _round_half_up(x: float) -> int:
    return math.floor(x + 0.5)


@dataclass(frozen=True)
class ExperimentConfig:
    """Derived parameters for the random-matching experiments at a given n.

    Raw values follow the base-2-log formulas; the rounded fields apply
    round-half-up (recorded so reports can show the rounding error).
    """

    n: int
    trials: int
    seed: int
    d_raw: float
    S_raw: float
    r_raw: float
    M_raw: float
    s_raw: float
    t_raw: float

    @classmethod
    def for_matching(cls, n: int, trials: int, seed: int) -> "ExperimentConfig":
        if n < 2:
            raise ValueError("n must be at least 2")
        log_n = math.log2(n)
        return cls(
            n=n,
            trials=trials,
            seed=seed,
            d_raw=3 * log_n,
            S_raw=2e4 * n,
            r_raw=log_n * log_n / 4,
            M_raw=n * math.log2(log_n) / (8 * log_n) if log_n > 1 else 0.0,
            s_raw=n / (8 * log_n),
            t_raw=n / (20 * log_n),
        )

    @property
    def d(self) -> int:
        return _round_half_up(self.d_raw)

    @property
    def S(self) -> int:
        return _round_half_up(self.S_raw)

    @property
    def r(self) -> int:
        return _round_half_up(self.r_raw)

    @property
    def M(self) -> int:
        return _round_half_up(self.M_raw)

    @property
    def s(self) -> int:
        return _round_half_up(self.s_raw)

    @property
    def t(self) -> int:
        return _round_half_up(self.t_raw)

    def blowup_shape(self) -> tuple[int, int]:
        """(t, s) clamped to positive values with s*t >= 2n so the sampled
        matching fits; tiny n make the raw formulas degenerate."""
        t = max(1, self.t)
        s = max(1, self.s)
        if s * t < 2 * self.n:
            s = -(-2 * self.n // t)
        return t, s


@dataclass(frozen=True)
class RegularExperimentConfig:
    """Parameter presets for the almost-regular lower-bound experiments."""

    n: int
    rho: float
    epsilon: float
    zeta: float

    @classmethod
    def preset_fixed_rho(cls, rho: float, n: int) -> "RegularExperimentConfig":
        log_n = math.log2(n)
        return cls(n=n, rho=rho, epsilon=0.5 - 1 / rho - 1 / log_n, zeta=1 / log_n)

    @classmethod
    def preset_slightly_above_two(cls, n: int) -> "RegularExperimentConfig":
        log_n = math.log2(n)
        loglog = math.log2(log_n)
        return cls(
            n=n,
            rho=2 + 9 * loglog / log_n,
            epsilon=2 * loglog / log_n,
            zeta=1 / log_n,
        )

    @property
    def M_raw(self) -> float:
        return self.zeta * self.n

    @property
    def s_raw(self) -> float:
        return self.n ** self.epsilon

    @property
    def t_raw(self) -> float:
        return self.zeta * self.n / (2 * math.log2(1 / self.zeta))

    @property
    def delta_log2(self) -> float:
        """Base-2 log of the failure-probability target."""
        return (
            (self.rho * (self.epsilon - 0.5) + 1 + self.zeta)
            * self.n
            * math.log2(self.n)
        )

    @property
    def M(self) -> int:
        return _round_half_up(self.M_raw)

    @property
    def s(self) -> int:
        return _round_half_up(self.s_raw)

    @property
    def t(self) -> int:
        return _round_half_up(self.t_raw)
