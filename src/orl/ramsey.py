"""Exact ordered Ramsey numbers, certificates, and almost-regular graph counts.

The avoiding-coloring search colors the host's pairs in lexicographic order,
checks after every assignment whether a monochromatic copy of the pattern
was just completed, and breaks the global color-swap symmetry by fixing the
first pair red.  The pattern is compiled once per search (`CompiledPattern`)
and each check is one bitset containment search with the newly colored pair
pinned; the depth-first search keeps its C(N, 2) levels on an explicit
stack, not the interpreter's.  Upper bounds are exhausted searches; lower
bounds are concrete avoiding colorings, both re-checkable from their
certificates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterator, Optional

from orl.core import (
    BLUE,
    COLORS,
    Coloring,
    CompiledPattern,
    OrderedGraph,
    RED,
    UnorderedGraph,
    pair_iter,
)
from orl.embedder import find_monochromatic


@dataclass
class SearchStats:
    nodes: int = 0
    prunes: int = 0


@dataclass(frozen=True)
class Certificate:
    """Machine-checkable witness for one side of an ordered Ramsey bound.

    kind "lower": `coloring` (on N positions) contains no monochromatic copy
    of `pattern`, proving the Ramsey value exceeds N.  kind "upper": the
    avoiding-coloring search at size N was exhausted without success, with
    its node/prune counters recorded.
    """

    kind: str
    pattern: OrderedGraph
    N: int
    coloring: Optional[Coloring] = None
    stats: Optional[SearchStats] = None

    def __post_init__(self):
        if self.kind not in ("lower", "upper"):
            raise ValueError("certificate kind must be 'lower' or 'upper'")
        if self.kind == "lower":
            if self.coloring is None or self.coloring.n != self.N:
                raise ValueError("a lower certificate stores a coloring of K_N")


# ---------------------------------------------------------------------------
# avoiding-coloring search
# ---------------------------------------------------------------------------

def avoiding_coloring(
    pattern: OrderedGraph, N: int, stats: Optional[SearchStats] = None
) -> Optional[Coloring]:
    """A total coloring of K_N with no monochromatic copy of the pattern, or
    None once the depth-first search over lexicographic pair assignments is
    exhausted.

    After each assignment only copies completed by the newly colored pair are
    tested: a strictly increasing embedding preserves the lexicographic order
    of pairs, so the copy's last-colored edge is the image of the pattern's
    lexicographically largest edge, and pinning that image makes the
    incremental check complete.
    """
    if N < 0:
        raise ValueError("N must be non-negative")
    if stats is None:
        stats = SearchStats()
    pairs = list(pair_iter(N))
    if not pattern.edges:
        # an edgeless pattern embeds in any total coloring that can hold it
        if pattern.n <= N:
            return None
        return Coloring(N, [RED] * len(pairs))
    if pattern.n > N:
        return Coloring(N, [RED] * len(pairs))

    # the pattern is compiled once; each node is one pinned memo-off search
    engine = CompiledPattern(pattern.n, pattern.edges)
    lo_pin, hi_pin = max(pattern.edges)
    red_adj = [0] * (N + 1)
    blue_adj = [0] * (N + 1)
    assignment: list[Optional[str]] = [None] * len(pairs)
    # tried[t]: colors tried so far at pair t (RED first, then BLUE); the
    # depth-first search runs on this explicit stack, C(N, 2) levels deep
    tried = [0] * len(pairs)
    nodes = prunes = 0
    t = 0
    while 0 <= t < len(pairs):
        a, b = pairs[t]
        k = tried[t]
        if k:
            adj = red_adj if k == 1 else blue_adj
            adj[a] &= ~(1 << b)
            adj[b] &= ~(1 << a)
        if k == (1 if t == 0 else 2):
            tried[t] = 0
            t -= 1
            continue
        tried[t] = k + 1
        adj = red_adj if k == 0 else blue_adj
        nodes += 1
        adj[a] |= 1 << b
        adj[b] |= 1 << a
        assignment[t] = COLORS[k]
        if engine.search(N, adj, {lo_pin: a, hi_pin: b}, False) is not None:
            prunes += 1
        else:
            t += 1
    stats.nodes += nodes
    stats.prunes += prunes
    if t < 0:
        return None
    return Coloring(N, assignment)  # type: ignore[arg-type]


@dataclass(frozen=True)
class RamseyResult:
    """Outcome of an ordered Ramsey computation, possibly capped at N_max."""

    pattern: OrderedGraph
    value: int
    exact: bool  # False: every N <= N_max admitted an avoiding coloring
    lower: Optional[Certificate]
    upper: Optional[Certificate]

    def describe(self) -> str:
        return str(self.value) if self.exact else f">= {self.value}"


def default_nmax(pattern: OrderedGraph) -> int:
    """Cap from the classical exponential bound; callers usually pass less."""
    return 2 ** (2 * pattern.n)


def ordered_ramsey(pattern: OrderedGraph, N_max: Optional[int] = None) -> RamseyResult:
    """Smallest N <= N_max such that no coloring of K_N avoids the pattern.

    Returns the exact value with both certificates, or a lower-bound-only
    result at N_max + 1 when every size up to the cap still admits an
    avoiding coloring.
    """
    if N_max is None:
        N_max = default_nmax(pattern)
    if N_max < pattern.n:
        raise ValueError("N_max must be at least the pattern size")
    best_lower: Optional[Certificate] = None
    start = 0 if pattern.n == 0 else pattern.n - 1
    for N in range(start, N_max + 1):
        stats = SearchStats()
        col = avoiding_coloring(pattern, N, stats)
        if col is None:
            return RamseyResult(
                pattern,
                N,
                True,
                best_lower,
                Certificate("upper", pattern, N, stats=stats),
            )
        best_lower = Certificate("lower", pattern, N, coloring=col)
    return RamseyResult(pattern, N_max + 1, False, best_lower, None)


def verify_certificate(cert: Certificate) -> bool:
    """Re-check a certificate from scratch.

    Lower: exhaustively confirm the stored coloring has no monochromatic
    copy of the pattern.  Upper: re-run the exhausted search at size N.
    """
    if cert.kind == "lower":
        assert cert.coloring is not None
        if cert.pattern.n > cert.N:
            return True
        return (
            find_monochromatic(cert.coloring, cert.pattern, RED) is None
            and find_monochromatic(cert.coloring, cert.pattern, BLUE) is None
        )
    return avoiding_coloring(cert.pattern, cert.N) is None


# ---------------------------------------------------------------------------
# min/max over orderings
# ---------------------------------------------------------------------------

def distinct_orderings(g: UnorderedGraph) -> dict[frozenset, list[int]]:
    """Map each distinct ordered edge set to one witnessing vertex order.

    The witnessing order lists the original vertex placed at each position.
    """
    from itertools import permutations

    seen: dict[frozenset, list[int]] = {}
    for perm in permutations(range(1, g.n + 1)):
        position = {v: p for p, v in enumerate(perm, start=1)}
        edges = frozenset(
            tuple(sorted((position[a], position[b]))) for a, b in g.edges
        )
        if edges not in seen:
            seen[edges] = list(perm)
    return seen


@dataclass(frozen=True)
class MinMaxReport:
    graph: UnorderedGraph
    results: tuple[tuple[OrderedGraph, tuple[int, ...], RamseyResult], ...]

    @property
    def minr(self) -> RamseyResult:
        return min(self.results, key=lambda r: (r[2].value, r[2].exact))[2]

    @property
    def maxr(self) -> RamseyResult:
        return max(self.results, key=lambda r: (r[2].value, not r[2].exact))[2]


def min_max_ordered_ramsey(g: UnorderedGraph, N_max: int) -> MinMaxReport:
    """Ordered Ramsey extremes over all orderings of an unordered graph.

    Enumerates the n! vertex orders, deduplicates isomorphic ordered graphs
    by their edge sets, and computes each distinct value (capped at N_max).
    """
    if g.n > 7:
        raise ValueError("factorial enumeration is limited to n <= 7")
    results = []
    for edges, order in sorted(
        distinct_orderings(g).items(), key=lambda kv: sorted(kv[0])
    ):
        pattern = OrderedGraph(g.n, edges)
        results.append((pattern, tuple(order), ordered_ramsey(pattern, N_max)))
    return MinMaxReport(g, tuple(results))


# ---------------------------------------------------------------------------
# almost-regular graph counting
# ---------------------------------------------------------------------------

def rho_regular_degree_data(rho: Fraction, n: int) -> tuple[int, int, int]:
    """(d, surplus, edge count) for rho-regular graphs on n vertices.

    Degrees are d = floor(rho) or d + 1, with `surplus` vertices of degree
    d + 1 so the degree sum equals ceil(rho * n); that total must be even.
    """
    if rho <= 0:
        raise ValueError("rho must be positive")
    total = math.ceil(rho * n)
    if total % 2:
        raise ValueError(f"ceil(rho * n) = {total} must be even")
    d = math.floor(rho)
    if rho == d:
        surplus = 0
    else:
        surplus = total - d * n
        if not 0 <= surplus <= n:
            raise ValueError("rho admits no valid degree sequence")
    if d >= n:
        raise ValueError("degrees must be below the vertex count")
    return d, surplus, total // 2


def count_labeled_graphs_with_degrees(degrees: tuple[int, ...]) -> int:
    """Number of labeled simple graphs with the given degree sequence.

    Dynamic program over the multiset of remaining degrees: the completion
    count only depends on that multiset, and choosing which equal-degree
    vertices the current vertex joins contributes binomial factors.
    """
    memo: dict[tuple[int, ...], int] = {}

    def count(remaining: tuple[int, ...]) -> int:
        # remaining degrees sorted descending; first vertex connects onward
        while remaining and remaining[-1] == 0:
            remaining = remaining[:-1]
        if not remaining:
            return 1
        if remaining[0] > len(remaining) - 1:
            return 0
        cached = memo.get(remaining)
        if cached is not None:
            return cached
        first, rest = remaining[0], list(remaining[1:])
        # group the rest by value
        groups: list[tuple[int, int]] = []
        for value in rest:
            if groups and groups[-1][0] == value:
                groups[-1] = (value, groups[-1][1] + 1)
            else:
                groups.append((value, 1))
        total = 0

        def choose(gi: int, still: int, picked: list[int], ways: int) -> None:
            nonlocal total
            if still == 0:
                new = []
                for (value, count_), take in zip(groups, picked + [0] * len(groups)):
                    new.extend([value - 1] * take)
                    new.extend([value] * (count_ - take))
                total += ways * count(tuple(sorted(new, reverse=True)))
                return
            if gi == len(groups):
                return
            value, count_ = groups[gi]
            for take in range(min(count_, still) + 1):
                choose(
                    gi + 1,
                    still - take,
                    picked + [take],
                    ways * math.comb(count_, take),
                )

        choose(0, first, [], 1)
        memo[remaining] = total
        return total

    return count(tuple(sorted(degrees, reverse=True)))


@dataclass(frozen=True)
class RegularCountReport:
    rho: Fraction
    n: int
    exact_count: int
    formula_lower_bound: Optional[float]  # None when the estimate (rho >= 2) is out of range


def regular_count_formula(rho: Fraction, n: int) -> float:
    """Closed-form lower estimate for the number of rho-regular graphs."""
    total = math.ceil(rho * n)
    d = math.floor(rho)
    gamma = rho - d
    numerator = math.factorial(total)
    denominator = (
        (2 ** (total // 2))
        * math.factorial(total // 2)
        * math.factorial(d) ** n
        * (d + 1) ** math.ceil(gamma * n)
    )
    return numerator / denominator / math.exp(d * d)


def count_rho_regular(rho: Fraction, n: int, exact_limit: int = 10) -> RegularCountReport:
    """Exact count of rho-regular graphs on [n] plus the formula estimate.

    Enumerates over the choice of degree-(d+1) vertices and counts labeled
    graphs per degree sequence; exactness is required, speed is not.
    """
    rho = Fraction(rho)
    if n > exact_limit:
        raise ValueError(f"exact enumeration is limited to n <= {exact_limit}")
    d, surplus, _ = rho_regular_degree_data(rho, n)
    total = 0
    for subset in combinations(range(n), surplus):
        degrees = [d] * n
        for v in subset:
            degrees[v] = d + 1
        total += count_labeled_graphs_with_degrees(tuple(degrees))
    formula = regular_count_formula(rho, n) if rho >= 2 else None
    return RegularCountReport(rho, n, total, formula)


def graphs_with_degrees(degrees: tuple[int, ...]) -> Iterator[frozenset]:
    """All labeled simple graphs realizing the degree sequence (1-based vertices).

    Vertex v picks its neighbor set among later vertices with residual
    capacity; emitted edge sets are in a fixed deterministic order.
    """
    n = len(degrees)
    residual = [0] + list(degrees)

    def rec(v: int, edges: list[tuple[int, int]]) -> Iterator[frozenset]:
        if v > n:
            yield frozenset(edges)
            return
        need = residual[v]
        if need == 0:
            yield from rec(v + 1, edges)
            return
        candidates = [u for u in range(v + 1, n + 1) if residual[u] > 0]
        if need > len(candidates):
            return
        for chosen in combinations(candidates, need):
            for u in chosen:
                residual[u] -= 1
            edges.extend((v, u) for u in chosen)
            yield from rec(v + 1, edges)
            del edges[-need:]
            for u in chosen:
                residual[u] += 1

    yield from rec(1, [])


def enumerate_rho_regular(rho: Fraction, n: int) -> list[frozenset]:
    """All rho-regular graphs on [n] as edge sets, in a fixed deterministic order."""
    rho = Fraction(rho)
    if n > 8:
        raise ValueError("exhaustive listing is limited to n <= 8")
    d, surplus, _ = rho_regular_degree_data(rho, n)
    out: list[frozenset] = []
    for subset in combinations(range(n), surplus):
        degrees = [d] * n
        for v in subset:
            degrees[v] = d + 1
        out.extend(graphs_with_degrees(tuple(degrees)))
    return out
