"""Exact ordered Ramsey numbers, certificates, and almost-regular graph counts.

The avoiding-coloring search is a DPLL-style search over an explicit table
of the pattern's copies in K_N.  It keeps, per copy and color, the number of
the copy's pairs in that color; a copy all in one color is a conflict, and
a copy one pair short of that forces its last pair to the other color (unit
propagation: the other color is the only one any avoiding extension can
give it).  It branches on the pair that lies in the most nearly complete
copies, and breaks the global color-swap symmetry by making the first
decision red.  Upper bounds are exhausted searches; lower bounds are
concrete avoiding colorings, both re-checkable from their certificates.
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
    OrderedGraph,
    RED,
    pair_count,
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

MAX_COPIES = 100_000  # largest copy table that avoiding_coloring builds


def copy_count(pattern: OrderedGraph, N: int) -> int:
    """The number of distinct copies of the pattern in K_N, C(N - i, k) for
    k non-isolated and i isolated vertices: only the images of the
    non-isolated vertices set a copy's pairs.  0 when N < n."""
    if N < pattern.n:
        return 0
    k = sum(1 for v in range(1, pattern.n + 1) if pattern.adj[v])
    return math.comb(N - pattern.n + k, k)


def avoiding_coloring(
    pattern: OrderedGraph, N: int, stats: Optional[SearchStats] = None
) -> Optional[Coloring]:
    """A total coloring of K_N with no monochromatic copy of the pattern, or
    None once the propagating depth-first search is exhausted.

    The search works on a table of the pattern's `copy_count` copies in K_N,
    each the tuple of pair indices its edges map to, with one counter per
    copy and color of the pairs it has in that color.  Coloring a pair bumps
    the counters of the copies through it:
    - a copy with all m pairs in one color is a conflict;
    - a copy with m - 1 pairs in color c and none in the other color forces
      its last uncolored pair to the other color, since c there would
      complete the copy.  Forcing is sound (every avoiding extension of the
      partial coloring agrees with it), so the forced pairs are colored at
      once and undone with the decision that caused them.
    A decision goes to the uncolored pair of highest score, the sum over its
    copies that are not yet bichromatic of 8 ** (colored pairs in the copy),
    ties to the lowest lexicographic index; red is tried before blue.  The
    first decision is red only: nothing is colored before it, and swapping
    the colors maps the search below a blue first decision, forced pairs
    included, onto the one below red.  Once no uncolored pair lies in a
    copy that is not bichromatic, no copy can become monochromatic, so the
    rest is colored red.  `stats.nodes` counts the decisions tried and
    `stats.prunes` those whose propagation hit a conflict.
    """
    if N < 0:
        raise ValueError("N must be non-negative")
    if stats is None:
        stats = SearchStats()
    n_pairs = pair_count(N)
    if not pattern.edges:
        # an edgeless pattern embeds in any total coloring that can hold it
        if pattern.n <= N:
            return None
        return Coloring(N, [RED] * n_pairs)
    if pattern.n > N:
        return Coloring(N, [RED] * n_pairs)
    core = [v for v in range(1, pattern.n + 1) if pattern.adj[v]]  # non-isolated
    slots = N - pattern.n + len(core)
    n_copies = copy_count(pattern, N)
    if n_copies > MAX_COPIES:
        raise ValueError(
            f"C({slots}, {len(core)}) = {n_copies} copies exceed MAX_COPIES = {MAX_COPIES}"
        )

    # the images of the non-isolated vertices set a copy: enumerate them in
    # 1..slots, each moved right by the isolated vertices before it
    index = {pair: t for t, pair in enumerate(pair_iter(N))}
    ends = [(core.index(a), core.index(b)) for a, b in pattern.sorted_edges()]
    shift = [v - 1 - i for i, v in enumerate(core)]
    copies = []
    for ys in combinations(range(1, slots + 1), len(core)):
        image = [y + s for y, s in zip(ys, shift)]
        copies.append(tuple(index[image[i], image[j]] for i, j in ends))
    through: list[list[int]] = [[] for _ in range(n_pairs)]
    for x, copy in enumerate(copies):
        for t in copy:
            through[t].append(x)
    m = len(ends)
    weight = [8 ** k for k in range(m + 1)]
    counts = ([0] * len(copies), [0] * len(copies))  # per color, per copy
    color: list[Optional[int]] = [None] * n_pairs  # 0 red, 1 blue
    trail: list[int] = []  # colored pairs, in the order they were colored

    def propagate(t: int, c: int) -> bool:
        """Color pair t with c and every pair that forces; False on a conflict."""
        queue = [(t, c)]
        while queue:
            t, c = queue.pop()
            if color[t] is not None:
                if color[t] != c:
                    return False
                continue
            color[t] = c
            trail.append(t)
            mine, other = counts[c], counts[1 - c]
            conflict = False
            for x in through[t]:
                k = mine[x] = mine[x] + 1
                if k >= m - 1 and not other[x]:
                    if k == m:
                        conflict = True  # finish the bumps, so undo stays exact
                    else:
                        last = next(u for u in copies[x] if color[u] is None)
                        queue.append((last, 1 - c))
            if conflict:
                return False
        return True

    def undo(mark: int) -> None:
        while len(trail) > mark:
            t = trail.pop()
            cnt = counts[color[t]]
            color[t] = None
            for x in through[t]:
                cnt[x] -= 1

    red, blue = counts

    def choose() -> Optional[int]:
        best, best_score = None, 0
        for t in range(n_pairs):
            if color[t] is None:
                score = sum(
                    weight[red[x] + blue[x]]
                    for x in through[t]
                    if not (red[x] and blue[x])
                )
                if score > best_score:
                    best, best_score = t, score
        return best

    # decisions: (pair, color, trail length before it) of each decision on
    # the trail; the depth-first search runs on this explicit stack
    decisions: list[tuple[int, int, int]] = []
    nodes = prunes = 0
    t, c = choose(), 0
    while t is not None:
        mark = len(trail)
        nodes += 1
        if propagate(t, c):
            decisions.append((t, c, mark))
            t, c = choose(), 0
            continue
        prunes += 1
        undo(mark)
        # back to the deepest red decision below the one that failed, and
        # blue there; the first decision has no blue
        while decisions and c == 1:
            t, c, mark = decisions.pop()
            undo(mark)
        if not decisions:
            break
        c = 1
    stats.nodes += nodes
    stats.prunes += prunes
    if not decisions:  # the first decision is popped only when exhausted
        return None
    return Coloring(N, [COLORS[k or 0] for k in color])


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


def ordered_ramsey(pattern: OrderedGraph, N_max: Optional[int] = None) -> RamseyResult:
    """Smallest N <= N_max such that no coloring of K_N avoids the pattern.

    Returns the exact value with both certificates, or a lower-bound-only
    result when every size up to the cap still admits an avoiding coloring:
    at N_max + 1, or at the first N whose copy table would exceed
    MAX_COPIES.
    """
    if N_max is None:  # the classical exponential bound; callers usually pass less
        N_max = 2 ** (2 * pattern.n)
    if N_max < pattern.n:
        raise ValueError("N_max must be at least the pattern size")
    best_lower: Optional[Certificate] = None
    start = 0 if pattern.n == 0 else pattern.n - 1
    for N in range(start, N_max + 1):
        if copy_count(pattern, N) > MAX_COPIES:
            return RamseyResult(pattern, N, False, best_lower, None)
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


def avoids(coloring: Coloring, pattern: OrderedGraph) -> bool:
    """True iff the coloring has no monochromatic copy of the pattern in
    either color; a pattern with more vertices than K_N is avoided vacuously."""
    return pattern.n > coloring.n or (
        find_monochromatic(coloring, pattern, RED) is None
        and find_monochromatic(coloring, pattern, BLUE) is None
    )


def verify_certificate(cert: Certificate) -> bool:
    """Re-check a certificate from scratch.

    Lower: exhaustively confirm the stored coloring has no monochromatic
    copy of the pattern.  Upper: re-run the exhausted search at size N.
    """
    if cert.kind == "lower":
        assert cert.coloring is not None
        return avoids(cert.coloring, cert.pattern)
    return avoiding_coloring(cert.pattern, cert.N) is None


# ---------------------------------------------------------------------------
# min/max over orderings
# ---------------------------------------------------------------------------

def distinct_orderings(g: OrderedGraph) -> dict[frozenset, list[int]]:
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
    graph: OrderedGraph
    results: tuple[tuple[OrderedGraph, tuple[int, ...], RamseyResult], ...]

    @property
    def minr(self) -> RamseyResult:
        return min(self.results, key=lambda r: (r[2].value, r[2].exact))[2]

    @property
    def maxr(self) -> RamseyResult:
        return max(self.results, key=lambda r: (r[2].value, not r[2].exact))[2]


def min_max_ordered_ramsey(g: OrderedGraph, N_max: int) -> MinMaxReport:
    """Ordered Ramsey extremes over all orderings of g, whose own vertex
    order is ignored.

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

EXACT_COUNT_LIMIT = 10  # largest n that count_rho_regular enumerates
LISTING_LIMIT = 8  # largest n that enumerate_rho_regular lists


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


def _rho_regular_degree_sequences(rho: Fraction, n: int) -> Iterator[tuple[int, ...]]:
    """The degree sequence of each choice of the degree-(d+1) vertices."""
    d, surplus, _ = rho_regular_degree_data(rho, n)
    for subset in combinations(range(n), surplus):
        degrees = [d] * n
        for v in subset:
            degrees[v] = d + 1
        yield tuple(degrees)


def count_rho_regular(rho: Fraction, n: int) -> RegularCountReport:
    """Exact count of rho-regular graphs on [n] plus the formula estimate.

    Sums the labeled graphs of each degree sequence; exactness is required,
    speed is not.
    """
    rho = Fraction(rho)
    if n > EXACT_COUNT_LIMIT:
        raise ValueError(f"exact enumeration is limited to n <= {EXACT_COUNT_LIMIT}")
    total = sum(map(count_labeled_graphs_with_degrees, _rho_regular_degree_sequences(rho, n)))
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
    if n > LISTING_LIMIT:
        raise ValueError(f"exhaustive listing is limited to n <= {LISTING_LIMIT}")
    return [g for seq in _rho_regular_degree_sequences(rho, n) for g in graphs_with_degrees(seq)]
