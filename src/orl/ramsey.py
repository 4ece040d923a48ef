"""Exact ordered Ramsey numbers, certificates, and almost-regular graph counts.

The avoiding-coloring search is a DPLL-style search over an explicit table
of the pattern's copies in K_N.  It keeps, per copy and color, the number of
the copy's pairs in that color; a copy all in one color is a conflict, and
a copy one pair short of that forces its last pair to the other color (unit
propagation: the other color is the only one any avoiding extension can
give it).  It branches on the pair that lies in the most nearly complete
copies, and breaks the global color-swap symmetry by making the first
decision red.  A lower bound N < OR is certified by an avoiding coloring of
K_N, an upper bound OR <= N by the exhausted search at N, whose counters
are kept; `verify_certificate` re-checks either.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, islice
from typing import Optional

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
    """Outcome of an ordered Ramsey computation, possibly capped at N_max.

    `lower` is an avoiding coloring of K_{value - 1} (None when no size was
    searched below `value`), `upper` the counters of the exhausted search at
    `value` (None unless exact).
    """

    pattern: OrderedGraph
    value: int
    exact: bool  # False: every N <= N_max admitted an avoiding coloring
    lower: Optional[Coloring]
    upper: Optional[SearchStats]

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
    best_lower: Optional[Coloring] = None
    start = 0 if pattern.n == 0 else pattern.n - 1
    for N in range(start, N_max + 1):
        if copy_count(pattern, N) > MAX_COPIES:
            return RamseyResult(pattern, N, False, best_lower, None)
        stats = SearchStats()
        col = avoiding_coloring(pattern, N, stats)
        if col is None:
            return RamseyResult(pattern, N, True, best_lower, stats)
        best_lower = col
    return RamseyResult(pattern, N_max + 1, False, best_lower, None)


def avoids(coloring: Coloring, pattern: OrderedGraph) -> bool:
    """True iff the coloring has no monochromatic copy of the pattern in
    either color; a pattern with more vertices than K_N is avoided vacuously."""
    return pattern.n > coloring.n or (
        find_monochromatic(coloring, pattern, RED) is None
        and find_monochromatic(coloring, pattern, BLUE) is None
    )


def verify_certificate(pattern: OrderedGraph, cert: Coloring | int) -> bool:
    """Re-check one side of a bound from its certificate alone.

    A coloring of K_N (OR > N): confirm it has no monochromatic copy of the
    pattern.  An int N (OR <= N): re-run the search at size N and confirm
    it is exhausted.
    """
    if isinstance(cert, Coloring):
        return avoids(cert, pattern)
    return avoiding_coloring(pattern, cert) is None


# ---------------------------------------------------------------------------
# min/max over orderings
# ---------------------------------------------------------------------------

def distinct_orderings(g: OrderedGraph) -> dict[OrderedGraph, list[int]]:
    """Map each distinct ordering of g to one witnessing vertex order.

    The witnessing order lists the original vertex placed at each position.
    """
    from itertools import permutations

    seen: dict[OrderedGraph, list[int]] = {}
    for perm in permutations(range(1, g.n + 1)):
        position = {v: p for p, v in enumerate(perm, start=1)}
        ordered = OrderedGraph(g.n, [(position[a], position[b]) for a, b in g.edges])
        seen.setdefault(ordered, list(perm))
    return seen


@dataclass(frozen=True)
class MinMaxReport:
    graph: OrderedGraph
    results: tuple[tuple[tuple[int, ...], RamseyResult], ...]  # (order, result)

    @property
    def minr(self) -> RamseyResult:
        return min((r for _, r in self.results), key=lambda r: (r.value, r.exact))

    @property
    def maxr(self) -> RamseyResult:
        return max((r for _, r in self.results), key=lambda r: (r.value, not r.exact))


def min_max_ordered_ramsey(g: OrderedGraph, N_max: int) -> MinMaxReport:
    """Ordered Ramsey extremes over all orderings of g, whose own vertex
    order is ignored.

    Enumerates the n! vertex orders, deduplicates isomorphic ordered graphs
    by their edge sets, and computes each distinct value (capped at N_max).
    """
    if g.n > 7:
        raise ValueError("factorial enumeration is limited to n <= 7")
    orderings = sorted(distinct_orderings(g).items(), key=lambda kv: kv[0].sorted_edges())
    return MinMaxReport(
        g, tuple((tuple(order), ordered_ramsey(pattern, N_max)) for pattern, order in orderings)
    )


# ---------------------------------------------------------------------------
# almost-regular graph counting
# ---------------------------------------------------------------------------

EXACT_COUNT_LIMIT = 10  # largest n that count_rho_regular enumerates


def rho_regular_degree_data(rho: Fraction, n: int) -> tuple[int, int]:
    """(d, surplus) for rho-regular graphs on n vertices.

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
    return d, surplus


@functools.cache
def count_labeled_graphs(degrees: tuple[int, ...]) -> int:
    """Number of labeled simple graphs with the given degree sequence.

    The vertex with the largest degree picks its neighbours among the other
    vertices of positive degree.  The completions depend only on the
    multiset of degrees left, so the recursion passes them sorted and
    positive, and the counts are cached across calls.
    """
    left = sorted(filter(None, degrees))
    if not left:
        return 1
    top = left.pop()
    total = 0
    for picked in combinations(range(len(left)), top):
        after = list(left)
        for v in picked:
            after[v] -= 1
        total += count_labeled_graphs(tuple(sorted(filter(None, after))))
    return total


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


def count_rho_regular(rho: Fraction, n: int) -> RegularCountReport:
    """Exact count of rho-regular graphs on [n] plus the formula estimate.

    Relabelling maps the graphs of one choice of the degree-(d+1) vertices
    onto those of any other, so the count is C(n, surplus) times the labeled
    graphs of one degree sequence.
    """
    rho = Fraction(rho)
    if n > EXACT_COUNT_LIMIT:
        raise ValueError(f"exact enumeration is limited to n <= {EXACT_COUNT_LIMIT}")
    d, surplus = rho_regular_degree_data(rho, n)
    degrees = (d + 1,) * surplus + (d,) * (n - surplus)
    total = math.comb(n, surplus) * count_labeled_graphs(degrees)
    formula = regular_count_formula(rho, n) if rho >= 2 else None
    return RegularCountReport(rho, n, total, formula)


def rho_regular_graph(rho: Fraction, n: int, index: int) -> list[tuple[int, int]]:
    """The edges, in lexicographic order, of the `index`-th of the
    `count_rho_regular(rho, n)` rho-regular graphs on [n].

    The graphs are ordered by their set of degree-(d+1) vertices, then
    vertex by vertex by the neighbour set among later vertices with degree
    left, both lexicographically.  Each set of degree-(d+1) vertices has the
    same number of graphs, and each candidate neighbour set is skipped by
    its count of completions, so only the index-th graph is built.
    """
    d, surplus = rho_regular_degree_data(rho, n)
    per = count_labeled_graphs((d + 1,) * surplus + (d,) * (n - surplus))
    total = math.comb(n, surplus) * per
    if not 0 <= index < total:
        raise ValueError(f"index {index} outside [0, {total})")
    block, index = divmod(index, per)
    high = next(islice(combinations(range(1, n + 1), surplus), block, None))
    left = [0] + [d + (v in high) for v in range(1, n + 1)]  # degree left per vertex
    edges = []
    for v in range(1, n + 1):
        later = [u for u in range(v + 1, n + 1) if left[u]]
        for chosen in combinations(later, left[v]):
            for u in chosen:
                left[u] -= 1
            ways = count_labeled_graphs(tuple(sorted(filter(None, left[v + 1:]))))
            if index < ways:
                break
            index -= ways
            for u in chosen:
                left[u] += 1
        edges.extend((v, u) for u in chosen)
    return edges
