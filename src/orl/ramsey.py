"""Exact ordered Ramsey numbers, certificates, and almost-regular graph counts.

The avoiding-coloring search is a DPLL-style search over an explicit table
of the pattern's copies in K_N, kept as big-int bitmasks: per pair of K_N,
the set of copies through it, and per color and level k, the set of copies
with at least k pairs in that color.  Coloring a pair raises the copies
through it one level of its color, and undoing it lowers them again.  A
copy all in one color is a conflict, and a copy one pair short of that,
with no pair in the other color, forces its last pair to the other color
(unit propagation: the other color is the only one any avoiding extension
can give it).  The search branches on the pair that lies in the most
nearly complete copies, scored by one bit count per pair and level, and
breaks the global color-swap symmetry by making the first decision red.  A
table is built only when it fits in MAX_TABLE_BITS.  A lower bound N < OR
is certified by an avoiding coloring of K_N, an upper bound OR <= N by the
exhausted search at N, whose counters are kept; `verify_certificate`
re-checks either.
"""

from __future__ import annotations

import functools
import math
from array import array
from fractions import Fraction
from itertools import combinations, islice
from typing import NamedTuple, Optional

from orl.core import (
    BLUE,
    COLORS,
    Coloring,
    OrderedGraph,
    RED,
    pair_count,
    pair_index,
)
from orl.embedder import find_monochromatic


class SearchStats:
    """Nodes and prunes of `avoiding_coloring` searches, added up across the
    calls that are passed the same object."""

    __slots__ = ("nodes", "prunes")

    def __init__(self, nodes: int = 0, prunes: int = 0):
        self.nodes = nodes
        self.prunes = prunes

    def __eq__(self, other) -> bool:  # defining it leaves the counters unhashable
        if type(other) is not SearchStats:
            return NotImplemented
        return (self.nodes, self.prunes) == (other.nodes, other.prunes)

    def __repr__(self) -> str:
        return f"SearchStats(nodes={self.nodes}, prunes={self.prunes})"


# ---------------------------------------------------------------------------
# avoiding-coloring search
# ---------------------------------------------------------------------------

MAX_TABLE_BITS = 1 << 28  # largest copy table, in bits, that avoiding_coloring builds
INDEX_BITS = 8 * array("I").itemsize  # bits of one pair index in copy_table's list


def copy_count(pattern: OrderedGraph, N: int) -> int:
    """The number of distinct copies of the pattern in K_N, C(N - i, k) for
    k non-isolated and i isolated vertices: only the images of the
    non-isolated vertices set a copy's pairs.  0 when N < n."""
    if N < pattern.n:
        return 0
    k = sum(1 for v in range(1, pattern.n + 1) if pattern.adj[v])
    return math.comb(N - pattern.n + k, k)


def table_overflow(pattern: OrderedGraph, N: int) -> Optional[str]:
    """Why the copy table of the pattern in K_N is past MAX_TABLE_BITS, or
    None when it fits.

    Each copy takes one bit in the mask of every pair of K_N and its m pair
    indices of INDEX_BITS bits.  An edgeless pattern needs no table.
    """
    copies = copy_count(pattern, N)
    m = len(pattern.edges)
    per_copy = pair_count(N) + INDEX_BITS * m
    if not m or copies * per_copy <= MAX_TABLE_BITS:
        return None
    k = sum(1 for v in range(1, pattern.n + 1) if pattern.adj[v])
    return (f"C({N - pattern.n + k}, {k}) = {copies} copies x ({pair_count(N)} pairs"
            f" + {INDEX_BITS} x {m} index bits) = {copies * per_copy} table bits"
            f" exceed MAX_TABLE_BITS = {MAX_TABLE_BITS}")


def copy_table(pattern: OrderedGraph, N: int) -> tuple[array, list[int]]:
    """The pattern's `copy_count` copies in K_N, for a pattern with edges
    and N at least its size.

    Returns `(pairs, through)`: copy x has the lexicographic pair indices
    `pairs[x * m:(x + 1) * m]`, one per edge in sorted order, and bit x of
    `through[t]` is set iff copy x contains pair t.  Each mask is built from
    one bytearray of ASCII bits, so the build is linear in the table size.
    """
    # the images of the non-isolated vertices set a copy: enumerate them in
    # 1..slots, each moved right by the isolated vertices before it
    core = [v for v in range(1, pattern.n + 1) if pattern.adj[v]]
    slots = N - pattern.n + len(core)
    shift = [v - 1 - i for i, v in enumerate(core)]
    rank = {v: i for i, v in enumerate(core)}
    # pair (a, b) of K_N has index row[a] + b, so edge (i, j) of a copy whose
    # core vertices sit in slots ys has index first[ys[i]] + ys[j], with both
    # shifts folded into `first`
    row = [pair_index(a, a + 1, N) - a - 1 for a in range(N + 1)]
    edges = []
    for a, b in pattern.sorted_edges():
        i, j = rank[a], rank[b]
        edges.append(([row[y + shift[i]] + shift[j] for y in range(slots + 1)], i, j))
    pairs = array("I")
    copies_of: list[array] = [array("I") for _ in range(pair_count(N))]
    for x, ys in enumerate(combinations(range(1, slots + 1), len(core))):
        copy = [first[ys[i]] + ys[j] for first, i, j in edges]
        pairs.extend(copy)
        for t in copy:
            copies_of[t].append(x)
    zeros = b"0" * (len(pairs) // len(edges))
    through = []
    for t, xs in enumerate(copies_of):
        bits = bytearray(zeros)
        for x in xs:
            bits[~x] = 49  # "1"; the last character is bit 0
        through.append(int(bits, 2))
        copies_of[t] = None
    return pairs, through


def avoiding_coloring(
    pattern: OrderedGraph, N: int, stats: Optional[SearchStats] = None
) -> Optional[Coloring]:
    """A total coloring of K_N with no monochromatic copy of the pattern, or
    None once the propagating depth-first search is exhausted.

    The search works on the `copy_table` of the pattern's m-edge copies in
    K_N: `through[t]`, the copies through pair t, and per color c the level
    masks `at[c][k]`, the copies with at least k pairs in c.  Coloring pair
    t in c sets `at[c][k] |= at[c][k - 1] & through[t]` for k = m down to
    1, and undo sets `at[c][k] = at[c][k] & ~through[t] | at[c][k + 1] &
    through[t]` for k = 1 up to m, so no level is saved.  After coloring t:
    - a copy of `through[t]` in `at[c][m]` is all in c, a conflict;
    - a copy of `through[t]` with exactly m - 1 pairs in c and none in the
      other color forces its last uncolored pair, found in the copy's list
      of pairs, to the other color, since c there would complete the copy.
      Forcing is sound (every avoiding extension of the partial coloring
      agrees with it), and unit propagation reaches the same closure, or a
      conflict, in any order; the forced pairs are colored at once and
      undone with the decision that caused them.
    A decision goes to the uncolored pair of highest score, the sum over its
    copies that are not yet bichromatic of 8 ** (colored pairs in the copy):
    one mask per number j of colored pairs, and per uncolored pair and
    nonzero mask one bit count, weighted 8 ** j.  Ties go to the lowest
    lexicographic index, and red is tried before blue.  The first decision
    is red only: nothing is colored before it, and swapping the colors maps
    the search below a blue first decision, forced pairs included, onto the
    one below red.  Once no uncolored pair lies in a copy that is not
    bichromatic, no copy can become monochromatic, so the rest is colored
    red.  `stats.nodes` counts the decisions tried and `stats.prunes` those
    whose propagation hit a conflict.  Raises ValueError, before building
    anything, when `table_overflow` refuses the table.
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
    overflow = table_overflow(pattern, N)
    if overflow:
        raise ValueError(overflow)

    pairs, through = copy_table(pattern, N)
    m = len(pattern.edges)
    every = (1 << (len(pairs) // m)) - 1
    # per color c, at[c][k]: the copies with at least k pairs in c
    at = ([every] + [0] * (m + 1), [every] + [0] * (m + 1))
    free = list(through)  # through[t] while pair t is uncolored, then 0
    color: list[Optional[int]] = [None] * n_pairs  # 0 red, 1 blue
    trail: list[int] = []  # colored pairs, in the order they were colored

    def propagate(t: int, c: int) -> bool:
        """Color pair t with c and every pair that forces; False on a conflict."""
        queue = [(t, c)]
        while queue:
            t, c = queue.pop()
            # a forced (t, c) is from a copy with m - 1 pairs in 1 - c; had t
            # been colored 1 - c first, that returned False, so t already has c
            if color[t] is not None:
                continue
            color[t] = c
            trail.append(t)
            s = free[t]
            free[t] = 0
            level = at[c]
            # raise the copies through t one level of c: `raised` had at least
            # k - 1 pairs in c and now have at least k; `up` had k already
            k = raised = 0
            up = s
            while up:
                k += 1
                raised, up = up, level[k] & s
                level[k] |= raised
            # now `raised` are the copies through t with exactly k pairs in c
            if k == m:
                return False
            if k == m - 1:
                forced = raised & ~at[1 - c][1]
                while forced:
                    low = forced & -forced
                    forced ^= low
                    x = (low.bit_length() - 1) * m
                    for u in pairs[x:x + m]:
                        if color[u] is None:
                            queue.append((u, 1 - c))
                            break
        return True

    def undo(mark: int) -> None:
        for t in trail[mark:]:
            level = at[color[t]]
            color[t] = None
            s = free[t] = through[t]
            # lower the copies through t one level: `down` had at least k
            # pairs in the color of t, `nxt` at least k + 1
            down = s
            k = 1
            while down:
                nxt = level[k + 1] & s
                level[k] ^= down ^ nxt
                down = nxt
                k += 1
        del trail[mark:]

    def choose() -> Optional[int]:
        red, blue = at
        no_red, no_blue = every ^ red[1], every ^ blue[1]
        # the copies not yet bichromatic with exactly j colored pairs, all in
        # one color; j = 0 and 1 are scored in one pass
        def exactly(j: int) -> int:
            return no_red & (blue[j] ^ blue[j + 1]) | no_blue & (red[j] ^ red[j + 1])

        none, one = no_red & no_blue, exactly(1)
        scores = [(s & none).bit_count() + 8 * (s & one).bit_count() for s in free]
        for j in range(2, m):
            mask = exactly(j)
            if mask:
                w = 8 ** j
                scores = [a + w * (s & mask).bit_count() for a, s in zip(scores, free)]
        best = max(scores)
        return scores.index(best) if best else None

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


class RamseyResult(NamedTuple):
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
    at N_max + 1, or at the first N whose copy table `table_overflow`
    refuses.
    """
    if N_max is None:  # the classical exponential bound; callers usually pass less
        N_max = 2 ** (2 * pattern.n)
    if N_max < pattern.n:
        raise ValueError("N_max must be at least the pattern size")
    best_lower: Optional[Coloring] = None
    start = 0 if pattern.n == 0 else pattern.n - 1
    for N in range(start, N_max + 1):
        if table_overflow(pattern, N):
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


class MinMaxReport(NamedTuple):
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

EXACT_COUNT_LIMIT = 10  # largest n whose rho-regular graphs are counted and ranked


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


class RegularCountReport(NamedTuple):
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
