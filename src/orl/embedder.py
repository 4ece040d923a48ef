"""Witness-extraction algorithms for dense ordered hosts.

Each find_* operation and pipeline runs the constructive procedure behind
the corresponding density statement and re-verifies any witness before
returning it; None always means the procedure (not just luck) failed, and
a pipeline's `failed_stage` says which stage gave out.

The blow-up and tee pipelines split a host on N vertices into t = N/d
intervals of one size d: interval l holds positions (l-1)d+1..ld.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction
from itertools import chain, combinations
from typing import Iterable, Iterator, NamedTuple, Optional

from orl.constructions import (
    alternating_path,
    alternating_path_order,
    blowup_path,
    tee_graph,
)
from orl.core import (
    Coloring,
    Embedding,
    OrderedGraph,
    embedding_maps_edges,
    search_embedding,
)


class WitnessError(AssertionError):
    """An internally constructed witness failed re-verification."""


class PipelineResult(NamedTuple):
    """A pipeline's witness, or None and the name of the stage that gave out."""

    embedding: Optional[Embedding]
    failed_stage: Optional[str]


# ---------------------------------------------------------------------------
# alternating paths
# ---------------------------------------------------------------------------

def _run_removal_process(
    host: OrderedGraph, steps: int
) -> tuple[list[int], tuple[dict[int, int], ...]]:
    """Run `steps` simultaneous removal rounds on a copy of `host.adj`.  Odd
    rounds remove each centre's leftmost neighbour (lowest set bit below it),
    even rounds its rightmost (highest set bit above it), all picked from the
    graph as the round began; a centre is the upper end of its removed edge
    in odd rounds and the lower end in even ones, so no edge goes twice.
    Returns the surviving adjacency bitmasks and one {centre: lost
    neighbour} dict per round."""
    adj = list(host.adj)
    rounds: list[dict[int, int]] = []
    for step in range(steps):
        removals: dict[int, int] = {}
        if step % 2 == 0:
            for v in range(1, host.n + 1):
                below = adj[v] & ((1 << v) - 1)
                if below:
                    removals[v] = (below & -below).bit_length() - 1
        else:
            for v in range(1, host.n + 1):
                above = adj[v] >> (v + 1)
                if above:
                    removals[v] = v + above.bit_length()
        for center, u in removals.items():
            adj[center] ^= 1 << u
            adj[u] ^= 1 << center
        rounds.append(removals)
    return adj, tuple(rounds)


def find_alternating_path(host: OrderedGraph, n: int) -> Optional[Embedding]:
    """Extract the alternating path on n vertices via the removal process.

    Runs n-2 simultaneous removal steps, keeps the lexicographically smallest
    surviving edge as the path's last two vertices, and walks the trace
    backwards.  Returns None when n > host.n or no edge survives; every
    witness is re-verified against alternating_path(n) before being returned.
    """
    if n < 1:
        raise ValueError("the path needs at least one vertex")
    if n == 1:
        return Embedding(1, (1,)) if host.n >= 1 else None
    if n > host.n:
        return None
    survivors, trace = _run_removal_process(host, n - 2)
    for a in range(1, host.n + 1):  # the smallest surviving edge (a, b)
        above = survivors[a] >> (a + 1)
        if above:
            b = a + (above & -above).bit_length()
            break
    else:
        return None
    # orientation rule: last path vertex left of the second-to-last for odd n
    if n % 2 == 1:
        v_n, v_prev = a, b
    else:
        v_prev, v_n = a, b
    path_vertex = [0] * (n + 1)
    path_vertex[n] = v_n
    path_vertex[n - 1] = v_prev
    for i in range(n - 2, 0, -1):
        u = trace[i - 1].get(path_vertex[i + 1])
        if u is None:
            raise WitnessError(
                f"no removal recorded in step {i} for center {path_vertex[i + 1]}"
            )
        path_vertex[i] = u
    order = alternating_path_order(n)
    image = tuple(path_vertex[v] for v in order)
    emb = Embedding(n, image)
    if not embedding_maps_edges(alternating_path(n), host, emb):
        raise WitnessError("reconstructed alternating path is not a valid witness")
    return emb


def largest_nested_matching(pairs: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    """A longest chain of the pairs (x, y) with x strictly increasing and y
    strictly decreasing, outermost first.  On the edges (a, b), a < b, of an
    ordered graph it is a maximum nested matching a_1 < ... < a_m < b_m <
    ... < b_1.

    In descending order of (x, y), x never increases and pairs with equal x
    come in descending y, so a chain read from the inside out is exactly a
    subsequence whose y strictly increase.  Patience sorting finds a longest
    one in O(m log m): keys[l] is the least last y of such a run of length
    l + 1 so far, tails[l] the pair processed last that ends one, and each
    pair links back to tails[l - 1] for its own length l + 1.  So the chain
    starts at the least pair ending a run of length m and steps to the least
    greater pair one length down.  That makes its x's lexicographically
    first and, given them, each y the least: it is the lexicographically
    first image of the nested matching on 2m vertices, the copy an
    order-preserving search finds first.
    """
    ordered = sorted(pairs, reverse=True)
    keys: list[int] = []
    tails: list[int] = []
    back: list[int] = []
    for i, (_, y) in enumerate(ordered):
        pos = bisect_left(keys, y)
        back.append(tails[pos - 1] if pos else -1)
        keys[pos:pos + 1] = [y]  # appends when pos == len(keys)
        tails[pos:pos + 1] = [i]
    chain = []
    i = tails[-1] if tails else -1
    while i >= 0:
        chain.append(ordered[i])
        i = back[i]
    return chain


# ---------------------------------------------------------------------------
# blow-up extraction
# ---------------------------------------------------------------------------

def _subset_masks(
    host: OrderedGraph, left: int, d: int, k: int, kept: list
) -> Iterator[tuple[tuple[int, ...], int]]:
    """Each k-subset of the d positions from `left`, in combinations order,
    as its offsets from `left` and the mask of its common neighbours, each
    also appended to `kept`.  Drawn only as far as some right interval
    needs: a hit can come long before the last of the C(d, k) subsets."""
    adj = host.adj
    for offsets in combinations(range(d), k):
        common = -1
        for off in offsets:
            common &= adj[left + off]
        kept.append((offsets, common))
        yield offsets, common


def _check_pipeline_args(host: OrderedGraph, d: int, n: int, k: int) -> int:
    """The interval count host.n // d, after the argument checks both
    pipelines share."""
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive")
    if d < 1 or host.n % d:
        raise ValueError(
            f"the interval size {d} must be positive and divide the host size {host.n}"
        )
    return host.n // d


def blowup_pipeline(host: OrderedGraph, d: int, n: int, k: int) -> PipelineResult:
    """Harvest one k-by-k copy per pair of the host's intervals of size d,
    keep the largest same-type class, find an alternating path on the class
    graph, and expand it."""
    t = _check_pipeline_args(host, d, n, k)
    if k > d:
        return PipelineResult(None, "bipartite-cliques")

    # the copy kept for intervals i < j: the first k-subset of interval i,
    # in combinations order, with k common neighbours in interval j, and the
    # first k of those; its type is both sides' offsets in their intervals
    window = (1 << d) - 1
    classes: dict[tuple, list[tuple[int, int]]] = {}
    for i in range(1, t + 1):
        left = (i - 1) * d + 1  # the first position of interval i
        kept: list[tuple[tuple[int, ...], int]] = []
        drawn = _subset_masks(host, left, d, k, kept)
        for j in range(i + 1, t + 1):
            right = (j - 1) * d + 1
            for ltype, common in chain(kept, drawn):
                hits = (common >> right) & window
                if hits.bit_count() >= k:
                    break
            else:
                continue
            rtype = []
            for _ in range(k):
                low = hits & -hits
                hits ^= low
                rtype.append(low.bit_length() - 1)
            classes.setdefault((ltype, tuple(rtype)), []).append((i, j))
    if not classes:
        return PipelineResult(None, "bipartite-cliques")

    best_type = min(classes, key=lambda key: (-len(classes[key]), key))
    path = find_alternating_path(OrderedGraph(t, classes[best_type]), n)
    if path is None:
        return PipelineResult(None, "alternating-path")

    # expand: the first ceil(n/2) pattern blocks are left classes of their
    # path edges, the rest right classes
    split = (n + 1) // 2
    image: list[int] = []
    for block_pos in range(1, n + 1):
        start = (path(block_pos) - 1) * d + 1
        offsets = best_type[0] if block_pos <= split else best_type[1]
        image.extend(start + off for off in offsets)
    emb = Embedding(n * k, tuple(image))
    pattern = blowup_path(n, k)
    if not embedding_maps_edges(pattern.graph, host, emb):
        raise WitnessError("expanded blow-up witness is invalid")
    if not is_block_respecting(emb, pattern.blocks, d):
        raise WitnessError("expanded blow-up witness does not respect the intervals")
    return PipelineResult(emb, None)


def is_block_respecting(emb: Embedding, blocks: tuple[tuple[int, ...], ...], d: int) -> bool:
    """Each block's image inside one interval of size d; distinct blocks,
    distinct intervals."""
    used = set()
    for block in blocks:
        intervals = {(emb(p) - 1) // d for p in block}
        if len(intervals) != 1:
            return False
        interval = intervals.pop()
        if interval in used:
            return False
        used.add(interval)
    return True


# ---------------------------------------------------------------------------
# triangles and the tee extraction
# ---------------------------------------------------------------------------

def count_triangles(host: OrderedGraph) -> int:
    """Exact number of vertex triples inducing a triangle: per edge a < b,
    the common neighbours above b."""
    adj = host.adj
    return sum(((adj[a] & adj[b]) >> (b + 1)).bit_count() for a, b in host.sorted_edges())


def _tee_split(host: OrderedGraph, epsilon: Fraction) -> str | tuple[int, list[tuple[int, int]]]:
    """Stages (a)-(d) of `tee_pipeline`: the split index j and the supported
    left legs, sorted, or the name of the stage that gave out."""
    big_n, adj, edges = host.n, host.adj, host.sorted_edges()
    if not any((adj[a] & adj[b]) >> (b + 1) for a, b in edges):  # stops at a triangle
        return "triangles"
    min_leg = math.ceil(epsilon * big_n / 2)  # legs are integers

    # (b)+(c) a triangle u < v < w with a long right leg is in T_j for
    # v <= j < w, so each long edge (v, w) adds its apexes u < v from v to w-1
    delta = [0] * (big_n + 1)
    for v, w in edges:
        if w - v >= min_leg:
            apexes = (adj[v] & adj[w] & ((1 << v) - 1)).bit_count()
            delta[v] += apexes
            delta[w] -= apexes
    j, best_tj, tj = 0, 0, 0
    for i in range(1, big_n):
        tj += delta[i]
        if tj > best_tj:  # ties toward the smaller index
            j, best_tj = i, tj
    if not best_tj:
        return "long-right-legs"

    # (d) a left leg (u, v), v <= j, supports the triangles of T_j over it:
    # its common neighbours w > j with w - v >= min_leg
    min_support = math.ceil(epsilon * epsilon * big_n / 4)  # supports are integers
    legs = [
        (u, v) for u, v in edges
        if v <= j and ((adj[u] & adj[v]) >> max(j + 1, v + min_leg)).bit_count() >= min_support
    ]
    return (j, legs) if legs else "supported-left-legs"


def tee_pipeline(host: OrderedGraph, d: int, n: int, k: int, epsilon: Fraction) -> PipelineResult:
    """Stage-by-stage extraction of the tee gadget from a triangle-rich host
    in intervals of size d.

    Stages: (a) check for a triangle, (b) count, for every split index j,
    the triangles u < v <= j < w with a right leg w - v of at least eps*N/2,
    (c) take the first j with the most, (d) keep the left legs (u, v)
    supporting at least eps^2*N/4 of them, (e) take a longest chain of those
    legs, a largest nested matching, (f) link matched pairs to intervals
    holding at least k shared triangle apexes, (g) take n links (b, interval)
    of a longest chain with b ascending and intervals descending, and
    assemble the witness.  Stages (a)-(d) take bit counts of common-neighbour
    masks and list no triangle.
    """
    t = _check_pipeline_args(host, d, n, k)
    if not 0 < epsilon <= 1:
        raise ValueError("epsilon must lie in (0, 1]")
    split = _tee_split(host, epsilon)
    if isinstance(split, str):
        return PipelineResult(None, split)
    j, legs = split

    # (e) largest nested matching among the supported legs on {1..j}; it is
    # never empty, since legs is not
    pairs = largest_nested_matching(legs)  # (a_i, b_i), a's ascending, b's descending

    # (f) link each pair to intervals holding >= k common apexes beyond j;
    # interval l ends beyond j when l > j // d
    partner = {b: a for a, b in pairs}
    link_edges: dict[tuple[int, int], list[int]] = {}
    for a, b in pairs:
        common = host.adj[a] & host.adj[b]
        for l in range(j // d + 1, t + 1):
            apexes = [
                w for w in range(max((l - 1) * d + 1, j + 1), l * d + 1) if (common >> w) & 1
            ]
            if len(apexes) >= k:
                link_edges[(b, l)] = apexes[:k]
    if not link_edges:
        return PipelineResult(None, "interval-links")

    # (g) n links, b's ascending and intervals descending, so that no b and
    # no interval is used twice
    link_pairs = largest_nested_matching(link_edges)[:n]
    if len(link_pairs) < n:
        return PipelineResult(None, "second-matching")

    # assemble: stage-g link s (s = 1..n) realizes pattern matching pair
    # n+1-s and its block
    by_pattern_pair = link_pairs[::-1]
    image = (
        [partner[b] for b, _ in by_pattern_pair]
        + [b for b, _ in link_pairs]
        + [w for b, l in by_pattern_pair for w in link_edges[b, l]]
    )
    emb = Embedding((k + 2) * n, tuple(image))
    pattern = tee_graph(n, k)
    if not embedding_maps_edges(pattern.graph, host, emb):
        raise WitnessError("assembled tee witness is invalid")
    if not is_block_respecting(emb, pattern.blocks, d):
        raise WitnessError("assembled tee witness does not respect the intervals")
    return PipelineResult(emb, None)


# ---------------------------------------------------------------------------
# monochromatic copies
# ---------------------------------------------------------------------------

def find_monochromatic(
    coloring: Coloring, pattern: OrderedGraph, color: str
) -> Optional[Embedding]:
    """A copy of the pattern whose image edges all carry `color`, or None.

    The search is exhaustive over order-preserving embeddings.
    """
    if pattern.n > coloring.n:
        raise ValueError(
            f"pattern on {pattern.n} vertices cannot fit in K_{coloring.n}"
        )
    image = search_embedding(
        pattern.n, pattern.edges, coloring.n, coloring.monochromatic_adj(color)
    )
    return None if image is None else Embedding(pattern.n, image)
