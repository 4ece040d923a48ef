"""Witness-extraction algorithms for dense ordered hosts.

Each find_* operation and pipeline runs the constructive procedure behind
the corresponding density statement and re-verifies any witness before
returning it; None always means the procedure (not just luck) failed, and
a pipeline's `failed_stage` says which stage gave out.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Optional

from orl.constructions import (
    alternating_path,
    alternating_path_order,
    blowup_path,
    tee_graph,
)
from orl.core import (
    Coloring,
    Embedding,
    IntervalPartition,
    OrderedGraph,
    embedding_maps_edges,
    search_embedding,
)


class WitnessError(AssertionError):
    """An internally constructed witness failed re-verification."""


@dataclass(frozen=True)
class PipelineResult:
    """A pipeline's witness, or None and the name of the stage that gave out."""

    embedding: Optional[Embedding]
    failed_stage: Optional[str]


# ---------------------------------------------------------------------------
# alternating paths
# ---------------------------------------------------------------------------

def _run_removal_process(
    host: OrderedGraph, steps: int
) -> tuple[set[tuple[int, int]], tuple[dict[int, int], ...]]:
    """Run `steps` simultaneous removal rounds on a copy of `host.adj`.  Odd
    rounds remove each centre's leftmost neighbour (lowest set bit below it),
    even rounds its rightmost (highest set bit above it), all picked from the
    graph as the round began; a centre is the upper end of its removed edge
    in odd rounds and the lower end in even ones, so no edge goes twice.
    Returns the surviving edges and one {centre: lost neighbour} dict per
    round."""
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
    return {(a, b) for a, b in host.edges if (adj[a] >> b) & 1}, tuple(rounds)


def find_alternating_path(host: OrderedGraph, n: int) -> Optional[Embedding]:
    """Extract the alternating path on n vertices via the removal process.

    Runs n-2 simultaneous removal steps, keeps the lexicographically smallest
    surviving edge as the path's last two vertices, and walks the trace
    backwards.  Returns None only when no edge survives; every witness is
    re-verified against alternating_path(n) before being returned.
    """
    if n < 1:
        raise ValueError("the path needs at least one vertex")
    if n == 1:
        return Embedding(1, (1,)) if host.n >= 1 else None
    if n > host.n:
        return None
    survivors, trace = _run_removal_process(host, n - 2)
    if not survivors:
        return None
    a, b = min(survivors)
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

def _find_kkk_between(
    host: OrderedGraph, left: range, right: range, k: int
) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Lexicographically first complete k-by-k bipartite copy across two intervals."""
    for ls in combinations(left, k):
        common = ~0
        for u in ls:
            common &= host.adj[u]
        candidates = [v for v in right if (common >> v) & 1]
        if len(candidates) >= k:
            return ls, tuple(candidates[:k])
    return None


def blowup_pipeline(
    host: OrderedGraph, parts: IntervalPartition, n: int, k: int
) -> PipelineResult:
    """Harvest one k-by-k copy per interval pair, keep the largest same-type
    class, find an alternating path on the class graph, and expand it."""
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive")
    if parts.n != host.n:
        raise ValueError("partition must cover the host")
    sizes = set(parts.sizes)
    if len(sizes) != 1:
        raise ValueError("intervals must all have the same size")
    d = sizes.pop()
    if k > d:
        return PipelineResult(None, "bipartite-cliques")
    bounds = parts.bounds()
    t = parts.count

    classes: dict[tuple, list[tuple[int, int]]] = {}
    for i in range(1, t + 1):
        for j in range(i + 1, t + 1):
            li = range(bounds[i - 1][0], bounds[i - 1][1] + 1)
            rj = range(bounds[j - 1][0], bounds[j - 1][1] + 1)
            rep = _find_kkk_between(host, li, rj, k)
            if rep is None:
                continue
            ltype = tuple(v - bounds[i - 1][0] for v in rep[0])
            rtype = tuple(v - bounds[j - 1][0] for v in rep[1])
            classes.setdefault((ltype, rtype), []).append((i, j))
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
        interval = path(block_pos)
        start = bounds[interval - 1][0]
        offsets = best_type[0] if block_pos <= split else best_type[1]
        image.extend(start + off for off in offsets)
    emb = Embedding(n * k, tuple(image))
    pattern = blowup_path(n, k)
    if not embedding_maps_edges(pattern.graph, host, emb):
        raise WitnessError("expanded blow-up witness is invalid")
    if not is_block_respecting(emb, pattern.blocks, parts):
        raise WitnessError("expanded blow-up witness does not respect the partition")
    return PipelineResult(emb, None)


def is_block_respecting(
    emb: Embedding, blocks: tuple[tuple[int, ...], ...], parts: IntervalPartition
) -> bool:
    """Each block's image inside one interval; distinct blocks, distinct intervals."""
    used = set()
    for block in blocks:
        intervals = {parts.interval_of(emb(p)) for p in block}
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
    """Exact number of vertex triples inducing a triangle."""
    total = 0
    for a, b in host.edges:
        above = host.adj[a] & host.adj[b]
        above >>= b + 1
        total += above.bit_count()
    return total


def enumerate_triangles(host: OrderedGraph) -> list[tuple[int, int, int]]:
    """Every triangle u < v < w of the host, in lexicographic order."""
    out = []
    for a, b in sorted(host.edges):
        common = host.adj[a] & host.adj[b]
        for w in range(b + 1, host.n + 1):
            if (common >> w) & 1:
                out.append((a, b, w))
    return out


def tee_pipeline(
    host: OrderedGraph,
    parts: IntervalPartition,
    n: int,
    k: int,
    epsilon: Fraction,
) -> PipelineResult:
    """Stage-by-stage extraction of the tee gadget from a triangle-rich host.

    Stages: (a) enumerate triangles, (b) keep those with right legs of length
    at least eps*N/2, (c) pick the split index maximizing the triangles with
    two vertices on its left (ties toward smaller index), (d) keep left legs
    supporting at least eps^2*N/4 of them, (e) take a longest chain of those
    legs, a largest nested matching, (f) link matched pairs to intervals
    holding at least k shared triangle apexes, (g) take n links (b, interval)
    of a longest chain with b ascending and intervals descending, and
    assemble the witness.
    """
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive")
    if parts.n != host.n:
        raise ValueError("partition must cover the host")
    if len(set(parts.sizes)) != 1:
        raise ValueError("intervals must all have the same size")
    if not 0 < epsilon <= 1:
        raise ValueError("epsilon must lie in (0, 1]")
    big_n = host.n

    triangles = enumerate_triangles(host)
    if not triangles:
        return PipelineResult(None, "triangles")

    min_leg = math.ceil(epsilon * big_n / 2)  # legs are integers
    long_legged = [t for t in triangles if t[2] - t[1] >= min_leg]
    if not long_legged:
        return PipelineResult(None, "long-right-legs")

    # split index j: triangles with two vertices <= j and the apex beyond,
    # counted for every j at once from where each triangle enters and leaves
    delta = [0] * (big_n + 1)
    for _, v, w in long_legged:
        delta[v] += 1
        delta[w] -= 1
    best_j, best_tj, tj = 0, -1, delta[1]
    for j in range(2, big_n):
        tj += delta[j]
        if tj > best_tj:
            best_j, best_tj = j, tj
    if best_tj <= 0:
        return PipelineResult(None, "split-index")
    j = best_j
    t_j = [t for t in long_legged if t[1] <= j < t[2]]

    support: dict[tuple[int, int], int] = {}
    for u, v, _ in t_j:
        support[u, v] = support.get((u, v), 0) + 1
    threshold = epsilon * epsilon * big_n / 4
    legs = sorted(leg for leg, cnt in support.items() if cnt >= threshold)
    if not legs:
        return PipelineResult(None, "supported-left-legs")

    # (e) largest nested matching among the supported legs on {1..j}; it is
    # never empty, since legs is not
    pairs = largest_nested_matching(legs)  # (a_i, b_i), a's ascending, b's descending

    # (f) link each pair to intervals beyond j holding >= k common apexes
    partner = {b: a for a, b in pairs}
    bounds = parts.bounds()
    marked_intervals = [l for l, (_, end) in enumerate(bounds, start=1) if end > j]
    link_edges: dict[tuple[int, int], list[int]] = {}
    for a, b in pairs:
        common = host.adj[a] & host.adj[b]
        for l in marked_intervals:
            start, end = bounds[l - 1]
            apexes = [
                w for w in range(max(start, j + 1), end + 1) if (common >> w) & 1
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
    if not is_block_respecting(emb, pattern.blocks, parts):
        raise WitnessError("assembled tee witness does not respect the partition")
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
