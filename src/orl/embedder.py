"""Witness-extraction algorithms for dense ordered hosts.

Each find_* operation and pipeline runs the constructive procedure behind
the corresponding density statement and re-verifies any witness before
returning it; None always means the procedure (not just luck) failed, and
a pipeline's `failed_stage` says which stage gave out.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Optional

from orl.constructions import (
    alternating_path,
    alternating_path_order,
    blowup_path,
    nested_matching,
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


# ---------------------------------------------------------------------------
# alternating paths
# ---------------------------------------------------------------------------

def _run_removal_process(
    host: OrderedGraph, steps: Optional[int]
) -> tuple[set[tuple[int, int]], tuple[dict[int, int], ...]]:
    """Run `steps` simultaneous removal rounds on a copy of `host.adj`, or
    with `steps=None` until no edge survives.  Odd rounds remove each
    centre's leftmost neighbour (lowest set bit below it), even rounds its
    rightmost (highest set bit above it), all picked from the graph as the
    round began; a centre is the upper end of its removed edge in odd rounds
    and the lower end in even ones, so no edge goes twice.  Returns the
    surviving edges and one {centre: lost neighbour} dict per round."""
    adj = list(host.adj)
    alive = len(host.edges)
    rounds: list[dict[int, int]] = []
    while alive if steps is None else len(rounds) < steps:
        removals: dict[int, int] = {}
        if len(rounds) % 2 == 0:
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
        alive -= len(removals)
        rounds.append(removals)
    return {(a, b) for a, b in host.edges if (adj[a] >> b) & 1}, tuple(rounds)


def longest_alternating_path_length(host: OrderedGraph) -> int:
    """Largest n for which the removal process leaves a surviving edge.

    Returns 1 for an edgeless host with a vertex, 0 for the empty host.
    """
    if host.n == 0:
        return 0
    rounds = len(_run_removal_process(host, None)[1])
    # the process emptied the graph after `rounds` rounds, so an edge survived
    # rounds-1 rounds and supports a path on rounds+1 vertices
    return rounds + 1


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


def nested_matching_pairs(path_emb: Embedding) -> list[tuple[int, int]]:
    """Matching pairs hidden in an even alternating path witness.

    Pair i joins the witness images of path vertices 2i-1 and 2i; in host
    order the pairs nest like the standard nested matching.
    """
    n = path_emb.pattern_n
    if n % 2:
        raise ValueError("an even path is required")
    order = alternating_path_order(n)
    host_of = {v: path_emb(k) for k, v in enumerate(order, start=1)}
    return [(host_of[2 * i - 1], host_of[2 * i]) for i in range(1, n // 2 + 1)]


def largest_nested_matching(g: OrderedGraph) -> list[tuple[int, int]]:
    """Pairs (a_i, b_i) of a maximum nested matching, outermost first.

    Starts from the matching inside the longest extractable alternating path
    and extends by direct containment search; stopping at the first failing
    size is exact because dropping the outermost pair embeds each nested
    matching in the next larger one.
    """
    longest = longest_alternating_path_length(g)
    longest -= longest % 2
    pairs: list[tuple[int, int]] = []
    if longest >= 2:
        path = find_alternating_path(g, longest)
        assert path is not None
        pairs = nested_matching_pairs(path)
    m = len(pairs) + 1
    while 2 * m <= g.n and m <= g.m:
        emb = search_embedding(2 * m, nested_matching(m).edges, g.n, g.adj)
        if emb is None:
            break
        pairs = [(emb[i - 1], emb[2 * m - i]) for i in range(1, m + 1)]
        m += 1
    return pairs


# ---------------------------------------------------------------------------
# blow-up extraction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BlowupSearchResult:
    embedding: Optional[Embedding]
    failed_stage: Optional[str]
    clique_count: int = 0
    best_class_size: int = 0


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
) -> BlowupSearchResult:
    """Harvest one k-by-k copy per interval pair, keep the largest same-type
    class, find an alternating path on the class graph, and expand it."""
    if parts.n != host.n:
        raise ValueError("partition must cover the host")
    sizes = set(parts.sizes)
    if len(sizes) != 1:
        raise ValueError("intervals must all have the same size")
    d = sizes.pop()
    if k > d:
        return BlowupSearchResult(None, "bipartite-cliques")
    bounds = parts.bounds()
    t = parts.count

    classes: dict[tuple, list[tuple[int, int]]] = {}
    reps: dict[tuple[int, int], tuple[tuple[int, ...], tuple[int, ...]]] = {}
    found = 0
    for i in range(1, t + 1):
        for j in range(i + 1, t + 1):
            li = range(bounds[i - 1][0], bounds[i - 1][1] + 1)
            rj = range(bounds[j - 1][0], bounds[j - 1][1] + 1)
            rep = _find_kkk_between(host, li, rj, k)
            if rep is None:
                continue
            found += 1
            reps[(i, j)] = rep
            ltype = tuple(v - bounds[i - 1][0] for v in rep[0])
            rtype = tuple(v - bounds[j - 1][0] for v in rep[1])
            classes.setdefault((ltype, rtype), []).append((i, j))
    if not found:
        return BlowupSearchResult(None, "bipartite-cliques", 0, 0)

    best_type = min(classes, key=lambda key: (-len(classes[key]), key))
    class_edges = classes[best_type]
    reduced = OrderedGraph(t, class_edges)
    path = find_alternating_path(reduced, n)
    if path is None:
        return BlowupSearchResult(None, "alternating-path", found, len(class_edges))

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
    return BlowupSearchResult(emb, None, found, len(class_edges))


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


@dataclass(frozen=True)
class TeeSearchResult:
    embedding: Optional[Embedding]
    failed_stage: Optional[str]


def tee_pipeline(
    host: OrderedGraph,
    parts: IntervalPartition,
    n: int,
    k: int,
    epsilon: Fraction,
) -> TeeSearchResult:
    """Stage-by-stage extraction of the tee gadget from a triangle-rich host.

    Stages: (a) enumerate triangles, (b) keep those with right legs of length
    at least eps*N/2, (c) pick the split index maximizing the triangles with
    two vertices on its left (ties toward smaller index), (d) keep left legs
    supporting at least eps^2*N/4 of them, (e) extract the largest nested
    matching of those legs, (f) link matched pairs to intervals holding at
    least k shared triangle apexes, (g) extract a nested matching of n links
    and assemble the witness.
    """
    if parts.n != host.n:
        raise ValueError("partition must cover the host")
    if len(set(parts.sizes)) != 1:
        raise ValueError("intervals must all have the same size")
    if not 0 < epsilon <= 1:
        raise ValueError("epsilon must lie in (0, 1]")
    big_n = host.n

    triangles = enumerate_triangles(host)
    if not triangles:
        return TeeSearchResult(None, "triangles")

    long_legged = [t for t in triangles if t[2] - t[1] >= epsilon * big_n / 2]
    if not long_legged:
        return TeeSearchResult(None, "long-right-legs")

    # split index j: triangles with two vertices <= j and the apex beyond
    best_j, best_tj = 0, -1
    for j in range(2, big_n):
        tj = sum(1 for t in long_legged if t[1] <= j < t[2])
        if tj > best_tj:
            best_j, best_tj = j, tj
    if best_tj <= 0:
        return TeeSearchResult(None, "split-index")
    j = best_j
    t_j = [t for t in long_legged if t[1] <= j < t[2]]

    support: dict[tuple[int, int], int] = {}
    for u, v, _ in t_j:
        support[u, v] = support.get((u, v), 0) + 1
    threshold = epsilon * epsilon * big_n / 4
    legs = sorted(leg for leg, cnt in support.items() if cnt >= threshold)
    if not legs:
        return TeeSearchResult(None, "supported-left-legs")

    # (e) largest nested matching among the supported legs on {1..j}
    leg_graph = OrderedGraph(j, legs)
    pairs = largest_nested_matching(leg_graph)  # (a_i, b_i), a's ascending, b's descending
    if not pairs:
        return TeeSearchResult(None, "first-matching")

    # (f) link each pair to intervals beyond j holding >= k common apexes
    partner = {b: a for a, b in pairs}
    bounds = parts.bounds()
    marked_intervals = sorted(
        l for l, (start, end) in enumerate(bounds, start=1) if end > j
    )
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
        return TeeSearchResult(None, "interval-links")

    # (g) nested matching of size n in the pair-to-interval link graph
    rights = sorted({b for b, _ in link_edges})
    right_index = {b: i for i, b in enumerate(rights, start=1)}
    offset = len(rights)
    linked = sorted({l for _, l in link_edges})
    marker_index = {l: offset + i for i, l in enumerate(linked, start=1)}
    link_graph = OrderedGraph(
        offset + len(linked),
        [(right_index[b], marker_index[l]) for b, l in link_edges],
    )
    link_emb = search_embedding(
        2 * n, nested_matching(n).edges, link_graph.n, link_graph.adj
    )
    if link_emb is None:
        return TeeSearchResult(None, "second-matching")
    link_pairs = [(link_emb[i - 1], link_emb[2 * n - i]) for i in range(1, n + 1)]

    # assemble: stage-g pair s (s = 1..n, b's ascending, markers descending)
    # realizes pattern matching pair n+1-s and its block
    back_right = {v: b for b, v in right_index.items()}
    back_marker = {v: l for l, v in marker_index.items()}
    chosen = []
    for x, y in link_pairs:
        b = back_right[x]
        l = back_marker[y]
        chosen.append((partner[b], b, link_edges[(b, l)]))
    # chosen[s-1] belongs to pattern pair t = n+1-s
    by_pattern_pair = chosen[::-1]
    u_class = [a for a, _, _ in by_pattern_pair]
    v_class = [b for _, b, _ in by_pattern_pair][::-1]
    block_images = [apexes for _, _, apexes in by_pattern_pair]
    image = tuple(u_class + v_class + [w for apexes in block_images for w in apexes])
    emb = Embedding((k + 2) * n, image)
    pattern = tee_graph(n, k)
    if not embedding_maps_edges(pattern.graph, host, emb):
        raise WitnessError("assembled tee witness is invalid")
    if not is_block_respecting(emb, pattern.blocks, parts):
        raise WitnessError("assembled tee witness does not respect the partition")
    return TeeSearchResult(emb, None)


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
    if image is None:
        return None
    return Embedding(pattern.n, image)
