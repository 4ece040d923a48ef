"""Deterministic builders for the named ordered graphs and colorings.

Positions are 1-based throughout.  Blocked graphs carry their block
intervals plus the designated inner/outer edges used when nesting cycles.
`order_max_degree_two` is the one nesting of alternating cycles, and reads
only the edges and degrees of the graph it orders, not its vertex order;
`order_two_regular` is that ordering of the disjoint union of a spec's cycles.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from orl.core import (
    BLUE,
    Coloring,
    FormatError,
    OrderedGraph,
    RED,
    Record,
    content_lines,
)


class BlockedOrderedGraph(Record):
    """An ordered graph with designated consecutive blocks and marker edges.

    Blocks are disjoint runs of consecutive positions listed left to right;
    they need not cover all positions (e.g. the leading outer pair of an odd
    alternating cycle and the matching part of a tee graph are unblocked).
    """

    __slots__ = ("graph", "blocks", "inner_edge", "outer_edge")

    def __init__(
        self,
        graph: OrderedGraph,
        blocks: tuple[tuple[int, ...], ...],
        inner_edge: Optional[tuple[int, int]] = None,
        outer_edge: Optional[tuple[int, int]] = None,
    ):
        prev_end = 0
        for block in blocks:
            if not block:
                raise ValueError("blocks must be non-empty")
            if list(block) != list(range(block[0], block[-1] + 1)):
                raise ValueError("each block must be a run of consecutive positions")
            if block[0] <= prev_end:
                raise ValueError("blocks must be disjoint and left to right")
            if block[-1] > graph.n:
                raise ValueError("block exceeds the vertex range")
            prev_end = block[-1]
        for marker in (inner_edge, outer_edge):
            if marker is not None and tuple(sorted(marker)) not in graph.edges:
                raise ValueError(f"marker {marker} is not an edge")
        self._set_fields(graph, blocks, inner_edge, outer_edge)


class TwoRegularSpec(Record):
    """Cycle lengths of a 2-regular graph, in placement order."""

    __slots__ = ("cycle_lengths",)

    def __init__(self, cycle_lengths: Iterable[int]):
        lengths = tuple(cycle_lengths)
        if not lengths:
            raise ValueError("at least one cycle is required")
        if any(length < 3 for length in lengths):
            raise ValueError("every cycle length must be at least 3")
        self._set_fields(lengths)

    @property
    def total(self) -> int:
        return sum(self.cycle_lengths)


# ---------------------------------------------------------------------------
# paths, matchings, bipartite graphs
# ---------------------------------------------------------------------------

def alternating_path_order(n: int) -> list[int]:
    """Path vertices v_1..v_n listed in the alternating order.

    Odd-indexed vertices ascend first; they are followed by v_n (n even) or
    nothing extra (n odd, v_n is already odd-indexed), then the remaining
    even-indexed vertices in descending index order.
    """
    if n < 1:
        raise ValueError("the path needs at least one vertex")
    order = list(range(1, n + 1, 2))
    start = n if n % 2 == 0 else n - 1
    order.extend(range(start, 0, -2))
    return order


def alternating_path(n: int) -> OrderedGraph:
    """The path on n vertices under the alternating order."""
    order = alternating_path_order(n)
    pos = {v: k for k, v in enumerate(order, start=1)}
    edges = [(pos[i], pos[i + 1]) for i in range(1, n)]
    return OrderedGraph(n, edges)


def nested_matching(pairs: int) -> OrderedGraph:
    """The matching on 2*pairs positions with edges {i, 2*pairs+1-i}."""
    if pairs < 1:
        raise ValueError("at least one pair is required")
    n = 2 * pairs
    return OrderedGraph(n, [(i, n + 1 - i) for i in range(1, pairs + 1)])


def complete_bipartite(r: int, s: int) -> OrderedGraph:
    """Complete bipartite graph with the size-r interval left of the size-s one."""
    if r < 1 or s < 1:
        raise ValueError("both sides must be non-empty")
    edges = [(i, j) for i in range(1, r + 1) for j in range(r + 1, r + s + 1)]
    return OrderedGraph(r + s, edges)


# ---------------------------------------------------------------------------
# alternating cycles
# ---------------------------------------------------------------------------

def alternating_cycle(m: int) -> BlockedOrderedGraph:
    """The 2-regular alternating ordering of the cycle on m >= 3 positions.

    Even m: every position of the alternating path on m/2 + 1 vertices except
    the two degree-one endpoints (positions 1 and ceil((n+1)/2)) is split into
    a pair v_i < w_i, and each path edge {i, j} doubles into {v_i, w_j} and
    {w_i, v_j}.  Odd m: the same splitting with only position ceil((n+1)/2)
    of the path on (m-1)/2 vertices left unsplit, plus a leading outer pair
    joined as a triangle-like cap to the first block.
    """
    if m < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    if m % 2 == 0:
        n = m // 2 + 1
        unsplit = {1, (n + 1 + 1) // 2}
        offset = 0
    else:
        n = (m - 1) // 2
        unsplit = {(n + 1 + 1) // 2}
        offset = 2
    path = alternating_path(n)
    v = [0] * (n + 1)
    w = [0] * (n + 1)
    pos = offset
    for i in range(1, n + 1):
        pos += 1
        v[i] = pos
        if i in unsplit:
            w[i] = pos
        else:
            pos += 1
            w[i] = pos
    assert pos == m
    edges = set()
    for i, j in path.edges:
        edges.add(tuple(sorted((v[i], w[j]))))
        edges.add(tuple(sorted((w[i], v[j]))))
    blocks = tuple(
        (v[i],) if v[i] == w[i] else (v[i], w[i]) for i in range(1, n + 1)
    )
    if m % 2 == 0:
        inner: Optional[tuple[int, int]] = (n - 1, n)
        outer = None
    else:
        edges.update({(1, 2), (1, w[1]), (2, v[1])})
        inner = (n + 2, n + 3) if m >= 5 else None
        outer = (1, 2)
    graph = OrderedGraph(m, edges)
    return BlockedOrderedGraph(graph, blocks, inner_edge=inner, outer_edge=outer)


# ---------------------------------------------------------------------------
# blow-ups and the tee/eff gadgets
# ---------------------------------------------------------------------------

def blowup_path(n: int, k: int) -> BlockedOrderedGraph:
    """The k-blow-up of the alternating path: each position becomes a block
    of k consecutive positions and each path edge a complete bipartite join."""
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive")
    path = alternating_path(n)
    blocks = tuple(
        tuple(range((i - 1) * k + 1, i * k + 1)) for i in range(1, n + 1)
    )
    edges = [
        (u, v)
        for i, j in path.edges
        for u in blocks[i - 1]
        for v in blocks[j - 1]
    ]
    return BlockedOrderedGraph(OrderedGraph(n * k, edges), blocks)


def tee_graph(n: int, k: int) -> BlockedOrderedGraph:
    """Nested matching on 2n positions followed by n blocks of size k, with
    block i completely joined to both endpoints of the i-th matching edge."""
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive")
    edges = set(nested_matching(n).edges)
    blocks = []
    for i in range(1, n + 1):
        block = tuple(range(2 * n + (i - 1) * k + 1, 2 * n + i * k + 1))
        blocks.append(block)
        for vtx in block:
            edges.add((i, vtx))
            edges.add((2 * n + 1 - i, vtx))
    return BlockedOrderedGraph(OrderedGraph((k + 2) * n, edges), tuple(blocks))


def eff_graph(n: int, k: int) -> BlockedOrderedGraph:
    """Union of the tee graph and the k-blow-up path placed on its blocks."""
    tee = tee_graph(n, k)
    shifted = [(a + 2 * n, b + 2 * n) for a, b in blowup_path(n, k).graph.edges]
    return BlockedOrderedGraph(OrderedGraph(tee.graph.n, [*tee.graph.edges, *shifted]), tee.blocks)


# ---------------------------------------------------------------------------
# orderings of maximum-degree-2 graphs
# ---------------------------------------------------------------------------

def _two_regular_token_order(
    lengths: list[int], bipartite_mode: bool
) -> tuple[list[BlockedOrderedGraph], list[tuple[int, int]]]:
    """Nest the alternating cycles of the given lengths, as order_max_degree_two
    describes; tokens are (cycle index, local position)."""
    if bipartite_mode and any(length % 2 or length < 4 for length in lengths):
        raise ValueError("bipartite mode needs even cycle lengths >= 4")

    cycles = [alternating_cycle(length) for length in lengths]
    order: list[tuple[int, int]] = []
    last_odd: Optional[int] = None
    for idx, cycle in enumerate(cycles):
        body = [(idx, p) for p in range(1, cycle.graph.n + 1)]
        if cycle.outer_edge is not None:
            outer_pair, body = body[:2], body[2:]
            at = 0
            if last_odd is not None:
                at = order.index((last_odd, cycles[last_odd].outer_edge[0])) + 1
            order[at:at] = outer_pair
            last_odd = idx
        at = len(order)
        if idx > 0:
            # a triangle has no inner edge; its last position is its rightmost
            prev = cycles[idx - 1]
            anchor = prev.graph.n if prev.inner_edge is None else prev.inner_edge[0]
            at = order.index((idx - 1, anchor)) + 1
        order[at:at] = body
    return cycles, order


def order_two_regular(spec: TwoRegularSpec, bipartite_mode: bool = False) -> OrderedGraph:
    """order_max_degree_two of the disjoint union of the spec's cycles, laid
    out left to right in spec order."""
    edges, start = [], 1
    for length in spec.cycle_lengths:
        end = start + length - 1
        edges += [(v, v + 1) for v in range(start, end)] + [(start, end)]
        start = end + 1
    return order_max_degree_two(OrderedGraph(spec.total, edges), bipartite_mode)


def _walk(neighbors: Callable[[int], Iterable[int]], start: int) -> list[int]:
    """The vertices of the path or cycle through `start`, in walk order from
    `start`, which must be an endpoint if the component is a path."""
    walk, prev = [start], None
    while True:
        nxt = [u for u in neighbors(walk[-1]) if u != prev and u != start]
        if not nxt:
            return walk
        prev = walk[-1]
        walk.append(nxt[0])


def order_max_degree_two(g: OrderedGraph, bipartite_mode: bool = False) -> OrderedGraph:
    """Order a maximum-degree-2 graph by nesting alternating cycles.

    Each cycle of g, then each path (an isolated vertex is a path), becomes an
    alternating cycle; a path is padded to length max(3, its length), or to
    an even length of at least 4 in bipartite mode, where every cycle must be
    even.  The cycles are nested in that order.  Even cycles are inserted
    between the endpoints of the previous cycle's inner edge (or directly to
    the right of a previous triangle, which has no inner edge).  Odd cycles
    put their outer pair between the endpoints of the most recent odd
    cycle's outer pair -- the first odd pair becomes the two leftmost
    positions -- and their remaining vertices go between the previous
    cycle's inner edge like the even case.  The nesting is then restricted
    to g's vertices, each piece laid along its cycle's walk from position 1.
    """
    if any(g.degree(v) > 2 for v in range(1, g.n + 1)):
        raise ValueError("maximum degree exceeds 2")
    cycles, paths = [], []
    seen: set[int] = set()
    # walks from the endpoints (degree <= 1) first, so later walks are cycles
    for start in sorted(range(1, g.n + 1), key=lambda v: g.degree(v) == 2):
        if start not in seen:
            walk = _walk(g.neighbors, start)
            seen.update(walk)
            (cycles if g.degree(start) == 2 else paths).append(walk)

    def padded_length(p: int) -> int:
        if bipartite_mode:
            target = max(4, p)
            return target + (target % 2)
        return max(3, p)

    lengths = [len(c) for c in cycles] + [padded_length(len(p)) for p in paths]
    nested, order = _two_regular_token_order(lengths, bipartite_mode)
    # the t-th vertex of a piece sits at its cycle's t-th walk position, so
    # consecutive piece vertices are cycle-adjacent and g stays a subgraph
    vertex_at = {}
    for idx, (piece, cycle) in enumerate(zip(cycles + paths, nested)):
        for vertex, p in zip(piece, _walk(cycle.graph.neighbors, 1)):
            vertex_at[(idx, p)] = vertex
    kept = [vertex_at[token] for token in order if token in vertex_at]
    rank = {vertex: r for r, vertex in enumerate(kept, start=1)}
    return OrderedGraph(g.n, [(rank[a], rank[b]) for a, b in g.edges])


# ---------------------------------------------------------------------------
# the quadratic lower-bound instance
# ---------------------------------------------------------------------------

def quadratic_lb_instance(n: int) -> tuple[OrderedGraph, Coloring]:
    """The 2-regular ordering (one cycle of length n/3 plus 2n/9 triangles in
    disjoint consecutive intervals, largest cycle first) together with the
    interval coloring of the complete order on (n/3 - 1) * (4n/9) positions:
    blue inside each of the 4n/9 size-(n/3 - 1) intervals, red across them.
    """
    if n < 9 or n % 9:
        raise ValueError("n must be a positive multiple of 9")
    lengths = [n // 3] + [3] * (2 * n // 9)
    edges = []
    offset = 0
    for length in lengths:
        cyc = alternating_cycle(length).graph
        edges.extend((offset + a, offset + b) for a, b in cyc.edges)
        offset += length
    graph = OrderedGraph(n, edges)

    size = n // 3 - 1
    count = 4 * n // 9
    host = size * count

    def interval_of(v: int) -> int:
        return (v - 1) // size

    coloring = Coloring.from_function(
        host, lambda i, j: BLUE if interval_of(i) == interval_of(j) else RED
    )
    return graph, coloring


# ---------------------------------------------------------------------------
# blocks sidecar format
# ---------------------------------------------------------------------------

def serialize_blocks(b: BlockedOrderedGraph) -> str:
    """One-line sidecar: `blocks s1 s2 ... [/ inner i j] [/ outer i j]`.

    Block sizes are listed left to right; block k starts where block k-1
    ended only when the blocks are contiguous, so the start of the first
    block is recorded as `at <start>` when it is not position 1.
    """
    parts = ["blocks"]
    if b.blocks and b.blocks[0][0] != 1:
        parts.append(f"at {b.blocks[0][0]}")
    parts.extend(str(len(block)) for block in b.blocks)
    text = " ".join(parts)
    if b.inner_edge is not None:
        text += f" / inner {b.inner_edge[0]} {b.inner_edge[1]}"
    if b.outer_edge is not None:
        text += f" / outer {b.outer_edge[0]} {b.outer_edge[1]}"
    return text + "\n"


def parse_blocks(text: str, graph: OrderedGraph) -> BlockedOrderedGraph:
    """Parse the one-line sidecar emitted by serialize_blocks against its graph."""
    lines = content_lines(text)
    if not lines:
        raise FormatError(1, "empty blocks line")
    if len(lines) > 1:
        raise FormatError(lines[1][0], "expected a single `blocks` line")
    no, line = lines[0]
    sections = [s.split() for s in line.split("/")]
    if sections[0][:1] != ["blocks"]:
        raise FormatError(no, "expected `blocks ...`")
    head = sections[0][1:]
    start = 1
    if head[:1] == ["at"]:
        try:
            start = int(head[1])
        except (IndexError, ValueError):
            raise FormatError(no, "expected `at <start>`") from None
        head = head[2:]
    try:
        sizes = [int(tok) for tok in head]
    except ValueError:
        raise FormatError(no, "block sizes must be integers") from None
    blocks = []
    for s in sizes:
        blocks.append(tuple(range(start, start + s)))
        start += s
    markers = {}
    for parts in sections[1:]:
        if len(parts) != 3 or parts[0] not in ("inner", "outer"):
            raise FormatError(no, "expected `inner i j` or `outer i j`")
        try:
            markers[parts[0]] = (int(parts[1]), int(parts[2]))
        except ValueError:
            raise FormatError(no, "marker endpoints must be integers") from None
    return BlockedOrderedGraph(
        graph, tuple(blocks), inner_edge=markers.get("inner"), outer_edge=markers.get("outer")
    )
