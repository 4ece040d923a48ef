"""Ordered-graph data model, order-preserving containment search, and text formats.

Vertices of an ordered graph are the positions 1..n under the total order,
so two ordered graphs are isomorphic exactly when their sizes and edge sets
coincide; every structural comparison in this package reduces to edge-set
equality.  All types here are immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence

RED = "R"
BLUE = "B"
COLORS = (RED, BLUE)


class FormatError(ValueError):
    """Malformed text input; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


# ---------------------------------------------------------------------------
# pair indexing helpers
# ---------------------------------------------------------------------------

def pair_iter(n: int) -> Iterator[tuple[int, int]]:
    """All pairs (i, j) with 1 <= i < j <= n in lexicographic order."""
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            yield i, j


def pair_count(n: int) -> int:
    return n * (n - 1) // 2


def pair_index(i: int, j: int, n: int) -> int:
    """Index of pair (i, j), i < j, in the lexicographic enumeration."""
    return (i - 1) * (2 * n - i) // 2 + (j - i - 1)


# ---------------------------------------------------------------------------
# graphs
# ---------------------------------------------------------------------------

class OrderedGraph:
    """An ordered graph on positions 1..n with a set of position-pair edges.

    `adj[v]` is an integer bitmask with bit u set iff {u, v} is an edge;
    bit 0 is unused so masks can be tested with 1-based positions directly.
    """

    __slots__ = ("n", "edges", "adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        norm = set()
        for a, b in edges:
            if a == b:
                raise ValueError(f"self-loop at vertex {a}")
            if a > b:
                a, b = b, a
            if a < 1 or b > n:
                raise ValueError(f"edge ({a},{b}) out of range 1..{n}")
            norm.add((a, b))
        self.n = n
        self.edges = frozenset(norm)
        adj = [0] * (n + 1)
        for a, b in norm:
            adj[a] |= 1 << b
            adj[b] |= 1 << a
        self.adj = tuple(adj)

    @property
    def m(self) -> int:
        return len(self.edges)

    def has_edge(self, a: int, b: int) -> bool:
        return (self.adj[a] >> b) & 1 == 1 if 0 < a <= self.n and 0 < b <= self.n else False

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def neighbors(self, v: int) -> list[int]:
        mask = self.adj[v]
        return [u for u in range(1, self.n + 1) if (mask >> u) & 1]

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, OrderedGraph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"OrderedGraph(n={self.n}, m={self.m})"


def complete_graph(n: int) -> OrderedGraph:
    """The ordered complete graph on n positions."""
    return OrderedGraph(n, pair_iter(n))


class LoopedOrderedGraph:
    """An ordered graph that additionally allows loops: edges {i, j} with i <= j."""

    __slots__ = ("n", "edges")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        norm = set()
        for a, b in edges:
            if a > b:
                a, b = b, a
            if a < 1 or b > n:
                raise ValueError(f"edge ({a},{b}) out of range 1..{n}")
            norm.add((a, b))
        self.n = n
        self.edges = frozenset(norm)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LoopedOrderedGraph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash(("looped", self.n, self.edges))

    def __repr__(self) -> str:
        return f"LoopedOrderedGraph(n={self.n}, m={len(self.edges)})"


def complete_with_loops(n: int) -> LoopedOrderedGraph:
    edges = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
    return LoopedOrderedGraph(n, edges)


class UnorderedGraph:
    """A plain labeled graph on vertices 1..n (no order semantics)."""

    __slots__ = ("n", "edges", "adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        norm = set()
        for a, b in edges:
            if a == b:
                raise ValueError(f"self-loop at vertex {a}")
            if a > b:
                a, b = b, a
            if a < 1 or b > n:
                raise ValueError(f"edge ({a},{b}) out of range 1..{n}")
            norm.add((a, b))
        self.n = n
        self.edges = frozenset(norm)
        adj: list[set[int]] = [set() for _ in range(n + 1)]
        for a, b in norm:
            adj[a].add(b)
            adj[b].add(a)
        self.adj = tuple(frozenset(s) for s in adj)

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def max_degree(self) -> int:
        return max((len(self.adj[v]) for v in range(1, self.n + 1)), default=0)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, UnorderedGraph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash(("unordered", self.n, self.edges))

    def __repr__(self) -> str:
        return f"UnorderedGraph(n={self.n}, m={self.m})"


# ---------------------------------------------------------------------------
# embeddings and interval partitions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Embedding:
    """A strictly increasing injection of pattern positions into host positions."""

    pattern_n: int
    image: tuple[int, ...]

    def __post_init__(self):
        if len(self.image) != self.pattern_n:
            raise ValueError("image length must equal the pattern size")
        for a, b in zip(self.image, self.image[1:]):
            if a >= b:
                raise ValueError("image must be strictly increasing")
        if self.image and self.image[0] < 1:
            raise ValueError("host positions are 1-based")

    def __call__(self, p: int) -> int:
        return self.image[p - 1]

    def compose(self, outer: "Embedding") -> "Embedding":
        """The composite embedding: apply self, then `outer` to the result."""
        return Embedding(self.pattern_n, tuple(outer(v) for v in self.image))

    @classmethod
    def identity(cls, n: int) -> "Embedding":
        return cls(n, tuple(range(1, n + 1)))


def embedding_maps_edges(pattern: OrderedGraph, host: OrderedGraph, emb: Embedding) -> bool:
    """True iff `emb` sends every pattern edge to a host edge."""
    if emb.pattern_n != pattern.n:
        return False
    if emb.image and emb.image[-1] > host.n:
        return False
    return all(host.has_edge(emb(a), emb(b)) for a, b in pattern.edges)


@dataclass(frozen=True)
class IntervalPartition:
    """An order-obeying sequence of consecutive disjoint intervals covering 1..n."""

    n: int
    sizes: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "sizes", tuple(self.sizes))
        if any(s < 0 for s in self.sizes):
            raise ValueError("interval sizes must be non-negative")
        if sum(self.sizes) != self.n:
            raise ValueError("interval sizes must sum to the ground-set size")

    @property
    def count(self) -> int:
        return len(self.sizes)

    def bounds(self) -> list[tuple[int, int]]:
        """Inclusive (start, end) per interval; an empty interval has end < start."""
        out = []
        start = 1
        for s in self.sizes:
            out.append((start, start + s - 1))
            start += s
        return out

    def members(self, k: int) -> range:
        """Positions of interval k (1-based interval index)."""
        start, end = self.bounds()[k - 1]
        return range(start, end + 1)

    def interval_of(self, pos: int) -> int:
        """1-based index of the interval containing position `pos`."""
        if not 1 <= pos <= self.n:
            raise ValueError(f"position {pos} out of range 1..{self.n}")
        for k, (start, end) in enumerate(self.bounds(), start=1):
            if start <= pos <= end:
                return k
        raise AssertionError("uncovered position in a covering partition")

    @classmethod
    def equal(cls, count: int, size: int) -> "IntervalPartition":
        return cls(count * size, (size,) * count)


# ---------------------------------------------------------------------------
# colorings
# ---------------------------------------------------------------------------

class Coloring:
    """A total red/blue assignment on all pairs of the complete order on n positions."""

    __slots__ = ("n", "colors", "red_adj", "blue_adj")

    def __init__(self, n: int, colors: Sequence[str]):
        if len(colors) != pair_count(n):
            raise ValueError(
                f"coloring of K_{n} needs {pair_count(n)} colors, got {len(colors)}"
            )
        if any(c not in COLORS for c in colors):
            raise ValueError("colors must be 'R' or 'B'")
        self.n = n
        self.colors = tuple(colors)
        red = [0] * (n + 1)
        blue = [0] * (n + 1)
        for (i, j), c in zip(pair_iter(n), self.colors):
            if c == RED:
                red[i] |= 1 << j
                red[j] |= 1 << i
            else:
                blue[i] |= 1 << j
                blue[j] |= 1 << i
        self.red_adj = tuple(red)
        self.blue_adj = tuple(blue)

    def color(self, i: int, j: int) -> str:
        if i > j:
            i, j = j, i
        if not (1 <= i < j <= self.n):
            raise ValueError(f"pair ({i},{j}) out of range for K_{self.n}")
        return self.colors[pair_index(i, j, self.n)]

    def monochromatic_adj(self, color: str) -> tuple[int, ...]:
        if color == RED:
            return self.red_adj
        if color == BLUE:
            return self.blue_adj
        raise ValueError("color must be 'R' or 'B'")

    def monochromatic_subgraph(self, color: str) -> OrderedGraph:
        edges = [p for p, c in zip(pair_iter(self.n), self.colors) if c == color]
        return OrderedGraph(self.n, edges)

    @classmethod
    def from_function(cls, n: int, fn: Callable[[int, int], str]) -> "Coloring":
        return cls(n, [fn(i, j) for i, j in pair_iter(n)])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Coloring)
            and self.n == other.n
            and self.colors == other.colors
        )

    def __hash__(self) -> int:
        return hash((self.n, self.colors))

    def __repr__(self) -> str:
        return f"Coloring(n={self.n})"


# ---------------------------------------------------------------------------
# text formats
# ---------------------------------------------------------------------------

def _content_lines(text: str) -> list[tuple[int, str]]:
    return [
        (no, line.strip())
        for no, line in enumerate(text.split("\n"), start=1)
        if line.strip()
    ]


def _parse_edge_list(text: str, header: str) -> tuple[int, int, list[tuple[int, int, int]]]:
    """Shared reader for `og`/`adj` files: header `<tag> n m`, then `e i j` lines.

    Returns (n, m, [(line_no, i, j), ...]) without any range/duplicate checks.
    """
    lines = _content_lines(text)
    if not lines:
        raise FormatError(1, f"missing `{header}` header")
    no, head = lines[0]
    parts = head.split()
    if len(parts) != 3 or parts[0] != header:
        raise FormatError(no, f"expected header `{header} <n> <m>`")
    try:
        n, m = int(parts[1]), int(parts[2])
    except ValueError:
        raise FormatError(no, f"expected header `{header} <n> <m>`") from None
    if n < 0 or m < 0:
        raise FormatError(no, "vertex and edge counts must be non-negative")
    if len(lines) - 1 != m:
        raise FormatError(
            lines[-1][0] if len(lines) > 1 else no,
            f"expected {m} edge lines, found {len(lines) - 1}",
        )
    edges = []
    for no, line in lines[1:]:
        parts = line.split()
        if len(parts) != 3 or parts[0] != "e":
            raise FormatError(no, "expected edge line `e <i> <j>`")
        try:
            i, j = int(parts[1]), int(parts[2])
        except ValueError:
            raise FormatError(no, "expected edge line `e <i> <j>`") from None
        edges.append((no, i, j))
    return n, m, edges


def parse_ordered_graph(text: str) -> OrderedGraph:
    """Parse the `og` format: header `og <n> <m>`, then `e <i> <j>` with i < j."""
    n, _, raw = _parse_edge_list(text, "og")
    edges = set()
    for no, i, j in raw:
        if i == j:
            raise FormatError(no, f"self-loop at vertex {i}")
        if i > j:
            i, j = j, i
        if i < 1 or j > n:
            raise FormatError(no, f"endpoint out of range 1..{n}")
        if (i, j) in edges:
            raise FormatError(no, f"duplicate edge ({i},{j})")
        edges.add((i, j))
    return OrderedGraph(n, edges)


def serialize_ordered_graph(g: OrderedGraph) -> str:
    lines = [f"og {g.n} {g.m}"]
    lines.extend(f"e {i} {j}" for i, j in g.sorted_edges())
    return "\n".join(lines) + "\n"


def parse_unordered_graph(text: str) -> UnorderedGraph:
    """Parse the `adj` format (same shape as `og`, unordered semantics)."""
    n, _, raw = _parse_edge_list(text, "adj")
    edges = set()
    for no, i, j in raw:
        if i == j:
            raise FormatError(no, f"self-loop at vertex {i}")
        if i > j:
            i, j = j, i
        if i < 1 or j > n:
            raise FormatError(no, f"endpoint out of range 1..{n}")
        if (i, j) in edges:
            raise FormatError(no, f"duplicate edge ({i},{j})")
        edges.add((i, j))
    return UnorderedGraph(n, edges)


def serialize_unordered_graph(g: UnorderedGraph) -> str:
    lines = [f"adj {g.n} {g.m}"]
    lines.extend(f"e {i} {j}" for i, j in sorted(g.edges))
    return "\n".join(lines) + "\n"


def parse_coloring(text: str) -> Coloring:
    """Parse the `col` format: header `col <N>`, then one `c <i> <j> <R|B>` per pair.

    Any line order is accepted; the coloring must be total.
    """
    lines = _content_lines(text)
    if not lines:
        raise FormatError(1, "missing `col` header")
    no, head = lines[0]
    parts = head.split()
    if len(parts) != 2 or parts[0] != "col":
        raise FormatError(no, "expected header `col <N>`")
    try:
        n = int(parts[1])
    except ValueError:
        raise FormatError(no, "expected header `col <N>`") from None
    if n < 0:
        raise FormatError(no, "vertex count must be non-negative")
    colors: list[Optional[str]] = [None] * pair_count(n)
    for no, line in lines[1:]:
        parts = line.split()
        if len(parts) != 4 or parts[0] != "c":
            raise FormatError(no, "expected color line `c <i> <j> <R|B>`")
        try:
            i, j = int(parts[1]), int(parts[2])
        except ValueError:
            raise FormatError(no, "expected color line `c <i> <j> <R|B>`") from None
        if i > j:
            i, j = j, i
        if i == j or i < 1 or j > n:
            raise FormatError(no, f"pair out of range for K_{n}")
        if parts[3] not in COLORS:
            raise FormatError(no, "color must be R or B")
        idx = pair_index(i, j, n)
        if colors[idx] is not None:
            raise FormatError(no, f"duplicate pair ({i},{j})")
        colors[idx] = parts[3]
    missing = colors.count(None)
    if missing:
        raise FormatError(lines[-1][0], f"coloring is not total: {missing} pairs missing")
    return Coloring(n, colors)  # type: ignore[arg-type]


def serialize_coloring(col: Coloring) -> str:
    lines = [f"col {col.n}"]
    lines.extend(
        f"c {i} {j} {c}" for (i, j), c in zip(pair_iter(col.n), col.colors)
    )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# order-preserving embedding search
# ---------------------------------------------------------------------------

class CompiledPattern:
    """A pattern's order-preserving containment search, compiled once.

    Pattern positions are placed in increasing order.  A position's
    candidates are one host bitmask: its window (strictly after the previous
    image, leaving room for the positions still to place, and before any
    later pin) ANDed with the `host_adj` masks of its placed earlier
    neighbors and of its pinned neighbors.  Candidates are tried from the
    lowest bit up on an explicit stack, so the result is the leftmost
    (lexicographically first) embedding and search depth is not bounded by
    the interpreter's recursion limit.  The per-pattern tables are built
    here; the tables that depend on which positions are pinned are built on
    first use and cached per set of pinned positions.
    """

    __slots__ = ("n", "nbrs", "_plans")

    def __init__(self, pattern_n: int, pattern_edges: Iterable[tuple[int, int]]):
        self.n = pattern_n
        nbrs = [0] * (pattern_n + 1)  # bit q of nbrs[p]: {p, q} is a pattern edge
        for a, b in pattern_edges:
            nbrs[a] |= 1 << b
            nbrs[b] |= 1 << a
        self.nbrs = nbrs
        self._plans: dict[tuple[int, ...], _PinPlan] = {}

    def search(
        self,
        host_n: int,
        host_adj: Sequence[int],
        pins: Optional[dict[int, int]] = None,
        memo: bool = True,
    ) -> Optional[tuple[int, ...]]:
        """Leftmost embedding into `host_adj` (bitmasks over 1..host_n), or None.

        `pins` fixes the images of selected pattern positions; a pin outside
        1..n or 1..host_n admits no embedding.  With `memo`, subtrees proven
        infeasible are cached by (position, previous image, frontier images),
        where the frontier is the placed positions with a neighbor at or
        after the position; this only prunes provable failures and never
        changes the answer.
        """
        n = self.n
        if n == 0:
            return ()
        if n > host_n:
            return None
        pins = pins or {}
        img = [0] * (n + 2)  # img[0] and img[n + 1] stand for the host's ends
        img[n + 1] = host_n + 1
        for p, v in pins.items():
            if not (1 <= p <= n and 1 <= v <= host_n):
                return None
            img[p] = v
        # keyed by insertion order, which callers keep fixed for a pattern;
        # the plan itself only depends on the set of keys
        plan = self._plans.get(tuple(pins))
        if plan is None:
            plan = self._plans[tuple(pins)] = _PinPlan(self.nbrs, sorted(pins))
        prev = 0
        for q in plan.pinned:
            if img[q] - img[prev] < q - prev:
                return None
            prev = q
        for a, b in plan.pin_edges:
            if not (host_adj[img[a]] >> img[b]) & 1:
                return None
        windows = []
        for p, below, above, pinned_nbrs in plan.bounds:
            window = (1 << (img[above] - above + p + 1)) - (1 << (img[below] + p - below))
            for q in pinned_nbrs:
                window &= host_adj[img[q]]
            if not window:
                return None
            windows.append(window)

        free, placed_nbrs, frontier = plan.free, plan.placed_nbrs, plan.frontier
        k = len(free)
        if k == 0:
            return tuple(img[1 : n + 1])
        failed: set[tuple[int, ...]] = set()
        keys: list[tuple[int, ...]] = [()] * k
        left = [0] * k  # candidates not yet tried, per depth
        left[0] = windows[0]
        d = 0
        while True:
            cand = left[d]
            if not cand:
                if memo:
                    failed.add(keys[d])
                d -= 1
                if d < 0:
                    return None
                continue
            low = cand & -cand
            left[d] = cand ^ low
            img[free[d]] = low.bit_length() - 1
            d += 1
            if d == k:
                return tuple(img[1 : n + 1])
            p = free[d]
            lo = img[p - 1] + 1
            cand = windows[d] >> lo << lo
            for q in placed_nbrs[d]:
                cand &= host_adj[img[q]]
            if memo:
                key = (p, img[p - 1], *[img[q] for q in frontier[d]])
                keys[d] = key
                if key in failed:
                    cand = 0
            left[d] = cand


class _PinPlan:
    """The tables of a compiled pattern that depend on its pinned positions.

    Per free (unpinned) position, in increasing order: the nearest pinned
    positions below and above it (0 and n + 1 stand for the host's ends),
    its pinned neighbors, its free earlier neighbors, and its memo frontier
    (free earlier positions with a free neighbor at or after it).
    """

    __slots__ = ("pinned", "pin_edges", "free", "bounds", "placed_nbrs", "frontier")

    def __init__(self, nbrs: list[int], pinned: list[int]):
        n = len(nbrs) - 1
        pin_mask = 0
        for q in pinned:
            pin_mask |= 1 << q
        self.pinned = tuple(pinned) + (n + 1,)  # ends with the upper sentinel
        self.pin_edges = tuple(
            (a, b) for a in pinned for b in pinned if a < b and (nbrs[a] >> b) & 1
        )
        free = [p for p in range(1, n + 1) if not (pin_mask >> p) & 1]
        last_free_nbr = {p: (nbrs[p] & ~pin_mask).bit_length() - 1 for p in free}
        bounds, placed_nbrs, frontier = [], [], []
        below, above_at = 0, 0  # above_at indexes self.pinned
        active: list[int] = []
        for p in free:
            while self.pinned[above_at] < p:
                below = self.pinned[above_at]
                above_at += 1
            bounds.append((p, below, self.pinned[above_at], _bits(nbrs[p] & pin_mask)))
            placed_nbrs.append(_bits(nbrs[p] & ~pin_mask & ((1 << p) - 1)))
            active = [q for q in active if last_free_nbr[q] >= p]
            frontier.append(tuple(active))
            if last_free_nbr[p] > p:
                active.append(p)
        self.free = tuple(free)
        self.bounds = tuple(bounds)
        self.placed_nbrs = tuple(placed_nbrs)
        self.frontier = tuple(frontier)


def _bits(mask: int) -> tuple[int, ...]:
    """Positions of the set bits of `mask`, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def search_embedding(
    pattern_n: int,
    pattern_edges: Iterable[tuple[int, int]],
    host_n: int,
    host_adj: Sequence[int],
    pins: Optional[dict[int, int]] = None,
    memo: bool = True,
) -> Optional[tuple[int, ...]]:
    """Leftmost order-preserving embedding of a pattern into a host adjacency;
    see `CompiledPattern.search`.  Callers that search one pattern many times
    compile it once instead."""
    return CompiledPattern(pattern_n, pattern_edges).search(host_n, host_adj, pins, memo)


def contains(host: OrderedGraph, pattern: OrderedGraph) -> Optional[Embedding]:
    """An order-preserving embedding witnessing pattern <= host, or None.

    The search is exhaustive: None means no such embedding exists.
    """
    image = search_embedding(pattern.n, pattern.edges, host.n, host.adj)
    if image is None:
        return None
    return Embedding(pattern.n, image)


# ---------------------------------------------------------------------------
# edge counting and interval chromatic number
# ---------------------------------------------------------------------------

def edges_between(g: OrderedGraph | UnorderedGraph, a: Iterable[int], b: Iterable[int]) -> int:
    """Number of edges with one endpoint in `a` and one in `b`.

    With a == b this is the edge count of the induced subgraph; overlapping
    sets count each qualifying edge once.
    """
    sa, sb = set(a), set(b)
    for v in sa | sb:
        if not 1 <= v <= g.n:
            raise ValueError(f"vertex {v} out of range 1..{g.n}")
    return sum(
        1
        for u, v in g.edges
        if (u in sa and v in sb) or (u in sb and v in sa)
    )


def interval_chromatic_number(g: OrderedGraph) -> int:
    """Minimum number of intervals partitioning 1..n with no internal edge.

    Computed by the left-to-right greedy scan that opens a new interval
    exactly when the next position has a neighbor in the current interval;
    the greedy is optimal because any valid partition must also split there.
    """
    if g.n == 0:
        return 0
    count = 1
    current = 0  # bitmask of the open interval
    for v in range(1, g.n + 1):
        if g.adj[v] & current:
            count += 1
            current = 1 << v
        else:
            current |= 1 << v
    return count
