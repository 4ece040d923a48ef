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

def _normalized_edges(n: int, edges: Iterable[tuple[int, int]]) -> frozenset[tuple[int, int]]:
    """The edges as pairs (a, b) with 1 <= a < b <= n.

    Shared by the graph classes: each edge may be given in either order; a
    self-loop, an endpoint outside 1..n or a negative n is a ValueError.
    """
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
    return frozenset(norm)


class OrderedGraph:
    """An ordered graph on positions 1..n with a set of position-pair edges.

    `adj[v]` is an integer bitmask with bit u set iff {u, v} is an edge;
    bit 0 is unused so masks can be tested with 1-based positions directly.
    """

    __slots__ = ("n", "edges", "adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        self.n = n
        self.edges = _normalized_edges(n, edges)
        adj = [0] * (n + 1)
        for a, b in self.edges:
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


class UnorderedGraph:
    """A plain labeled graph on vertices 1..n (no order semantics)."""

    __slots__ = ("n", "edges", "adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        self.n = n
        self.edges = _normalized_edges(n, edges)
        adj: list[set[int]] = [set() for _ in range(n + 1)]
        for a, b in self.edges:
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

def content_lines(text: str) -> list[tuple[int, str]]:
    """(line number, stripped line) of each line that is not blank."""
    lines = enumerate(text.split("\n"), start=1)
    return [(no, stripped) for no, line in lines if (stripped := line.strip())]


def parse_line_format(
    text: str, tag: str, fields: tuple[str, ...], least: int, too_small: str
) -> tuple[list[int], list[tuple[int, str]]]:
    """The shared skeleton of the `og`, `adj`, `col` and `mat` readers: the
    header `<tag> <field>...` holds an integer of at least `least` per field
    (else `too_small`).  Returns them and all `content_lines`, header first."""
    lines = content_lines(text)
    if not lines:
        raise FormatError(1, f"missing `{tag}` header")
    no, head = lines[0][0], lines[0][1].split()
    usage = f"expected header `{' '.join((tag, *fields))}`"
    if len(head) != len(fields) + 1 or head[0] != tag:
        raise FormatError(no, usage)
    try:
        values = [int(tok) for tok in head[1:]]
    except ValueError:
        raise FormatError(no, usage) from None
    if min(values) < least:
        raise FormatError(no, too_small)
    return values, lines


def _parse_edge_list(text: str, header: str) -> tuple[int, set[tuple[int, int]]]:
    """Shared reader for `og`/`adj` files: header `<tag> n m`, then `e i j` lines.

    Returns (n, edges) with each edge as (i, j), i < j; a self-loop, an
    out-of-range endpoint or a duplicate edge is a FormatError at its line.
    """
    (n, m), lines = parse_line_format(
        text, header, ("<n>", "<m>"), 0, "vertex and edge counts must be non-negative"
    )
    if len(lines) - 1 != m:
        raise FormatError(lines[-1][0], f"expected {m} edge lines, found {len(lines) - 1}")
    edges = set()
    for no, line in lines[1:]:
        parts = line.split()
        if len(parts) != 3 or parts[0] != "e":
            raise FormatError(no, "expected edge line `e <i> <j>`")
        try:
            i, j = int(parts[1]), int(parts[2])
        except ValueError:
            raise FormatError(no, "expected edge line `e <i> <j>`") from None
        if i == j:
            raise FormatError(no, f"self-loop at vertex {i}")
        if i > j:
            i, j = j, i
        if i < 1 or j > n:
            raise FormatError(no, f"endpoint out of range 1..{n}")
        if (i, j) in edges:
            raise FormatError(no, f"duplicate edge ({i},{j})")
        edges.add((i, j))
    return n, edges


def parse_ordered_graph(text: str) -> OrderedGraph:
    """Parse the `og` format: header `og <n> <m>`, then `e <i> <j>` with i < j."""
    return OrderedGraph(*_parse_edge_list(text, "og"))


def serialize_ordered_graph(g: OrderedGraph) -> str:
    lines = [f"og {g.n} {g.m}"]
    lines.extend(f"e {i} {j}" for i, j in g.sorted_edges())
    return "\n".join(lines) + "\n"


def parse_unordered_graph(text: str) -> UnorderedGraph:
    """Parse the `adj` format (same shape as `og`, unordered semantics)."""
    return UnorderedGraph(*_parse_edge_list(text, "adj"))


def serialize_unordered_graph(g: UnorderedGraph) -> str:
    lines = [f"adj {g.n} {g.m}"]
    lines.extend(f"e {i} {j}" for i, j in sorted(g.edges))
    return "\n".join(lines) + "\n"


def parse_coloring(text: str) -> Coloring:
    """Parse the `col` format: header `col <N>`, then one `c <i> <j> <R|B>` per pair.

    Any line order is accepted; the coloring must be total.
    """
    (n,), lines = parse_line_format(text, "col", ("<N>",), 0, "vertex count must be non-negative")
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

def search_embedding(
    pattern_n: int,
    pattern_edges: Iterable[tuple[int, int]],
    host_n: int,
    host_adj: Sequence[int],
) -> Optional[tuple[int, ...]]:
    """Leftmost order-preserving embedding of a pattern into `host_adj`
    (bitmasks over 1..host_n), or None when there is none.

    Positions are placed in increasing order.  Position p's candidates are
    one host bitmask: its window, from just after the previous image to
    host_n - (n - p), ANDed with the `host_adj` masks of its earlier
    neighbors' images.  They are tried lowest bit first on an explicit
    stack, so the result is the leftmost embedding at any depth.  Failed
    subtrees are cached by (position, previous image, frontier images),
    where p's frontier is the earlier positions with a neighbor at or after
    p: the rest of the search reads nothing else, so the cache never
    changes the answer.
    """
    n = pattern_n
    if n > host_n:
        return None
    earlier: list[list[int]] = [[] for _ in range(n + 1)]  # earlier neighbors
    last = list(range(n + 1))  # last[q]: q's highest neighbor, or q itself
    for a, b in map(sorted, pattern_edges):
        earlier[b].append(a)
        last[a] = max(last[a], b)
    frontier: list[tuple[int, ...]] = [()] * (n + 1)
    active: list[int] = []
    for p in range(1, n + 1):
        active = [q for q in active if last[q] >= p]
        frontier[p] = tuple(active)
        active.append(p)  # dropped at p + 1 unless it has a later neighbor

    top = host_n - n  # position p's images end at top + p
    img = [0] * (n + 1)  # img[0] stands for the host's left end
    left = [0] * (n + 1)  # candidates not yet tried, per position
    keys: list[tuple[int, ...]] = [()] * (n + 1)
    failed: set[tuple[int, ...]] = set()
    p = 0
    while p < n:
        p += 1
        prev = img[p - 1]
        keys[p] = key = (p, prev, *[img[q] for q in frontier[p]])
        cand = 0 if key in failed else (1 << (top + p + 1)) - (1 << (prev + 1))
        for q in earlier[p]:
            cand &= host_adj[img[q]]
        while not cand:  # back to the deepest position with candidates left
            failed.add(keys[p])
            p -= 1
            if p == 0:
                return None
            cand = left[p]
        low = cand & -cand
        left[p] = cand ^ low
        img[p] = low.bit_length() - 1
    return tuple(img[1:])


def contains(host: OrderedGraph, pattern: OrderedGraph) -> Optional[Embedding]:
    """An order-preserving embedding witnessing pattern <= host, or None.

    The search is exhaustive: None means no such embedding exists.
    """
    image = search_embedding(pattern.n, pattern.edges, host.n, host.adj)
    return None if image is None else Embedding(pattern.n, image)


# ---------------------------------------------------------------------------
# interval chromatic number
# ---------------------------------------------------------------------------

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
