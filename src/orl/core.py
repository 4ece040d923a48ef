"""Ordered-graph data model, order-preserving containment search, and text formats.

Vertices of an ordered graph are the positions 1..n under the total order,
so two ordered graphs are isomorphic exactly when their sizes and edge sets
coincide; every structural comparison in this package reduces to edge-set
equality.  A plain graph on vertices 1..n, whose orderings the package
enumerates, is an `OrderedGraph` too: its users read only its edges and
degrees.  All types here are immutable after construction.
"""

from __future__ import annotations

import sys
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
    `adj` is the representation; `edges`, the frozenset of pairs (a, b) with
    a < b, is derived from it the first time it is read.
    """

    __slots__ = ("n", "adj", "_edges")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        """Each edge may be given in either order, and repeats are merged; a
        self-loop, an endpoint outside 1..n or a negative n is a ValueError."""
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        adj = [0] * (n + 1)
        for a, b in edges:
            if a == b:
                raise ValueError(f"self-loop at vertex {a}")
            if a > b:
                a, b = b, a
            if a < 1 or b > n:
                raise ValueError(f"edge ({a},{b}) out of range 1..{n}")
            adj[a] |= 1 << b
            adj[b] |= 1 << a
        self.n = n
        self.adj = tuple(adj)
        self._edges = None

    @classmethod
    def _from_adj(cls, n: int, adj: Sequence[int]) -> "OrderedGraph":
        """The graph with adjacency bitmasks `adj` (n + 1 of them), which the
        caller guarantees are symmetric, loop-free and within 1..n."""
        g = cls.__new__(cls)
        g.n = n
        g.adj = tuple(adj)
        g._edges = None
        return g

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        if self._edges is None:
            self._edges = frozenset(_mask_edges(self.adj))
        return self._edges

    @property
    def m(self) -> int:
        return sum(mask.bit_count() for mask in self.adj) // 2

    def has_edge(self, a: int, b: int) -> bool:
        return (self.adj[a] >> b) & 1 == 1 if 0 < a <= self.n and 0 < b <= self.n else False

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def neighbors(self, v: int) -> list[int]:
        """The neighbours of v in increasing order, read off its set bits."""
        out, mask = [], self.adj[v]
        while mask:
            low = mask & -mask
            mask ^= low
            out.append(low.bit_length() - 1)
        return out

    def sorted_edges(self) -> list[tuple[int, int]]:
        return list(_mask_edges(self.adj))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, OrderedGraph)
            and self.n == other.n
            and self.adj == other.adj
        )

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"OrderedGraph(n={self.n}, m={self.m})"


def _mask_edges(adj: Sequence[int]) -> Iterator[tuple[int, int]]:
    """The edges (a, b), a < b, of symmetric adjacency bitmasks, in
    lexicographic order: a ascending, then the bits of `adj[a]` above a."""
    for a, mask in enumerate(adj):
        above = mask >> (a + 1)
        while above:
            low = above & -above
            above ^= low
            yield a, a + low.bit_length()


def complete_graph(n: int) -> OrderedGraph:
    """The ordered complete graph on n positions."""
    return OrderedGraph(n, pair_iter(n))


# ---------------------------------------------------------------------------
# records and embeddings
# ---------------------------------------------------------------------------

class Record:
    """Base of the immutable records that check their arguments: equality,
    hash and repr by the fields named in `__slots__`, which `__init__` sets
    once through `_set_fields` and which cannot be assigned afterwards."""

    __slots__ = ()

    def _set_fields(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")


class Embedding(Record):
    """A strictly increasing injection of pattern positions into host positions."""

    __slots__ = ("pattern_n", "image")

    def __init__(self, pattern_n: int, image: tuple[int, ...]):
        if len(image) != pattern_n:
            raise ValueError("image length must equal the pattern size")
        for a, b in zip(image, image[1:]):
            if a >= b:
                raise ValueError("image must be strictly increasing")
        if image and image[0] < 1:
            raise ValueError("host positions are 1-based")
        self._set_fields(pattern_n, image)

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


# ---------------------------------------------------------------------------
# colorings
# ---------------------------------------------------------------------------

class Coloring:
    """A total red/blue assignment on all pairs of the complete order on n positions.

    `red_adj[v]` is the bitmask of the red neighbours of v (bit 0 unused),
    and is the representation.  `blue_adj[v]` is the mask of K_n minus
    `red_adj[v]` and bit v.  `colors`, the color of each pair in
    lexicographic pair order, is derived from `red_adj` the first time it is
    read, as `OrderedGraph.edges` is from `adj`.
    """

    __slots__ = ("n", "red_adj", "blue_adj", "_colors")

    def __init__(self, n: int, colors: Sequence[str]):
        if len(colors) != pair_count(n):
            raise ValueError(
                f"coloring of K_{n} needs {pair_count(n)} colors, got {len(colors)}"
            )
        if any(c not in COLORS for c in colors):
            raise ValueError("colors must be 'R' or 'B'")
        red = [0] * (n + 1)
        for (i, j), c in zip(pair_iter(n), colors):
            if c == RED:
                red[i] |= 1 << j
                red[j] |= 1 << i
        self._set(n, red)
        self._colors = tuple(colors)

    @classmethod
    def _from_red_adj(cls, n: int, red: Sequence[int]) -> "Coloring":
        """The coloring whose red neighbour masks are `red` (n + 1 of them),
        which the caller guarantees are symmetric, loop-free and within 1..n."""
        col = cls.__new__(cls)
        col._set(n, red)
        col._colors = None
        return col

    def _set(self, n: int, red: Sequence[int]) -> None:
        full = (1 << (n + 1)) - 2  # K_n's positions 1..n
        self.n = n
        self.red_adj = tuple(red)
        self.blue_adj = (0, *[full ^ (red[v] | 1 << v) for v in range(1, n + 1)])

    @property
    def colors(self) -> tuple[str, ...]:
        if self._colors is None:
            rows = []
            for i in range(1, self.n):  # pairs (i, i + 1), ..., (i, n), low bit first
                rows.append(format(self.red_adj[i] >> (i + 1), "b").zfill(self.n - i)[::-1])
            self._colors = tuple("".join(rows).translate(_PAIR_COLORS))
        return self._colors

    def color(self, i: int, j: int) -> str:
        if i > j:
            i, j = j, i
        if not (1 <= i < j <= self.n):
            raise ValueError(f"pair ({i},{j}) out of range for K_{self.n}")
        return RED if (self.red_adj[i] >> j) & 1 else BLUE

    def monochromatic_adj(self, color: str) -> tuple[int, ...]:
        if color == RED:
            return self.red_adj
        if color == BLUE:
            return self.blue_adj
        raise ValueError("color must be 'R' or 'B'")

    def monochromatic_subgraph(self, color: str) -> OrderedGraph:
        return OrderedGraph._from_adj(self.n, self.monochromatic_adj(color))

    @classmethod
    def from_function(cls, n: int, fn: Callable[[int, int], str]) -> "Coloring":
        return cls(n, [fn(i, j) for i, j in pair_iter(n)])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Coloring)
            and self.n == other.n
            and self.red_adj == other.red_adj
        )

    def __hash__(self) -> int:
        return hash((self.n, self.red_adj))

    def __repr__(self) -> str:
        return f"Coloring(n={self.n})"


_PAIR_COLORS = str.maketrans("10", RED + BLUE)


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
    (else `too_small`), and below `sys.maxsize`, so that a reader can size a
    list by it.  Returns them and all `content_lines`, header first."""
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
    if max(values) >= sys.maxsize:
        raise FormatError(no, f"header value {max(values)} is too large")
    return values, lines


def _read_serialized_edge_list(text: str, tag: str) -> Optional[tuple[int, list[int]]]:
    """n and the adjacency bitmasks of `text` if it is in the form
    `_serialize_edge_list` writes, with the lines of a row in any order;
    else None.

    That form is the header `<tag> <n> <m>`, then rows i ascending: row i
    is lines `e <i> <j>` with i < j <= n, no j twice, single spaces, plain
    decimals and `\\n` after every line, and the rows hold m lines.  Each
    row is one slice of the text, `\\ne <i> <j1>\\ne <i> <j2>...`, read
    with no Python loop per edge.  i, from a table of the strings `1` to
    `n - 1`, exceeds the previous row's and starts the slice, which ends
    with the last line starting `e <i> ` within the row's at most n - i
    lines of at most `len(f"\\ne {n} {n}")` characters.  Split on
    `\\ne <i> `, the slice must leave only strings that a table of `1` to
    `n` maps to bits (and the empty one before the first line), so each of
    its lines is `e <i> <j>`; a set bit per line rules out duplicates, and
    none at or below i rules out loops and reversed pairs.  The lower
    halves of the masks come from a transpose of the rows, an
    (n + 1)^2-character string, so the text is read here only when that
    string is no longer than the text.
    """
    head, _, _ = text.partition("\n")
    try:
        _, n, m = head.split(" ")
        n, m = int(n), int(m)
    except ValueError:
        return None
    if (head != f"{tag} {n} {m}" or min(n, m) < 0 or (n + 1) ** 2 > len(text)
            or not text.endswith("\n") or text.count("\n") != m + 1):
        return None
    w, width = n + 1, len(f"\ne {n} {n}")
    row_of = {str(v): v for v in range(1, n)}
    bit = {"": 0} | {str(v): 1 << v for v in range(1, w)}  # "" is before a row's first line
    upper = [0] * w
    pos, last, prev = len(head), len(text) - 1, 0
    try:
        while pos < last:  # text[pos] is the `\n` before the row's first line
            i = row_of[text[pos + 3:pos + width].partition(" ")[0]]
            prefix = f"\ne {i} "
            if i <= prev or not text.startswith(prefix, pos):
                return None
            end = text.find("\n", text.rfind(prefix, pos, pos + (n - i) * width) + 1)
            row = text[pos:end]
            mask = sum(map(bit.__getitem__, row.split(prefix)))
            if mask.bit_count() != row.count("\n") or mask & ((2 << i) - 1):
                return None
            upper[i], prev, pos = mask, i, end
    except KeyError:  # a row index or endpoint that is not a plain 1..n
        return None
    # character v of row u's string is bit v of upper[u], so column v is lower[v]
    bits = "".join(format(u, "b").zfill(w)[::-1] for u in upper)
    return n, [u | int(bits[v::w][::-1], 2) for v, u in enumerate(upper)]


def _parse_edge_list(text: str, header: str) -> tuple[int, list[int]]:
    """Shared reader for `og`/`adj` files: header `<tag> n m`, then `e i j` lines.

    Returns n and the adjacency bitmasks (bit j of entry i set iff {i, j}
    is an edge; entry 0 is 0).  Text in the exact form the serializer
    writes, rows i ascending with the lines of a row in any order, takes
    the row reader `_read_serialized_edge_list`, which gives the same
    result as the line reader below.  Any other text goes to the line
    reader, where a self-loop, an out-of-range endpoint or a duplicate
    edge is a FormatError at its line.
    """
    fast = _read_serialized_edge_list(text, header)
    if fast is not None:
        return fast
    (n, m), lines = parse_line_format(
        text, header, ("<n>", "<m>"), 0, "vertex and edge counts must be non-negative"
    )
    if len(lines) - 1 != m:
        raise FormatError(lines[-1][0], f"expected {m} edge lines, found {len(lines) - 1}")
    adj = [0] * (n + 1)
    for no, line in lines[1:]:
        try:
            tag, i, j = line.split()
            i, j = int(i), int(j)
        except ValueError:
            raise FormatError(no, "expected edge line `e <i> <j>`") from None
        if tag != "e":
            raise FormatError(no, "expected edge line `e <i> <j>`")
        if i == j:
            raise FormatError(no, f"self-loop at vertex {i}")
        if i > j:
            i, j = j, i
        if i < 1 or j > n:
            raise FormatError(no, f"endpoint out of range 1..{n}")
        if (adj[i] >> j) & 1:
            raise FormatError(no, f"duplicate edge ({i},{j})")
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    return n, adj


def parse_ordered_graph(text: str) -> OrderedGraph:
    """Parse the `og` format: header `og <n> <m>`, then `e <i> <j>` with i < j."""
    return OrderedGraph._from_adj(*_parse_edge_list(text, "og"))


def _serialize_edge_list(g: OrderedGraph, tag: str) -> str:
    lines = [f"{tag} {g.n} {g.m}"]
    lines.extend(f"e {i} {j}" for i, j in g.sorted_edges())
    return "\n".join(lines) + "\n"


def serialize_ordered_graph(g: OrderedGraph) -> str:
    return _serialize_edge_list(g, "og")


def parse_unordered_graph(text: str) -> OrderedGraph:
    """Parse the `adj` format: the `og` shape under the header `adj <n> <m>`.
    Its readers use only the edges and degrees, never the vertex order."""
    return OrderedGraph._from_adj(*_parse_edge_list(text, "adj"))


def serialize_unordered_graph(g: OrderedGraph) -> str:
    return _serialize_edge_list(g, "adj")


def parse_coloring(text: str) -> Coloring:
    """Parse the `col` format: header `col <N>`, then one `c <i> <j> <R|B>` per pair.

    Any line order is accepted; the coloring must be total.  Colors are
    kept by pair index as the lines come, so the memory used is bounded by
    the text, not by the pair count its header claims.
    """
    (n,), lines = parse_line_format(text, "col", ("<N>",), 0, "vertex count must be non-negative")
    colors: dict[int, str] = {}
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
        if idx in colors:
            raise FormatError(no, f"duplicate pair ({i},{j})")
        colors[idx] = parts[3]
    missing = pair_count(n) - len(colors)
    if missing:
        raise FormatError(lines[-1][0], f"coloring is not total: {missing} pairs missing")
    return Coloring(n, [colors[idx] for idx in range(len(colors))])


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

    Positions are placed in increasing order.  Each position not yet placed
    has a forward mask: the host vertices adjacent to the images of its
    placed earlier neighbors.  Placing p at v ANDs `host_adj[v]` into the
    masks of p's later neighbors only.  A greedy check then takes, lowest
    bit first, the least image each of p+1..n can still have, strictly
    increasing and inside its mask (positions with no placed neighbor just
    take the next vertex; position n + 1 stands for the host's right end).
    The least choice at each step succeeds whenever any choice does, so if
    the greedy fails no embedding extends v, and v is dropped before going
    deeper: forward checking (Haralick & Elliott, AIJ 1980), the column
    check of `patterns.BinaryMatrix.contained_in` in graph form.

    Position p's candidates are its mask within its window, from just after
    the previous image to host_n - (n - p).  They are tried lowest bit first
    on an explicit stack, so the result is the leftmost embedding at any
    depth.  Failed subtrees are cached by the search state: p, the previous
    image, and the masks of p and of the later positions with a neighbor at
    or before p.  Below p the search reads only those: every other later
    position still has its initial mask.  So equal keys have equal outcomes:
    a failed key still means no embedding, and the result stays leftmost.

    Twin vertices are tried once per position.  Host vertices u and v are
    twins when N(u) \\ {v} = N(v) \\ {u}: they have the same open mask
    `host_adj[v]` (and are not adjacent) or the same closed mask
    `host_adj[v] | 1 << v` (and are adjacent).  This is an equivalence, and
    one pass over the host, grouping the vertices by both masks, gives its
    classes.  In each color of a blown-up coloring, the positions of one
    interval are twins.  When p takes candidate v, v's twins leave p's
    remaining candidates.  That is sound: if an embedding extending the
    current images puts p at a twin v' > v, moving p to v keeps the images
    strictly increasing (v is above the previous image and every later image
    is above v'), and keeps every edge (no other image is v or v', so an
    image adjacent to v' is adjacent to v).  So v' fails whenever v does;
    the result stays the leftmost embedding, and a failed key still means
    no embedding.
    """
    n = pattern_n
    if n > host_n:
        return None
    later: list[list[int]] = [[] for _ in range(n + 1)]  # later neighbors
    for a, b in map(sorted, pattern_edges):
        later[a].append(b)
    ahead: list[tuple[int, ...]] = [()] * (n + 1)  # masked positions after p
    masked: set[int] = set()
    for p in range(1, n + 1):
        masked.discard(p)
        masked.update(later[p])
        ahead[p] = (*sorted(masked), n + 1)

    masks = [host_adj[v] for v in range(host_n + 1)]
    classes: dict[int, int] = {}  # open or closed mask -> the vertices with it
    for v in range(1, host_n + 1):
        for key in (masks[v], masks[v] | 1 << v):
            classes[key] = classes.get(key, 0) | 1 << v
    spare = [0]  # spare[v]: all but v and its twins, to AND into candidates
    for v in range(1, host_n + 1):
        spare.append(~(classes[masks[v]] | classes[masks[v] | 1 << v]))

    top = host_n - n  # position p's images end at top + p
    img = [0] * (n + 1)  # img[0] stands for the host's left end
    mask = [(1 << (host_n + 1)) - 2] * (n + 1)  # forward masks
    mask.append(1 << (host_n + 1))  # position n + 1 stands for the right end
    saved: list[list[int]] = [[]] * (n + 1)  # later neighbors' masks before p
    left = [0] * (n + 1)  # candidates not yet tried, per position
    keys: list[tuple[int, ...]] = [()] * (n + 1)
    failed: set[tuple[int, ...]] = set()
    p = 0
    while p < n:
        p += 1
        prev = img[p - 1]
        keys[p] = key = (p, prev, mask[p], *[mask[q] for q in ahead[p]])
        saved[p] = [mask[q] for q in later[p]]
        cand = 0 if key in failed else mask[p] & ((1 << (top + p + 1)) - (1 << (prev + 1)))
        while True:
            while not cand:  # back to the deepest position with candidates left
                failed.add(keys[p])
                for q, m in zip(later[p], saved[p]):
                    mask[q] = m
                p -= 1
                if p == 0:
                    return None
                cand = left[p]
            v = (cand & -cand).bit_length() - 1
            cand &= spare[v]
            adj = host_adj[v]
            for q, m in zip(later[p], saved[p]):
                mask[q] = m & adj
            at, q0 = v, p  # greedy: the lowest image of each masked position
            for q in ahead[p]:  # the unmasked ones between take at + 1, ...
                above = mask[q] >> (at + q - q0)
                if not above:
                    break
                at += q - q0 - 1 + (above & -above).bit_length()
                q0 = q
            else:
                break
        left[p] = cand
        img[p] = v
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
