"""Binary matrix pattern containment and permutation-matrix unavoidability.

B is contained in A when deleting rows/columns of A and demoting some 1s
to 0 leaves B; row and column order is preserved, mirroring the ordered
subgraph search.  `BinaryMatrix.contained_in` branches on rows only and
settles the columns, a second order, by a greedy check after each row
choice: the forward checking `orl.core.search_embedding` does on graphs.
That row/column structure and speed keep it a separate engine.  A merge
through the graph engine (host rows, then one separator vertex joined to
every row and column, then the columns) agreed with it on 3,000 random
pairs, but on the matrix benchmark's calls it took 4.2 s against 0.47 s
for the exhaustive 2-in-4 scan, and 1.5 s against 0.33 s for four
1,000-trial 3-in-6 samples (medians of six runs, Python 3.11.7, 2 vCPUs).
The matching/coloring converters translate avoidance certificates into
matrices that dodge a permutation pattern both ways.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice, permutations
from typing import Iterator, Optional, Sequence

from orl.core import Coloring, FormatError, OrderedGraph, RED, parse_line_format
from orl.rng import Xoshiro256StarStar


class BinaryMatrix:
    """An immutable 0/1 matrix with 1-based dimensions.

    `masks[r]` is row r as a column bitmask, with bit c set iff entry (r, c)
    is 1, and is the representation.  `entries` (the rows as 0/1 tuples) and
    `row_cols` (per row, the columns holding a 1) are derived from it the
    first time they are read, as `OrderedGraph.edges` is from `adj`.
    """

    __slots__ = ("rows", "cols", "masks", "_entries", "_row_cols")

    def __init__(self, entries):
        rows = [[int(x) for x in row] for row in entries]
        cols = len(rows[0]) if rows else 0
        if any(len(row) != cols for row in rows):
            raise ValueError("rows must have equal length")
        if any(x not in (0, 1) for row in rows for x in row):
            raise ValueError("entries must be 0 or 1")
        self._set(cols, [sum(x << c for c, x in enumerate(row)) for row in rows])

    @classmethod
    def _from_masks(cls, cols: int, masks: Sequence[int]) -> "BinaryMatrix":
        """The matrix with row masks `masks`, each below 1 << cols."""
        a = cls.__new__(cls)
        a._set(cols, masks)
        return a

    def _set(self, cols: int, masks: Sequence[int]) -> None:
        if not masks or cols < 1:
            raise ValueError("dimensions must be at least 1x1")
        self.rows, self.cols, self.masks = len(masks), cols, tuple(masks)
        self._entries = self._row_cols = None

    @property
    def entries(self) -> tuple[tuple[int, ...], ...]:
        if self._entries is None:
            self._entries = tuple(tuple(m >> c & 1 for c in range(self.cols)) for m in self.masks)
        return self._entries

    @property
    def row_cols(self) -> tuple[tuple[int, ...], ...]:
        if self._row_cols is None:
            self._row_cols = tuple(tuple(c for c, x in enumerate(row) if x) for row in self.entries)
        return self._row_cols

    def last_rows(self, host_rows: Sequence[int], span: int) -> list[int]:
        """Per pattern row, the last host row it can take in a containment.

        A host row can take pattern row d only if it meets the window
        `span << pc` of every column pc holding a 1 in row d.  Row d must
        also lie above the last row row d + 1 can take, so the bounds are
        found bottom up in one downward pass over the host; -1 or less means
        no row is left.  Without them a failing search can take exponential
        time, retrying every placement of the earlier rows.
        """
        row_cols = self.row_cols
        last = [0] * self.rows
        hr = len(host_rows)
        for d in range(self.rows - 1, -1, -1):
            windows = [span << pc for pc in row_cols[d]]
            hr -= 1
            while hr >= 0 and not all(host_rows[hr] & w for w in windows):
                hr -= 1
            last[d] = hr
        return last

    def contained_in(self, host_rows: Sequence[int], host_cols: int) -> bool:
        """True iff this pattern is contained in the host given by its row
        masks and column count.

        Pattern rows go on host rows in increasing order, on an explicit
        stack.  Each pattern column's candidates are its window (room for
        the columns on either side) ANDed with the host rows chosen for the
        pattern rows holding a 1 in it.  After each row choice a greedy
        pass takes, left to right, each column's lowest candidate above the
        previous column's; a failure prunes the prefix.
        """
        rows, cols, row_cols = self.rows, self.cols, self.row_cols
        slack = len(host_rows) - rows  # host rows a pattern row may skip
        if slack < 0 or cols > host_cols:
            return False
        span = (1 << (host_cols - cols + 1)) - 1
        cands = [[span << pc for pc in range(cols)]]  # per depth, per column
        nxt = [0]  # per depth, the next host row to try
        last = range(slack, len(host_rows))  # per depth, the last host row to try
        bounded = False
        depth = 0
        while True:
            hr = nxt[depth]
            if hr > last[depth]:
                if depth == 0:
                    return False
                if not bounded:
                    # most calls succeed without backtracking, so the tight
                    # bound is paid for only by searches that backtrack
                    last = self.last_rows(host_rows, span)
                    bounded = True
                    continue
                cands.pop()
                nxt.pop()
                depth -= 1
                continue
            nxt[depth] = hr + 1
            cand = cands[depth][:]
            mask = host_rows[hr]
            for pc in row_cols[depth]:
                cand[pc] &= mask
            above = -1  # the columns right of the previous greedy choice
            for m in cand:
                m &= above
                if not m:
                    break
                above = -((m & -m) << 1)
            else:
                depth += 1
                if depth == rows:
                    return True
                cands.append(cand)
                nxt.append(hr + 1)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BinaryMatrix):
            return NotImplemented
        return (self.cols, self.masks) == (other.cols, other.masks)

    def __hash__(self) -> int:
        return hash((self.cols, self.masks))

    def __repr__(self) -> str:
        return f"BinaryMatrix({self.rows}x{self.cols})"


def complement(a: BinaryMatrix) -> BinaryMatrix:
    """Entrywise flip; an involution."""
    full = (1 << a.cols) - 1
    return BinaryMatrix._from_masks(a.cols, [full ^ m for m in a.masks])


def parse_matrix(text: str) -> BinaryMatrix:
    """Parse the `mat` format: header `mat <rows> <cols>`, then 0/1 row strings."""
    (rows, cols), lines = parse_line_format(
        text, "mat", ("<rows>", "<cols>"), 1, "dimensions must be at least 1x1"
    )
    if len(lines) - 1 != rows:
        raise FormatError(lines[-1][0], f"expected {rows} row lines")
    masks = []
    for no, line in lines[1:]:
        if len(line) != cols or any(ch not in "01" for ch in line):
            raise FormatError(no, f"expected a row of {cols} 0/1 characters")
        masks.append(int(line[::-1], 2))
    return BinaryMatrix._from_masks(cols, masks)


def serialize_matrix(a: BinaryMatrix) -> str:
    lines = [f"mat {a.rows} {a.cols}"]
    lines.extend(format(m, f"0{a.cols}b")[::-1] for m in a.masks)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# containment
# ---------------------------------------------------------------------------

def pattern_contained(a: BinaryMatrix, b: BinaryMatrix) -> bool:
    """True iff some increasing row/column selections of A cover B's 1s."""
    return b.contained_in(a.masks, a.cols)


def permutation_matrices(n: int) -> Iterator[BinaryMatrix]:
    """All n x n permutation matrices, rows indexed by position."""
    for pi in permutations(range(n)):
        yield BinaryMatrix._from_masks(n, [1 << c for c in pi])


@dataclass(frozen=True)
class UnavoidabilityReport:
    holds: bool
    exhaustive: bool
    counterexample_matrix: Optional[BinaryMatrix] = None
    counterexample_pattern: Optional[BinaryMatrix] = None


def permutation_unavoidable(
    n: int,
    N: int,
    mode: str = "exhaustive",
    trials: int = 1000,
    seed: int = 0,
) -> UnavoidabilityReport:
    """Check whether every n x n permutation matrix appears in A or in its
    complement for every (exhaustive) or sampled N x N matrix A.

    Exhaustive mode fixes rows N - 1 down to 0, each mask in ascending
    order, so full matrices come in the order of the integer whose bit
    r * N + c is entry (r, c); the first counterexample in that order is
    reported.  Containment survives adding rows, so a suffix of rows in
    which (or in whose complement) every pattern already appears is skipped
    with all its completions.  It is limited to N <= 5; sampling mode only
    reports counterexamples it happens to find.
    """
    if N < 1:
        raise ValueError("dimensions must be at least 1x1")
    if mode not in ("exhaustive", "sample"):
        raise ValueError("mode must be 'exhaustive' or 'sample'")
    if mode == "exhaustive" and N > 5:
        raise ValueError("exhaustive mode is limited to N <= 5")
    # no N x N matrix holds an n x n pattern for n > N: the first one is the answer
    patterns = list(islice(permutation_matrices(n), 1 if n > N else None))
    full = (1 << N) - 1

    def violates(masks: list[int]) -> Optional[BinaryMatrix]:
        flipped = None  # the complement's rows, built on the first miss
        for p in patterns:
            if p.contained_in(masks, N):
                continue
            if flipped is None:
                flipped = [full ^ m for m in masks]
            if not p.contained_in(flipped, N):
                return p
        return None

    def first_violation(suffix: list[int]) -> Optional[UnavoidabilityReport]:
        """The report of the first violating completion of rows
        N - len(suffix).., trying each row's masks in ascending order."""
        for m in range(full + 1):
            masks = [m, *suffix]
            bad = violates(masks)
            if bad is None:
                continue  # adding rows keeps containment: no completion violates
            if len(masks) == N:
                return UnavoidabilityReport(False, True, BinaryMatrix._from_masks(N, masks), bad)
            found = first_violation(masks)
            if found is not None:
                return found
        return None

    if mode == "exhaustive":
        return first_violation([]) or UnavoidabilityReport(True, True)
    gen = Xoshiro256StarStar(seed)
    for _ in range(trials):
        bits = gen.next_bits(N * N)  # entry (r, c) is draw r * N + c
        masks = [(bits >> (r * N)) & full for r in range(N)]
        bad = violates(masks)
        if bad is not None:
            return UnavoidabilityReport(False, False, BinaryMatrix._from_masks(N, masks), bad)
    return UnavoidabilityReport(True, False)


# ---------------------------------------------------------------------------
# matching/coloring dictionary
# ---------------------------------------------------------------------------

def matching_matrix(g: OrderedGraph) -> BinaryMatrix:
    """The permutation matrix of a matching across the middle of [2n]:
    entry (i, j) is 1 iff {i, n + j} is an edge."""
    if g.n % 2:
        raise ValueError("the matching must have evenly many positions")
    n = g.n // 2
    masks = [g.adj[i] >> (n + 1) for i in range(1, n + 1)]
    if sum(m.bit_count() for m in masks) != g.m:
        raise ValueError("every edge must cross the middle")
    return BinaryMatrix._from_masks(n, masks)


def coloring_matrix(col: Coloring, color: str = RED) -> BinaryMatrix:
    """The bipartite half-vs-half block of a coloring of K_{2N} as a 0/1
    matrix: entry (i, j) is 1 iff pair {i, N + j} carries `color`.

    A pattern contained in this matrix yields a monochromatic copy of the
    corresponding cross-matching, so an avoiding coloring gives a matrix
    avoiding the permutation pattern in both itself and its complement.
    """
    if col.n % 2:
        raise ValueError("the coloring must cover evenly many positions")
    half = col.n // 2
    adj = col.monochromatic_adj(color)
    return BinaryMatrix._from_masks(half, [adj[i] >> (half + 1) for i in range(1, half + 1)])
