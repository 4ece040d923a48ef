"""Binary matrix pattern containment and permutation-matrix unavoidability.

B is contained in A when deleting rows/columns of A and demoting some 1s
to 0 leaves B; row and column order is preserved, mirroring the ordered
subgraph search.  `CompiledMatrixPattern` compiles B once and searches
hosts given as row bitmasks on an explicit stack, with a greedy column
check after every row choice.  `orl.core.search_embedding` forward-checks
the same way; what still keeps this a separate engine is the row/column
structure (it branches on rows only; the columns, a second order, are
settled by the greedy check alone), and speed.  A merge through the
forward-checking graph engine (host rows, then one separator vertex joined
to every row and column, then the columns) agreed with this engine on
3,000 random pairs, but on the matrix benchmark's calls it took 4.2 s
against 0.47 s for the exhaustive 2-in-4 scan and 1.5 s against 0.33 s
for four 1,000-trial 3-in-6 samples (medians of six runs, Python 3.11.7,
2 vCPUs).
The matching/coloring converters translate avoidance certificates into
matrices that dodge a permutation pattern both ways.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Iterator, Optional, Sequence

from orl.core import Coloring, FormatError, OrderedGraph, RED, parse_line_format
from orl.rng import Xoshiro256StarStar


class BinaryMatrix:
    """An immutable 0/1 matrix with 1-based dimensions."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries):
        rows = tuple(tuple(int(x) for x in row) for row in entries)
        if not rows or not rows[0]:
            raise ValueError("dimensions must be at least 1x1")
        if any(len(row) != len(rows[0]) for row in rows):
            raise ValueError("rows must have equal length")
        if any(x not in (0, 1) for row in rows for x in row):
            raise ValueError("entries must be 0 or 1")
        self.rows = len(rows)
        self.cols = len(rows[0])
        self.entries = rows

    def __eq__(self, other) -> bool:
        return isinstance(other, BinaryMatrix) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        return f"BinaryMatrix({self.rows}x{self.cols})"


def complement(a: BinaryMatrix) -> BinaryMatrix:
    """Entrywise flip; an involution."""
    return BinaryMatrix(tuple(tuple(1 - x for x in row) for row in a.entries))


def parse_matrix(text: str) -> BinaryMatrix:
    """Parse the `mat` format: header `mat <rows> <cols>`, then 0/1 row strings."""
    (rows, cols), lines = parse_line_format(
        text, "mat", ("<rows>", "<cols>"), 1, "dimensions must be at least 1x1"
    )
    if len(lines) - 1 != rows:
        raise FormatError(lines[-1][0], f"expected {rows} row lines")
    grid = []
    for no, line in lines[1:]:
        if len(line) != cols or any(ch not in "01" for ch in line):
            raise FormatError(no, f"expected a row of {cols} 0/1 characters")
        grid.append(tuple(int(ch) for ch in line))
    return BinaryMatrix(grid)


def serialize_matrix(a: BinaryMatrix) -> str:
    lines = [f"mat {a.rows} {a.cols}"]
    lines.extend("".join(str(x) for x in row) for row in a.entries)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# containment
# ---------------------------------------------------------------------------

def row_masks(a: BinaryMatrix) -> list[int]:
    """A's rows as column bitmasks: bit c of row r is entry (r, c)."""
    return [sum(x << c for c, x in enumerate(row)) for row in a.entries]


class CompiledMatrixPattern:
    """A matrix pattern's containment search, compiled once.

    Pattern rows are placed in increasing order on host rows.  Each pattern
    column keeps a host-column candidate mask: its window (room for the
    pattern columns on either side) ANDed with the masks of the host rows
    chosen for the pattern rows that hold a 1 in that column.  After each
    row choice the column system is checked greedily, left to right, taking
    the lowest candidate above the previous column's choice; a failure
    prunes the prefix, and success after the last row is a containment.
    Row choices live on an explicit stack, so search depth is not bounded by
    the interpreter's recursion limit.
    """

    __slots__ = ("rows", "cols", "row_cols")

    def __init__(self, b: BinaryMatrix):
        self.rows = b.rows
        self.cols = b.cols
        # the pattern columns holding a 1, per pattern row
        self.row_cols = tuple(
            tuple(pc for pc, x in enumerate(row) if x) for row in b.entries
        )

    def contained_in(self, host_rows: Sequence[int], host_cols: int) -> bool:
        """True iff the pattern is contained in the host given by its row
        masks (`row_masks`) and column count."""
        rows, cols, row_cols = self.rows, self.cols, self.row_cols
        slack = len(host_rows) - rows  # host rows a pattern row may skip
        if slack < 0 or cols > host_cols:
            return False
        span = (1 << (host_cols - cols + 1)) - 1
        cands = [[span << pc for pc in range(cols)]]  # per depth, per column
        nxt = [0]  # per depth, the next host row to try
        depth = 0
        while True:
            hr = nxt[depth]
            if hr > slack + depth:
                if depth == 0:
                    return False
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


def pattern_contained(a: BinaryMatrix, b: BinaryMatrix) -> bool:
    """True iff some increasing row/column selections of A cover B's 1s;
    see `CompiledMatrixPattern`.  Callers that test one pattern many times
    compile it once instead."""
    return CompiledMatrixPattern(b).contained_in(row_masks(a), a.cols)


def permutation_matrices(n: int) -> Iterator[BinaryMatrix]:
    """All n x n permutation matrices, rows indexed by position."""
    for pi in permutations(range(n)):
        yield BinaryMatrix(
            tuple(
                tuple(1 if c == pi[r] else 0 for c in range(n))
                for r in range(n)
            )
        )


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

    Exhaustive mode scans all 2^(N^2) matrices and is limited to N <= 4 and
    n <= 2; sampling mode only reports counterexamples it happens to find.
    """
    patterns = [(p, CompiledMatrixPattern(p)) for p in permutation_matrices(n)]
    if N < 1:
        raise ValueError("dimensions must be at least 1x1")
    full = (1 << N) - 1

    def violates(masks: list[int]) -> Optional[BinaryMatrix]:
        flipped = None  # the complement's rows, built on the first miss
        for p, compiled in patterns:
            if compiled.contained_in(masks, N):
                continue
            if flipped is None:
                flipped = [full ^ m for m in masks]
            if not compiled.contained_in(flipped, N):
                return p
        return None

    def matrix(masks: list[int]) -> BinaryMatrix:
        return BinaryMatrix(tuple(tuple((m >> c) & 1 for c in range(N)) for m in masks))

    if mode == "exhaustive":
        if N > 4 or n > 2:
            raise ValueError("exhaustive mode is limited to N <= 4 and n <= 2")
        for bits in range(1 << (N * N)):
            # entry (r, c) is bit r * N + c
            masks = [(bits >> (r * N)) & full for r in range(N)]
            bad = violates(masks)
            if bad is not None:
                return UnavoidabilityReport(False, True, matrix(masks), bad)
        return UnavoidabilityReport(True, True)
    if mode != "sample":
        raise ValueError("mode must be 'exhaustive' or 'sample'")
    gen = Xoshiro256StarStar(seed)
    for _ in range(trials):
        masks = [sum(gen.next_bit() << c for c in range(N)) for _ in range(N)]
        bad = violates(masks)
        if bad is not None:
            return UnavoidabilityReport(False, False, matrix(masks), bad)
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
    grid = [[0] * n for _ in range(n)]
    for a, b in g.edges:
        if not (a <= n < b):
            raise ValueError("every edge must cross the middle")
        grid[a - 1][b - n - 1] = 1
    return BinaryMatrix(tuple(tuple(row) for row in grid))


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
    return BinaryMatrix(
        tuple(
            tuple(
                1 if col.color(i, half + j) == color else 0
                for j in range(1, half + 1)
            )
            for i in range(1, half + 1)
        )
    )
