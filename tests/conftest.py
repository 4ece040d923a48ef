"""Shared brute-force oracles kept deliberately independent of the package
implementations they check."""

from __future__ import annotations

import math
from itertools import combinations, permutations

import pytest

from orl.core import (
    BLUE,
    COLORS,
    Coloring,
    FormatError,
    OrderedGraph,
    RED,
    pair_iter,
)
from orl.patterns import BinaryMatrix, UnavoidabilityReport
from orl.rng import Xoshiro256StarStar


def brute_contains(host: OrderedGraph, pattern: OrderedGraph):
    """First order-preserving embedding by exhaustive injection enumeration."""
    for image in combinations(range(1, host.n + 1), pattern.n):
        if all(host.has_edge(image[a - 1], image[b - 1]) for a, b in pattern.edges):
            return image
    return None


def brute_interval_chromatic(g: OrderedGraph) -> int:
    """Minimum interval count over all compositions of n."""
    if g.n == 0:
        return 0
    best = g.n

    def splits(start: int, count: int):
        nonlocal best
        if count >= best:
            return
        if start > g.n:
            best = count
            return
        for end in range(start, g.n + 1):
            if all(
                not g.has_edge(u, v)
                for u in range(start, end + 1)
                for v in range(u + 1, end + 1)
            ):
                splits(end + 1, count + 1)

    splits(1, 0)
    return best


def brute_triangle_list(g: OrderedGraph) -> list[tuple[int, int, int]]:
    """Every triangle u < v < w, in lexicographic order."""
    return [
        (u, v, w)
        for u, v, w in combinations(range(1, g.n + 1), 3)
        if g.has_edge(u, v) and g.has_edge(u, w) and g.has_edge(v, w)
    ]


def brute_triangles(g: OrderedGraph) -> int:
    return len(brute_triangle_list(g))


def reference_tee_split(g: OrderedGraph, epsilon):
    """Stages (a)-(d) of the tee pipeline on the listed triangles: the split
    index j and the supported left legs, sorted, or the stage that gave out.
    Per-triangle lists and a support dict, independent of the bit counts."""
    big_n = g.n
    triangles = brute_triangle_list(g)
    if not triangles:
        return "triangles"
    min_leg = math.ceil(epsilon * big_n / 2)
    long_legged = [t for t in triangles if t[2] - t[1] >= min_leg]
    if not long_legged:
        return "long-right-legs"
    # T_j: the long-legged triangles with two vertices <= j and the apex beyond
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
        return "split-index"
    j = best_j
    t_j = [t for t in long_legged if t[1] <= j < t[2]]
    support: dict[tuple[int, int], int] = {}
    for u, v, _ in t_j:
        support[u, v] = support.get((u, v), 0) + 1
    threshold = epsilon * epsilon * big_n / 4
    legs = sorted(leg for leg, cnt in support.items() if cnt >= threshold)
    if not legs:
        return "supported-left-legs"
    return j, legs


def brute_longest_chain(pairs) -> int:
    """Length of a longest chain of pairs with x strictly increasing and y
    strictly decreasing, by the O(m^2) dynamic program over pairs sorted by x."""
    pairs = sorted(pairs)
    best: list[int] = []
    for x, y in pairs:
        best.append(1 + max(
            (length for (a, b), length in zip(pairs, best) if a < x and b > y), default=0
        ))
    return max(best, default=0)


def brute_removal_process(host: OrderedGraph, steps: int):
    """The alternating-path removal process on an edge set and per-vertex
    left/right neighbour dicts, run for `steps` rounds.  Returns the surviving
    edges and one {centre: lost neighbour} dict per round."""
    alive = {tuple(sorted(e)) for e in host.edges}
    left = [dict() for _ in range(host.n + 1)]  # left[v]: u < v adjacency
    right = [dict() for _ in range(host.n + 1)]
    for a, b in alive:
        left[b][a] = True
        right[a][b] = True
    trace = []
    for step in range(1, steps + 1):
        removals = {}
        if step % 2 == 1:
            for v in range(1, host.n + 1):
                if left[v]:
                    removals[v] = min(left[v])
        else:
            for v in range(1, host.n + 1):
                if right[v]:
                    removals[v] = max(right[v])
        for center, u in removals.items():
            a, b = (u, center) if u < center else (center, u)
            alive.discard((a, b))
            left[b].pop(a, None)
            right[a].pop(b, None)
        trace.append(removals)
    return alive, tuple(trace)


def reference_edge_list(text: str, header: str) -> tuple[int, set[tuple[int, int]]]:
    """The `og`/`adj` reader as a set of normalized edge tuples: the content
    lines, the header `<tag> n m`, the edge-line count, then per `e i j` line
    the token, integer, self-loop, range and duplicate checks in that order."""
    lines = [(no, s) for no, line in enumerate(text.split("\n"), start=1) if (s := line.strip())]
    if not lines:
        raise FormatError(1, f"missing `{header}` header")
    no, head = lines[0][0], lines[0][1].split()
    usage = f"expected header `{header} <n> <m>`"
    if len(head) != 3 or head[0] != header:
        raise FormatError(no, usage)
    try:
        n, m = int(head[1]), int(head[2])
    except ValueError:
        raise FormatError(no, usage) from None
    if min(n, m) < 0:
        raise FormatError(no, "vertex and edge counts must be non-negative")
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


def reference_parse_ordered_graph(text: str) -> OrderedGraph:
    return OrderedGraph(*reference_edge_list(text, "og"))


def reference_parse_unordered_graph(text: str) -> OrderedGraph:
    return OrderedGraph(*reference_edge_list(text, "adj"))


def random_og_text(gen, n: int, p: float) -> str:
    """An `og` file of a random graph: each pair an edge with probability p."""
    edges = [(i, j) for i, j in pair_iter(n) if gen.random() < p]
    return f"og {n} {len(edges)}\n" + "".join(f"e {i} {j}\n" for i, j in edges)


def all_graphs(n: int):
    """Every ordered graph on n vertices (2^C(n,2) of them)."""
    pairs = list(pair_iter(n))
    for bits in range(1 << len(pairs)):
        yield OrderedGraph(n, [p for t, p in enumerate(pairs) if (bits >> t) & 1])


def all_colorings(n: int):
    pairs = list(pair_iter(n))
    for bits in range(1 << len(pairs)):
        yield Coloring(
            n, [RED if (bits >> t) & 1 else BLUE for t in range(len(pairs))]
        )


def per_pair_blown_up_coloring(t: int, s: int, seed: int) -> Coloring:
    """The blown-up coloring drawn one `next_bit` per interval-index pair
    a <= b in lexicographic order (1 is red), then colored pair by pair."""
    gen = Xoshiro256StarStar(seed)
    pair_color = {
        (a, b): RED if gen.next_bit() else BLUE
        for a in range(1, t + 1)
        for b in range(a, t + 1)
    }
    return Coloring.from_function(
        s * t, lambda i, j: pair_color[((i - 1) // s + 1, (j - 1) // s + 1)]
    )


def brute_monochromatic_exists(col: Coloring, pattern: OrderedGraph, color: str) -> bool:
    for image in combinations(range(1, col.n + 1), pattern.n):
        if all(
            col.color(image[a - 1], image[b - 1]) == color for a, b in pattern.edges
        ):
            return True
    return False


def brute_avoiding_exists(pattern: OrderedGraph, N: int) -> bool:
    """Full enumeration over all colorings of K_N; feasible for N <= 6."""
    if pattern.n > N:
        return True
    for col in all_colorings(N):
        if not brute_monochromatic_exists(
            col, pattern, RED
        ) and not brute_monochromatic_exists(col, pattern, BLUE):
            return True
    return False


def lex_avoiding_coloring(pattern: OrderedGraph, N: int, stats=None):
    """The chronological avoiding-coloring search: pairs in lexicographic
    order, red before blue, the first pair red only, and after each
    assignment a check for a copy completed by the newly colored pair.  A
    strictly increasing embedding preserves the lexicographic order of
    pairs, so that copy's last-colored edge is the image of the pattern's
    lexicographically largest edge: a table built once lists, per pair, the
    copies (as pair indices) whose largest edge maps to it.  Counts nodes
    and prunes into `stats` (a `ramsey.SearchStats`) like
    `avoiding_coloring`.
    """
    pairs = list(pair_iter(N))
    if not pattern.edges:
        if pattern.n <= N:
            return None
        return Coloring(N, [RED] * len(pairs))
    if pattern.n > N:
        return Coloring(N, [RED] * len(pairs))
    index = {pair: t for t, pair in enumerate(pairs)}
    edges = sorted(pattern.edges)  # the largest edge last
    completed_at: list[set[tuple[int, ...]]] = [set() for _ in pairs]
    for image in combinations(range(1, N + 1), pattern.n):
        copy = tuple(index[image[a - 1], image[b - 1]] for a, b in edges)
        completed_at[copy[-1]].add(copy)
    assignment = [None] * len(pairs)
    tried = [0] * len(pairs)  # colors tried so far at pair t
    nodes = prunes = 0
    t = 0
    while 0 <= t < len(pairs):
        k = tried[t]
        if k == (1 if t == 0 else 2):
            tried[t] = 0
            t -= 1
            continue
        tried[t] = k + 1
        nodes += 1
        color = assignment[t] = COLORS[k]
        if any(all(assignment[u] == color for u in copy) for copy in completed_at[t]):
            prunes += 1
        else:
            t += 1
    if stats is not None:
        stats.nodes += nodes
        stats.prunes += prunes
    if t < 0:
        return None
    return Coloring(N, assignment)


def brute_count_with_degrees(degrees: tuple[int, ...]) -> int:
    """Labeled graphs with a degree sequence, by adjacency enumeration (n <= 6)."""
    n = len(degrees)
    pairs = list(pair_iter(n))
    count = 0
    for bits in range(1 << len(pairs)):
        deg = [0] * (n + 1)
        for t, (a, b) in enumerate(pairs):
            if (bits >> t) & 1:
                deg[a] += 1
                deg[b] += 1
        if tuple(deg[1:]) == degrees:
            count += 1
    return count


def listed_graphs_with_degrees(degrees: tuple[int, ...]):
    """Every labeled graph with the degree sequence, as an edge frozenset,
    by the listing recursion: vertex v picks its neighbour set among the
    later vertices with degree left, in lexicographic order."""
    n = len(degrees)
    residual = [0] + list(degrees)

    def rec(v: int, edges: list[tuple[int, int]]):
        if v > n:
            yield frozenset(edges)
            return
        need = residual[v]
        candidates = [u for u in range(v + 1, n + 1) if residual[u] > 0]
        for chosen in combinations(candidates, need):
            for u in chosen:
                residual[u] -= 1
            edges.extend((v, u) for u in chosen)
            yield from rec(v + 1, edges)
            del edges[len(edges) - need:]
            for u in chosen:
                residual[u] += 1

    yield from rec(1, [])


def listed_rho_regular(rho, n: int) -> list[frozenset]:
    """Every rho-regular graph on [n]: for each set of degree-(d+1) vertices,
    in lexicographic order, `listed_graphs_with_degrees` of its sequence."""
    d = math.floor(rho)
    surplus = math.ceil(rho * n) - d * n
    graphs = []
    for high in combinations(range(1, n + 1), surplus):
        graphs.extend(listed_graphs_with_degrees(
            tuple(d + 1 if v in high else d for v in range(1, n + 1))
        ))
    return graphs


def brute_matrix_contained(a, b) -> bool:
    """Exhaustive row/column subset enumeration."""
    for rows in combinations(range(a.rows), b.rows):
        for cols in combinations(range(a.cols), b.cols):
            if all(
                a.entries[rows[r]][cols[c]] == 1
                for r in range(b.rows)
                for c in range(b.cols)
                if b.entries[r][c] == 1
            ):
                return True
    return False


def flat_unavoidable(n: int, N: int):
    """Exhaustive `permutation_unavoidable` as one flat loop over every N x N
    matrix, in ascending order of the integer whose bit r * N + c is entry
    (r, c); the first pattern, in lexicographic order of permutations, that
    the matrix and its complement both avoid is the counterexample."""
    perms = [
        BinaryMatrix([[int(c == pi[r]) for c in range(n)] for r in range(n)])
        for pi in permutations(range(n))
    ]
    full = (1 << N) - 1
    for bits in range(1 << (N * N)):
        masks = [(bits >> (r * N)) & full for r in range(N)]
        flipped = [full ^ m for m in masks]
        for p in perms:
            if not p.contained_in(masks, N) and not p.contained_in(flipped, N):
                grid = [[(m >> c) & 1 for c in range(N)] for m in masks]
                return UnavoidabilityReport(False, True, BinaryMatrix(grid), p)
    return UnavoidabilityReport(True, True)


def graph_components(g: OrderedGraph) -> list[int]:
    seen: set[int] = set()
    sizes = []
    for start in range(1, g.n + 1):
        if start in seen:
            continue
        stack, comp = [start], set()
        while stack:
            v = stack.pop()
            if v in comp:
                continue
            comp.add(v)
            stack.extend(u for u in g.neighbors(v) if u not in comp)
        seen |= comp
        sizes.append(len(comp))
    return sorted(sizes)


@pytest.fixture
def rng():
    import random

    return random.Random(20260810)
