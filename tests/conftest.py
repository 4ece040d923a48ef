"""Shared brute-force oracles kept deliberately independent of the package
implementations they check."""

from __future__ import annotations

from itertools import combinations

import pytest

from orl.core import BLUE, Coloring, OrderedGraph, RED, pair_iter


def brute_contains(host: OrderedGraph, pattern: OrderedGraph, pins=None):
    """First order-preserving embedding by exhaustive injection enumeration.

    `pins` maps pattern positions to the host positions their images must
    equal; a pin outside 1..pattern.n or 1..host.n admits no embedding.
    """
    pins = pins or {}
    if any(not (1 <= p <= pattern.n and 1 <= v <= host.n) for p, v in pins.items()):
        return None
    for image in combinations(range(1, host.n + 1), pattern.n):
        if all(image[p - 1] == v for p, v in pins.items()) and all(
            host.has_edge(image[a - 1], image[b - 1]) for a, b in pattern.edges
        ):
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


def brute_triangles(g: OrderedGraph) -> int:
    return sum(
        1
        for u, v, w in combinations(range(1, g.n + 1), 3)
        if g.has_edge(u, v) and g.has_edge(u, w) and g.has_edge(v, w)
    )


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
