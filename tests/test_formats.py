"""Golden table of the line-format readers on malformed and edge-case input.

Each row is (format, text, outcome): the exception's type name, message and
`.line` (None for an exception without one), or ("ok", canonical
re-serialization, None) for text that parses.  The rows were recorded
before the readers shared `orl.core.parse_line_format`, and every reader
must keep them, except the `.blocks` rows marked fixed: there the old reader
raised IndexError for `/ inner 1 2`, for `blocks\nblocks 2` merged the two
lines into `line 1: block sizes must be integers`, and reported an error
after blank lines (`\n\nblocks x`) at line 1 instead of the line it is on.
The last three rows were added with that fix.
"""

import random
from collections import Counter
from itertools import groupby

import pytest

from conftest import reference_parse_ordered_graph, reference_parse_unordered_graph
from orl import core
from orl.constructions import parse_blocks, serialize_blocks
from orl.core import (
    FormatError,
    OrderedGraph,
    complete_graph,
    pair_iter,
    parse_coloring,
    parse_ordered_graph,
    parse_unordered_graph,
    serialize_coloring,
    serialize_ordered_graph,
    serialize_unordered_graph,
)
from orl.patterns import parse_matrix, serialize_matrix

BLOCKS_GRAPH = OrderedGraph(6, [(1, 2), (2, 3), (4, 6)])

READERS = {
    "og": (parse_ordered_graph, serialize_ordered_graph),
    "adj": (parse_unordered_graph, serialize_unordered_graph),
    "col": (parse_coloring, serialize_coloring),
    "mat": (parse_matrix, serialize_matrix),
    "blocks": (lambda text: parse_blocks(text, BLOCKS_GRAPH), serialize_blocks),
}

GOLDEN = [
    ('og', '', ('FormatError', 'line 1: missing `og` header', 1)),
    ('og', '\n\n  \n\t\n', ('FormatError', 'line 1: missing `og` header', 1)),
    ('og', 'og', ('FormatError', 'line 1: expected header `og <n> <m>`', 1)),
    ('og', 'og 3', ('FormatError', 'line 1: expected header `og <n> <m>`', 1)),
    ('og', 'og 3 1 2', ('FormatError', 'line 1: expected header `og <n> <m>`', 1)),
    ('og', 'adj 3 0', ('FormatError', 'line 1: expected header `og <n> <m>`', 1)),
    ('og', 'OG 3 0', ('FormatError', 'line 1: expected header `og <n> <m>`', 1)),
    ('og', 'og x 0', ('FormatError', 'line 1: expected header `og <n> <m>`', 1)),
    ('og', 'og 3 y', ('FormatError', 'line 1: expected header `og <n> <m>`', 1)),
    ('og', 'og 3.0 0', ('FormatError', 'line 1: expected header `og <n> <m>`', 1)),
    ('og', 'og -1 0', ('FormatError', 'line 1: vertex and edge counts must be non-negative', 1)),
    ('og', 'og 3 -1', ('FormatError', 'line 1: vertex and edge counts must be non-negative', 1)),
    ('og', 'og 0 0', ('ok', 'og 0 0\n', None)),
    ('og', 'og 3 0\n', ('ok', 'og 3 0\n', None)),
    ('og', 'og 03 +1\ne 1 2\n', ('ok', 'og 3 1\ne 1 2\n', None)),
    ('og', 'og\t3\t1\ne\t1\t2', ('ok', 'og 3 1\ne 1 2\n', None)),
    ('og', 'og\xa03 0', ('ok', 'og 3 0\n', None)),
    ('og', 'og 3 0\x0c\n', ('ok', 'og 3 0\n', None)),
    ('og', 'e 1 2\nog 2 1', ('FormatError', 'line 1: expected header `og <n> <m>`', 1)),
    ('og', 'og 3 1', ('FormatError', 'line 1: expected 1 edge lines, found 0', 1)),
    ('og', 'og 3 2\ne 1 2', ('FormatError', 'line 2: expected 2 edge lines, found 1', 2)),
    ('og', 'og 3 0\ne 1 2', ('FormatError', 'line 2: expected 0 edge lines, found 1', 2)),
    ('og', 'og 3 1\ne 1 2\ne 2 3', ('FormatError', 'line 3: expected 1 edge lines, found 2', 3)),
    ('og', 'og 3 2\ne 1 2\n\n\n', ('FormatError', 'line 2: expected 2 edge lines, found 1', 2)),
    ('og', 'og 3 1\ne 1 1', ('FormatError', 'line 2: self-loop at vertex 1', 2)),
    ('og', 'og 5 3\ne 1 2\ne 3 3\ne 4 5', ('FormatError', 'line 3: self-loop at vertex 3', 3)),
    ('og', 'og 3 1\ne 0 1', ('FormatError', 'line 2: endpoint out of range 1..3', 2)),
    ('og', 'og 3 1\ne 1 4', ('FormatError', 'line 2: endpoint out of range 1..3', 2)),
    ('og', 'og 3 1\ne -1 2', ('FormatError', 'line 2: endpoint out of range 1..3', 2)),
    ('og', 'og 3 1\ne 1 -2', ('FormatError', 'line 2: endpoint out of range 1..3', 2)),
    ('og', 'og 3 1\ne 1_0 2', ('FormatError', 'line 2: endpoint out of range 1..3', 2)),
    ('og', 'og 3 2\ne 1 2\ne 2 1', ('FormatError', 'line 3: duplicate edge (1,2)', 3)),
    ('og', 'og 3 2\ne 1 2\ne 1 2', ('FormatError', 'line 3: duplicate edge (1,2)', 3)),
    ('og', 'og 3 1\ne 1', ('FormatError', 'line 2: expected edge line `e <i> <j>`', 2)),
    ('og', 'og 3 1\ne 1 2 3', ('FormatError', 'line 2: expected edge line `e <i> <j>`', 2)),
    ('og', 'og 3 1\nf 1 2', ('FormatError', 'line 2: expected edge line `e <i> <j>`', 2)),
    ('og', 'og 3 1\nE 1 2', ('FormatError', 'line 2: expected edge line `e <i> <j>`', 2)),
    ('og', 'og 3 1\ne a 2', ('FormatError', 'line 2: expected edge line `e <i> <j>`', 2)),
    ('og', 'og 3 1\ne 2 1', ('ok', 'og 3 1\ne 1 2\n', None)),
    ('og', '\n  og 3 2\n\n   e 1 2  \n\n\te 2 3\n', ('ok', 'og 3 2\ne 1 2\ne 2 3\n', None)),
    ('og', 'og 3 1\r\ne 1 3\r\n', ('ok', 'og 3 1\ne 1 3\n', None)),
    ('og', 'og 4 3\ne 3 4\ne 1 2\ne 2 4\n', ('ok', 'og 4 3\ne 1 2\ne 2 4\ne 3 4\n', None)),
    ('adj', '', ('FormatError', 'line 1: missing `adj` header', 1)),
    ('adj', 'og 3 0', ('FormatError', 'line 1: expected header `adj <n> <m>`', 1)),
    ('adj', 'adj 3', ('FormatError', 'line 1: expected header `adj <n> <m>`', 1)),
    ('adj', 'adj -2 0', ('FormatError', 'line 1: vertex and edge counts must be non-negative', 1)),
    ('adj', 'adj 3 1\ne 2 2', ('FormatError', 'line 2: self-loop at vertex 2', 2)),
    ('adj', 'adj 2 1\ne 1 3', ('FormatError', 'line 2: endpoint out of range 1..2', 2)),
    ('adj', 'adj 3 2\ne 1 2\ne 2 1', ('FormatError', 'line 3: duplicate edge (1,2)', 3)),
    ('adj', 'adj 3 2\ne 1 2', ('FormatError', 'line 2: expected 2 edge lines, found 1', 2)),
    ('adj', 'adj 3 1\ne 2 1\n', ('ok', 'adj 3 1\ne 1 2\n', None)),
    ('adj', ' adj 4 2 \n\ne 1 4\n  e 2 3\n', ('ok', 'adj 4 2\ne 1 4\ne 2 3\n', None)),
    ('col', '', ('FormatError', 'line 1: missing `col` header', 1)),
    ('col', 'col', ('FormatError', 'line 1: expected header `col <N>`', 1)),
    ('col', 'col 3 3', ('FormatError', 'line 1: expected header `col <N>`', 1)),
    ('col', 'mat 3', ('FormatError', 'line 1: expected header `col <N>`', 1)),
    ('col', 'col x', ('FormatError', 'line 1: expected header `col <N>`', 1)),
    ('col', 'col -1', ('FormatError', 'line 1: vertex count must be non-negative', 1)),
    ('col', 'col 0', ('ok', 'col 0\n', None)),
    ('col', 'col 1', ('ok', 'col 1\n', None)),
    ('col', 'col 2', ('FormatError', 'line 1: coloring is not total: 1 pairs missing', 1)),
    ('col', 'col 3\nc 1 2 R\nc 1 3 B', ('FormatError', 'line 3: coloring is not total: 1 pairs missing', 3)),
    ('col', 'col 3\nc 1 2 R\nc 1 3 B\n\n', ('FormatError', 'line 3: coloring is not total: 1 pairs missing', 3)),
    ('col', 'col 2\nc 1 2 R', ('ok', 'col 2\nc 1 2 R\n', None)),
    ('col', 'col 2\nc 2 1 B', ('ok', 'col 2\nc 1 2 B\n', None)),
    ('col', 'col 2\nc 1 2 G', ('FormatError', 'line 2: color must be R or B', 2)),
    ('col', 'col 2\nc 1 2 r', ('FormatError', 'line 2: color must be R or B', 2)),
    ('col', 'col 2\nc 1 2 RB', ('FormatError', 'line 2: color must be R or B', 2)),
    ('col', 'col 2\nc 1 1 R', ('FormatError', 'line 2: pair out of range for K_2', 2)),
    ('col', 'col 2\nc 1 3 R', ('FormatError', 'line 2: pair out of range for K_2', 2)),
    ('col', 'col 2\nc 0 1 R', ('FormatError', 'line 2: pair out of range for K_2', 2)),
    ('col', 'col 2\nc 1 5 G', ('FormatError', 'line 2: pair out of range for K_2', 2)),
    ('col', 'col 2\nc 1 2 R\nc 1 2 B', ('FormatError', 'line 3: duplicate pair (1,2)', 3)),
    ('col', 'col 2\nc 1 2 R\nc 2 1 R', ('FormatError', 'line 3: duplicate pair (1,2)', 3)),
    ('col', 'col 2\nc 1 2', ('FormatError', 'line 2: expected color line `c <i> <j> <R|B>`', 2)),
    ('col', 'col 2\nc 1 2 R B', ('FormatError', 'line 2: expected color line `c <i> <j> <R|B>`', 2)),
    ('col', 'col 2\nd 1 2 R', ('FormatError', 'line 2: expected color line `c <i> <j> <R|B>`', 2)),
    ('col', 'col 2\nc a 2 R', ('FormatError', 'line 2: expected color line `c <i> <j> <R|B>`', 2)),
    ('col', 'col 3\nc 1 2 X\nc 1 2 R', ('FormatError', 'line 2: color must be R or B', 2)),
    ('col', '\n col 2 \n\n\tc 1 2 R\n', ('ok', 'col 2\nc 1 2 R\n', None)),
    ('col', 'col 3\nc 2 3 R\nc 1 3 B\nc 1 2 R\n', ('ok', 'col 3\nc 1 2 R\nc 1 3 B\nc 2 3 R\n', None)),
    ('mat', '', ('FormatError', 'line 1: missing `mat` header', 1)),
    ('mat', 'mat', ('FormatError', 'line 1: expected header `mat <rows> <cols>`', 1)),
    ('mat', 'mat 2', ('FormatError', 'line 1: expected header `mat <rows> <cols>`', 1)),
    ('mat', 'mat 2 2 2', ('FormatError', 'line 1: expected header `mat <rows> <cols>`', 1)),
    ('mat', 'col 2 2', ('FormatError', 'line 1: expected header `mat <rows> <cols>`', 1)),
    ('mat', 'mat a 2', ('FormatError', 'line 1: expected header `mat <rows> <cols>`', 1)),
    ('mat', 'mat 0 2', ('FormatError', 'line 1: dimensions must be at least 1x1', 1)),
    ('mat', 'mat 2 0', ('FormatError', 'line 1: dimensions must be at least 1x1', 1)),
    ('mat', 'mat -1 2', ('FormatError', 'line 1: dimensions must be at least 1x1', 1)),
    ('mat', 'mat 1 1', ('FormatError', 'line 1: expected 1 row lines', 1)),
    ('mat', 'mat 2 2\n01', ('FormatError', 'line 2: expected 2 row lines', 2)),
    ('mat', 'mat 1 2\n01\n10', ('FormatError', 'line 3: expected 1 row lines', 3)),
    ('mat', 'mat 1 1\n1', ('ok', 'mat 1 1\n1\n', None)),
    ('mat', 'mat 2 2\n01\n12', ('FormatError', 'line 3: expected a row of 2 0/1 characters', 3)),
    ('mat', 'mat 2 2\n01\n1', ('FormatError', 'line 3: expected a row of 2 0/1 characters', 3)),
    ('mat', 'mat 2 2\n01\n100', ('FormatError', 'line 3: expected a row of 2 0/1 characters', 3)),
    ('mat', 'mat 2 3\n0 1\n101', ('FormatError', 'line 2: expected a row of 3 0/1 characters', 2)),
    ('mat', 'mat 2 2\n0 1\n10', ('FormatError', 'line 2: expected a row of 2 0/1 characters', 2)),
    ('mat', 'mat 1 3\n0x1', ('FormatError', 'line 2: expected a row of 3 0/1 characters', 2)),
    ('mat', 'mat 2 2\n 01 \n\n10\n', ('ok', 'mat 2 2\n01\n10\n', None)),
    ('mat', 'mat 2 2\n01\r\n10\r\n', ('ok', 'mat 2 2\n01\n10\n', None)),
    ('blocks', '', ('FormatError', 'line 1: empty blocks line', 1)),
    ('blocks', '\n \n', ('FormatError', 'line 1: empty blocks line', 1)),
    ('blocks', 'blocks', ('ok', 'blocks\n', None)),
    ('blocks', 'blocks 2 2\n', ('ok', 'blocks 2 2\n', None)),
    ('blocks', '  blocks at 3 2 2  \n', ('ok', 'blocks at 3 2 2\n', None)),
    ('blocks', 'blocks at 1 2', ('ok', 'blocks 2\n', None)),
    ('blocks', 'blocks at', ('FormatError', 'line 1: expected `at <start>`', 1)),
    ('blocks', 'blocks at x 2', ('FormatError', 'line 1: expected `at <start>`', 1)),
    ('blocks', 'blocks x', ('FormatError', 'line 1: block sizes must be integers', 1)),
    ('blocks', 'blocks 2 x', ('FormatError', 'line 1: block sizes must be integers', 1)),
    ('blocks', 'block 2', ('FormatError', 'line 1: expected `blocks ...`', 1)),
    ('blocks', '\n\nblocks x', ('FormatError', 'line 3: block sizes must be integers', 3)),  # fixed
    ('blocks', 'blocks 0', ('ValueError', 'blocks must be non-empty', None)),
    ('blocks', 'blocks -1', ('ValueError', 'blocks must be non-empty', None)),
    ('blocks', 'blocks 7', ('ValueError', 'block exceeds the vertex range', None)),
    ('blocks', 'blocks at 0 2', ('ValueError', 'blocks must be disjoint and left to right', None)),
    ('blocks', 'blocks 2 / inner 1 2', ('ok', 'blocks 2 / inner 1 2\n', None)),
    ('blocks', 'blocks 2 / inner 2 1 / outer 4 6', ('ok', 'blocks 2 / inner 2 1 / outer 4 6\n', None)),
    ('blocks', 'blocks/inner 1 2', ('ok', 'blocks / inner 1 2\n', None)),
    ('blocks', 'blocks 2 / inner 1', ('FormatError', 'line 1: expected `inner i j` or `outer i j`', 1)),
    ('blocks', 'blocks 2 / middle 1 2', ('FormatError', 'line 1: expected `inner i j` or `outer i j`', 1)),
    ('blocks', 'blocks 2 / inner a 2', ('FormatError', 'line 1: marker endpoints must be integers', 1)),
    ('blocks', 'blocks 2 / inner 1 3', ('ValueError', 'marker (1, 3) is not an edge', None)),
    ('blocks', 'blocks 2 /', ('FormatError', 'line 1: expected `inner i j` or `outer i j`', 1)),
    ('blocks', 'blocks 2 // inner 1 2', ('FormatError', 'line 1: expected `inner i j` or `outer i j`', 1)),
    # fixed: see the module docstring
    ('blocks', '/ inner 1 2', ('FormatError', 'line 1: expected `blocks ...`', 1)),
    ('blocks', 'blocks\nblocks 2', ('FormatError', 'line 2: expected a single `blocks` line', 2)),
    ('blocks', '\n  \nblock 2', ('FormatError', 'line 3: expected `blocks ...`', 3)),
    ('blocks', '\nblocks 2 / middle 1 2\n', ('FormatError', 'line 2: expected `inner i j` or `outer i j`', 2)),
    ('blocks', '\n\n\nblocks 2 / inner a 2', ('FormatError', 'line 4: marker endpoints must be integers', 4)),
]


def outcome(fmt, text):
    parse, serialize = READERS[fmt]
    try:
        obj = parse(text)
    except Exception as exc:
        return type(exc).__name__, str(exc), getattr(exc, "line", None)
    return "ok", serialize(obj), None


@pytest.mark.parametrize("fmt, text, expected", GOLDEN)
def test_reader_golden(fmt, text, expected):
    assert outcome(fmt, text) == expected


def test_blocks_sidecar_is_one_line():
    # a marker section on its own line was once merged into the first line
    assert outcome("blocks", "blocks 2 /\ninner 1 2") == (
        "FormatError", "line 2: expected a single `blocks` line", 2
    )


# ---------------------------------------------------------------------------
# the edge-list readers against the set-of-tuples reference reader
# ---------------------------------------------------------------------------

SPACES = [" ", " ", " ", "  ", "\t", "\xa0", "\x0c", "\u2003"]
BAD_TOKENS = ["x", "1.0", "_1", "1_", "--1", "", "e"]


def _token(gen, value: int) -> str:
    """`value` as text, now and then with a sign, a leading zero, a `_`
    between digits or an Arabic-Indic digit, all of which `int` accepts."""
    text = str(value)
    r = gen.random()
    if r < 0.04:
        return "+" + text
    if r < 0.07 and len(text) > 1 and text[0] != "-":
        return text[0] + "_" + text[1:]
    if r < 0.09:
        return "0" + text
    if r < 0.10 and value == 1:
        return "\u0661"
    return text


def _line(gen, tokens: list[str]) -> str:
    spaces = [gen.choice(SPACES) for _ in tokens]
    text = "".join(s + t for s, t in zip(spaces, tokens))
    return text if gen.random() < 0.5 else text.lstrip()


def random_edge_list_text(gen, tag: str) -> str:
    """Mostly well-formed `og`/`adj` text with, at a low rate per line,
    wrong token counts, bad tags or integers, reversed pairs, duplicates,
    self-loops, out-of-range endpoints, blank lines and CRLF endings."""
    n = gen.randint(0, 8)
    pairs = list(pair_iter(n))
    edges = gen.sample(pairs, gen.randint(0, len(pairs)))
    lines = []
    for i, j in edges:
        r = gen.random()
        if r < 0.03 and lines:
            i, j = gen.choice(edges[:len(lines)])  # duplicate
        elif r < 0.05:
            j = i  # self-loop
        elif r < 0.08:
            i, j = gen.choice([(0, j), (i, n + 1), (-1, j), (i, n + 2)])
        if gen.random() < 0.5:
            i, j = j, i
        tokens = ["e", _token(gen, i), _token(gen, j)]
        r = gen.random()
        if r < 0.02:
            tokens.pop(gen.randrange(3))
        elif r < 0.04:
            tokens.insert(gen.randrange(4), _token(gen, gen.randint(0, n)))
        elif r < 0.06:
            tokens[0] = gen.choice(["E", "f", "ee", "og", tag])
        elif r < 0.08:
            tokens[gen.randint(1, 2)] = gen.choice(BAD_TOKENS)
        lines.append(_line(gen, tokens))
    m = len(lines) + (gen.choice([-1, 1]) if gen.random() < 0.05 else 0)
    header = [tag, _token(gen, n), _token(gen, m)]
    r = gen.random()
    if r < 0.02:
        header[0] = gen.choice(["og", "adj", "OG", "e"])
    elif r < 0.04:
        header.append("0")
    elif r < 0.05:
        header[gen.randint(1, 2)] = gen.choice(BAD_TOKENS + ["-1"])
    lines.insert(0, _line(gen, header))
    for _ in range(gen.choice([0, 0, 0, 1, 2])):
        lines.insert(gen.randint(0, len(lines)), gen.choice(["", "  ", "\t", "\x0c"]))
    end = "\r\n" if gen.random() < 0.2 else "\n"
    return end.join(lines) + (end if gen.random() < 0.7 else "")


def _graph_outcome(parse, text):
    try:
        g = parse(text)
    except FormatError as exc:
        return "error", str(exc), exc.line
    return "ok", g.n, g.adj, g.edges


@pytest.mark.parametrize("tag, parse, reference", [
    ("og", parse_ordered_graph, reference_parse_ordered_graph),
    ("adj", parse_unordered_graph, reference_parse_unordered_graph),
], ids=["og", "adj"])
def test_edge_list_readers_match_the_reference_reader(tag, parse, reference):
    gen = random.Random(20261018)
    kinds = {"ok": 0, "error": 0}
    for _ in range(2000):
        text = random_edge_list_text(gen, tag)
        expected = _graph_outcome(reference, text)
        assert _graph_outcome(parse, text) == expected, text
        kinds[expected[0]] += 1
    assert min(kinds.values()) >= 400, kinds  # both outcomes well covered


# ---------------------------------------------------------------------------
# the whole-text fast path for serialized edge lists
# ---------------------------------------------------------------------------

def _spy_on_the_line_reader(monkeypatch) -> list[str]:
    """The texts passed to `core.parse_line_format` from now on."""
    calls = []
    real = core.parse_line_format

    def spy(text, *args):
        calls.append(text)
        return real(text, *args)

    monkeypatch.setattr(core, "parse_line_format", spy)
    return calls


def _join(head: str, lines: list[str]) -> str:
    return "\n".join([head, *lines]) + "\n"


def edge_list_mutations(gen, text: str) -> dict[str, str]:
    """Single mutations of a serialized edge list with at least two edges.
    The row mutations (a row is the run of lines `e <i> ...` for one i)
    appear only where the graph has the rows they need."""
    head, *lines = text[:-1].split("\n")
    tag, n, m = head.split(" ")
    k = gen.randrange(len(lines) - 1)
    other = gen.choice([x for x in range(len(lines)) if x != k])
    blank = gen.randint(0, len(lines))
    _, i, j = lines[k].split(" ")
    shuffled = gen.sample(lines, len(lines))
    rows = [list(row) for _, row in groupby(lines, key=lambda line: line.split(" ")[1])]
    long_rows = [r for r, row in enumerate(rows) if len(row) >= 2]

    def at_k(line: str) -> str:
        return _join(head, lines[:k] + [line] + lines[k + 1:])

    def with_rows(new_rows: list[list[str]]) -> str:
        return _join(head, [line for row in new_rows for line in row])

    mutations = {}
    if len(rows) >= 2:
        a, b = sorted(gen.sample(range(len(rows)), 2))
        mutations["rows swapped"] = with_rows(
            rows[:a] + [rows[b]] + rows[a + 1:b] + [rows[a]] + rows[b + 1:]
        )
        if long_rows:  # another row s between the two parts of row r
            r = gen.choice(long_rows)
            s = gen.choice([x for x in range(len(rows)) if x != r])
            cut = gen.randint(1, len(rows[r]) - 1)
            first, second = rows[r][:cut], rows[r][cut:]
            if s > r:
                split = rows[:r] + [first] + rows[r + 1:s + 1] + [second] + rows[s + 1:]
            else:
                split = rows[:s] + [first] + rows[s:r] + [second] + rows[r + 1:]
            mutations["row split"] = with_rows(split)
    if long_rows:
        r = gen.choice(long_rows)
        row = gen.sample(rows[r], len(rows[r]))
        if row == rows[r]:
            row.reverse()
        mutations["row shuffled"] = with_rows(rows[:r] + [row] + rows[r + 1:])
    return mutations | {
        "e i e i j": at_k(f"e {i} e {i} {j}"),
        "double space": at_k(gen.choice([f"e  {i} {j}", f"e {i}  {j}"])),
        "reversed pair": at_k(f"e {j} {i}"),
        "shuffled": _join(head, shuffled),
        "duplicate": at_k(lines[other]),
        "j = n+1": at_k(f"e {i} {int(n) + 1}"),
        "i = 0": at_k(f"e 0 {j}"),
        "self-loop": at_k(f"e {i} {i}"),
        "leading zero": at_k(f"e 0{i} {j}"),
        "plus": at_k(f"e {i} +{j}"),
        "tab": at_k(f"e\t{i} {j}"),
        "trailing space": at_k(f"e {i} {j} "),
        "crlf": text.replace("\n", "\r\n"),
        "no final newline": text[:-1],
        "blank line": _join(head, lines[:blank] + [""] + lines[blank:]),
        "token shift": _join(head, lines[:k] + [lines[k] + " e", lines[k + 1][2:]] + lines[k + 2:]),
        "header tag": _join(f"{'adj' if tag == 'og' else 'og'} {n} {m}", lines),
        "m - 1": _join(f"{tag} {n} {int(m) - 1}", lines),
        "m + 1": _join(f"{tag} {n} {int(m) + 1}", lines),
    }


@pytest.mark.parametrize("parse, serialize, reference", [
    (parse_ordered_graph, serialize_ordered_graph, reference_parse_ordered_graph),
    (parse_unordered_graph, serialize_unordered_graph, reference_parse_unordered_graph),
], ids=["og", "adj"])
def test_serialized_edge_lists_take_the_fast_path(monkeypatch, parse, serialize, reference):
    """Serialized graphs parse back as the reference reader parses them,
    without the line reader exactly when their (n + 1)^2 transpose fits in
    the text; single mutations of them give the reference reader's outcome,
    and one that only reorders the lines of a row stays on the fast path."""
    calls = _spy_on_the_line_reader(monkeypatch)
    gen = random.Random(20261019)
    graphs = [OrderedGraph(n) for n in (0, 1, 2, 60)] + [complete_graph(n) for n in (0, 1, 2, 60)]
    while len(graphs) < 1000:
        n, p = gen.randint(0, 60), gen.random()
        graphs.append(OrderedGraph(n, [e for e in pair_iter(n) if gen.random() < p]))
    seen = {"fast": 0, "line reader": 0, "mutated": 0}
    kinds = Counter()
    for g in graphs:
        text = serialize(g)
        fits = (g.n + 1) ** 2 <= len(text)
        calls.clear()
        expected = _graph_outcome(reference, text)
        assert expected == ("ok", g.n, g.adj, g.edges)
        assert _graph_outcome(parse, text) == expected, text
        assert calls == ([] if fits else [text]), text
        seen["fast" if fits else "line reader"] += 1
        if fits and g.m >= 2 and g.n <= 16:
            seen["mutated"] += 1
            for kind, mutated in edge_list_mutations(gen, text).items():
                calls.clear()
                assert _graph_outcome(parse, mutated) == _graph_outcome(reference, mutated), (
                    kind, mutated
                )
                if kind == "row shuffled":
                    assert calls == [], mutated
                kinds[kind] += 1
    assert min(seen.values()) >= 100, seen
    assert len(kinds) == 22 and min(kinds.values()) >= 50, kinds


def test_a_workload_sized_host_takes_the_fast_path_unless_shuffled(monkeypatch):
    # the embed benchmark's hosts: N = 240, edge probability 1/2
    gen = random.Random(20261021)
    g = OrderedGraph(240, [e for e in pair_iter(240) if gen.random() < 0.5])
    text = serialize_ordered_graph(g)
    calls = _spy_on_the_line_reader(monkeypatch)
    assert parse_ordered_graph(text) == reference_parse_ordered_graph(text) == g
    assert calls == []
    head, *lines = text[:-1].split("\n")
    shuffled = _join(head, gen.sample(lines, len(lines)))
    assert parse_ordered_graph(shuffled) == g
    assert calls == [shuffled]


def test_the_fast_path_grid_is_bounded_by_the_text(monkeypatch):
    # a 25 MB transpose for 10 and 16 bytes of text: the line reader reads these
    texts = ["og 5000 0\n", "og 5000 1\ne 1 2\n"]
    calls = _spy_on_the_line_reader(monkeypatch)
    for text in texts:
        assert _graph_outcome(parse_ordered_graph, text) == _graph_outcome(
            reference_parse_ordered_graph, text
        )
    assert calls == texts


@pytest.mark.parametrize("text", [
    "og -1 0\n",
    "og 2 1\ne 1\n2 1",  # every count holds but the final newline
    "og 2 1\ne 1\n2\n",  # a newline inside the line
    "og 2 1\ne 1 2 1 1 2\n",  # two lines' tokens on one line
    "og 3 2\ne 2 3\ne 1 3\n",  # rows out of order
    "og 4 3\ne 1 2\ne 2 3\ne 1 3\n",  # a row split by another
    "og 4 3\ne 1 2\ne 2 3\ne 1 2\n",  # a split row repeating an edge
    "og 3 2\ne 1 3\ne 1 2\n",  # the lines of a row out of order
    "og 3 1\ne 1 e 1 2\n",  # `e i e i j`
    "og 3 2\ne 1  2\ne 1 3\n",  # a double space
    "og 3 2\ne 1 \ne 1 3\n",  # an empty endpoint
    "og 3 2\ne 3 1\ne 3 2\n",  # a row at i = n
])
def test_near_misses_of_the_fast_path_give_the_line_readers_outcome(text):
    assert _graph_outcome(parse_ordered_graph, text) == _graph_outcome(
        reference_parse_ordered_graph, text
    )
