"""The README "Library layout" names only what the package defines, its
"Command line" examples parse, and the "Selected exact values" table holds
what the package computes."""

import importlib
import re
import shlex
from fractions import Fraction
from pathlib import Path

import pytest

from orl.cli import EXIT_OK, build_parser, dispatch
from orl.core import OrderedGraph, parse_unordered_graph
from orl.ramsey import count_rho_regular, ordered_ramsey

README = Path(__file__).resolve().parents[1] / "README.md"

# backticked words in the bullets that are file-format tags or a value, not names
NOT_NAMES = {"og", "adj", "col", "mat", "None"}


def layout_bullets() -> list[tuple[str, list[str]]]:
    """(module, backticked dotted names) of each "Library layout" bullet; the
    module is the bullet's first backticked name. A backticked `.attr` (an
    attribute of a returned value) is not a name and is left out."""
    section = README.read_text(encoding="utf-8").split("## Library layout", 1)[1]
    section = section.split("\n## ", 1)[0]
    bullets = re.split(r"^\* ", section, flags=re.MULTILINE)[1:]
    out = []
    for bullet in bullets:
        module, *names = re.findall(r"`([A-Za-z_]\w*(?:\.\w+)*)`", bullet)
        out.append((module, [name for name in names if name not in NOT_NAMES]))
    return out


BULLETS = layout_bullets()


def test_readme_layout_lists_every_module():
    modules = [module for module, _ in BULLETS]
    assert modules == ["orl.core", "orl.constructions", "orl.embedder", "orl.ramsey",
                       "orl.stochastic", "orl.patterns", "orl.cli"]


@pytest.mark.parametrize("module, names", BULLETS, ids=[module for module, _ in BULLETS])
def test_readme_layout_names_resolve(module, names):
    obj = importlib.import_module(module)
    missing = []
    for name in names:
        target = obj
        for part in name.split("."):
            target = getattr(target, part, None)
        if target is None:
            missing.append(name)
    assert names and not missing, f"{module} does not define {missing}"


def command_examples() -> list[list[str]]:
    """argv of each `orl ...` line in the "Command line" code block, with
    continuation lines joined and `#` comments removed."""
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = section.split("```\n", 2)[1].replace("\\\n", " ")
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    return [argv for argv in lines if argv[:1] == ["orl"]]


def test_readme_command_examples_parse():
    examples = command_examples()
    assert examples
    parser = build_parser()
    for argv in examples:
        try:
            parser.parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README example does not parse: {shlex.join(argv)}")


def test_readme_adj_round_trip_runs(tmp_path, monkeypatch, capsys):
    # the examples that write an `adj` file run first, then those that read it
    examples = [argv[1:] for argv in command_examples() if any(a.endswith(".adj") for a in argv)]
    writers = [argv for argv in examples if "-o" in argv]
    readers = [argv for argv in examples if "-o" not in argv]
    assert [argv[:2] for argv in writers] == [["sample", "regular"]]
    assert sorted(argv[:2] for argv in readers) == [["experiment", "coverage"],
                                                    ["ramsey", "minmax"]]
    monkeypatch.chdir(tmp_path)
    for argv in writers + readers:
        assert dispatch(argv) == EXIT_OK, shlex.join(argv)
    graph = parse_unordered_graph((tmp_path / "r.adj").read_text())
    assert graph.n == 4 and graph.m == 2
    # a perfect matching on 4 vertices: its crossing ordering is the easiest
    out = capsys.readouterr().out
    assert "minr 5\nmaxr 6\n" in out and '"summary": "min_covered"' in out


def value_rows() -> list[tuple[str, int]]:
    """(quantity, value) of each row of the "Selected exact values" table;
    every row below the header parses."""
    section = README.read_text(encoding="utf-8").split("## Selected exact values", 1)[1]
    lines = [line for line in section.split("\n") if line.startswith("| ")][2:]
    rows = [re.fullmatch(r"\| (.+) \| (\d+) \|", line) for line in lines]
    assert rows and all(rows), lines
    return [(row[1], int(row[2])) for row in rows]


VALUE_ROWS = value_rows()


@pytest.mark.parametrize("quantity, value", VALUE_ROWS, ids=[q for q, _ in VALUE_ROWS])
def test_readme_exact_value_is_recomputed(quantity, value):
    regular = re.fullmatch(r"labeled (\S+)-regular graphs on (\d+) vertices", quantity)
    if regular:
        rho, n = Fraction(regular[1].strip("()")), int(regular[2])
        assert count_rho_regular(rho, n).exact_count == value
        return
    # every other row is an ordered Ramsey number of the pattern whose edges
    # it names as `{i,j},...`
    (edge_list,) = re.findall(r"`(\{\d+,\d+\}(?:,\{\d+,\d+\})*)`", quantity)
    edges = [tuple(map(int, e)) for e in re.findall(r"\{(\d+),(\d+)\}", edge_list)]
    result = ordered_ramsey(OrderedGraph(max(map(max, edges)), edges), value)
    assert result.exact and result.value == value
