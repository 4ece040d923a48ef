"""The record types: equality, hashing, field defaults, immutability, and the
argument checks of the records that validate their fields."""

import re
from fractions import Fraction

import pytest

from orl.constructions import BlockedOrderedGraph, TwoRegularSpec
from orl.core import Coloring, Embedding, OrderedGraph
from orl.embedder import PipelineResult
from orl.patterns import BinaryMatrix, UnavoidabilityReport
from orl.ramsey import MinMaxReport, RamseyResult, RegularCountReport, SearchStats
from orl.stochastic import AvoidanceReport, AvoidanceTrial, CoverageTrial, PairSetQuery

PATH = OrderedGraph(3, [(1, 2), (2, 3)])


def _ramsey_result(v):
    return RamseyResult(PATH, 3 + v, False, Coloring(2, "R"), None)


# name -> (build(v): equal records for equal v, unequal for v = 0 and 1;
#          a field of the record, or None for the mutable SearchStats)
RECORDS = {
    "Embedding": (lambda v: Embedding(3, (1, 2, 3 + v)), "image"),
    "BlockedOrderedGraph": (
        lambda v: BlockedOrderedGraph(PATH, ((1, 2), (3,))[:1 + v], inner_edge=(1, 2)),
        "blocks",
    ),
    "TwoRegularSpec": (lambda v: TwoRegularSpec((3, 4 + v)), "cycle_lengths"),
    "PipelineResult": (
        lambda v: PipelineResult(Embedding(3, (1, 2, 3 + v)), None), "embedding"),
    "UnavoidabilityReport": (
        lambda v: UnavoidabilityReport(
            False, True, BinaryMatrix([[1, v], [0, 1]]), BinaryMatrix([[0, 1], [1, 0]])),
        "holds",
    ),
    "RamseyResult": (_ramsey_result, "value"),
    "MinMaxReport": (lambda v: MinMaxReport(PATH, (((1, 2, 3), _ramsey_result(v)),)), "results"),
    "RegularCountReport": (lambda v: RegularCountReport(Fraction(3), 4, 1 + v, None), "exact_count"),
    "PairSetQuery": (
        lambda v: PairSetQuery((frozenset({1}),), (frozenset({3 + v}),), ((1, 1),)), "T"),
    "CoverageTrial": (lambda v: CoverageTrial(7, 2, 3, 1 + v), "covered_pairs"),
    "AvoidanceTrial": (lambda v: AvoidanceTrial(0, 7, bool(v)), "avoided"),
    "AvoidanceReport": (
        lambda v: AvoidanceReport(PATH, 2, 1, (AvoidanceTrial(0, 7, bool(v)),), None),
        "trials",
    ),
    "SearchStats": (lambda v: SearchStats(v, 0), None),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_equality_and_hash(name):
    build, field = RECORDS[name]
    a, b, other = build(0), build(0), build(1)
    assert a is not b
    assert a == b and not a != b
    assert a != other and not a == other
    if field is None:  # mutable counters are not hashable
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)


@pytest.mark.parametrize("name", sorted(n for n, (_, field) in RECORDS.items() if field))
def test_record_fields_cannot_be_assigned(name):
    build, field = RECORDS[name]
    record = build(0)
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(build(1), field))
    assert record == build(0)


def test_record_field_defaults():
    report = UnavoidabilityReport(True, False)
    assert report.counterexample_matrix is None and report.counterexample_pattern is None
    blocked = BlockedOrderedGraph(PATH, ((1, 2),))
    assert blocked.inner_edge is None and blocked.outer_edge is None
    # `orl construct` tells a blocked graph from quadlb's (graph, coloring) pair
    assert not isinstance(blocked, tuple)
    stats = SearchStats()
    assert (stats.nodes, stats.prunes) == (0, 0)
    stats.nodes += 3
    stats.prunes += 1
    assert stats == SearchStats(3, 1)


@pytest.mark.parametrize("build, message", [
    (lambda: Embedding(2, (1, 2, 3)), "image length must equal the pattern size"),
    (lambda: Embedding(3, (1, 3, 3)), "image must be strictly increasing"),
    (lambda: Embedding(3, (2, 1, 3)), "image must be strictly increasing"),
    (lambda: Embedding(2, (0, 1)), "host positions are 1-based"),
    (lambda: BlockedOrderedGraph(PATH, ((1,), ())), "blocks must be non-empty"),
    (lambda: BlockedOrderedGraph(PATH, ((1, 3),)),
     "each block must be a run of consecutive positions"),
    (lambda: BlockedOrderedGraph(PATH, ((2, 3), (1,))),
     "blocks must be disjoint and left to right"),
    (lambda: BlockedOrderedGraph(PATH, ((1, 2), (2, 3))),
     "blocks must be disjoint and left to right"),
    (lambda: BlockedOrderedGraph(PATH, ((3, 4),)), "block exceeds the vertex range"),
    (lambda: BlockedOrderedGraph(PATH, (), inner_edge=(1, 3)), "marker (1, 3) is not an edge"),
    (lambda: BlockedOrderedGraph(PATH, (), outer_edge=(3, 1)), "marker (3, 1) is not an edge"),
    (lambda: TwoRegularSpec(()), "at least one cycle is required"),
    (lambda: TwoRegularSpec([]), "at least one cycle is required"),
    (lambda: TwoRegularSpec((3, 2)), "every cycle length must be at least 3"),
])
def test_record_argument_checks(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_record_accepted_arguments():
    assert BlockedOrderedGraph(PATH, (), outer_edge=(2, 1)).outer_edge == (2, 1)
    assert Embedding(0, ()).image == ()
    spec = TwoRegularSpec([3, 4])
    assert spec.cycle_lengths == (3, 4) and type(spec.cycle_lengths) is tuple
    assert spec == TwoRegularSpec((3, 4)) and spec.total == 7
