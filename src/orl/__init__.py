"""orl: ordered-graph Ramsey constructions, searches, and certificates."""

from orl.core import (
    BLUE,
    Coloring,
    Embedding,
    FormatError,
    OrderedGraph,
    RED,
    complete_graph,
    contains,
    interval_chromatic_number,
    parse_coloring,
    parse_ordered_graph,
    parse_unordered_graph,
    serialize_coloring,
    serialize_ordered_graph,
    serialize_unordered_graph,
)

__version__ = "0.1.0"
