"""Graph-database substrate: db-graphs, vl/evl graphs, generators, IO.

Searches over the product of a graph with a query automaton live in
:mod:`repro.core.product`, on the :class:`GraphView` this package
defines.
"""

from .dbgraph import DbGraph, Path
from .view import GraphView, as_graph_view
from .vlgraph import EvlGraph, VlGraph
from . import generators, io

__all__ = [
    "DbGraph",
    "EvlGraph",
    "GraphView",
    "Path",
    "VlGraph",
    "as_graph_view",
    "generators",
    "io",
]
