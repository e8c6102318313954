"""GraphView — the integer-native read layer under the solver cores.

The three solver cores (finite / tractable / exact) spend their hot
loops asking the same three questions: *what are this vertex's
labelled out-edges?  who points at it, under which labels?  have I
visited it?*  A :class:`GraphView` answers them in
integers: vertices carry contiguous ids ``0..n-1`` assigned in the
graph's deterministic (repr-sorted) order, labels carry ids ``0..L-1``
in sorted order, and label *sets* become bitmasks — so a visited set
is a flat ``bytearray`` index, a label-class test is one
shift-and-mask, and a DFA transition is a list lookup.

The one implementation is the compiled graph,
:class:`~repro.engine.indexed.IndexedGraph`: one frozen int64 CSR
per direction, built by a compile, copied from a snapshot, or mapped
from one.  Every solve
walks it.  :class:`~repro.engine.QueryEngine` (and therefore every
batch and HTTP-served query) compiles its own; a direct solve on a
:class:`~repro.graphs.dbgraph.DbGraph` walks the graph's memoised
compile (``DbGraph.view()``, recompiled after a mutation).  Adjacency
iterates in the repr order every solver historically sorted into —
grouped by label in rank order, ascending ids inside a label — so a
label-restricted read filters a vertex's edges and keeps that order,
and a solve returns the same path on every copy of a graph, whether
compiled, loaded or attached.

:func:`as_graph_view` is the solvers' entry point: it returns a view
unchanged and asks anything else for its ``view()``.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from ..errors import GraphError
from .dbgraph import Path


class GraphView:
    """Abstract integer-native graph view (see module docstring).

    Subclasses provide ``_vertex_of`` / ``_id_of`` (vertex tables),
    ``_label_of`` / ``_label_ids`` (label tables), the adjacency
    methods ``out`` and ``in_pairs`` over the ``out_*`` and ``in_*``
    CSR arrays, and ``reachability()``, the graph's
    :class:`~repro.graphs.reach.ReachabilityIndex`.  Vertex
    ids follow the repr-sorted vertex order; label ids follow sorted
    label order; adjacency iterates in the repr order every solver
    historically sorted into.
    """

    #: Subclass contract: the id tables behind the generic accessors...
    _vertex_of: Sequence[Any]
    _id_of: dict[Any, int]
    _label_of: Sequence[str]
    _label_ids: dict[str, int]
    #: ...and the CSR of each direction, which the vectorized sweep,
    #: the exact search and the walk check walk by index.
    out_indptr: Sequence[int]
    out_labels: Sequence[int]
    out_targets: Sequence[int]
    in_indptr: Sequence[int]
    in_labels: Sequence[int]
    in_sources: Sequence[int]

    # -- id tables ---------------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return len(self._vertex_of)

    @property
    def num_labels(self) -> int:
        return len(self._label_of)

    def vertex_id(self, vertex: Any) -> int:
        """The contiguous int id of ``vertex`` (GraphError if unknown)."""
        try:
            return self._id_of[vertex]
        except KeyError:
            raise GraphError("unknown vertex %r" % (vertex,)) from None

    def vertex_at(self, vertex_id: int) -> Any:
        """The vertex carrying id ``vertex_id``."""
        return self._vertex_of[vertex_id]

    def label_id(self, label: str) -> int | None:
        """The int id of ``label``, or ``None`` when no edge carries it."""
        return self._label_ids.get(label)

    def label_at(self, label_id: int) -> str:
        return self._label_of[label_id]

    def label_mask(self, symbols: Iterable[str]) -> int:
        """Bitmask over label ids for a set of label strings.

        Symbols that label no edge contribute no bit — a class test
        against the mask then fails exactly like the string-set test
        used to.
        """
        mask = 0
        label_ids = self._label_ids
        for symbol in symbols:
            label_id = label_ids.get(symbol)
            if label_id is not None:
                mask |= 1 << label_id
        return mask

    def word_label_ids(self, word: Iterable[str]) -> tuple[int | None, ...]:
        """Per-letter label ids; ``None`` marks a letter with no edges."""
        label_ids = self._label_ids
        return tuple(label_ids.get(symbol) for symbol in word)

    def path(self, vertex_ids: Sequence[int],
             label_ids: Sequence[int]) -> Path:
        """Materialise an id-path back into a named :class:`Path`."""
        vertex_of = self._vertex_of
        label_of = self._label_of
        return Path(
            tuple(vertex_of[vertex_id] for vertex_id in vertex_ids),
            tuple(label_of[label_id] for label_id in label_ids),
        )


def as_graph_view(graph: Any) -> GraphView:
    """The :class:`GraphView` for ``graph`` (identity when already one).

    A compiled :class:`~repro.engine.indexed.IndexedGraph` is already a
    view; a ``DbGraph`` hands over its memoised compile (``view()``).
    Anything else is not a graph the solvers can walk.
    """
    if isinstance(graph, GraphView):
        return graph
    viewer = getattr(graph, "view", None)
    if viewer is None:
        raise GraphError(
            "cannot solve on a %s: it is not a GraphView and has no "
            "view()" % (type(graph).__name__,)
        )
    return viewer()
