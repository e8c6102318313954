"""The flat graph compile and the set-collecting parser, against oracles.

:class:`~repro.engine.indexed.IndexedGraph` compiles a db-graph by
sorting one integer key per edge and direction.  The oracle below is
the per-vertex compile it replaced: every vertex's out- and in-edges
sorted by ``repr``, then flattened.  Both must give the same vertex
and label tables, the same edge count and all six arrays, element for
element — on drawn graphs whose vertex reprs and labels stress the
order argument in the module docstring, and on the three benchmark
graphs.

:func:`~repro.graphs.io.loads` collects a text's records into a vertex
set and an edge set; the oracle is the line loop it replaced, which
added each record to a :class:`DbGraph` one call at a time.
"""

import random
from itertools import accumulate, chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perfbench import inputs
from repro.engine.indexed import IndexedGraph
from repro.errors import GraphError
from repro.graphs import io as graph_io
from repro.graphs.dbgraph import DbGraph

ARRAY_NAMES = (
    "out_indptr", "out_labels", "out_targets",
    "in_indptr", "in_labels", "in_sources",
)


# -- the per-vertex compile ---------------------------------------------------------


def _flat_adjacency(vertex_of, pairs_of, label_ids, id_of):
    """One CSR of ``pairs_of(vertex)``: ``(indptr, label ids, other ids)``."""
    rows = list(map(pairs_of, vertex_of))
    pairs = list(chain.from_iterable(rows))
    return (
        [0, *accumulate(map(len, rows))],
        [label_ids[label] for label, _other in pairs],
        [id_of[other] for _label, other in pairs],
    )


def per_vertex_compile(graph):
    """``(vertices, labels, num_edges, arrays)`` by per-vertex repr sorts."""
    vertex_of = tuple(graph.vertices())
    id_of = {vertex: index for index, vertex in enumerate(vertex_of)}
    label_of = tuple(sorted(graph.labels()))
    label_ids = {label: index for index, label in enumerate(label_of)}
    out_indptr, out_labels, out_targets = _flat_adjacency(
        vertex_of, lambda vertex: sorted(graph.out_edges(vertex), key=repr),
        label_ids, id_of,
    )
    in_indptr, in_labels, in_sources = _flat_adjacency(
        vertex_of, lambda vertex: sorted(graph.in_edges(vertex), key=repr),
        label_ids, id_of,
    )
    arrays = dict(zip(ARRAY_NAMES, (
        out_indptr, out_labels, out_targets,
        in_indptr, in_labels, in_sources,
    )))
    return vertex_of, label_of, graph.num_edges, arrays


def assert_compiles_alike(graph):
    vertex_of, label_of, num_edges, arrays = per_vertex_compile(graph)
    compiled = IndexedGraph(graph)
    assert tuple(compiled.vertices()) == vertex_of
    assert tuple(
        compiled.label_at(index) for index in range(compiled.num_labels)
    ) == label_of
    assert compiled.num_edges == num_edges
    for name in ARRAY_NAMES:
        assert list(getattr(compiled, name)) == arrays[name], name


# -- drawn graphs ---------------------------------------------------------------------

#: Characters that sort below ``)`` in a repr, quotes and backslashes.
_TRICKY = " !\"#$%&'()\\"
_NAMES = st.text(alphabet=_TRICKY + "ab\n\x0b", max_size=4)
#: ``==``-distinct vertices only: no bools, no integral or signed-zero
#: floats beside the ints, no NaN.
_VERTICES = st.one_of(
    _NAMES,
    st.integers(min_value=-120, max_value=120),
    st.integers(min_value=-40, max_value=40).map(lambda k: k + 0.5),
    st.just(None),
    st.tuples(st.integers(min_value=-3, max_value=3), _NAMES),
    st.tuples(st.integers(min_value=-3, max_value=3)),
)
_LABELS = st.sampled_from(["'", "\\", "!", '"', "a", "b", "(", "\n", "é"])


@st.composite
def db_graphs(draw):
    vertices = draw(st.lists(_VERTICES, min_size=1, max_size=14))
    vertex = st.sampled_from(vertices)
    edges = draw(st.lists(
        st.tuples(vertex, _LABELS, vertex), max_size=40
    ))
    graph = DbGraph.from_edges(edges)
    for isolated in draw(st.lists(vertex, max_size=3)):
        graph.add_vertex(isolated)
    return graph


class TestFlatCompile:
    @given(db_graphs())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_per_vertex_compile(self, graph):
        assert_compiles_alike(graph)

    @given(st.lists(
        st.tuples(_NAMES.map("v{}".format), _LABELS,
                  _NAMES.map("v{}".format)),
        max_size=30,
    ))
    @settings(max_examples=150, deadline=None)
    def test_matches_on_parsed_text_graphs(self, edges):
        # The text format's names: no whitespace, any punctuation.
        text = "".join(
            "e %s %s %s\n" % edge for edge in edges
            if not any(ch.isspace() for ch in "".join(edge))
        )
        assert_compiles_alike(graph_io.loads(text))

    def test_label_rank_differs_from_label_id(self):
        # repr("'") is "'" in double quotes, which sort before the
        # single quote every other label's repr starts with, so "'"
        # ranks first although its id sorts after "!".
        graph = DbGraph.from_edges(
            [(0, "!", 1), (0, "'", 1), (0, "a", 2), (1, "'", 0)]
        )
        compiled = IndexedGraph(graph)
        assert compiled.label_id("!") < compiled.label_id("'")
        assert [compiled.label_at(label_id)
                for label_id, _target in compiled.out(0)] == ["'", "!", "a"]
        assert_compiles_alike(graph)

    def test_empty_and_edgeless_graphs(self):
        assert_compiles_alike(DbGraph())
        graph = DbGraph()
        graph.add_vertex("lonely")
        assert_compiles_alike(graph)

    @pytest.mark.parametrize("workload", [
        "point-pool", "batch-sweep", "adhoc-register",
    ])
    def test_matches_on_the_benchmark_graphs(self, workload):
        text = {
            "point-pool": lambda: inputs.community_graph_text(
                random.Random(inputs.POOL_SEED)
            ),
            "batch-sweep": lambda: inputs.batch_sweep(1, 1).graphs["g"],
            "adhoc-register": lambda: inputs.random_graph_text(
                random.Random(1), inputs.ROUND_VERTICES, inputs.ROUND_EDGES
            ),
        }[workload]()
        assert_compiles_alike(graph_io.loads(text))


# -- the line loop ---------------------------------------------------------------------


def line_loop_loads(text):
    """The record-at-a-time parser: one DbGraph call per record."""
    graph = DbGraph()
    for line_number, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if fields[0] == "v" and len(fields) == 2:
            graph.add_vertex(fields[1])
        elif fields[0] == "e" and len(fields) == 4:
            source, label, target = fields[1], fields[2], fields[3]
            if len(label) != 1:
                raise GraphError(
                    "line %d: label %r is not a single symbol"
                    % (line_number, label)
                )
            graph.add_edge(source, label, target)
        else:
            raise GraphError(
                "line %d: unrecognised record %r" % (line_number, raw_line)
            )
    return graph


def parse_outcome(parse, text):
    try:
        graph = parse(text)
    except GraphError as err:
        return "error", str(err)
    return (
        list(graph.vertices()), sorted(graph.edges()),
        sorted(graph.labels()), graph.num_vertices, graph.num_edges,
    )


def assert_parses_alike(text):
    expected = parse_outcome(line_loop_loads, text)
    assert parse_outcome(graph_io.loads, text) == expected
    return expected


class TestParser:
    @pytest.mark.parametrize("text", [
        "e s a t\r\ne t b u\r\n",
        "e\ts\ta\tt\n\t e  t  b\tu \n",
        "  # indented comment\n\t#tabbed\ne s a t\n#e x y z\n",
        "e s a t\x0be t b u\x1ce u c s\u2028v w\x85e w a s\n",
        "e s a t\ne s a t\ne s a t\n",
        "v s\nv t\ne s a t\nv lonely\nv s\n",
        "",
        "\n\n   \n",
        "e # a b\ne s ' t\ne s \\ t\n",
    ])
    def test_matches_the_line_loop(self, text):
        assert assert_parses_alike(text)[0] != "error"

    @pytest.mark.parametrize("text,message", [
        ("e s a t\r\n\r\ne s ab t\n",
         "line 3: label 'ab' is not a single symbol"),
        ("v s\n# fine\nv s t\n",
         "line 3: unrecognised record 'v s t'"),
        ("e s a t\x0be s a\n",
         "line 2: unrecognised record 'e s a'"),
        ("e s a t\u2028  nonsense  \n",
         "line 2: unrecognised record '  nonsense  '"),
        ("x\n", "line 1: unrecognised record 'x'"),
    ])
    def test_errors_name_the_line(self, text, message):
        assert assert_parses_alike(text) == ("error", message)

    @given(st.lists(st.one_of(
        st.sampled_from(["e", "v", "#", "x", "ab", "a", "b", "#c"]),
        st.sampled_from([" ", "\t", "\r\n", "\n", "\x0b", "\u2028", "  "]),
    ), max_size=30))
    @settings(max_examples=300, deadline=None)
    def test_drawn_texts_match_the_line_loop(self, pieces):
        assert_parses_alike("".join(pieces))
