"""Snapshot persistence: exact round-trips, versioning, corruption.

The warm-start contract: a thawed :class:`IndexedGraph` must be
indistinguishable from the compiled original — same vertices in the
same order, same adjacency, same CSR reads, same solver answers path
for path — and a damaged snapshot must fail loudly with
:class:`SnapshotError`, never produce a silently wrong graph.
"""

import hashlib
import struct
from array import array

import pytest

from repro.core.solver import solve_rspq
from repro.engine import IndexedGraph, QueryEngine
from repro.errors import SnapshotError
from repro.graphs.dbgraph import DbGraph
from repro.graphs.generators import labeled_cycle, random_labeled_graph
from repro.service.snapshot import (
    FORMAT_VERSION,
    MAGIC,
    attach_snapshot,
    load_snapshot,
    save_snapshot,
    snapshot_info,
)

#: The six adjacency arrays a compiled graph holds (manifest names).
ADJACENCY_ARRAYS = (
    "out_indptr", "out_labels", "out_targets",
    "in_indptr", "in_labels", "in_sources",
)


def _file_bytes(path):
    with open(path, "rb") as handle:
        return handle.read()


@pytest.fixture
def graph():
    return random_labeled_graph(25, 80, "abc", seed=3)


@pytest.fixture
def snap_path(tmp_path, graph):
    path = str(tmp_path / "graph.snap")
    save_snapshot(IndexedGraph(graph), path)
    return path


class TestRoundTrip:
    def test_structure_is_identical(self, graph, snap_path):
        original = IndexedGraph(graph)
        thawed = load_snapshot(snap_path)
        assert list(thawed.vertices()) == list(original.vertices())
        assert list(thawed.to_dbgraph().edges()) == list(graph.edges())
        assert thawed.num_vertices == original.num_vertices
        assert thawed.num_edges == original.num_edges
        assert thawed.labels() == original.labels()

    def test_adjacency_reads_are_identical(self, graph, snap_path):
        original = IndexedGraph(graph)
        thawed = load_snapshot(snap_path)
        for vertex_id in range(original.num_vertices):
            assert thawed.out(vertex_id) == original.out(vertex_id)
            assert thawed.in_pairs(vertex_id) == original.in_pairs(vertex_id)

    @pytest.mark.parametrize("reopen", [load_snapshot, attach_snapshot],
                             ids=["load", "attach"])
    def test_edgeless_graph_round_trips(self, tmp_path, reopen):
        # Empty id arrays: the range check has no entry to take a max of.
        graph = DbGraph()
        graph.add_vertex("x")
        graph.add_vertex(7)
        path = str(tmp_path / "edgeless.snap")
        save_snapshot(IndexedGraph(graph), path)
        thawed = reopen(path)
        assert list(thawed.vertices()) == list(graph.vertices())
        assert thawed.num_edges == 0
        for vertex_id in range(thawed.num_vertices):
            assert tuple(thawed.out(vertex_id)) == ()
            assert tuple(thawed.in_pairs(vertex_id)) == ()

    def test_vertex_types_survive(self, tmp_path):
        graph = DbGraph.from_edges(
            [(0, "a", "one"), ("one", "b", 2), (2, "a", 0)]
        )
        path = str(tmp_path / "mixed.snap")
        save_snapshot(IndexedGraph(graph), path)
        thawed = load_snapshot(path)
        # int 0 and str "one" come back with their exact types.
        assert list(thawed.vertices()) == list(IndexedGraph(graph).vertices())
        assert thawed.has_vertex(0)
        assert thawed.has_vertex("one")
        assert not thawed.has_vertex("0")

    def test_solver_answers_are_path_identical(self, graph, snap_path):
        cold = QueryEngine(IndexedGraph(graph))
        warm = QueryEngine(load_snapshot(snap_path))
        queries = [
            ("a*(bb^+ + eps)c*", 0, 5),
            ("ab + ba", 1, 7),
            ("a*ba*", 2, 9),
            ("c*", 3, 11),
        ]
        for regex, source, target in queries:
            one = cold.query(regex, source, target)
            other = warm.query(regex, source, target)
            assert one.found == other.found
            assert one.strategy == other.strategy
            if one.path is None:
                assert other.path is None
            else:
                assert one.path.vertices == other.path.vertices
                assert one.path.word == other.path.word

    def test_has_edge_and_is_path_on_thawed_graph(self, graph, snap_path):
        back = load_snapshot(snap_path).to_dbgraph()
        edge = next(iter(graph.edges()))
        assert back.has_edge(*edge)
        assert not back.has_edge(edge[0], "z", edge[2])
        path = solve_rspq("a*", graph, 0, 1).path
        if path is not None:
            assert back.is_path(path)

    def test_cycle_graph_roundtrip(self, tmp_path):
        graph = labeled_cycle("abcab")
        path = str(tmp_path / "cycle.snap")
        save_snapshot(IndexedGraph(graph), path)
        thawed = load_snapshot(path)
        assert list(thawed.to_dbgraph().edges()) == list(graph.edges())

    def test_save_accepts_raw_dbgraph(self, tmp_path, graph):
        path = str(tmp_path / "raw.snap")
        save_snapshot(graph, path)  # compiled internally
        assert load_snapshot(path).num_edges == graph.num_edges

    def test_info_reads_header_only(self, graph, snap_path):
        info = snapshot_info(snap_path)
        assert info["format_version"] == FORMAT_VERSION
        assert info["num_vertices"] == graph.num_vertices
        assert info["num_edges"] == graph.num_edges
        assert info["labels"] == ["a", "b", "c"]


class TestFailureModes:
    def test_missing_file(self, tmp_path):
        with pytest.raises(SnapshotError, match="does not exist"):
            load_snapshot(str(tmp_path / "nope.snap"))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.snap"
        path.write_bytes(b"")
        with pytest.raises(SnapshotError, match="empty"):
            load_snapshot(str(path))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.snap"
        path.write_bytes(b"NOTASNAP" + b"\x00" * 64)
        with pytest.raises(SnapshotError, match="bad magic"):
            load_snapshot(str(path))

    def test_unsupported_version(self, tmp_path, snap_path):
        data = bytearray(_file_bytes(snap_path))
        data[8:12] = struct.pack("<I", FORMAT_VERSION + 1)
        path = tmp_path / "future.snap"
        path.write_bytes(bytes(data))
        with pytest.raises(SnapshotError, match="format version"):
            load_snapshot(str(path))

    def test_truncated_arrays(self, tmp_path, snap_path):
        data = _file_bytes(snap_path)
        path = tmp_path / "trunc.snap"
        path.write_bytes(data[:-16])
        with pytest.raises(SnapshotError):
            load_snapshot(str(path))

    def test_flipped_payload_bit_fails_checksum(self, tmp_path, snap_path):
        data = bytearray(_file_bytes(snap_path))
        data[-5] ^= 0xFF  # inside the array section
        path = tmp_path / "rot.snap"
        path.write_bytes(bytes(data))
        with pytest.raises(SnapshotError, match="checksum"):
            load_snapshot(str(path))

    def test_header_bit_rot_fails_checksum_even_when_json_stays_valid(
        self, tmp_path
    ):
        # A flipped character inside a vertex name keeps the header
        # perfectly parseable — only the payload checksum can catch it.
        graph = DbGraph.from_edges([("alpha", "a", "beta")])
        path = tmp_path / "named.snap"
        save_snapshot(IndexedGraph(graph), str(path))
        data = bytearray(path.read_bytes())
        index = data.index(b"alpha")
        data[index + 4] = ord("o")  # alpha -> alpho, still valid JSON
        rotted = tmp_path / "rotted.snap"
        rotted.write_bytes(bytes(data))
        with pytest.raises(SnapshotError, match="checksum"):
            load_snapshot(str(rotted))

    def test_corrupt_header_json(self, tmp_path, snap_path):
        data = bytearray(_file_bytes(snap_path))
        data[20] = 0xFF  # stomp the JSON header
        path = tmp_path / "badjson.snap"
        path.write_bytes(bytes(data))
        with pytest.raises(SnapshotError):
            load_snapshot(str(path))

    def test_unsupported_vertex_type_rejected_at_save(self, tmp_path):
        graph = DbGraph.from_edges([((1, 2), "a", (3, 4))])
        with pytest.raises(SnapshotError, match="ints or strings"):
            save_snapshot(IndexedGraph(graph), str(tmp_path / "t.snap"))

    def test_failed_save_leaves_no_partial_file(self, tmp_path):
        graph = DbGraph.from_edges([((1, 2), "a", (3, 4))])
        target = tmp_path / "t.snap"
        with pytest.raises(SnapshotError):
            save_snapshot(IndexedGraph(graph), str(target))
        assert not target.exists()

    def test_failed_replace_cleans_up_tmp_file(
        self, tmp_path, graph, monkeypatch
    ):
        import os as os_module

        import repro.service.snapshot as snap_module

        def explode(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(snap_module.os, "replace", explode)
        target = tmp_path / "fail.snap"
        with pytest.raises(OSError, match="disk full"):
            save_snapshot(IndexedGraph(graph), str(target))
        monkeypatch.undo()
        assert list(tmp_path.iterdir()) == []  # no orphan tmp files
        assert os_module.path.exists(str(tmp_path))

    def test_magic_constant_shape(self):
        assert len(MAGIC) == 8


class TestVersionMigration:
    """Version 4 is the only format: older files fail by name."""

    def test_older_version_is_rejected_by_name(self, tmp_path, snap_path):
        # A v4 file relabelled as version 3 in both the binary prefix
        # and the header, with a valid checksum: the version check,
        # not the CRC, must refuse it.
        def mutate(header, arrays):
            header["format_version"] = 3
            return header, arrays

        old_path = _rewrite_snapshot(
            snap_path, str(tmp_path / "v3.snap"), mutate
        )
        for reader in (load_snapshot, attach_snapshot, snapshot_info):
            with pytest.raises(SnapshotError, match="format version 3"):
                reader(old_path)

    @pytest.mark.parametrize("reopen", [load_snapshot, attach_snapshot],
                             ids=["load", "attach"])
    def test_default_round_trips_reverse_csr(self, graph, snap_path,
                                             reopen):
        assert snapshot_info(snap_path)["format_version"] == FORMAT_VERSION
        thawed = reopen(snap_path)
        compiled = IndexedGraph(graph)
        for name in ("in_indptr", "in_labels", "in_sources"):
            assert list(getattr(thawed, name)) == \
                list(getattr(compiled, name)), name
        for vertex_id in range(compiled.num_vertices):
            assert thawed.in_pairs(vertex_id) == compiled.in_pairs(vertex_id)

    def test_corrupt_reverse_section_rejected(self, tmp_path, snap_path):
        # Drop the last in_sources entry and shrink its manifest count
        # to stay self-consistent, with a *valid* checksum: the shape
        # validation itself must catch it, not just the CRC.
        bad_path = _rewrite_snapshot(
            snap_path, str(tmp_path / "bad-rev.snap"),
            _drop_last("in_sources"),
        )
        for reader in (load_snapshot, attach_snapshot):
            with pytest.raises(SnapshotError, match="'in_labels' disagrees"):
                reader(bad_path)

    def test_truncated_reverse_indptr_rejected(self, tmp_path, snap_path):
        # An in_indptr one row short of the vertex count fails shape
        # validation even when the checksum is intact.
        bad_path = _rewrite_snapshot(
            snap_path, str(tmp_path / "short-rev.snap"),
            _drop_last("in_indptr"),
        )
        for reader in (load_snapshot, attach_snapshot):
            with pytest.raises(SnapshotError, match="indptr does not match"):
                reader(bad_path)


def _drop_last(name):
    """A ``_rewrite_snapshot`` mutation dropping the last entry of array
    ``name`` and its manifest count with it."""
    def mutate(header, arrays):
        offset, length = _array_span(header, name)
        assert length > 0
        for entry in header["arrays"]:
            if entry[0] == name:
                entry[1] -= 1
        end = offset + length
        return header, arrays[:end - 8] + arrays[end:]
    return mutate


def _rewrite_snapshot(path, out_path, mutate):
    """Reassemble ``path`` after ``mutate(header, arrays_bytes)`` with a
    valid checksum, so shape validation — not the CRC — must object."""
    import json
    import zlib

    data = _file_bytes(path)
    (header_len,) = struct.unpack_from("<I", data, 12)
    header = json.loads(bytes(data[16:16 + header_len]).decode())
    arrays = bytes(data[16 + header_len + 4:])
    header, arrays = mutate(header, arrays)
    new_header = json.dumps(header, separators=(",", ":")).encode("utf-8")
    crc = zlib.crc32(arrays, zlib.crc32(new_header)) & 0xFFFFFFFF
    with open(out_path, "wb") as handle:
        handle.write(b"".join((
            MAGIC,
            struct.pack("<I", header["format_version"]),
            struct.pack("<I", len(new_header)),
            new_header,
            struct.pack("<I", crc),
            arrays,
        )))
    return out_path


def _array_span(header, name):
    """(byte offset, byte length) of array ``name`` in the section."""
    offset = 0
    for array_name, count in header["arrays"]:
        if array_name == name:
            return offset, count * 8
        offset += count * 8
    raise AssertionError("no array %r in manifest" % name)


class TestFormatV3ReachabilityIndex:
    """Snapshots persist the reachability index (since v3)."""

    def test_v4_is_the_default(self, snap_path):
        assert FORMAT_VERSION == 4
        assert snapshot_info(snap_path)["format_version"] == 4

    def test_v3_round_trips_the_index_without_recondensing(
        self, graph, snap_path
    ):
        thawed = load_snapshot(snap_path)
        # The parts were thawed, not recomputed lazily.
        assert thawed._reach_parts is not None
        compiled = IndexedGraph(graph)
        assert list(thawed.reach_parts()[0]) == (
            list(compiled.reach_parts()[0])
        )

    def test_comp_out_of_range_rejected(self, tmp_path, snap_path):
        def mutate(header, arrays):
            offset, length = _array_span(header, "scc_comp_of")
            assert length > 0
            bad = struct.pack("<q", header["num_comps"])  # one past range
            return header, arrays[:offset] + bad + arrays[offset + 8:]

        bad_path = _rewrite_snapshot(
            snap_path, str(tmp_path / "bad-comp.snap"), mutate
        )
        with pytest.raises(SnapshotError, match="component"):
            load_snapshot(bad_path)

    def test_truncated_comp_of_rejected(self, tmp_path, snap_path):
        def mutate(header, arrays):
            offset, length = _array_span(header, "scc_comp_of")
            index = [n for n, _c in header["arrays"]].index("scc_comp_of")
            header["arrays"][index][1] -= 1
            return header, arrays[:offset] + arrays[offset + 8:]

        bad_path = _rewrite_snapshot(
            snap_path, str(tmp_path / "short-comp.snap"), mutate
        )
        with pytest.raises(SnapshotError, match="reachability"):
            load_snapshot(bad_path)

    def test_mismatched_edge_arrays_rejected(self, tmp_path, snap_path):
        def mutate(header, arrays):
            offset, length = _array_span(header, "scc_edge_targets")
            assert length > 0
            index = [
                n for n, _c in header["arrays"]
            ].index("scc_edge_targets")
            header["arrays"][index][1] -= 1
            return header, arrays[:offset] + arrays[offset + 8:]

        bad_path = _rewrite_snapshot(
            snap_path, str(tmp_path / "bad-edges.snap"), mutate
        )
        with pytest.raises(SnapshotError, match="edge arrays"):
            load_snapshot(bad_path)

    def test_bad_num_comps_header_rejected(self, tmp_path, snap_path):
        def mutate(header, arrays):
            header["num_comps"] = -1
            return header, arrays

        bad_path = _rewrite_snapshot(
            snap_path, str(tmp_path / "bad-ncomps.snap"), mutate
        )
        with pytest.raises(SnapshotError, match="num_comps"):
            load_snapshot(bad_path)

    def test_edge_violating_topological_numbering_rejected(
        self, tmp_path, snap_path
    ):
        # Every legitimate condensation edge points to a strictly
        # smaller component id (Tarjan's reverse-topological
        # numbering); the closure pass depends on it, so a violating
        # edge must fail the load rather than silently corrupt
        # reachability answers.
        def mutate(header, arrays):
            src_off, src_len = _array_span(header, "scc_edge_sources")
            dst_off, dst_len = _array_span(header, "scc_edge_targets")
            assert src_len > 0
            (source_comp,) = struct.unpack_from("<q", arrays, src_off)
            bad = struct.pack("<q", source_comp)  # self/forward edge
            return header, (
                arrays[:dst_off] + bad + arrays[dst_off + 8:]
            )

        bad_path = _rewrite_snapshot(
            snap_path, str(tmp_path / "bad-topo.snap"), mutate
        )
        with pytest.raises(SnapshotError, match="reverse-topological"):
            load_snapshot(bad_path)

    def test_edge_label_out_of_range_rejected(self, tmp_path, snap_path):
        def mutate(header, arrays):
            offset, length = _array_span(header, "scc_edge_labels")
            assert length > 0
            bad = struct.pack("<q", len(header["labels"]))
            return header, arrays[:offset] + bad + arrays[offset + 8:]

        bad_path = _rewrite_snapshot(
            snap_path, str(tmp_path / "bad-label.snap"), mutate
        )
        with pytest.raises(SnapshotError, match="label id"):
            load_snapshot(bad_path)

    def test_flipped_index_bit_fails_the_checksum(self, tmp_path,
                                                  snap_path):
        data = bytearray(_file_bytes(snap_path))
        data[-4] ^= 0x10  # inside the reachability section
        bad_path = str(tmp_path / "rot.snap")
        with open(bad_path, "wb") as handle:
            handle.write(data)
        with pytest.raises(SnapshotError, match="checksum"):
            load_snapshot(bad_path)

    def test_v3_thawed_engine_short_circuits(self, tmp_path):
        graph = DbGraph()
        graph.add_edge(0, "a", 1)
        graph.add_vertex(5)
        path = str(tmp_path / "island.snap")
        save_snapshot(IndexedGraph(graph), path)
        engine = QueryEngine(load_snapshot(path))
        result = engine.query("a*", 0, 5)
        assert result.found is False
        assert result.stats.short_circuit is True


class TestAttachSnapshot:
    """Zero-copy attach: mmapped arrays, same answers, same adjacency."""

    def test_attached_graph_answers_identically(self, graph, snap_path):
        attached = attach_snapshot(snap_path)
        compiled = IndexedGraph(graph)
        assert list(attached.vertices()) == list(compiled.vertices())
        assert attached.num_edges == compiled.num_edges
        queries = [
            ("a*", 0, 24), ("ab + ba", 3, 11), ("(aa)*", 5, 20),
            ("a*ba*", 2, 17), ("a*(bb^+ + eps)c*", 0, 5),
        ]
        engine = QueryEngine(attached)
        for regex, source, target in queries:
            direct = solve_rspq(regex, graph, source, target)
            served = engine.query(regex, source, target)
            assert served.found == direct.found, (regex, source)
            assert served.path == direct.path, (regex, source)

    def test_attached_views_are_zero_copy(self, snap_path):
        attached = attach_snapshot(snap_path)
        assert attached.view() is attached
        # Every CSR array is a cast of the one mmap — no copies.
        for name in ADJACENCY_ARRAYS:
            raw = getattr(attached, name)
            assert isinstance(raw, memoryview), name
            assert raw.obj is attached._mapping, name

    def test_attached_adjacency_matches_loaded(self, graph, snap_path):
        attached = attach_snapshot(snap_path)
        loaded = load_snapshot(snap_path)
        for name in ADJACENCY_ARRAYS:
            assert isinstance(getattr(loaded, name), array), name
            assert list(getattr(attached, name)) == (
                list(getattr(loaded, name))
            ), name
        for vertex_id in range(loaded.num_vertices):
            assert attached.out(vertex_id) == loaded.out(vertex_id)
            assert attached.in_pairs(vertex_id) == loaded.in_pairs(vertex_id)
        assert list(attached.to_dbgraph().edges()) == list(graph.edges())

    def test_attach_missing_or_empty_file_raises(self, tmp_path):
        with pytest.raises(SnapshotError):
            attach_snapshot(str(tmp_path / "absent.snap"))
        empty = tmp_path / "empty.snap"
        empty.write_bytes(b"")
        with pytest.raises(SnapshotError, match="empty"):
            attach_snapshot(str(empty))


def _golden_graph():
    """A fixed seeded graph with both int and str vertices."""
    graph = random_labeled_graph(30, 90, "abc", seed=17)
    graph.add_edge("hub", "b", 3)
    graph.add_edge(7, "a", "hub")
    graph.add_edge("hub", "c", "spoke")
    graph.add_vertex("island")
    return graph


#: sha256 of the snapshot of ``_golden_graph()``: pins the v4 bytes.
GOLDEN_SHA256 = (
    "be62cc18f2692ab51df29d58691a673eff9ab44ddb5b6da6fd2bd961af9bace8"
)


class TestFormatIsPinned:
    """Compile, load and attach all hold the layout save writes."""

    def test_compile_load_and_attach_save_the_golden_bytes(self, tmp_path):
        compiled = str(tmp_path / "compiled.snap")
        save_snapshot(IndexedGraph(_golden_graph()), compiled)
        digest = hashlib.sha256(_file_bytes(compiled)).hexdigest()
        assert digest == GOLDEN_SHA256
        for name, reopen in (
            ("loaded", load_snapshot), ("attached", attach_snapshot),
        ):
            again = str(tmp_path / (name + ".snap"))
            save_snapshot(reopen(compiled), again)
            digest = hashlib.sha256(_file_bytes(again)).hexdigest()
            assert digest == GOLDEN_SHA256, name

    def test_saving_an_attached_graph_rewrites_the_same_file(
        self, tmp_path, snap_path
    ):
        copy = str(tmp_path / "copy.snap")
        save_snapshot(attach_snapshot(snap_path), copy)
        assert _file_bytes(copy) == _file_bytes(snap_path)


def _poke(name, index, value):
    """A ``_rewrite_snapshot`` mutation storing ``value`` at
    ``name[index]`` (a negative ``index`` counts from the end)."""
    def mutate(header, arrays):
        offset, length = _array_span(header, name)
        at = offset + 8 * (index % (length // 8))
        assert at + 8 <= offset + length
        return header, (
            arrays[:at] + struct.pack("<q", value) + arrays[at + 8:]
        )
    return mutate


class TestInconsistentArrays:
    """A valid checksum over inconsistent contents fails by name.

    The fixture graph has 25 vertices and 3 labels, so 25 is one past
    the last vertex id and 3 one past the last label id.  Each id array
    is also poked below 0 and at its last entry, where a range check
    that read only the head, or only one end, would miss it.
    """

    @pytest.mark.parametrize("reopen", [load_snapshot, attach_snapshot],
                             ids=["load", "attach"])
    @pytest.mark.parametrize("name, index, value", [
        ("out_targets", 0, -1),
        ("in_sources", 0, 25),
        ("out_labels", 0, 3),
        ("in_labels", 0, 3),
        ("in_sources", 0, -1),
        ("out_labels", 0, -1),
        ("in_labels", 0, -1),
        ("out_targets", -1, 25),
        ("in_sources", -1, -2 ** 63),
        ("out_indptr", 1, 10 ** 6),
        ("in_indptr", 1, 10 ** 6),
    ])
    def test_rejected_by_name(self, tmp_path, snap_path, reopen,
                              name, index, value):
        bad_path = _rewrite_snapshot(
            snap_path, str(tmp_path / "bad.snap"), _poke(name, index, value)
        )
        with pytest.raises(SnapshotError, match=name):
            reopen(bad_path)

    @pytest.mark.parametrize("reopen", [load_snapshot, attach_snapshot],
                             ids=["load", "attach"])
    @pytest.mark.parametrize("table, entries, reason", [
        pytest.param("vertices", lambda v: v[:-1] + [v[0]],
                     "vertex table", id="duplicate-vertex"),
        pytest.param("vertices", lambda v: v[:-1] + [[1]],
                     "vertex table", id="unhashable-vertex"),
        pytest.param("labels", lambda ls: ls[::-1],
                     "label table", id="unsorted-labels"),
        pytest.param("labels", lambda ls: ls[:-1] + [ls[0]],
                     "label table", id="duplicate-label"),
    ])
    def test_tables_rejected(self, tmp_path, snap_path, reopen, table,
                             entries, reason):
        def mutate(header, arrays):
            header[table] = entries(header[table])
            return header, arrays

        bad_path = _rewrite_snapshot(
            snap_path, str(tmp_path / "bad-table.snap"), mutate
        )
        with pytest.raises(SnapshotError, match=reason):
            reopen(bad_path)
