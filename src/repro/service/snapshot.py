"""Snapshot persistence for compiled graphs (warm-start from disk).

Compiling a :class:`~repro.engine.indexed.IndexedGraph` from a
:class:`~repro.graphs.dbgraph.DbGraph` pays one repr-sort per vertex
(forward and reverse adjacency) plus the per-label CSR build.  A
snapshot freezes the *result* of that work: loading one back rebuilds
the compiled view with pure array reads and tuple construction — no
sorting, no dict-of-sets traversal — which is what lets a restarted
query service warm-start in a fraction of the compile time
(``benchmarks/bench_service.py`` asserts the speedup).

Format (version 3)
------------------

Little-endian throughout::

    offset 0   magic          8 bytes  b"RSPQSNAP"
    offset 8   version        u32      3
    offset 12  header_len     u32
    offset 16  header         header_len bytes of UTF-8 JSON
    ...        payload_crc32  u32      zlib.crc32 of header + arrays
    ...        array section  concatenated int64 arrays

The JSON header carries the label table, the vertex table (ints and
strings only — JSON round-trips both losslessly) and an ordered
``arrays`` manifest of ``[name, element_count]`` pairs describing the
binary section:

``out_indptr`` / ``out_labels`` / ``out_targets``
    Forward adjacency in compiled (repr) order as one CSR: vertex ``i``
    owns slice ``out_indptr[i]:out_indptr[i+1]``; labels are indices
    into the label table, targets are vertex ids.
``in_indptr`` / ``in_labels`` / ``in_sources``
    Reverse adjacency, same encoding.
``csr_offsets`` / ``csr_indptr`` / ``csr_targets``
    The per-label CSR arrays exactly as the compiled view stores them:
    label ``j`` owns ``csr_indptr`` rows ``j*(n+1):(j+1)*(n+1)`` and
    the ``csr_targets`` slice ``csr_offsets[j]:csr_offsets[j+1]``.
``rcsr_offsets`` / ``rcsr_indptr`` / ``rcsr_sources``
    The label-partitioned *reverse* CSR, same layout as the forward
    per-label section: label ``j`` owns ``rcsr_indptr`` rows
    ``j*(n+1):(j+1)*(n+1)`` and the ``rcsr_sources`` slice
    ``rcsr_offsets[j]:rcsr_offsets[j+1]``.  Solvers use it for
    backward product searches; persisting it means a warm start
    rebuilds nothing.
``scc_comp_of`` / ``scc_edge_labels`` / ``scc_edge_sources`` /
``scc_edge_targets``
    The label-constrained reachability index's compiled parts:
    ``scc_comp_of`` maps each vertex to its SCC component id (the
    header carries ``num_comps``), and the three edge arrays list the
    distinct inter-component condensation edges as parallel
    ``(label_id, comp_from, comp_to)`` columns sorted by that triple.
    A warm start thaws the index instead of re-running Tarjan; the
    closure bitsets stay lazy either way.

Only version 3 is written and read: a file of any other version fails
its load with a :class:`~repro.errors.SnapshotError` naming that
version (rebuild it from the graph file with ``repro snapshot``).
Loading validates magic, version, header shape and the checksum over
the header-plus-arrays payload, raising
:class:`~repro.errors.SnapshotError` with the reason on any mismatch —
a truncated or bit-rotted snapshot never produces a silently wrong
graph.  Files are written atomically (tmp + rename), so a crash
mid-save cannot corrupt an existing snapshot.
"""

from __future__ import annotations

import json
import mmap
import os
import struct
import sys
import weakref
import zlib
from array import array
from typing import Any, Iterable, Iterator

from ..errors import SnapshotError
from ..engine.indexed import CsrView, IndexedGraph
from . import faults

MAGIC = b"RSPQSNAP"
FORMAT_VERSION = 3
SUPPORTED_VERSIONS = (3,)

_U32 = struct.Struct("<I")

#: Manifest order of the binary arrays (fixed for determinism): the
#: adjacency and forward per-label CSR section first...
_ARRAY_NAMES_V1 = (
    "out_indptr",
    "out_labels",
    "out_targets",
    "in_indptr",
    "in_labels",
    "in_sources",
    "csr_offsets",
    "csr_indptr",
    "csr_targets",
)

#: ...then the label-partitioned reverse CSR...
_REVERSE_ARRAY_NAMES = ("rcsr_offsets", "rcsr_indptr", "rcsr_sources")

#: ...then the reachability index (SCC condensation).
_REACH_ARRAY_NAMES = (
    "scc_comp_of",
    "scc_edge_labels",
    "scc_edge_sources",
    "scc_edge_targets",
)

_ARRAY_NAMES = _ARRAY_NAMES_V1 + _REVERSE_ARRAY_NAMES + _REACH_ARRAY_NAMES


#: Recently *saved* graphs by absolute path: path -> (stored_crc,
#: weakref to the compiled graph).  Loading the same file back while
#: the saved graph is alive reuses its already-compiled condensation
#: (object identity) instead of re-thawing the reach section.  Weak
#: references only — the registry never keeps a graph alive — and no
#: lock: dict get/set are GIL-atomic, and a stale read merely skips
#: the reuse (a pure optimisation).
_SAVED_GRAPHS: dict[str, tuple[int, Any]] = {}
_SAVED_LIMIT = 16

def _remember_saved(path, crc, graph):
    key = os.path.abspath(os.fspath(path))
    while len(_SAVED_GRAPHS) >= _SAVED_LIMIT:
        _SAVED_GRAPHS.pop(next(iter(_SAVED_GRAPHS)))
    _SAVED_GRAPHS[key] = (crc, weakref.ref(graph))


def _saved_reach_parts(path, crc):
    """The live, already-compiled condensation for ``(path, crc)``."""
    key = os.path.abspath(os.fspath(path))
    entry = _SAVED_GRAPHS.get(key)
    if entry is None:
        return None
    saved_crc, ref = entry
    graph = ref()
    if graph is None:
        _SAVED_GRAPHS.pop(key, None)
        return None
    if saved_crc != crc:
        return None
    return graph._reach_parts


def _int64_bytes(values):
    """``values`` as little-endian int64 bytes (portable across hosts)."""
    arr = array("q", values)
    if sys.byteorder == "big":  # pragma: no cover - exotic hosts
        arr = array("q", arr)
        arr.byteswap()
    return arr.tobytes()


def _int64_array(raw, count, name):
    """Parse ``count`` little-endian int64 values out of ``raw``."""
    expected = count * 8
    if len(raw) != expected:
        raise SnapshotError(
            "array %r truncated: expected %d bytes, got %d"
            % (name, expected, len(raw))
        )
    arr = array("q")
    arr.frombytes(raw)
    if sys.byteorder == "big":  # pragma: no cover - exotic hosts
        arr.byteswap()
    return arr


def _checked_vertices(vertices):
    """Vertices as a JSON-safe list (ints and strings only)."""
    checked = []
    for vertex in vertices:
        if not isinstance(vertex, (int, str)):
            raise SnapshotError(
                "snapshot vertices must be ints or strings, got %r "
                "(type %s)" % (vertex, type(vertex).__name__)
            )
        checked.append(vertex)
    return checked


def save_snapshot(graph: Any, path: Any) -> int:
    """Persist a compiled graph to ``path``; returns the byte size.

    ``graph`` may be an :class:`IndexedGraph` or anything its
    constructor accepts (a :class:`DbGraph` is compiled first).  The
    write is atomic: the snapshot lands under a temporary name and is
    renamed into place, so readers never observe a partial file.
    """
    if not isinstance(graph, IndexedGraph):
        graph = IndexedGraph(graph)

    vertices = _checked_vertices(graph._vertex_of)
    labels = sorted(graph._labels)
    label_id = {label: index for index, label in enumerate(labels)}
    id_of = graph._id_of

    out_indptr, out_labels, out_targets = [0], [], []
    for pairs in graph._out:
        for label, target in pairs:
            out_labels.append(label_id[label])
            out_targets.append(id_of[target])
        out_indptr.append(len(out_targets))

    in_indptr, in_labels, in_sources = [0], [], []
    for pairs in graph._in:
        for label, source in pairs:
            in_labels.append(label_id[label])
            in_sources.append(id_of[source])
        in_indptr.append(len(in_sources))

    csr_offsets, csr_indptr, csr_targets = [0], [], []
    rcsr_offsets, rcsr_indptr, rcsr_sources = [0], [], []
    for label in labels:
        csr_indptr.extend(graph._label_indptr[label])
        csr_targets.extend(graph._label_targets[label])
        csr_offsets.append(len(csr_targets))
        rcsr_indptr.extend(graph._rev_label_indptr[label])
        rcsr_sources.extend(graph._rev_label_sources[label])
        rcsr_offsets.append(len(rcsr_sources))

    comp_of, num_comps, label_edges = graph.reach_parts()
    edge_labels, edge_sources, edge_targets = [], [], []
    for label_id, edges in enumerate(label_edges):
        for comp_from, comp_to in edges:
            edge_labels.append(label_id)
            edge_sources.append(comp_from)
            edge_targets.append(comp_to)

    sections = {
        "out_indptr": out_indptr,
        "out_labels": out_labels,
        "out_targets": out_targets,
        "in_indptr": in_indptr,
        "in_labels": in_labels,
        "in_sources": in_sources,
        "csr_offsets": csr_offsets,
        "csr_indptr": csr_indptr,
        "csr_targets": csr_targets,
        "rcsr_offsets": rcsr_offsets,
        "rcsr_indptr": rcsr_indptr,
        "rcsr_sources": rcsr_sources,
        "scc_comp_of": comp_of,
        "scc_edge_labels": edge_labels,
        "scc_edge_sources": edge_sources,
        "scc_edge_targets": edge_targets,
    }
    array_section = b"".join(
        _int64_bytes(sections[name]) for name in _ARRAY_NAMES
    )
    header = {
        "format_version": FORMAT_VERSION,
        "vertices": vertices,
        "labels": labels,
        "num_edges": graph._num_edges,
        "arrays": [[name, len(sections[name])] for name in _ARRAY_NAMES],
        "num_comps": num_comps,
    }
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")

    # One checksum over header *and* arrays: a bit-rotted vertex name
    # or edge count must fail the load, not rename a vertex silently.
    payload_crc = zlib.crc32(array_section, zlib.crc32(header_bytes))
    blob = b"".join((
        MAGIC,
        _U32.pack(FORMAT_VERSION),
        _U32.pack(len(header_bytes)),
        header_bytes,
        _U32.pack(payload_crc & 0xFFFFFFFF),
        array_section,
    ))
    tmp_path = "%s.tmp.%d" % (path, os.getpid())
    try:
        with open(tmp_path, "wb") as handle:
            handle.write(blob)
        os.replace(tmp_path, path)
    except BaseException:
        # A failed write (disk full, interrupt) must not leave orphan
        # tmp files accumulating next to the snapshot.
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    # The graph is now snapshot-backed (a pool for it attaches this
    # file) and an immediate load of the same file reuses this graph's
    # compiled condensation by identity.
    graph._snapshot_path = os.fspath(path)
    _remember_saved(path, payload_crc & 0xFFFFFFFF, graph)
    return len(blob)


def _read_header(data, path):
    """Parse and validate magic/version/header; returns (header, offset)."""
    if len(data) < 16:
        raise SnapshotError(
            "snapshot %s is truncated (%d bytes, header needs 16)"
            % (path, len(data))
        )
    if bytes(data[:8]) != MAGIC:
        raise SnapshotError(
            "%s is not a graph snapshot (bad magic %r)"
            % (path, bytes(data[:8]))
        )
    (version,) = _U32.unpack_from(data, 8)
    if version not in SUPPORTED_VERSIONS:
        raise SnapshotError(
            "snapshot %s has format version %d; this build reads "
            "versions %s"
            % (path, version, ", ".join(map(str, SUPPORTED_VERSIONS)))
        )
    (header_len,) = _U32.unpack_from(data, 12)
    if len(data) < 16 + header_len + 4:
        raise SnapshotError(
            "snapshot %s is truncated inside the header" % path
        )
    try:
        header = json.loads(bytes(data[16:16 + header_len]).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise SnapshotError(
            "snapshot %s has a corrupt JSON header: %s" % (path, err)
        ) from err
    for field in ("vertices", "labels", "num_edges", "arrays"):
        if field not in header:
            raise SnapshotError(
                "snapshot %s header is missing %r" % (path, field)
            )
    if header.get("format_version") != version:
        raise SnapshotError(
            "snapshot %s header claims format version %r but the "
            "binary prefix says %d"
            % (path, header.get("format_version"), version)
        )
    return header, 16 + header_len


def _parse(data, path, mapping=None, snapshot_path=None):
    """Validate ``data`` and thaw (or attach) the compiled graph.

    With ``mapping=None`` every array is copied into process-private
    ``array("q")`` storage (the classic load).  With ``mapping`` set to
    the open read-only mmap backing ``data``, the arrays are zero-copy
    ``memoryview`` slices of the mapping and the result is an
    :class:`AttachedGraph` that keeps the mapping alive.
    """
    header, offset = _read_header(data, path)
    header_raw = bytes(data[16:offset])
    (stored_crc,) = _U32.unpack_from(data, offset)
    offset += 4
    # CRC over a memoryview: no copy of the (possibly huge) array
    # section even in attach mode; every mapped page is touched once.
    array_section = memoryview(data)[offset:]
    attach = mapping is not None
    arrays = {}
    cursor = 0
    try:
        actual_crc = zlib.crc32(array_section, zlib.crc32(header_raw)) & (
            0xFFFFFFFF
        )
        if actual_crc != stored_crc:
            raise SnapshotError(
                "snapshot %s failed its checksum (stored %08x, computed "
                "%08x) — the file is corrupt or truncated"
                % (path, stored_crc, actual_crc)
            )
        manifest = header["arrays"]
        expected = list(_ARRAY_NAMES)
        if [name for name, _count in manifest] != expected:
            raise SnapshotError(
                "snapshot %s has an unexpected array manifest: %r"
                % (path, manifest)
            )
        for name, count in manifest:
            size = count * 8
            if cursor + size > len(array_section):
                raise SnapshotError(
                    "array %r truncated: expected %d bytes, got %d"
                    % (name, size, len(array_section) - cursor)
                )
            chunk = array_section[cursor:cursor + size]
            if attach:
                # memoryview slicing + cast is zero-copy: the int64
                # view reads straight out of the shared file mapping.
                arrays[name] = chunk.cast("q")
            else:
                arrays[name] = _int64_array(bytes(chunk), count, name)
                chunk.release()
            cursor += size
        if cursor != len(array_section):
            raise SnapshotError(
                "snapshot %s has %d trailing bytes after its arrays"
                % (path, len(array_section) - cursor)
            )
        reach_reuse = None
        if snapshot_path is not None:
            # Satellite of the save path: an immediate load of a file
            # this process just saved reuses the saver's compiled
            # condensation.
            reach_reuse = _saved_reach_parts(snapshot_path, stored_crc)
        return _thaw(
            header, arrays, path,
            mapping=mapping,
            snapshot_path=snapshot_path,
            reach_reuse=reach_reuse,
        )
    finally:
        # Drop this frame's buffer export so a copy-mode caller can
        # close its mmap even while an error is propagating (the
        # per-name views in ``arrays`` are what attach mode keeps).
        array_section.release()


def _thaw(header, arrays, path, mapping=None, snapshot_path=None,
          reach_reuse=None):
    """Rebuild the compiled view — array reads only, nothing re-sorted.

    With ``mapping`` set (attach mode), the per-label CSR dicts are
    built from zero-copy slices of the mmapped arrays, the per-vertex
    adjacency tuples are *not* materialised (the attached view reads
    them lazily), and the result is an :class:`AttachedGraph` holding
    the mapping alive.
    """
    vertices = tuple(header["vertices"])
    labels = list(header["labels"])
    n = len(vertices)
    num_labels = len(labels)

    out_indptr = arrays["out_indptr"]
    in_indptr = arrays["in_indptr"]
    if len(out_indptr) != n + 1 or len(in_indptr) != n + 1:
        raise SnapshotError(
            "snapshot %s adjacency indptr does not match its %d "
            "vertices" % (path, n)
        )
    if len(arrays["csr_offsets"]) != num_labels + 1 or (
        len(arrays["csr_indptr"]) != num_labels * (n + 1)
    ):
        raise SnapshotError(
            "snapshot %s per-label CSR does not match its %d labels"
            % (path, num_labels)
        )
    if num_labels and len(arrays["csr_targets"]) != arrays["csr_offsets"][-1]:
        raise SnapshotError(
            "snapshot %s per-label CSR targets disagree with their "
            "offsets" % path
        )
    if (
        len(arrays["rcsr_offsets"]) != num_labels + 1
        or len(arrays["rcsr_indptr"]) != num_labels * (n + 1)
    ):
        raise SnapshotError(
            "snapshot %s reverse per-label CSR does not match its %d "
            "labels" % (path, num_labels)
        )
    if num_labels and (
        len(arrays["rcsr_sources"]) != arrays["rcsr_offsets"][-1]
    ):
        raise SnapshotError(
            "snapshot %s reverse per-label CSR sources disagree "
            "with their offsets" % path
        )

    attach = mapping is not None
    if not attach:
        # One flat C-speed pass per direction (map + zip), then slice
        # per vertex — this is the hot path of a warm start, so no
        # per-edge Python-level loop bodies.
        out_pairs = list(zip(
            map(labels.__getitem__, arrays["out_labels"]),
            map(vertices.__getitem__, arrays["out_targets"]),
        ))
        out = [
            tuple(out_pairs[start:stop])
            for start, stop in zip(out_indptr, out_indptr[1:])
        ]
        in_pairs = list(zip(
            map(labels.__getitem__, arrays["in_labels"]),
            map(vertices.__getitem__, arrays["in_sources"]),
        ))
        in_ = [
            tuple(in_pairs[start:stop])
            for start, stop in zip(in_indptr, in_indptr[1:])
        ]

    csr_offsets = arrays["csr_offsets"]
    rcsr_offsets = arrays["rcsr_offsets"]
    label_indptr = {}
    label_targets = {}
    rev_label_indptr = {}
    rev_label_sources = {}
    for j, label in enumerate(labels):
        rows = slice(j * (n + 1), (j + 1) * (n + 1))
        label_indptr[label] = arrays["csr_indptr"][rows]
        label_targets[label] = arrays["csr_targets"][
            csr_offsets[j]:csr_offsets[j + 1]
        ]
        rev_label_indptr[label] = arrays["rcsr_indptr"][rows]
        rev_label_sources[label] = arrays["rcsr_sources"][
            rcsr_offsets[j]:rcsr_offsets[j + 1]
        ]

    reach_parts = reach_reuse
    if reach_parts is None:
        reach_parts = _thaw_reach_parts(
            header, arrays, n, num_labels, path, copy=not attach
        )

    if attach:
        return AttachedGraph._attach(
            vertex_of=vertices,
            labels=labels,
            num_edges=header["num_edges"],
            raw=arrays,
            label_indptr=label_indptr,
            label_targets=label_targets,
            rev_label_indptr=rev_label_indptr,
            rev_label_sources=rev_label_sources,
            reach_parts=reach_parts,
            mapping=mapping,
            snapshot_path=snapshot_path,
        )

    graph = IndexedGraph._from_parts(
        vertex_of=vertices,
        labels=labels,
        num_edges=header["num_edges"],
        out=out,
        in_=in_,
        label_indptr=label_indptr,
        label_targets=label_targets,
        rev_label_indptr=rev_label_indptr,
        rev_label_sources=rev_label_sources,
        reach_parts=reach_parts,
    )
    if snapshot_path is not None:
        # Loaded graphs are snapshot-backed too: a pool for them
        # attaches the file they came from instead of spooling a copy.
        graph._snapshot_path = os.fspath(snapshot_path)
    return graph


def _thaw_reach_parts(header, arrays, n, num_labels, path, copy=True):
    """Validate and rebuild the v3 reachability-index section.

    ``copy=False`` (attach mode) keeps ``comp_of`` as the zero-copy
    memoryview over the mapping — :class:`ReachabilityIndex` only ever
    indexes into it, so a buffer works as well as an array.
    """
    num_comps = header.get("num_comps")
    if not isinstance(num_comps, int) or not 0 <= num_comps <= n or (
        n > 0 and num_comps < 1
    ):
        raise SnapshotError(
            "snapshot %s header carries an invalid num_comps %r for %d "
            "vertices" % (path, num_comps, n)
        )
    raw_comp_of = arrays["scc_comp_of"]
    if len(raw_comp_of) != n:
        raise SnapshotError(
            "snapshot %s reachability section does not match its %d "
            "vertices (%d component entries)" % (path, n, len(raw_comp_of))
        )
    comp_of = array("l", raw_comp_of) if copy else raw_comp_of
    for comp in comp_of:
        if not 0 <= comp < num_comps:
            raise SnapshotError(
                "snapshot %s reachability section names component %d "
                "outside 0..%d" % (path, comp, num_comps - 1)
            )
    edge_labels = arrays["scc_edge_labels"]
    edge_sources = arrays["scc_edge_sources"]
    edge_targets = arrays["scc_edge_targets"]
    if not (len(edge_labels) == len(edge_sources) == len(edge_targets)):
        raise SnapshotError(
            "snapshot %s reachability edge arrays disagree in length "
            "(%d/%d/%d)"
            % (path, len(edge_labels), len(edge_sources), len(edge_targets))
        )
    label_edge_lists = [[] for _ in range(num_labels)]
    for label_id, comp_from, comp_to in zip(
        edge_labels, edge_sources, edge_targets
    ):
        if not 0 <= label_id < num_labels:
            raise SnapshotError(
                "snapshot %s reachability edge names label id %d outside "
                "0..%d" % (path, label_id, num_labels - 1)
            )
        if not (0 <= comp_from < num_comps and 0 <= comp_to < num_comps):
            raise SnapshotError(
                "snapshot %s reachability edge (%d -> %d) is outside the "
                "component range 0..%d"
                % (path, comp_from, comp_to, num_comps - 1)
            )
        if comp_to >= comp_from:
            # Tarjan numbers components in reverse topological order,
            # so every legitimate condensation edge points to a
            # strictly smaller id; the closure pass in
            # ReachabilityIndex._reach_for depends on it, and a
            # violating edge would silently under-approximate
            # reachability (false "unreachable" proofs).
            raise SnapshotError(
                "snapshot %s reachability edge (%d -> %d) violates the "
                "reverse-topological component numbering"
                % (path, comp_from, comp_to)
            )
        label_edge_lists[label_id].append((comp_from, comp_to))
    label_edges = tuple(tuple(edges) for edges in label_edge_lists)
    return comp_of, num_comps, label_edges


class AttachedCsrView(CsrView):
    """:class:`CsrView` reading straight off a mmapped snapshot.

    The per-label CSR tuples it serves are zero-copy memoryview slices
    of the shared mapping; the per-vertex ``(label_id, other_id)``
    pair tuples are decoded lazily from the flat adjacency arrays and
    memoised, so a worker only ever pays (and caches) the vertices its
    queries actually touch.  All mapped buffers are strictly read-only
    — the ``snapshot-readonly`` invariant rule enforces this in
    serving code.
    """

    def _build_pairs(self, graph: "AttachedGraph") -> None:
        raw = graph._raw
        self._raw_out = (
            raw["out_indptr"], raw["out_labels"], raw["out_targets"],
        )
        self._raw_in = (
            raw["in_indptr"], raw["in_labels"], raw["in_sources"],
        )
        self._out_pair_memo: dict[int, tuple] = {}
        self._in_pair_memo: dict[int, tuple] = {}

    # invariant: hot-loop
    def out(self, vertex_id: int) -> tuple[tuple[int, int], ...]:
        pairs = self._out_pair_memo.get(vertex_id)
        if pairs is None:
            indptr, edge_labels, targets = self._raw_out
            start = indptr[vertex_id]
            stop = indptr[vertex_id + 1]
            pairs = tuple(zip(
                edge_labels[start:stop], targets[start:stop]
            ))
            self._out_pair_memo[vertex_id] = pairs
        return pairs

    # invariant: hot-loop
    def in_pairs(self, vertex_id: int) -> tuple[tuple[int, int], ...]:
        pairs = self._in_pair_memo.get(vertex_id)
        if pairs is None:
            indptr, edge_labels, sources = self._raw_in
            start = indptr[vertex_id]
            stop = indptr[vertex_id + 1]
            pairs = tuple(zip(
                edge_labels[start:stop], sources[start:stop]
            ))
            self._in_pair_memo[vertex_id] = pairs
        return pairs

    def out_degree(self, vertex_id: int) -> int:
        indptr = self._raw_out[0]
        return indptr[vertex_id + 1] - indptr[vertex_id]

    def __repr__(self):
        return "AttachedCsrView(|V|=%d, |Σ|=%d over %r)" % (
            self.num_vertices, self.num_labels, self.graph,
        )


class AttachedGraph(IndexedGraph):
    """An :class:`IndexedGraph` attached to a read-only mmapped snapshot.

    Every CSR array (forward, reverse, reachability) is a zero-copy
    memoryview slice of the mapping held in ``_mapping``; the string
    adjacency tuples (``_out`` / ``_in``) are thawed lazily only if a
    caller actually uses the string-level ``DbGraph`` API (the solver
    hot paths go through :class:`AttachedCsrView` and never do).

    Safe for any number of concurrent readers: the mapping is
    ``ACCESS_READ`` and nothing here mutates shared state after
    construction except process-private memo dicts.  Forked workers
    share the physical pages through the page cache — N workers, one
    copy of the graph.
    """

    __slots__ = ()

    @classmethod
    def _attach(cls, vertex_of, labels, num_edges, raw,
                label_indptr, label_targets,
                rev_label_indptr, rev_label_sources,
                reach_parts, mapping, snapshot_path):
        self = object.__new__(cls)
        self._vertex_of = tuple(vertex_of)
        self._id_of = {
            vertex: index for index, vertex in enumerate(self._vertex_of)
        }
        self._labels = frozenset(labels)
        self._num_edges = num_edges
        self._out = None
        self._in = None
        self._out_pair_sets = None
        self._label_indptr = dict(label_indptr)
        self._label_targets = dict(label_targets)
        self._rev_label_indptr = dict(rev_label_indptr)
        self._rev_label_sources = dict(rev_label_sources)
        self._sorted_succ_by_label = {}
        self._reach_parts = reach_parts
        self._view = None
        self._raw = dict(raw)
        self._mapping = mapping
        self._snapshot_path = (
            None if snapshot_path is None else os.fspath(snapshot_path)
        )
        return self

    def view(self) -> CsrView:
        if self._view is None:
            self._view = AttachedCsrView(self)
        return self._view

    def _ensure_adjacency(self) -> None:
        """Thaw the string-level ``_out`` / ``_in`` tuples on demand."""
        if self._out is not None:
            return
        vertices = self._vertex_of
        labels = sorted(self._labels)
        raw = self._raw
        out_indptr = raw["out_indptr"]
        out_pairs = list(zip(
            map(labels.__getitem__, raw["out_labels"]),
            map(vertices.__getitem__, raw["out_targets"]),
        ))
        self._out = tuple(
            tuple(out_pairs[start:stop])
            for start, stop in zip(out_indptr, out_indptr[1:])
        )
        in_indptr = raw["in_indptr"]
        in_pairs = list(zip(
            map(labels.__getitem__, raw["in_labels"]),
            map(vertices.__getitem__, raw["in_sources"]),
        ))
        self._in = tuple(
            tuple(in_pairs[start:stop])
            for start, stop in zip(in_indptr, in_indptr[1:])
        )

    # -- string-level DbGraph API: thaw lazily, then defer to the base --

    def _pair_sets(self):
        self._ensure_adjacency()
        return super()._pair_sets()

    def out_edges(self, vertex: Any) -> Iterator[tuple[str, Any]]:
        self._ensure_adjacency()
        return super().out_edges(vertex)

    def in_edges(self, vertex: Any) -> Iterator[tuple[str, Any]]:
        self._ensure_adjacency()
        return super().in_edges(vertex)

    def sorted_out_edges(
        self, vertex: Any
    ) -> tuple[tuple[str, Any], ...]:
        self._ensure_adjacency()
        return super().sorted_out_edges(vertex)

    def successors(
        self, vertex: Any, label: str | None = None
    ) -> set[Any]:
        if label is None:
            self._ensure_adjacency()
        return super().successors(vertex, label)

    def predecessors(
        self, vertex: Any, label: str | None = None
    ) -> set[Any]:
        self._ensure_adjacency()
        return super().predecessors(vertex, label)

    def edges(self) -> Iterator[tuple[Any, str, Any]]:
        self._ensure_adjacency()
        return super().edges()

    def out_degree(self, vertex: Any) -> int:
        indptr = self._raw["out_indptr"]
        vertex_id = self.vertex_id(vertex)
        return indptr[vertex_id + 1] - indptr[vertex_id]

    def in_degree(self, vertex: Any) -> int:
        indptr = self._raw["in_indptr"]
        vertex_id = self.vertex_id(vertex)
        return indptr[vertex_id + 1] - indptr[vertex_id]

    def reachable_within(self, start: Any,
                         allowed_labels: Iterable[str] | None = None,
                         forbidden: Iterable[Any] = ()) -> set[Any]:
        if forbidden or (
            allowed_labels is not None
            and not self._labels <= set(allowed_labels)
        ):
            # Only the restricted fallback walks _out directly.
            self._ensure_adjacency()
        return super().reachable_within(start, allowed_labels, forbidden)

    def __repr__(self):
        return "AttachedGraph(|V|=%d, |E|=%d, Σ=%s, path=%r)" % (
            self.num_vertices,
            self.num_edges,
            "".join(sorted(self._labels)),
            self._snapshot_path,
        )


def attach_snapshot(path: Any) -> IndexedGraph:
    """Attach to a snapshot: a compiled graph over the mmapped file.

    Unlike :func:`load_snapshot` (which copies every array into
    process-private memory), attaching maps the file read-only and
    builds the compiled view directly over the mapping — zero array
    copies.  N processes attached to one snapshot therefore share one
    physical copy of the graph through the page cache, which is the
    memory model behind the pre-fork worker pool
    (:class:`repro.service.workers.WorkerPool`).

    The returned :class:`AttachedGraph` keeps the mapping alive for
    its own lifetime and is safe for concurrent readers.  POSIX
    semantics apply to the file itself: deleting or atomically
    replacing the snapshot on disk does *not* disturb already-attached
    graphs (they keep serving the old inode); only fresh attaches see
    the new file — or raise a clean :class:`SnapshotError` when the
    file is gone or damaged.

    Validates exactly like :func:`load_snapshot` (magic, version,
    header, full payload checksum) before returning.
    """
    try:
        handle = open(path, "rb")
    except FileNotFoundError:
        raise SnapshotError(
            "snapshot %s does not exist" % path
        ) from None
    with handle:
        try:
            mm = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        except ValueError:
            raise SnapshotError(
                "snapshot %s is empty" % path
            ) from None
    mutated = faults.mutate_snapshot_bytes(mm)
    if mutated is not None:
        # Fault injection: validate the damaged copy through the real
        # parse/checksum path (no mapping is kept in fault mode).
        try:
            return _parse(mutated, path, snapshot_path=path)
        finally:
            mm.close()
    if sys.byteorder == "big":  # pragma: no cover - exotic hosts
        # memoryview.cast("q") reads native-endian; on big-endian
        # hosts fall back to the copying load (correct, just not
        # shared).
        try:
            return _parse(mm, path, snapshot_path=path)
        finally:
            mm.close()
    try:
        return _parse(mm, path, mapping=mm, snapshot_path=path)
    except BaseException:
        try:
            mm.close()
        except BufferError:
            # The in-flight traceback still exports buffer views of
            # the mapping; it is released when the last view dies.
            pass
        raise


def load_snapshot(path: Any) -> IndexedGraph:
    """Load a snapshot back into an :class:`IndexedGraph` (mmap read).

    Raises :class:`~repro.errors.SnapshotError` on any structural
    problem: missing file, bad magic, unsupported version, corrupt
    header, checksum mismatch or inconsistent arrays.
    """
    try:
        with open(path, "rb") as handle:
            try:
                mm = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
            except ValueError:
                raise SnapshotError(
                    "snapshot %s is empty" % path
                ) from None
            try:
                mutated = faults.mutate_snapshot_bytes(mm)
                if mutated is not None:
                    return _parse(mutated, path, snapshot_path=path)
                return _parse(mm, path, snapshot_path=path)
            finally:
                mm.close()
    except FileNotFoundError:
        raise SnapshotError(
            "snapshot %s does not exist" % path
        ) from None


def snapshot_info(path: Any) -> dict[str, Any]:
    """The snapshot's header metadata without thawing the graph.

    Returns a dict with ``format_version``, ``num_vertices``,
    ``num_edges`` and ``labels`` — what a service wants to log at
    startup before paying for the load.
    """
    try:
        with open(path, "rb") as handle:
            # Header-only read: the prefix names the header length, so
            # a multi-GB snapshot costs a few KB here, not a full read.
            prefix = handle.read(16)
            header_len = (
                _U32.unpack_from(prefix, 12)[0] if len(prefix) == 16 else 0
            )
            data = prefix + handle.read(header_len + 4)
    except FileNotFoundError:
        raise SnapshotError(
            "snapshot %s does not exist" % path
        ) from None
    header, _offset = _read_header(data, path)
    return {
        "format_version": header["format_version"],
        "num_vertices": len(header["vertices"]),
        "num_edges": header["num_edges"],
        "labels": list(header["labels"]),
    }
