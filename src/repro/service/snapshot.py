"""Snapshot persistence for compiled graphs (warm-start from disk).

Compiling a :class:`~repro.engine.indexed.IndexedGraph` from a
:class:`~repro.graphs.dbgraph.DbGraph` sorts one integer key per edge in
each direction.  A snapshot stores the *result* of that work in the
compiled graph's own layout: :func:`save_snapshot` writes its int64
arrays unchanged, :func:`load_snapshot` copies them back into
process-private ``array("q")`` storage, and :func:`attach_snapshot`
casts zero-copy ``memoryview`` arrays over a read-only mapping of the
file.  Neither sorts nor re-encodes anything, which is what lets a
restarted query service warm-start in a fraction of the compile time
(``benchmarks/bench_service.py`` asserts the speedup).

Format (version 4)
------------------

Little-endian throughout::

    offset 0   magic          8 bytes  b"RSPQSNAP"
    offset 8   version        u32      4
    offset 12  header_len     u32
    offset 16  header         header_len bytes of UTF-8 JSON
    ...        payload_crc32  u32      zlib.crc32 of header + arrays
    ...        array section  concatenated int64 arrays

The JSON header carries the label table, the vertex table (ints and
strings only — JSON round-trips both losslessly) and an ordered
``arrays`` manifest of ``[name, element_count]`` pairs describing the
binary section's ten arrays:

``out_indptr`` / ``out_labels`` / ``out_targets``
    Forward adjacency in compiled (repr) order as one CSR: vertex ``i``
    owns slice ``out_indptr[i]:out_indptr[i+1]``; labels are indices
    into the label table, targets are vertex ids.  A slice groups its
    edges by label (labels in rank order, ascending ids inside one).
``in_indptr`` / ``in_labels`` / ``in_sources``
    Reverse adjacency, same encoding.
``scc_comp_of`` / ``scc_edge_labels`` / ``scc_edge_sources`` /
``scc_edge_targets``
    The label-constrained reachability index's compiled parts:
    ``scc_comp_of`` maps each vertex to its SCC component id (the
    header carries ``num_comps``), and the three edge arrays list the
    distinct inter-component condensation edges as parallel
    ``(label_id, comp_from, comp_to)`` columns sorted by that triple.
    A warm start thaws the index instead of re-running Tarjan; the
    closure bitsets stay lazy either way.

Only version 4 is written and read: a file of any other version fails
its load with a :class:`~repro.errors.SnapshotError` naming that
version (rebuild it from the graph file with ``repro snapshot``).
Loading and attaching validate magic, version, header shape, the
checksum over the header-plus-arrays payload, and the contents
against each other (distinct vertex and label tables, every id
indexes its table, every indptr is a valid CSR row), raising
:class:`~repro.errors.SnapshotError` with the reason on any mismatch
— a truncated, bit-rotted or inconsistent snapshot never produces a
silently wrong graph.  Files are written atomically (tmp + rename),
so a crash mid-save cannot corrupt an existing snapshot.
"""

from __future__ import annotations

import json
import mmap
import os
import struct
import sys
import zlib
from array import array
from itertools import islice
from operator import le
from typing import Any

from ..errors import SnapshotError
from ..engine.indexed import IndexedGraph
from . import faults

MAGIC = b"RSPQSNAP"
FORMAT_VERSION = 4
SUPPORTED_VERSIONS = (4,)

_U32 = struct.Struct("<I")

#: Manifest order of the binary arrays (fixed for determinism): the
#: forward and reverse CSR first...
_ARRAY_NAMES_V1 = (
    "out_indptr",
    "out_labels",
    "out_targets",
    "in_indptr",
    "in_labels",
    "in_sources",
)

#: ...then the reachability index (SCC condensation).
_REACH_ARRAY_NAMES = (
    "scc_comp_of",
    "scc_edge_labels",
    "scc_edge_sources",
    "scc_edge_targets",
)

_ARRAY_NAMES = _ARRAY_NAMES_V1 + _REACH_ARRAY_NAMES


def _int64_bytes(values):
    """``values`` as little-endian int64 bytes (portable across hosts)."""
    arr = array("q", values)
    if sys.byteorder == "big":  # pragma: no cover - exotic hosts
        arr.byteswap()
    return arr.tobytes()


def _int64_array(chunk):
    """A process-private ``array("q")`` copy of little-endian ``chunk``."""
    arr = array("q")
    arr.frombytes(chunk)
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

    ``graph`` may be an :class:`IndexedGraph` — compiled, loaded or
    attached — or anything its constructor accepts (a :class:`DbGraph`
    is compiled first).  Its adjacency arrays and reachability parts
    are written unchanged; the graph builds those parts if it has none
    yet, as its first :meth:`~IndexedGraph.reach_parts` call always
    does, and is otherwise left as it was.  The write is atomic: the
    snapshot lands under a temporary name and is renamed into place,
    so readers never observe a partial file.
    """
    if not isinstance(graph, IndexedGraph):
        graph = IndexedGraph(graph)

    vertices = _checked_vertices(graph.vertices())
    comp_of, num_comps, label_edges = graph.reach_parts()
    edge_labels, edge_sources, edge_targets = [], [], []
    for label_id, edges in enumerate(label_edges):
        for comp_from, comp_to in edges:
            edge_labels.append(label_id)
            edge_sources.append(comp_from)
            edge_targets.append(comp_to)

    sections = {name: getattr(graph, name) for name in _ARRAY_NAMES_V1}
    sections.update(
        scc_comp_of=comp_of,
        scc_edge_labels=edge_labels,
        scc_edge_sources=edge_sources,
        scc_edge_targets=edge_targets,
    )
    array_section = b"".join(
        _int64_bytes(sections[name]) for name in _ARRAY_NAMES
    )
    header = {
        "format_version": FORMAT_VERSION,
        "vertices": vertices,
        "labels": sorted(graph.labels()),
        "num_edges": graph.num_edges,
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


def _parse(data, path, mapping=None):
    """Validate ``data`` and build the compiled graph over its arrays.

    The one load/attach path, differing only in how each array is
    taken: with ``mapping=None`` it is copied into process-private
    ``array("q")`` storage (the classic load); with ``mapping`` set to
    the open read-only mmap backing ``data`` it is a zero-copy
    ``memoryview`` cast of the mapping, and the graph keeps the
    mapping alive.
    """
    header, offset = _read_header(data, path)
    header_raw = bytes(data[16:offset])
    (stored_crc,) = _U32.unpack_from(data, offset)
    offset += 4
    # CRC over a memoryview: no copy of the (possibly huge) array
    # section even in attach mode; every mapped page is touched once.
    array_section = memoryview(data)[offset:]
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
            if mapping is None:
                arrays[name] = _int64_array(chunk)
                chunk.release()
            else:
                # memoryview slicing + cast is zero-copy: the int64
                # view reads straight out of the shared file mapping.
                arrays[name] = chunk.cast("q")
            cursor += size
        if cursor != len(array_section):
            raise SnapshotError(
                "snapshot %s has %d trailing bytes after its arrays"
                % (path, len(array_section) - cursor)
            )
        graph = _thaw(header, arrays, path, mapping)
    finally:
        # Drop this frame's buffer export so a copy-mode caller can
        # close its mmap even while an error is propagating (the
        # per-name views in ``arrays`` are what attach mode keeps).
        array_section.release()
    return graph


def _thaw(header, arrays, path, mapping):
    """Check the arrays against each other and wrap them — no re-sort.

    Beyond the shapes, the vertex and label tables must be distinct,
    every id must index its table and each indptr must be a valid CSR
    row, so a file with a valid checksum but inconsistent contents
    fails here instead of answering wrongly.
    """
    vertices = header["vertices"]
    labels = header["labels"]
    n = len(vertices)
    num_labels = len(labels)
    # The tables are what ids resolve through: a duplicate would
    # silently alias two ids under one name.
    if not all(type(vertex) in (int, str) for vertex in vertices) or (
        len(set(vertices)) != n
    ):
        raise SnapshotError(
            "snapshot %s vertex table is not distinct ints and strings"
            % path
        )
    if not all(type(label) is str for label in labels) or (
        labels != sorted(set(labels))
    ):
        raise SnapshotError(
            "snapshot %s label table is not distinct sorted strings" % path
        )

    if len(arrays["out_indptr"]) != n + 1 or (
        len(arrays["in_indptr"]) != n + 1
    ):
        raise SnapshotError(
            "snapshot %s adjacency indptr does not match its %d "
            "vertices" % (path, n)
        )
    for name, limit in (
        ("out_labels", num_labels),
        ("in_labels", num_labels),
        ("out_targets", n),
        ("in_sources", n),
    ):
        # Read as uint64, a negative id exceeds every limit, so one max
        # over the array in place checks both ends: no list of E ints.
        values = arrays[name]
        if values and max(memoryview(values).cast("B").cast("Q")) >= limit:
            raise SnapshotError(
                "snapshot %s array %r holds an id outside [0, %d)"
                % (path, name, limit)
            )
    for labels_name, others in (
        ("out_labels", "out_targets"), ("in_labels", "in_sources"),
    ):
        if len(arrays[labels_name]) != len(arrays[others]):
            raise SnapshotError(
                "snapshot %s array %r disagrees in length with %r"
                % (path, labels_name, others)
            )
    for indptr, others in (
        ("out_indptr", "out_targets"), ("in_indptr", "in_sources"),
    ):
        _check_indptr(path, indptr, arrays[indptr], len(arrays[others]))

    return IndexedGraph.from_arrays(
        vertices, labels, header["num_edges"], arrays,
        reach_parts=_thaw_reach_parts(header, arrays, n, num_labels, path),
        mapping=mapping,
    )


def _check_indptr(path, name, indptr, end):
    """``indptr`` is a CSR row over a slice of ``end`` entries: it
    starts at 0, never decreases and ends at ``end``."""
    if indptr[0] != 0 or indptr[-1] != end or not all(
        map(le, indptr, islice(indptr, 1, None))
    ):
        raise SnapshotError(
            "snapshot %s array %r is not a valid CSR row (it must start "
            "at 0, never decrease and end at %d)" % (path, name, end)
        )


def _thaw_reach_parts(header, arrays, n, num_labels, path):
    """Validate and rebuild the reachability-index section.

    ``comp_of`` stays the array the snapshot holds (a private copy on
    load, the zero-copy memoryview over the mapping on attach) —
    :class:`ReachabilityIndex` only ever indexes into it.
    """
    num_comps = header.get("num_comps")
    if not isinstance(num_comps, int) or not 0 <= num_comps <= n or (
        n > 0 and num_comps < 1
    ):
        raise SnapshotError(
            "snapshot %s header carries an invalid num_comps %r for %d "
            "vertices" % (path, num_comps, n)
        )
    comp_of = arrays["scc_comp_of"]
    if len(comp_of) != n:
        raise SnapshotError(
            "snapshot %s reachability section does not match its %d "
            "vertices (%d component entries)" % (path, n, len(comp_of))
        )
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


def attach_snapshot(path: Any) -> IndexedGraph:
    """Attach to a snapshot: a compiled graph over the mmapped file.

    Unlike :func:`load_snapshot` (which copies every array into
    process-private memory), attaching maps the file read-only and
    casts the graph's arrays straight over the mapping — zero array
    copies.  N processes attached to one snapshot therefore share one
    physical copy of the graph through the page cache, which is the
    memory model behind the pre-fork worker pool
    (:class:`repro.service.workers.WorkerPool`).  A pooled
    :class:`~repro.service.registry.GraphRegistry` attaches the file in
    the server too, so the server's engine and every worker serve from
    that one copy.

    The returned :class:`IndexedGraph` keeps the mapping alive for its
    own lifetime and is safe for concurrent readers: the mapping is
    ``ACCESS_READ``, reads copy nothing into the graph, and the only
    state written after construction is the graph's reachability
    index, built once.  POSIX semantics apply to the file itself:
    deleting or atomically replacing the snapshot on disk does *not*
    disturb already-attached graphs (they keep serving the old inode);
    only fresh attaches see the new file — or raise a clean
    :class:`SnapshotError` when the file is gone or damaged.

    Validates exactly like :func:`load_snapshot` before returning.
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
            return _parse(mutated, path)
        finally:
            mm.close()
    if sys.byteorder == "big":  # pragma: no cover - exotic hosts
        # memoryview.cast("q") reads native-endian; on big-endian
        # hosts fall back to the copying load (correct, just not
        # shared).
        try:
            return _parse(mm, path)
        finally:
            mm.close()
    try:
        return _parse(mm, path, mapping=mm)
    except BaseException:
        try:
            mm.close()
        except BufferError:
            # The in-flight traceback still exports buffer views of
            # the mapping; it is released when the last view dies.
            pass
        raise


def load_snapshot(path: Any) -> IndexedGraph:
    """Load a snapshot back into an :class:`IndexedGraph` (array copies).

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
                return _parse(mm if mutated is None else mutated, path)
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
