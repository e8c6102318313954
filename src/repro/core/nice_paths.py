"""Polynomial simple-path search for trC languages (Lemmas 12-16).

The paper's NL algorithm enumerates *candidate summaries* — logarithmic
descriptions of a path where each long stay inside an automaton
component is compressed to ``Σ*_C`` — and completes each candidate into
a *nice path* whose compressed gaps are filled with shortest
component-internal paths under the ``acc(i)`` disjointness discipline of
Definition 4.

This module implements the deterministic, practical rendition driven by
the Ψtr decomposition of L (Theorem 4 and the remark following it):

* a Ψtr-sequence ``w0 (A1≥k1+ε) … (Am≥km+ε) w'`` fixes the *shape* of a
  summary: concrete anchored edges for the words and for the first k and
  last k letters of each star term, with a ``A*``-gap in between.  A
  factored sequence's fragments (finite languages as acyclic DFAs) are
  pinned the same way: the DFS follows an edge when the fragment has an
  arc for its label and carries the fragment's state, so one search
  covers every word of the fragment;
* candidate summaries are enumerated by walking actual graph edges (so
  only realizable anchor tuples are ever considered), pruned by a
  product reachability table (sequence-NFA × graph);
* each complete anchor assignment is completed gap by gap, in path
  order, with BFS-shortest ``A*``-paths avoiding all anchored vertices
  and all earlier ``acc(i)`` balls — exactly Definition 4;
* the minimum over all completions is returned.  By the (adapted)
  Lemma 14, the shortest simple L-labeled path is *nice*, so its own
  anchors appear in the enumeration and its completion is found; hence
  the algorithm is exact and returns a shortest simple L-labeled path.

The whole search runs integer-native over a
:class:`~repro.graphs.view.GraphView`: vertices are contiguous ids,
the pinned/blocked sets are flat bytearrays, symbol classes are label
bitmasks, the live table packs ``(vertex, nfa_state)`` into one int,
and the winning candidate is materialised back to vertex names only at
result construction.

Soundness never depends on the adaptation: every produced path is
checked simple and L-labeled.  Completeness is additionally
cross-validated against the exponential exact solver in the test suite.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from ..errors import GraphError
from ..execution import ExecutionContext
from ..graphs.dbgraph import Path
from ..graphs.view import as_graph_view
from ..languages import Language
from .psitr import (
    PsitrExpression,
    StarTerm,
    decompose,
)

# -- internal segment normal form ------------------------------------------------

_FRAGMENT = "fragment"  # a fragment (a word is a one-path one), optional or not
_STAR = "star"          # (A≥k + ε)


def _segments_of(sequence):
    """Normalise a PsitrSequence into the solver's segment list.

    The lead, the trail and every optional term become fragment
    segments ``(fragment, optional, min_length)``; an empty lead or
    trail is left out.
    """
    segments = []

    def add(fragment, optional):
        min_length = 0 if optional else fragment.min_length()
        segments.append((_FRAGMENT, (fragment, optional, min_length)))

    if not sequence.lead.is_epsilon():
        add(sequence.lead, False)
    for term in sequence.terms:
        if isinstance(term, StarTerm):
            segments.append((_STAR, (term.symbols, term.min_count)))
        else:
            add(term.fragment, True)
    if not sequence.trail.is_epsilon():
        add(sequence.trail, False)
    return segments


def _int_segments(view, segments):
    """Segments with letters as label ids and classes as label masks.

    A fragment becomes ``(arcs, finals, optional, min_length)`` with
    ``arcs[q]`` its ``(label_id, target)`` moves; a letter that labels
    no graph edge loses its arcs (no path can spell it).  Star classes
    become bitmasks over the view's label ids.
    """
    label_id = view.label_id
    result = []
    for kind, payload in segments:
        if kind == _STAR:
            symbols, min_count = payload
            result.append((kind, (view.label_mask(symbols), min_count)))
            continue
        fragment, optional, min_length = payload
        arcs = tuple(
            tuple(
                (label_id(symbol), target) for symbol, target in moves
                if label_id(symbol) is not None
            )
            for moves in fragment.arcs
        )
        result.append(
            (kind, (arcs, fragment.finals, optional, min_length))
        )
    return result


def _segments_mask(segments):
    """Union label mask over an integer segment list.

    The only labels any path matching the sequence can carry: fragment
    letters plus every star class.  Used to gate a sequence against the
    reachability index before any per-sequence structure is built.
    """
    mask = 0
    for kind, payload in segments:
        if kind == _STAR:
            mask |= payload[0]
        else:
            for moves in payload[0]:
                for label_id, _ in moves:
                    mask |= 1 << label_id
    return mask


def _min_remaining(segments):
    """Minimal number of edges each segment suffix must still contribute."""
    totals = [0] * (len(segments) + 1)
    for index in range(len(segments) - 1, -1, -1):
        kind, payload = segments[index]
        contribution = payload[3] if kind == _FRAGMENT else 0
        totals[index] = totals[index + 1] + contribution
    return totals


# -- sequence NFA for live-set pruning --------------------------------------------


class _SequenceNfa:
    """Tiny positional NFA over an integer segment list, for pruning.

    States are integers.  ``letter_arcs[state]`` is a list of
    ``(label_mask, target)``; ``eps_arcs[state]`` a list of targets.
    A fragment segment gets one state per fragment state (its initial
    state is the segment's entry) and exits through its single final
    state, or through a fresh state every final one reaches by ε;
    ``pinned_arcs[state]`` lists its ``(label_id, target)`` moves and
    ``finishes[state]`` marks the states with an ε-arc to that exit.
    The DFS knows exactly which state it is in at each anchored
    position, so the live table ``vertex_id * num_states + state``
    prunes both prefix feasibility (from x) and suffix feasibility
    (to y).
    """

    def __init__(self, segments):
        self.letter_arcs = []
        self.eps_arcs = []
        self.pinned_arcs = []
        self.finishes = []
        self.entry = []  # entry state of each segment
        self.star_loop = {}  # segment index -> looping state

        def new_state():
            self.letter_arcs.append([])
            self.eps_arcs.append([])
            self.pinned_arcs.append([])
            self.finishes.append(False)
            return len(self.letter_arcs) - 1

        def epsilon(source, target):
            self.eps_arcs[source].append(target)
            self.finishes[source] = True

        current = new_state()
        self.start = current
        for index, (kind, payload) in enumerate(segments):
            self.entry.append(current)
            if kind == _FRAGMENT:
                arcs, finals, optional, _ = payload
                states = [current] + [new_state() for _ in arcs[1:]]
                for state, moves in zip(states, arcs):
                    for label_id, target in moves:
                        self.letter_arcs[state].append(
                            (1 << label_id, states[target])
                        )
                        self.pinned_arcs[state].append(
                            (label_id, states[target])
                        )
                if len(finals) == 1:
                    (final,) = finals
                    exit_state = states[final]
                else:
                    exit_state = new_state()
                    for final in sorted(finals):
                        epsilon(states[final], exit_state)
                if optional and exit_state != current:
                    epsilon(current, exit_state)
                current = exit_state
            else:
                mask, min_count = payload
                begin = current
                for _ in range(min_count):
                    nxt = new_state()
                    self.letter_arcs[current].append((mask, nxt))
                    current = nxt
                # self-loop for additional letters
                self.letter_arcs[current].append((mask, current))
                self.star_loop[index] = current
                after = new_state()
                self.eps_arcs[begin].append(after)
                self.eps_arcs[current].append(after)
                current = after
        self.entry.append(current)
        self.final = current
        self.num_states = len(self.letter_arcs)

    def predecessors(self):
        """Reverse arcs: list per state of (mask, source) and ε sources."""
        rev_letters = [[] for _ in range(self.num_states)]
        rev_eps = [[] for _ in range(self.num_states)]
        for state in range(self.num_states):
            for mask, target in self.letter_arcs[state]:
                rev_letters[target].append((mask, state))
            for target in self.eps_arcs[state]:
                rev_eps[target].append(state)
        return rev_letters, rev_eps


# invariant: hot-loop
def _live_table(view, nfa, target_id, from_source, comp_of):
    """Flat goal-reachability table over packed ``vertex * |Q| + state``.

    Backward product reachability from ``(target, final)``; simplicity
    is ignored (this is a pruning overapproximation).  The result is a
    bytearray indexed by packed node, so the hot-loop liveness test is
    one array read instead of a set hash.

    The seed intersected this with *forward* reachability from
    ``(source, start)``, but the anchored DFS only ever constructs
    configurations that are forward-reachable by construction — pinned
    runs extend real product walks, and gap exits come from
    :meth:`_SequenceSearch._reach` through the star's own self-loop
    state — so the forward half never pruned anything and is dropped
    (verified behavior-identical, step counts included, by the
    differential suite).

    ``from_source`` (a component filter from the reachability index)
    restricts the backward BFS to vertices the source can reach under
    the sequence's label mask.  Every configuration the anchored DFS
    constructs extends a real product walk from the source, so its
    vertex lies inside that region — the restriction never changes an
    aliveness answer the search can ask, it only shrinks the build.
    """
    num_states = nfa.num_states
    size = view.num_vertices * num_states
    rev_letters, rev_eps = nfa.predecessors()
    in_pairs = view.in_pairs
    backward = bytearray(size)
    stack = []
    node = target_id * num_states + nfa.final
    backward[node] = 1
    stack.append(node)
    while stack:
        node = stack.pop()
        vertex_id, state = divmod(node, num_states)
        for eps_source in rev_eps[state]:
            nxt = vertex_id * num_states + eps_source
            if not backward[nxt]:
                backward[nxt] = 1
                stack.append(nxt)
        arcs = rev_letters[state]
        if not arcs:
            continue
        edges = in_pairs(vertex_id)
        for mask, nfa_source in arcs:
            for label_id, graph_source in edges:
                if not mask >> label_id & 1:
                    continue
                if not from_source[comp_of[graph_source]]:
                    continue
                nxt = graph_source * num_states + nfa_source
                if not backward[nxt]:
                    backward[nxt] = 1
                    stack.append(nxt)
    return bytes(backward)


# -- candidate anchors and completion ------------------------------------------------


@dataclass
class _Run:
    """A fully pinned stretch of the candidate path (ids / label ids)."""

    vertices: list
    labels: list


@dataclass
class _Gap:
    """A compressed ``A*`` stretch between two pinned vertices."""

    mask: int


def path_weight(path, weight_fn):
    """Total weight of a path under ``weight_fn(u, label, v) -> R+``."""
    return sum(weight_fn(u, label, v) for u, label, v in path.steps())


# invariant: hot-loop
def _gap_distances(view, entry, exit_vertex, mask, blocked, weight_fn,
                   ctx):
    """Shortest distances from ``entry`` inside a gap's restrictions.

    Unweighted gaps use BFS; weighted gaps use Dijkstra (the paper's
    remark that the algorithm generalises to db-graphs weighted by
    ``E → R+``).  ``blocked`` is a bytearray over vertex ids.  Returns
    ``(dist, parent, touched, found)``: flat per-vertex distance and
    back-pointer lists, the list of discovered ids, and the exit's
    distance (``None`` when unreachable inside the gap).

    The search stops once every vertex within the exit's distance is
    settled — vertices strictly farther can neither shorten the gap nor
    join its ``acc(i)`` ball (which keeps only ``d <= found``), so
    exploring the rest of the component is pure waste.
    """
    ctx.poll_deadline()
    num_vertices = view.num_vertices
    dist = [None] * num_vertices
    parent = [None] * num_vertices
    dist[entry] = 0
    touched = [entry]
    found = None
    out = view.out
    if weight_fn is None:
        queue = deque((entry,))
        while queue:
            current = queue.popleft()
            base = dist[current]
            if found is not None and base >= found:
                break
            base += 1
            for label_id, target in out(current):
                if not mask >> label_id & 1:
                    continue
                if blocked[target] or dist[target] is not None:
                    continue
                dist[target] = base
                parent[target] = (current, label_id)
                touched.append(target)
                queue.append(target)
                if target == exit_vertex:
                    found = base
        return dist, parent, touched, found
    import heapq

    vertex_at = view.vertex_at
    label_at = view.label_at
    heap = [(0, entry)]
    settled = bytearray(num_vertices)
    while heap:
        weight, current = heapq.heappop(heap)
        if settled[current]:
            continue
        if found is not None and weight > found:
            break
        settled[current] = 1
        if current == exit_vertex:
            found = weight
        for label_id, target in out(current):
            if not mask >> label_id & 1 or blocked[target]:
                continue
            step = weight_fn(
                vertex_at(current), label_at(label_id), vertex_at(target)
            )
            if step <= 0:
                raise GraphError(
                    "edge weights must be strictly positive, got %r for "
                    "(%r, %r, %r)"
                    % (
                        step, vertex_at(current), label_at(label_id),
                        vertex_at(target),
                    )
                )
            candidate = weight + step
            previous = dist[target]
            if previous is None or candidate < previous:
                if previous is None:
                    touched.append(target)
                dist[target] = candidate
                parent[target] = (current, label_id)
                heapq.heappush(heap, (candidate, target))
    return dist, parent, touched, found


def _complete_candidate(view, pieces, ctx, weight_fn=None):
    """Fill the gaps of a pinned candidate (Definition 4 discipline).

    ``pieces`` alternates _Run and _Gap, starting and ending with runs,
    everything in vertex/label ids.  Returns an id-path
    ``(vertex_ids, label_ids)`` or ``None`` when some gap cannot be
    filled.
    """
    pinned = bytearray(view.num_vertices)
    for piece in pieces:
        if isinstance(piece, _Run):
            for vertex_id in piece.vertices:
                pinned[vertex_id] = 1
    acc_union = set()
    vertices = list(pieces[0].vertices)
    labels = list(pieces[0].labels)
    index = 1
    while index < len(pieces):
        gap = pieces[index]
        next_run = pieces[index + 1]
        entry = vertices[-1]
        exit_vertex = next_run.vertices[0]
        blocked = bytearray(pinned)
        blocked[entry] = 0
        blocked[exit_vertex] = 0
        for vertex_id in acc_union:
            blocked[vertex_id] = 1
        dist, parent, touched, found = _gap_distances(
            view, entry, exit_vertex, gap.mask, blocked, weight_fn, ctx
        )
        if found is None or exit_vertex == entry:
            return None
        # acc(i): everything within distance `found` under the gap's
        # restrictions (P_i paths of size w(p) <= length_i, Definition 4).
        acc_union.update(
            vertex_id for vertex_id in touched if dist[vertex_id] <= found
        )
        # Reconstruct the shortest gap path.
        gap_labels = deque()
        gap_vertices = deque()
        cursor = exit_vertex
        while cursor != entry:
            previous, label_id = parent[cursor]
            gap_vertices.appendleft(cursor)
            gap_labels.appendleft(label_id)
            cursor = previous
        vertices.extend(gap_vertices)
        labels.extend(gap_labels)
        # Append the following run (its first vertex is already placed).
        vertices.extend(next_run.vertices[1:])
        labels.extend(next_run.labels)
        index += 2
    if len(set(vertices)) != len(vertices):  # pragma: no cover - discipline
        return None
    return tuple(vertices), tuple(labels)


class _SequenceSearch:
    """Anchored DFS for one Ψtr-sequence on one query (integer-native)."""

    def __init__(self, view, segments, source_id, target_id, ctx,
                 reach_index, weight_fn=None):
        self.view = view
        self._out = view.out
        self.segments = segments
        self.source_id = source_id
        self.target_id = target_id
        self.ctx = ctx
        self.weight_fn = weight_fn
        self.nfa = _SequenceNfa(self.segments)
        self.live = _live_table(
            view, self.nfa, target_id,
            reach_index.comps_from(source_id, _segments_mask(segments)),
            reach_index.comp_of,
        )
        self.min_remaining = _min_remaining(self.segments)
        self.best = None          # (vertex_ids, label_ids) or None
        self.best_metric = None
        self._reach_cache = {}
        self._num_nfa_states = self.nfa.num_states
        self._pinned_arcs = self.nfa.pinned_arcs
        self._finishes = self.nfa.finishes
        # arc-target table: _arc_target[state][label_id] -> next state
        # (or None), replacing a per-edge scan of the state's arcs with
        # one list index in the anchored-DFS hot loops.  First matching
        # arc wins, same as the scan it replaces.
        num_labels = view.num_labels
        self._arc_target = [
            [None] * num_labels for _ in range(self._num_nfa_states)
        ]
        for state, arcs in enumerate(self.nfa.letter_arcs):
            row = self._arc_target[state]
            for mask, target in arcs:
                label_id = 0
                while mask:
                    if mask & 1 and row[label_id] is None:
                        row[label_id] = target
                    mask >>= 1
                    label_id += 1

    # -- helpers -----------------------------------------------------------------

    def _metric(self, id_path):
        vertex_ids, label_ids = id_path
        if self.weight_fn is None:
            return len(label_ids)
        vertex_at = self.view.vertex_at
        label_at = self.view.label_at
        return sum(
            self.weight_fn(vertex_at(u), label_at(label_id), vertex_at(v))
            for u, label_id, v in zip(vertex_ids, label_ids, vertex_ids[1:])
        )

    # invariant: hot-loop
    def _reach(self, vertex_id, mask):
        """Ids reachable from ``vertex_id`` via ≥1 edges in ``mask``
        (unrestricted — a pruning superset), ascending (= repr order)."""
        key = (vertex_id, mask)
        cached = self._reach_cache.get(key)
        if cached is not None:
            return cached
        out = self._out
        seen = set()
        queue = deque((vertex_id,))
        while queue:
            current = queue.popleft()
            for label_id, nxt in out(current):
                if mask >> label_id & 1 and nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        result = tuple(sorted(seen))
        self._reach_cache[key] = result
        return result

    # -- DFS ----------------------------------------------------------------------

    def run(self, best_bound=None):
        self.best_bound = best_bound
        start_run = _Run([self.source_id], [])
        pinned = bytearray(self.view.num_vertices)
        pinned[self.source_id] = 1
        # Pinned length so far (gaps count 1 minimum each), maintained
        # incrementally at every push/pop site so the per-step length
        # prune costs O(1) instead of a walk over the pieces.
        self._pinned_length = 0
        self._search(0, self.nfa.start, [start_run], pinned)
        return self.best

    def _too_long(self, pieces, seg_index):
        if self.weight_fn is not None:
            # Edge counts do not bound weights; skip the length prune.
            return False
        if self.best is not None:
            bound = len(self.best[1])
        elif self.best_bound is not None:
            bound = self.best_bound
        else:
            return False
        return (
            self._pinned_length + self.min_remaining[seg_index] >= bound
        )

    def _search(self, seg_index, state, pieces, pinned):
        self.ctx.charge_step()
        if self._too_long(pieces, seg_index):
            return
        current = pieces[-1].vertices[-1]
        if state is not None and not (
            self.live[current * self._num_nfa_states + state]
        ):
            return
        if seg_index == len(self.segments):
            if current != self.target_id:
                return
            id_path = _complete_candidate(
                self.view, pieces, self.ctx, weight_fn=self.weight_fn
            )
            if id_path is not None:
                metric = self._metric(id_path)
                if self.best is None or metric < self.best_metric:
                    self.best = id_path
                    self.best_metric = metric
            return
        kind, payload = self.segments[seg_index]
        if kind == _FRAGMENT:
            self._follow_fragment(seg_index, state, pieces, pinned)
        else:
            self._follow_star(seg_index, state, pieces, pinned, payload)

    def _next_entry_state(self, seg_index):
        return self.nfa.entry[seg_index + 1]

    # invariant: hot-loop
    def _follow_fragment(self, seg_index, state, pieces, pinned):
        """Pin edges along the fragment's arcs from NFA ``state``; at
        the segment's exit, or a state with an ε-arc to it, continue
        with the next segment."""
        exit_state = self.nfa.entry[seg_index + 1]
        if state == exit_state or self._finishes[state]:
            self._search(seg_index + 1, exit_state, pieces, pinned)
            if state == exit_state:
                return
        arcs = self._pinned_arcs[state]
        if not arcs:
            return
        run = pieces[-1]
        vertices = run.vertices
        labels = run.labels
        current = vertices[-1]
        live = self.live
        num_states = self._num_nfa_states
        # One read of the vertex's edges, filtered per pinned arc: a
        # label's edges keep their ascending id order.
        edges = self._out(current)
        for label_id, next_state in arcs:
            for edge_label, target in edges:
                if edge_label != label_id or pinned[target]:
                    continue
                if not live[target * num_states + next_state]:
                    continue
                vertices.append(target)
                labels.append(label_id)
                pinned[target] = 1
                self._pinned_length += 1
                self._follow_fragment(seg_index, next_state, pieces, pinned)
                self._pinned_length -= 1
                pinned[target] = 0
                vertices.pop()
                labels.pop()

    def _follow_star(self, seg_index, state, pieces, pinned, payload):
        mask, min_count = payload
        after_state = self._next_entry_state(seg_index)
        # Branch 1: ε.
        self._search(seg_index + 1, after_state, pieces, pinned)
        # Branch 2: exact pinned matches of length m in [min_count, 2k].
        for length in range(min_count, 2 * min_count + 1):
            self._follow_class_letters(
                state,
                pieces,
                pinned,
                mask,
                length,
                lambda pcs, pnd: self._search(
                    seg_index + 1, after_state, pcs, pnd
                ),
            )
        # Branch 3: k anchors + gap + k anchors (total length >= 2k+1).
        loop_state = self.nfa.star_loop.get(seg_index)

        def after_head(pcs, pnd):
            head_vertex = pcs[-1].vertices[-1]
            live = self.live
            num_states = self._num_nfa_states
            for exit_vertex in self._reach(head_vertex, mask):
                if pnd[exit_vertex]:
                    continue
                if loop_state is not None and not live[
                    exit_vertex * num_states + loop_state
                ]:
                    continue
                gap = _Gap(mask)
                new_run = _Run([exit_vertex], [])
                pcs.append(gap)
                pcs.append(new_run)
                pnd[exit_vertex] = 1
                self._pinned_length += 1
                self._follow_class_letters(
                    loop_state,
                    pcs,
                    pnd,
                    mask,
                    min_count,
                    lambda pcs2, pnd2: self._search(
                        seg_index + 1, after_state, pcs2, pnd2
                    ),
                )
                self._pinned_length -= 1
                pnd[exit_vertex] = 0
                pcs.pop()
                pcs.pop()

        self._follow_class_letters(
            state, pieces, pinned, mask, min_count, after_head
        )

    def _follow_class_letters(
        self, state, pieces, pinned, mask, count, continuation
    ):
        """Pin ``count`` edges with labels in ``mask``."""
        if count == 0:
            continuation(pieces, pinned)
            return
        run = pieces[-1]
        current = run.vertices[-1]
        arc_row = None if state is None else self._arc_target[state]
        live = self.live
        num_states = self._num_nfa_states
        vertices = run.vertices
        labels = run.labels
        for label_id, target in self._out(current):
            if not mask >> label_id & 1 or pinned[target]:
                continue
            next_state = None if arc_row is None else arc_row[label_id]
            if next_state is not None and not (
                live[target * num_states + next_state]
            ):
                continue
            vertices.append(target)
            labels.append(label_id)
            pinned[target] = 1
            self._pinned_length += 1
            self._follow_class_letters(
                next_state, pieces, pinned, mask, count - 1, continuation
            )
            self._pinned_length -= 1
            pinned[target] = 0
            vertices.pop()
            labels.pop()


class TractableSolver:
    """Shortest simple L-labeled paths for ``L ∈ trC`` in polynomial time.

    Parameters
    ----------
    language:
        A :class:`~repro.languages.Language` (or regex string) in trC.
    expression:
        Optional pre-computed :class:`PsitrExpression`; by default the
        language is decomposed via :func:`repro.core.psitr.decompose`
        (syntactic extraction, then validated synthesis).
    """

    def __init__(self, language, expression=None):
        if isinstance(language, str):
            language = Language(language)
        self.language = language
        if expression is None:
            expression = decompose(language)
        if not isinstance(expression, PsitrExpression):
            raise TypeError("expression must be a PsitrExpression")
        self.expression = expression
        self._segments = [_segments_of(seq) for seq in expression.sequences]
        #: Symbols occurring in some word of L (the query label mask).
        self.used_symbols = language.used_symbols

    def shortest_simple_path(self, graph, source, target, weight_fn=None,
                             ctx=None):
        """A shortest simple L-labeled path, or ``None``.

        Runs the anchored search for every Ψtr-sequence of the
        decomposition and returns the overall shortest completion.  The
        result is always verified simple and L-labeled.

        ``weight_fn(u, label, v) -> R+`` switches to weighted-shortest
        semantics (the paper's E → R+ generalisation); weights must be
        strictly positive.

        ``ctx`` carries the query's steps, budget and deadline: each
        anchored-DFS step is one step, and each gap search polls the
        deadline; without one the query runs on a throwaway,
        unbudgeted context.
        """
        view = as_graph_view(graph)
        source_id = view.vertex_id(source)
        target_id = view.vertex_id(target)
        if ctx is None:
            ctx = ExecutionContext()
        if source_id == target_id:
            if self.language.accepts(""):
                return Path.single(view.vertex_at(source_id))
            return None
        reach_index = view.reachability()
        if not reach_index.can_reach(
            source_id, target_id, view.label_mask(self.used_symbols),
        ):
            # Unreachable even with regular-path semantics under every
            # label L can use: NOT_FOUND, no anchored search.
            return None
        best = None
        best_metric = None
        for segments in self._segments:
            segments = _int_segments(view, segments)
            # A sequence whose own label mask cannot carry the source to
            # the target is dead: skip the NFA build, the live table and
            # the whole anchored DFS for it.
            if not reach_index.can_reach(
                source_id, target_id, _segments_mask(segments)
            ):
                continue
            search = _SequenceSearch(
                view, segments, source_id, target_id, ctx, reach_index,
                weight_fn=weight_fn,
            )
            found = search.run(
                best_bound=(
                    len(best[1])
                    if best is not None and weight_fn is None
                    else None
                )
            )
            if found is not None:
                metric = search.best_metric
                if best is None or metric < best_metric:
                    best = found
                    best_metric = metric
        if best is None:
            return None
        path = view.path(*best)
        if not path.is_simple():
            raise GraphError("solver produced a non-simple path (bug)")
        if not self.language.accepts(path.word):
            raise GraphError(
                "solver produced a path outside L (bug): %r" % path.word
            )
        return path

    def exists(self, graph, source, target, ctx=None):
        """Decision variant of RSPQ(L)."""
        return (
            self.shortest_simple_path(graph, source, target, ctx=ctx)
            is not None
        )
