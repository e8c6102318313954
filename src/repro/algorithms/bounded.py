"""RSPQ for finite languages — the AC0 case of the trichotomy.

For finite L every accepted word has length ≤ M - 1 (a longer run would
repeat a state and pump an infinite family).  The Lemma 17 easiness
argument expresses "there is a simple w-labeled path" as a fixed
first-order formula; operationally this is a constant-depth search: for
each of the finitely many words ``w ∈ L``, generated shortest first,
check for a simple w-labeled path with a depth-``|w|`` DFS whose
branching is pruned by w's letters.

The work is ``O(Σ_{w∈L} (branching)^{|w|})`` — constant-depth in the
graph size, matching the AC0 upper bound's spirit (data-independent
formula depth), and trivially polynomial for fixed L.

The search runs integer-native over a
:class:`~repro.graphs.view.GraphView`: letters become label ids, the
visited set is a flat bytearray indexed by vertex id (shared across all
word attempts of one query and cleaned by backtracking), and the path
is materialised back to vertex names only on success.
"""

from __future__ import annotations

from ..errors import ReproError
from ..execution import ExecutionContext
from ..graphs.view import as_graph_view
from ..languages import Language


class FiniteLanguageSolver:
    """Exact RSPQ evaluation for a finite language.

    The solver is immutable once constructed; per-query work lives in
    the :class:`~repro.execution.ExecutionContext` passed to each
    query, so one instance can serve concurrent queries.  Without an
    explicit context a query runs on a throwaway one.

    The words of L are generated lazily per query, shortest first, by
    :meth:`~repro.languages.dfa.DFA.enumerate_words`, so a query stops
    at its first matching word whatever the size of L.  Each word tried
    is one step charged to the context, which enforces its budget and
    deadline.
    """

    def __init__(self, language):
        if isinstance(language, str):
            language = Language(language)
        if not language.is_finite():
            raise ReproError(
                "FiniteLanguageSolver requires a finite language"
            )
        self.language = language
        self.dfa = language.dfa
        #: Letters of the words of L (the query's label mask).
        self.used_symbols = language.used_symbols

    def shortest_simple_path(self, graph, source, target, ctx=None):
        """Shortest simple L-labeled path (words tried short-first)."""
        if ctx is None:
            ctx = ExecutionContext()
        view = as_graph_view(graph)
        source_id = view.vertex_id(source)
        target_id = view.vertex_id(target)
        index = None
        if source_id != target_id:
            index = view.reachability()
            if not index.can_reach(
                source_id, target_id,
                view.label_mask(self.used_symbols),
            ):
                # No word of L can label any source→target walk, let
                # alone a simple path: NOT_FOUND without trying a word.
                return None
        visited = bytearray(view.num_vertices)
        # Words of a finite L are shorter than M: a longer run would
        # repeat a state and pump an infinite family.
        for word in self.dfa.enumerate_words(self.dfa.num_states - 1):
            ctx.charge_step()
            word_label_ids = view.word_label_ids(word)
            filters = None
            if index is not None and word_label_ids and (
                None not in word_label_ids
            ):
                # Suffix filters: after consuming letter i, the rest of
                # the word only uses labels in suffix_mask[i] — a
                # vertex whose component cannot reach the target under
                # that mask can never complete this word.
                suffix_mask = 0
                masks = [0] * len(word_label_ids)
                for position in range(len(word_label_ids) - 1, -1, -1):
                    masks[position] = suffix_mask
                    suffix_mask |= 1 << word_label_ids[position]
                if not index.can_reach(source_id, target_id, suffix_mask):
                    continue
                filters = [
                    index.comps_to(target_id, mask) for mask in masks
                ]
            found = _word_path_ids(
                view, source_id, target_id, word_label_ids,
                visited, index.comp_of if filters else None, filters,
            )
            if found is not None:
                return view.path(*found)
        return None

    def exists(self, graph, source, target, ctx=None):
        """Decision variant of RSPQ(L) for finite L."""
        return (
            self.shortest_simple_path(graph, source, target, ctx=ctx)
            is not None
        )


def find_simple_word_path(graph, source, target, word):
    """A simple path from source to target spelling exactly ``word``.

    Depth-|word| DFS; this is the ``path_w(x, y)`` FO predicate of the
    Lemma 17 easiness proof made executable.
    """
    view = as_graph_view(graph)
    found = _word_path_ids(
        view,
        view.vertex_id(source),
        view.vertex_id(target),
        view.word_label_ids(word),
        bytearray(view.num_vertices),
    )
    if found is None:
        return None
    return view.path(*found)


# invariant: hot-loop
def _word_path_ids(view, source_id, target_id, word_label_ids, visited,
                   comp_of=None, reach_filters=None):
    """Integer-native word-path DFS over a :class:`GraphView`.

    ``visited`` is a caller-owned bytearray scratch (all zeros on
    entry); backtracking restores it to all zeros on failure, so one
    allocation serves every word of a finite-language query.  Returns
    ``(vertex_ids, label_ids)`` or ``None``.

    ``reach_filters[i]`` (optional) is a per-component bytearray from
    the reachability index: a vertex entered by letter ``i`` whose
    component cannot reach the target under the word's remaining
    letters is abandoned without descending.
    """
    if source_id == target_id:
        return ((source_id,), ()) if not word_label_ids else None
    if not word_label_ids or None in word_label_ids:
        # Empty word between distinct vertices, or a letter labeling
        # no edge at all — no path can spell it.
        return None
    out = view.out
    last_position = len(word_label_ids) - 1
    vertices = [source_id]
    visited[source_id] = 1

    def dfs(position):
        current = vertices[-1]
        if position > last_position:
            return current == target_id
        # The last letter must land exactly on the target; intermediate
        # letters must avoid it (a simple path visits it only once).
        # The letter's edges come out of ``out`` in ascending id order.
        letter = word_label_ids[position]
        for label_id, nxt in out(current):
            if label_id != letter or visited[nxt]:
                continue
            if position < last_position and nxt == target_id:
                continue
            if position == last_position and nxt != target_id:
                continue
            if reach_filters is not None and position < last_position and (
                not reach_filters[position][comp_of[nxt]]
            ):
                continue
            vertices.append(nxt)
            visited[nxt] = 1
            if dfs(position + 1):
                return True
            visited[nxt] = 0
            vertices.pop()
        return False

    if dfs(0):
        # Success leaves the path bits set; clear them for the next word.
        result = tuple(vertices)
        for vertex_id in result:
            visited[vertex_id] = 0
        return result, word_label_ids
    visited[source_id] = 0
    return None
