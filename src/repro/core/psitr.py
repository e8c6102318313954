"""The Ψtr regular-expression fragment (Section 3.5, Theorem 4).

Ψtr-terms are ``(w + ε)`` and ``(A≥k + ε)``; a Ψtr-sequence is a
concatenation ``w φ1 … φl w′`` of terms between two plain words; the
fragment Ψtr is the set of finite disjunctions of Ψtr-sequences.
Theorem 4: L ∈ trC iff L is recognised by a Ψtr expression.

This module provides the fragment's AST (:class:`StarTerm`,
:class:`FragmentTerm`, :class:`PsitrSequence`, :class:`PsitrExpression`),
compilable to NFAs: each part emits itself into one
:class:`~repro.languages.nfa.NfaBuilder`, so an expression's NFA is
one linear pass.  Words are kept as :class:`Fragment` objects, finite
languages as small acyclic DFAs: a plain word is a one-path fragment,
and a sequence whose lead, trail or optional terms hold more words is
*factored* — the union of the plain sequences obtained by picking one
word from each fragment.  :func:`extract` is a syntactic extractor for
regex ASTs of the right shape, and :func:`synthesize` decomposes any
L ∈ trC as follows.

Work on the minimal DFA's useful states (reachable and co-reachable),
condensed into strongly connected components.  A *looping* component C
has internal alphabet ``Σ_C``; a run's *stay* in C counts the letters
it reads inside C.  For k = 1, 2, …, M (M the number of DFA states)
build the *finite part*, one fragment of the accepted words whose every
stay is shorter than 3k letters, and one factored sequence per *chain*
C1 < … < Cm of looping components, each reachable from the one before::

    lead (Σ_C1≥k + ε) (X1 + ε) (Σ_C2≥k + ε) … (Σ_Cm≥k + ε) trail

The lead walks from the initial state into C1, staying fewer than 3k
letters in every component on the way, and reads k letters inside C1;
the connector X_i reads k letters inside C_i, leaves it, walks into
C_{i+1} the same way and reads k letters there; the trail reads k
letters inside Cm and leaves the same way for an accepting state (or
stops, when it is one already).

*The union contains L by construction:* cut an accepting run at its
stays of 3k letters or more.  With none, the word is in the finite part;
otherwise the first and last k letters of each long stay go to the
fragments beside it and the middle, at least k letters of ``Σ_Ci``, to
the star term between them.  *It lies inside L exactly when every
chain's sequence does*, which one emptiness test on the product of the
sequence's NFA with the DFA's rejecting states decides — polynomial,
with no determinisation.  :func:`synthesize` returns the first k at
which every chain passes.

The anchored simple-path solver (:mod:`repro.core.nice_paths`) consumes
:class:`PsitrSequence` objects directly, fragments included.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import islice
from typing import FrozenSet, Optional, Tuple

from ..errors import NotInTrCError, ReproError
from ..languages import Language
from ..languages.nfa import NfaBuilder
from ..languages.regex import ast as rx
from ..languages.regex import builder
from ..languages.analysis import strongly_connected_components
from .trc import _as_minimal_dfa, is_in_trc

#: Cap on the number of sequences produced by distributing unions /
#: character classes during extraction.
_MAX_SEQUENCES = 512

#: Cap on the component chains :func:`synthesize` builds sequences for:
#: n looping components in a row have 2^n - 1 of them, each one product
#: check per k and one anchored search per query.  The pools need ≤ 31.
_MAX_CHAINS = 256


def _nfa_of(part):
    """The NFA of a fragment or sequence: one emission."""
    nfa = NfaBuilder()
    start = nfa.state()
    return nfa.build([start], [part.emit(nfa, start)])


@dataclass(frozen=True)
class StarTerm:
    """The term ``(A≥k + ε)``: the empty word or ≥ k letters from A."""

    symbols: FrozenSet[str]
    min_count: int

    def __post_init__(self):
        if self.min_count < 1:
            raise ValueError("min_count must be >= 1 (A≥0 + ε is A* = A≥1 + ε)")
        if not self.symbols:
            raise ValueError("StarTerm needs at least one symbol")

    def emit(self, nfa, entry):
        """Emit the term into the NFA builder ``nfa`` from ``entry``."""
        letters = sorted(self.symbols)

        def at_least(start):
            for _ in range(self.min_count):
                start = nfa.letters(start, letters)
            return nfa.star(start, partial(nfa.letters, symbols=letters))

        return nfa.optional(entry, at_least)

    def __str__(self):
        return "([%s]>=%d + ε)" % ("".join(sorted(self.symbols)), self.min_count)


def _union(first, second):
    """``first + second`` with a shared first or last factor pulled out
    and ε last, so that eliminated fragments stay readable."""
    x, y = (r.parts if isinstance(r, rx.Concat) else (r,) for r in (first, second))
    if x != y and len(x) + len(y) > 2:
        if x[0] == y[0]:
            rest = _union(builder.concat(*x[1:]), builder.concat(*y[1:]))
            return builder.concat(x[0], rest)
        if x[-1] == y[-1]:
            rest = _union(builder.concat(*x[:-1]), builder.concat(*y[:-1]))
            return builder.concat(rest, x[-1])
    parts = [p for r in (first, second) for p in (r.parts if isinstance(r, rx.Union) else (r,))]
    return builder.union(*sorted(parts, key=lambda part: isinstance(part, rx.Epsilon)))


@dataclass(frozen=True)
class Fragment:
    """A finite language as a trim, minimal, acyclic DFA.

    State 0 is initial and every arc leads to a higher-numbered state;
    ``arcs[q]`` lists the ``(symbol, target)`` moves of state ``q`` by
    symbol, and ``finals`` holds the accepting states.  Every state
    reaches a final one.
    """

    arcs: Tuple[Tuple[Tuple[str, int], ...], ...]
    finals: FrozenSet[int]

    @classmethod
    def word(cls, text):
        """The one-path fragment of the single word ``text``."""
        arcs = tuple(((symbol, index + 1),) for index, symbol in enumerate(text))
        return cls(arcs + ((),), frozenset((len(text),)))

    def is_epsilon(self):
        """True for the fragment of the empty word alone."""
        return self.arcs == ((),)

    def emit(self, nfa, entry):
        """Emit the fragment into the NFA builder ``nfa``, with state 0
        at ``entry`` (no arc enters it).  It ends in the last state,
        which is final and has no arc out: the other finals move there
        by ε."""
        ids = [entry] + [nfa.state() for _ in self.arcs[1:]]
        for source, arcs in zip(ids, self.arcs):
            for symbol, target in arcs:
                nfa.arc(source, symbol, ids[target])
        end = ids[-1]
        for state in sorted(self.finals):
            if ids[state] != end:
                nfa.arc(ids[state], None, end)
        return end

    def to_nfa(self):
        return _nfa_of(self)

    def min_length(self):
        """Length of the fragment's shortest word."""
        shortest = [0] * len(self.arcs)
        for state in reversed(range(len(self.arcs))):
            if state not in self.finals:
                shortest[state] = 1 + min(
                    shortest[target] for _, target in self.arcs[state]
                )
        return shortest[0]

    def to_regex(self):
        """A star-free regex AST of the fragment's language, by state
        elimination from the last state back."""
        sink = len(self.arcs)
        edges = {}  # (source, target) -> regex

        def add(source, target, regex):
            old = edges.get((source, target))
            edges[source, target] = regex if old is None else _union(old, regex)

        for state, arcs in enumerate(self.arcs):
            for target in sorted({target for _, target in arcs}):
                letters = [a for a, nxt in arcs if nxt == target]
                add(state, target, builder.char_class(letters))
            if state in self.finals:
                add(state, sink, builder.epsilon())
        for state in reversed(range(1, sink)):
            # Every later state is gone, so the only edge out leads to the sink.
            tail = edges.pop((state, sink))
            for source, _ in [edge for edge in edges if edge[1] == state]:
                add(source, sink, builder.concat(edges.pop((source, state)), tail))
        return edges[0, sink]

    def __str__(self):
        regex = self.to_regex()
        return "(%s)" % regex if isinstance(regex, rx.Union) else str(regex)


@dataclass(frozen=True)
class FragmentTerm:
    """The term ``(F + ε)`` for a fragment F: shorthand for the union
    of the terms ``(w + ε)`` over the words w of F; ``(w + ε)`` itself
    for a one-path fragment."""

    fragment: Fragment

    def __post_init__(self):
        if self.fragment.is_epsilon():
            raise ValueError("FragmentTerm needs a non-empty word")

    def emit(self, nfa, entry):
        """Emit the term into the NFA builder ``nfa`` from ``entry``."""
        return nfa.optional(entry, partial(self.fragment.emit, nfa))

    def __str__(self):
        return "(%s + ε)" % self.fragment.to_regex()


@dataclass(frozen=True)
class PsitrSequence:
    """A Ψtr-sequence ``lead · φ1 … φl · trail``.

    ``lead`` and ``trail`` are fragments; with one that holds more than
    one word anywhere, the sequence is factored (see :class:`Fragment`).
    """

    lead: Fragment
    terms: Tuple
    trail: Fragment

    def __post_init__(self):
        for part in (self.lead, self.trail):
            if not isinstance(part, Fragment):
                raise TypeError("a lead or trail must be a Fragment, not %r" % (part,))
        for term in self.terms:
            if not isinstance(term, (StarTerm, FragmentTerm)):
                raise TypeError("invalid Ψtr term %r" % (term,))

    def emit(self, nfa, entry):
        """Emit the sequence into the NFA builder ``nfa`` from ``entry``:
        its parts in a row, each one ending where the next begins."""
        entry = self.lead.emit(nfa, entry)
        for term in self.terms:
            entry = term.emit(nfa, entry)
        return self.trail.emit(nfa, entry)

    def to_nfa(self):
        """Compile the sequence to an NFA."""
        return _nfa_of(self)

    def __str__(self):
        pieces = [str(term) for term in self.terms]
        if not self.lead.is_epsilon():
            pieces.insert(0, str(self.lead))
        if not self.trail.is_epsilon():
            pieces.append(str(self.trail))
        return " ".join(pieces) if pieces else "ε"


@dataclass(frozen=True)
class PsitrExpression:
    """A disjunction of Ψtr-sequences — a full Ψtr expression.

    ``k`` is the repetition bound :func:`synthesize` chose (``None``
    for an extracted expression).
    """

    sequences: Tuple[PsitrSequence, ...]
    k: Optional[int] = None

    def to_nfa(self):
        """Compile the expression to an NFA: every sequence emitted
        from one start state, each accepting where it ends."""
        nfa = NfaBuilder()
        start = nfa.state()
        ends = [sequence.emit(nfa, start) for sequence in self.sequences]
        return nfa.build([start], ends)

    def to_language(self, alphabet=None):
        """Compile to a :class:`Language` (minimal DFA built)."""
        return Language(self.to_nfa(), alphabet=alphabet)

    def __str__(self):
        if not self.sequences:
            return "∅"
        return "  +  ".join(str(seq) for seq in self.sequences)


def equivalent_to(expression, lang_or_dfa):
    """True iff the Ψtr expression recognises exactly the language."""
    dfa = _as_minimal_dfa(lang_or_dfa)
    compiled = Language(expression.to_nfa(), alphabet=dfa.alphabet)
    return compiled.dfa.equivalent(dfa)


# -- extraction: ordinary regex AST -> Ψtr expression (syntactic) --------------


class _NotPsitr(Exception):
    """Internal: the AST shape does not fit the fragment."""


def _atom_class(node):
    """Letter set of an atomic node, or None.

    Unions of single letters (``a + b``) count as character classes,
    matching the paper's habit of writing ``(a + b)*`` for ``[ab]*``.
    """
    if isinstance(node, rx.Literal):
        return frozenset((node.symbol,))
    if isinstance(node, rx.CharClass):
        return frozenset(node.symbols)
    if isinstance(node, rx.Union):
        letters = set()
        for part in node.parts:
            sub = _atom_class(part)
            if sub is None or isinstance(part, rx.Union):
                return None
            letters |= sub
        return frozenset(letters)
    return None


def _analyze_run(node):
    """Analyze a candidate ``A≥k``/classword body.

    Returns ``(classes, star_class, count)`` where ``classes`` is the
    list of mandatory single-letter classes when there is no star part,
    ``star_class`` is the class ``A`` when the body contains an ``A*`` /
    ``A+`` / ``A{m,}`` piece, and ``count`` is the mandatory letter count
    ``k``.  Raises :class:`_NotPsitr` on unsupported shapes.
    """
    parts = node.parts if isinstance(node, rx.Concat) else (node,)
    classes = []
    star_class = None
    count = 0

    def merge_star(cls):
        nonlocal star_class
        if star_class is not None and star_class != cls:
            raise _NotPsitr()
        star_class = cls

    for part in parts:
        cls = _atom_class(part)
        if cls is not None:
            classes.append(cls)
            count += 1
            continue
        if isinstance(part, rx.Star):
            inner = _atom_class(part.inner)
            if inner is None:
                raise _NotPsitr()
            merge_star(inner)
            continue
        if isinstance(part, rx.Plus):
            inner = _atom_class(part.inner)
            if inner is None:
                raise _NotPsitr()
            merge_star(inner)
            classes.append(inner)
            count += 1
            continue
        if isinstance(part, rx.Repeat):
            inner = _atom_class(part.inner)
            if inner is None:
                raise _NotPsitr()
            if part.high is None:
                merge_star(inner)
                classes.extend([inner] * part.low)
                count += part.low
            elif part.high == part.low:
                classes.extend([inner] * part.low)
                count += part.low
            else:
                raise _NotPsitr()
            continue
        raise _NotPsitr()
    if star_class is not None:
        # Every mandatory letter must come from the star's own class for
        # the body to read as A≥k.
        for cls in classes:
            if not cls <= star_class:
                raise _NotPsitr()
    return classes, star_class, count


def _expand_classword(classes):
    """All concrete words obtainable from a list of letter classes."""
    words = [""]
    for cls in classes:
        words = [word + letter for word in words for letter in sorted(cls)]
        if len(words) > _MAX_SEQUENCES:
            raise _NotPsitr()
    return words


# Internal factor markers used while scanning a sequence.
_WORD = "word"          # mandatory concrete word(s)
_OPTWORD = "optword"    # (w + ε) with word alternatives
_STAR = "star"          # (A≥k + ε)


def _classify_factor(node):
    """Classify one concatenation factor into Ψtr building blocks.

    Returns a list of ``(kind, payload)`` factors; a single syntactic
    factor may expand to ``[word(A^k), star(A, 1)]`` for a bare ``A≥k``.
    """
    if isinstance(node, rx.Epsilon):
        return []
    # Optional wrappers: (X)?, X + ε
    inner_options = None
    if isinstance(node, rx.Optional):
        inner_options = [node.inner]
    elif isinstance(node, rx.Union):
        branches = list(node.parts)
        if any(isinstance(branch, rx.Epsilon) for branch in branches):
            inner_options = [
                branch
                for branch in branches
                if not isinstance(branch, rx.Epsilon)
            ]
    if inner_options is not None:
        stars = []
        words = []
        for option in inner_options:
            classes, star_class, count = _analyze_run(option)
            if star_class is not None:
                stars.append(StarTerm(star_class, max(count, 1)))
            else:
                words.extend(_expand_classword(classes))
        factors = []
        if stars or words:
            factors.append((_OPTWORD if not stars else _STAR, (stars, words)))
        return factors
    # Bare factor.
    classes, star_class, count = _analyze_run(node)
    factors = []
    if star_class is None:
        if classes:
            factors.append((_WORD, _expand_classword(classes)))
        return factors
    if count:
        factors.append((_WORD, _expand_classword(classes)))
    # A* (and the star part of a bare A≥k) is (A≥1 + ε).
    factors.append((_STAR, ([StarTerm(star_class, 1)], [])))
    return factors


def _sequences_from_branch(branch):
    """Ψtr-sequences for one top-level union branch, or raise _NotPsitr."""
    parts = branch.parts if isinstance(branch, rx.Concat) else (branch,)
    factor_lists = []
    for part in parts:
        if isinstance(part, rx.Union):
            # Union factors are either (… + ε) terms / letter classes
            # (handled by _classify_factor) or general alternations; the
            # latter distribute only when the union is the whole branch.
            try:
                factor_lists.append(_classify_factor(part))
                continue
            except _NotPsitr:
                if len(parts) == 1:
                    merged = []
                    for sub in part.parts:
                        merged.extend(_sequences_from_branch(sub))
                    return merged
                raise
        else:
            factor_lists.append(_classify_factor(part))
    # Assemble: cartesian product over word alternatives.
    # We build sequences left to right keeping, for each partial, the
    # accumulated terms plus the words pinned so far.  Mandatory words are
    # only legal while no term has been emitted (lead) or after the last
    # term (trail); a second mandatory word after the trail started, or a
    # term after the trail started, violates the fragment.
    sequences = [{"lead": "", "terms": (), "trail": "", "in_trail": False}]
    for factors in factor_lists:
        for kind, payload in factors:
            next_sequences = []
            for seq in sequences:
                if kind == _WORD:
                    for word in payload:
                        if not word:
                            next_sequences.append(seq)
                        elif not seq["terms"] and not seq["in_trail"]:
                            next_sequences.append({**seq, "lead": seq["lead"] + word})
                        else:
                            next_sequences.append(
                                {**seq, "trail": seq["trail"] + word, "in_trail": True}
                            )
                    continue
                stars, words = payload
                if seq["in_trail"]:
                    raise _NotPsitr()
                # One sequence per option; the empty word (or no option
                # at all) keeps the sequence as it is.
                options = stars + [FragmentTerm(Fragment.word(w)) if w else None for w in words]
                for term in options or [None]:
                    next_sequences.append(
                        seq if term is None else {**seq, "terms": seq["terms"] + (term,)}
                    )
            sequences = next_sequences
            if len(sequences) > _MAX_SEQUENCES:
                raise _NotPsitr()
    return [
        PsitrSequence(Fragment.word(seq["lead"]), seq["terms"], Fragment.word(seq["trail"]))
        for seq in sequences
    ]


def extract(ast_node):
    """Extract a Ψtr expression from a regex AST, or return ``None``.

    The result, when not ``None``, recognises exactly the same language
    (the transformation is syntactic: unions and character classes are
    distributed, ``A^kA*`` shapes are folded into ``A≥k`` terms).
    """
    if isinstance(ast_node, rx.Empty):
        return PsitrExpression(())
    branches = (
        ast_node.parts if isinstance(ast_node, rx.Union) else (ast_node,)
    )
    sequences = []
    try:
        for branch in branches:
            sequences.extend(_sequences_from_branch(branch))
    except _NotPsitr:
        return None
    if len(sequences) > _MAX_SEQUENCES:
        return None
    return PsitrExpression(tuple(sequences))


# -- synthesis: minimal DFA -> factored Ψtr expression ---------------------------


def _fragment(starts, moves, accepting):
    """The fragment of the words an implicit acyclic NFA accepts, or
    ``None`` when it accepts none.

    ``moves(config)`` yields the NFA's ``(symbol, config)`` arcs and
    ``accepting(config)`` says whether a configuration accepts.  Subsets
    of configurations are built on demand and numbered bottom-up by
    their right language, which minimises an acyclic DFA in one pass;
    the root, whose language no other state has, is numbered last.
    Building the NFA explicitly and running ``from_nfa(...).minimized()``
    instead makes synthesis about 1.5 times slower on the regex pools.
    """
    rights = {}   # subset -> right-language number (None: accepts nothing)
    numbers = {}  # row (accepts, arcs) -> right-language number
    root = frozenset(starts)
    stack = [(root, None)]
    while stack:
        subset, successors = stack.pop()
        if subset in rights:
            continue
        if successors is None:
            step = {}
            for config in subset:
                for symbol, nxt in moves(config):
                    step.setdefault(symbol, set()).add(nxt)
            successors = [(s, frozenset(step[s])) for s in sorted(step)]
            stack.append((subset, successors))
            stack.extend((nxt, None) for _, nxt in successors)
            continue
        arcs = tuple(
            (symbol, rights[nxt]) for symbol, nxt in successors
            if rights[nxt] is not None
        )
        row = (any(map(accepting, subset)), arcs)
        if row != (False, ()):
            numbers.setdefault(row, len(numbers))
        rights[subset] = numbers.get(row)
    top = rights[root]
    if top is None:
        return None
    rows = list(numbers)
    return Fragment(
        tuple(
            tuple((symbol, top - nxt) for symbol, nxt in rows[top - state][1])
            for state in range(top + 1)
        ),
        frozenset(top - number for number, row in enumerate(rows) if row[0]),
    )


# Phases of a run in a fragment: walking between components (fewer than 3k
# letters in each), k letters inside the target, k inside the start's component.
_WALK, _INTO, _OUT = range(3)


class _Condensation:
    """The minimal DFA on its useful states, condensed, and the
    fragments its chains are built from."""

    def __init__(self, dfa):
        useful = dfa.reachable_states() & dfa.co_reachable_states()
        self.dfa = dfa
        self.components = [
            c for c in strongly_connected_components(dfa) if c <= useful
        ]
        self.comp_of = {q: i for i, c in enumerate(self.components) for q in c}
        self.moves = {
            q: [(a, dfa.transition(q, a)) for a in sorted(dfa.alphabet)
                if dfa.transition(q, a) in useful]
            for q in useful
        }
        self.sigma = {}  # looping component -> its internal alphabet Σ_C
        for i, c in enumerate(self.components):
            letters = frozenset(
                a for q in c for a, nxt in self.moves[q] if nxt in c
            )
            if letters:
                self.sigma[i] = letters
        self.reach = {  # component -> the components it reaches
            i: {self.comp_of.get(q) for q in dfa.reachable_states(min(c))}
            for i, c in enumerate(self.components)
        }
        self._built = {}

    def chains(self, chain=()):
        """Every chain of looping components, each reachable from the
        one before, in topological order."""
        for i in self.sigma:
            if not chain or (i > chain[-1] and i in self.reach[chain[-1]]):
                yield chain + (i,)
                yield from self.chains(chain + (i,))

    def fragment(self, starts, target, k):
        """Runs from ``starts`` (configurations ``(phase, state,
        letters spent in the current component)``) that end k letters
        inside component ``target``, or in an accepting state when
        ``target`` is ``None``."""
        key = (starts, target, k)
        if key in self._built:
            return self._built[key]
        comp_of, moves = self.comp_of, self.moves
        accepting = self.dfa.accepting

        def enter(nxt):
            return (_INTO if comp_of[nxt] == target else _WALK, nxt, 0)

        def step(config):
            phase, state, count = config
            for symbol, nxt in moves[state]:
                inside = comp_of[nxt] == comp_of[state]
                if phase == _WALK:
                    if not inside:
                        yield symbol, enter(nxt)
                    elif count + 1 < 3 * k:
                        yield symbol, (_WALK, nxt, count + 1)
                elif inside:
                    if count < k:
                        yield symbol, (phase, nxt, count + 1)
                elif phase == _OUT and count == k:
                    yield symbol, enter(nxt)

        def final(config):
            phase, state, count = config
            if target is not None:
                return phase == _INTO and count == k
            return state in accepting and (phase == _WALK or count == k)

        self._built[key] = _fragment(starts, step, final)
        return self._built[key]

    def sequence(self, chain, k):
        """The factored sequence of ``chain``, or ``None`` when one of
        its fragments is empty (no accepting run follows the chain)."""
        initial = self.dfa.initial
        phase = _INTO if self.comp_of[initial] == chain[0] else _WALK
        starts = [((phase, initial, 0),)] + [
            tuple((_OUT, q, 0) for q in sorted(self.components[i]))
            for i in chain
        ]
        parts = [
            self.fragment(start, target, k)
            for start, target in zip(starts, chain + (None,))
        ]
        if None in parts:
            return None
        terms = [StarTerm(self.sigma[chain[0]], k)]
        for connector, nxt in zip(parts[1:-1], chain[1:]):
            terms += [FragmentTerm(connector), StarTerm(self.sigma[nxt], k)]
        return PsitrSequence(parts[0], tuple(terms), parts[-1])


def synthesize(lang_or_dfa):
    """Decompose a trC language into a factored Ψtr expression.

    Runs the construction of the module docstring for k = 1, 2, …, M
    and returns the first expression whose every chain sequence lies
    inside L (it contains L by construction).  An expression equal to L
    proves L ∈ trC (Lemma 19), so membership is decided only when k = 1
    fails, raising :class:`NotInTrCError` for L ∉ trC; when no k up to M
    passes it raises :class:`ReproError`.  So does a minimal DFA with
    more than ``_MAX_CHAINS`` component chains, before any k is tried
    and without deciding membership.
    """
    dfa = _as_minimal_dfa(lang_or_dfa)
    if dfa.is_empty():
        return PsitrExpression(())
    condensation = _Condensation(dfa)
    chains = list(islice(condensation.chains(), _MAX_CHAINS + 1))
    if len(chains) > _MAX_CHAINS:
        raise ReproError(
            "Ψtr synthesis: more than %d component chains" % _MAX_CHAINS
        )
    rejecting = set(dfa.states()) - dfa.accepting
    for k in range(1, dfa.num_states + 1):
        finite = condensation.fragment(((_WALK, dfa.initial, 0),), None, k)
        sequences = [] if finite is None else [
            PsitrSequence(finite, (), Fragment.word(""))
        ]
        for chain in chains:
            sequence = condensation.sequence(chain, k)
            if sequence is None:
                continue
            if not sequence.to_nfa().intersect_dfa(
                dfa, dfa_accepting=rejecting
            ).is_empty():
                break
            sequences.append(sequence)
        else:
            return PsitrExpression(tuple(sequences), k=k)
        if k == 1 and not is_in_trc(dfa):
            raise NotInTrCError("language is not in trC; RSPQ is NP-complete (Theorem 1)")
    raise ReproError(
        "Ψtr synthesis found no k <= %d at which every component chain "
        "lies inside L" % dfa.num_states
    )


def decompose(language_obj):
    """Anchor decomposition of a language for the tractable solver:
    :func:`extract` on its regex AST when that is equivalent, else
    :func:`synthesize` on its minimal DFA.

    Either result equals the language, which proves L ∈ trC
    (Lemma 19); :func:`synthesize` raises :class:`NotInTrCError` for
    non-trC input and :class:`ReproError` when it finds no k or the
    component chains are too many.
    """
    if not isinstance(language_obj, Language):
        language_obj = Language(language_obj)
    if language_obj.ast is not None:
        expression = extract(language_obj.ast)
        if expression is not None and equivalent_to(
            expression, language_obj.dfa
        ):
            return expression
    return synthesize(language_obj.dfa)
