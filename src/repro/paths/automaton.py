"""NFA compilation and graph evaluation of path expressions.

A path expression with segments ``s0 ... s(n-1)`` compiles to an NFA
whose states are positions ``0..n`` ("about to match segment i"), with:

* a ``LabelSegment``/``AnyLabelSegment`` at position i consuming one
  matching label and moving i → i+1;
* an ``AnyPathSegment`` (``*``) at position i adding an ε-move i → i+1
  (match zero labels) and a self-loop consuming any label.

State n is accepting.  The state space is tiny (|expression|+1), so we
run the NFA in subset form: a frozenset of positions.  Evaluating
``N.e`` on a store is then a product search over (object, state-set)
pairs; memoizing visited pairs makes it terminate on cyclic graphs.

The compiled automaton also exposes *residual* operations used by the
extended view maintainer (:mod:`repro.views.extended`): feed it a known
prefix path (``path(ROOT, N1) + label(N2)``) and continue matching only
in the affected subtree.

:meth:`PathNFA.evaluate_many` is the query evaluator over a store: one
multi-source sweep from many starts (a select path from its entry, a
WHERE path from every candidate at once), expanding whole OID frontiers
level by level.  Given a :class:`~repro.gsdb.indexes.LabelIndex` it
probes the children-by-label adjacency wherever the residual alphabet
is bounded, and otherwise scans out-edges.  :meth:`PathNFA.evaluate` is
the single-start walk the view maintainers use (residual
``from_states`` walks, witness memos).  The frozen epochs of the MVCC
tier have their own multi-source evaluator over integer rows
(:mod:`repro.paths.kernel`); for any start,
``evaluate_many(store, starts)[start] == evaluate(store, start)`` ==
the kernel's answer on the state an epoch froze.

The charge rule (one evaluation — the select sweep plus every WHERE
sweep of one query or one recompute — shares one
:class:`ChargeLedger`):

* an object costs one ``object_reads`` the first time it is touched
  (under the index, a child's existence rides on the uncharged
  ``peek``, so a dangling adjacency entry costs nothing);
* a parent's index probe and its out-edge traversals are charged once,
  the first time it is expanded (under the index, the edges to each
  followed label group's existing children, once);
* reading a witness atom's value after the sweep reached it is free;
* a state set with no outgoing transition is never expanded, with or
  without an index.

A store without an uncharged ``peek`` (a warehouse's remote store)
charges through its own ``get_optional`` instead, once per object per
ledger.

``step`` results are memoized per automaton in a
``(state-set, label) → state-set`` transition table: evaluation
re-steps the same state set over the same label for every sibling
carrying that label, and NFA move derivation is pure, so repeated
steps are answered from the table.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Sequence

from repro.gsdb.object import SET_TYPE, Object
from repro.gsdb.store import ObjectStore
from repro.paths.expression import (
    AnyPathSegment,
    LabelSegment,
    PathExpression,
    Segment,
)

StateSet = frozenset[int]

#: Sentinel distinguishing "not memoized" from a memoized None alphabet.
_ALPHABET_MISS = object()

#: Sentinel for "not yet touched / not yet expanded" in a ledger.
_UNSEEN = object()


class ChargeLedger:
    """What one evaluation has already paid for (the module's charge
    rule): pass one ledger to every :meth:`PathNFA.evaluate_many` sweep
    of a query, and read witness values through :meth:`touch`.

    ``objects`` maps each touched OID to its object (None when absent
    or out of scope); ``expanded`` maps each expanded parent to None
    (every out-edge charged) or to the labels whose edges were charged
    through the index; ``adjacency`` keeps each probed parent's
    children-by-label groups, so a parent is probed once.
    """

    __slots__ = ("objects", "expanded", "adjacency")

    def __init__(self) -> None:
        self.objects: dict[str, Object | None] = {}
        self.expanded: dict[str, frozenset[str] | None] = {}
        self.adjacency: dict[str, dict[str, set[str]]] = {}

    def touch(self, store, oid: str) -> Object | None:
        """The object at *oid* (None if absent), charged the first time."""
        obj = self.objects.get(oid, _UNSEEN)
        if obj is _UNSEEN:
            peek = getattr(store, "peek", None)
            if peek is None:
                obj = store.get_optional(oid)  # charges itself
            else:
                obj = peek(oid)
                store.counters.object_reads += 1
            self.objects[oid] = obj
        return obj


class PathNFA:
    """Compiled form of a :class:`PathExpression`."""

    def __init__(self, expression: PathExpression) -> None:
        self.expression = expression
        self._segments: tuple[Segment, ...] = expression.segments
        self._accept = len(self._segments)
        #: (state-set, label) → state-set transition memo.  The state
        #: space is tiny, so the table is bounded by the number of
        #: distinct labels fed through each reachable state set.
        self._step_cache: dict[tuple[StateSet, str], StateSet] = {}
        #: label alphabets with a transition out of a state set (None =
        #: every label moves), memoized per state set.
        self._alphabet_cache: dict[StateSet, frozenset[str] | None] = {}
        self._initial = self._closure({0})

    # -- core NFA operations -----------------------------------------------------

    def initial(self) -> StateSet:
        """The ε-closure of the start state (computed once)."""
        return self._initial

    def _closure(self, states: Iterable[int]) -> StateSet:
        """ε-closure: skip over ``*`` segments without consuming."""
        result = set(states)
        stack = list(result)
        while stack:
            state = stack.pop()
            if state < self._accept and isinstance(
                self._segments[state], AnyPathSegment
            ):
                target = state + 1
                if target not in result:
                    result.add(target)
                    stack.append(target)
        return frozenset(result)

    def step(self, states: StateSet, label: str) -> StateSet:
        """Consume one *label* from every state in *states* (memoized)."""
        key = (states, label)
        cached = self._step_cache.get(key)
        if cached is not None:
            return cached
        moved: set[int] = set()
        for state in states:
            if state >= self._accept:
                continue
            segment = self._segments[state]
            if isinstance(segment, AnyPathSegment):
                moved.add(state)  # self-loop consumes the label
            elif segment.matches(label):
                moved.add(state + 1)
        result = self._closure(moved)
        self._step_cache[key] = result
        return result

    def transition_labels(self, states: StateSet) -> frozenset[str] | None:
        """Labels with a transition out of *states*; None means "any".

        Wildcard segments (``*`` self-loops, ``?``) consume every label,
        so any live state sitting on one makes the alphabet unbounded.
        :meth:`evaluate` uses a bounded alphabet to probe the label
        index instead of scanning out-edges.
        """
        cached = self._alphabet_cache.get(states, _ALPHABET_MISS)
        if cached is not _ALPHABET_MISS:
            return cached
        labels: set[str] = set()
        result: frozenset[str] | None
        for state in states:
            if state >= self._accept:
                continue
            segment = self._segments[state]
            if not isinstance(segment, LabelSegment):
                self._alphabet_cache[states] = None
                return None
            labels.update(segment.labels)
        result = frozenset(labels)
        self._alphabet_cache[states] = result
        return result

    def is_accepting(self, states: StateSet) -> bool:
        return self._accept in states

    def is_dead(self, states: StateSet) -> bool:
        return not states

    def accepts(self, labels: Sequence[str]) -> bool:
        """Instance test: does the label sequence match the expression?"""
        states = self.initial()
        for label in labels:
            states = self.step(states, label)
            if not states:
                return False
        return self.is_accepting(states)

    def residual(self, labels: Sequence[str]) -> StateSet:
        """State set after consuming *labels* from the start."""
        states = self.initial()
        for label in labels:
            states = self.step(states, label)
            if not states:
                break
        return states

    # -- graph evaluation ---------------------------------------------------------

    def evaluate(
        self,
        store: ObjectStore,
        start: str,
        *,
        label_index=None,
        from_states: StateSet | None = None,
    ) -> set[str]:
        """Return ``start.e`` — every object reached along an instance.

        With *from_states*, evaluation continues an already-consumed
        prefix (the residual trick used for incremental maintenance of
        wildcard views).  The start object itself is included when the
        (residual) expression accepts the empty path, even if no such
        object exists.

        Objects sharing a state set are expanded level by level, so the
        per-label NFA step is derived once per (state set, label) and
        shared across the whole frontier (with :meth:`step`'s memo, once
        ever).  Without *label_index*, or where the residual alphabet
        is unbounded (``*``, ``?``), an expanded object charges its own
        ``object_reads`` plus one ``edge_traversals`` and one
        ``object_reads`` per out-edge.  With a
        :class:`~repro.gsdb.indexes.LabelIndex` and a bounded alphabet,
        each parent is expanded through the children-by-label
        adjacency: one ``index_probes`` per expanded parent replaces one
        ``edge_traversals`` per out-edge whose label has no transition;
        admitted children charge one ``edge_traversals`` +
        ``object_reads`` each (the
        :func:`~repro.gsdb.traversal.follow_path` accounting — the
        label test rides on the adjacency, existence on the uncharged
        ``peek``).  Answers are the same either way.

        Only pass a *label_index* built over the *same, unscoped* store:
        a :class:`~repro.query.evaluator.ScopedStore` must keep the
        scan so out-of-scope children stay invisible (and charge their
        probe reads).

        Cycle-safe, and expansion order is free: the search is
        level-synchronous and deduplicates on (object, state-set), so a
        pair enters the next frontier only if no earlier level (nor
        this one) produced it.  The set of pairs expanded — and with it
        every charge and the result set — is the same whichever order
        the frontier's state sets, OIDs and labels are visited in.
        """
        initial = self._initial if from_states is None else from_states
        if not initial:
            return set()
        accept = self._accept
        step = self.step
        get_optional = store.get_optional
        results: set[str] = {start} if accept in initial else set()
        seen: set[tuple[str, StateSet]] = {(start, initial)}
        peek = getattr(store, "peek", None)
        indexed = label_index is not None and peek is not None
        counters = store.counters
        frontier: dict[StateSet, set[str]] = {initial: {start}}
        while frontier:
            next_frontier: dict[StateSet, set[str]] = {}
            for states, oids in frontier.items():
                alphabet = (
                    self.transition_labels(states) if indexed else None
                )
                if alphabet is not None and not alphabet:
                    continue  # no live transition: nothing to expand
                for oid in oids:
                    obj = get_optional(oid)
                    if obj is None or not obj.is_set:
                        continue
                    if alphabet is not None:
                        by_label = label_index.children_by_label(oid)
                        for label in alphabet:
                            children = by_label.get(label)
                            if not children:
                                continue
                            next_states = step(states, label)
                            if not next_states:
                                continue
                            accepting = accept in next_states
                            for child in children:
                                if peek(child) is None:
                                    continue
                                counters.edge_traversals += 1
                                counters.object_reads += 1
                                if accepting:
                                    results.add(child)
                                key = (child, next_states)
                                if key not in seen:
                                    seen.add(key)
                                    next_frontier.setdefault(
                                        next_states, set()
                                    ).add(child)
                    else:
                        for child in obj.children():
                            counters.edge_traversals += 1
                            child_obj = get_optional(child)
                            if child_obj is None:
                                continue
                            next_states = step(states, child_obj.label)
                            if not next_states:
                                continue
                            if accept in next_states:
                                results.add(child)
                            key = (child, next_states)
                            if key not in seen:
                                seen.add(key)
                                next_frontier.setdefault(
                                    next_states, set()
                                ).add(child)
            frontier = next_frontier
        return results

    def evaluate_many(
        self,
        store: ObjectStore,
        starts: Iterable[str],
        *,
        label_index=None,
        charged: ChargeLedger | None = None,
    ) -> dict[str, set[str]]:
        """``start.e`` for *many* starts in one multi-source sweep.

        The store twin of
        :func:`~repro.paths.kernel.evaluate_many_on_snapshot`: origin
        provenance rides along as an integer bitmask (one bit per
        distinct start), so each (object, state-set) pair is expanded
        once per *new* origin arrival instead of once per start, and
        ``evaluate_many(store, starts)[s] == evaluate(store, s)`` for
        every start.  Charges follow the module's charge rule against
        *charged* (a fresh ledger when None): pass one ledger to every
        sweep of an evaluation and each object, probe and out-edge is
        paid for once across all of them.  *label_index* is used as in
        :meth:`evaluate` — only for the same, unscoped store.

        Counters are added once per call; a single start skips the
        origin-mask decoding.
        """
        order = list(dict.fromkeys(starts))
        results: dict[str, set[str]] = {start: set() for start in order}
        if not order:
            return results
        ledger = ChargeLedger() if charged is None else charged
        objects = ledger.objects
        expanded = ledger.expanded
        adjacency = ledger.adjacency
        peek = getattr(store, "peek", None)
        fetch = store.get_optional if peek is None else peek
        indexed = label_index is not None and peek is not None
        transition_labels = self.transition_labels
        reads = traversals = 0
        initial = self._initial
        seeds = {start: 1 << bit for bit, start in enumerate(order)}
        visited: dict[StateSet, dict[str, int]] = {initial: dict(seeds)}
        accepted = dict(seeds) if self._accept in initial else {}
        frontier: dict[StateSet, dict[str, int]] = {initial: seeds}
        try:
            while frontier:
                next_frontier: dict[StateSet, dict[str, int]] = {}
                for states, bucket in frontier.items():
                    alphabet = transition_labels(states)
                    if alphabet is not None and not alphabet:
                        continue  # accept-only state set: never expanded
                    probe = indexed and alphabet is not None
                    # label -> (visited masks, next bucket, accepting) of
                    # this state set's step on it; None when the step dies.
                    moves: dict[str, tuple | None] = {}
                    for oid, mask in bucket.items():
                        obj = objects.get(oid, _UNSEEN)
                        if obj is _UNSEEN:
                            obj = objects[oid] = fetch(oid)
                            reads += 1
                        if obj is None or obj.type != SET_TYPE:
                            continue
                        done = expanded.get(oid, _UNSEEN)
                        if probe:
                            by_label = adjacency.get(oid)
                            if by_label is None:
                                by_label = label_index.children_by_label(oid)
                                adjacency[oid] = by_label
                            if done is _UNSEEN:
                                expanded[oid] = unpaid = alphabet
                            elif done is None:
                                unpaid = frozenset()  # a scan paid every edge
                            else:
                                unpaid = alphabet - done
                                if unpaid:
                                    expanded[oid] = done | alphabet
                            for label in alphabet:
                                children = by_label.get(label)
                                if not children:
                                    continue
                                move = moves.get(label, _UNSEEN)
                                if move is _UNSEEN:
                                    move = self._move(
                                        states, label, moves, visited, next_frontier
                                    )
                                if move is None:
                                    continue
                                pay = label in unpaid
                                bits, next_bucket, accepting = move
                                for child in children:
                                    child_obj = objects.get(child, _UNSEEN)
                                    if child_obj is _UNSEEN:
                                        # Existence rides on the uncharged
                                        # peek: a dangling entry costs nothing.
                                        child_obj = fetch(child)
                                        if child_obj is None:
                                            continue
                                        objects[child] = child_obj
                                        reads += 1
                                    elif child_obj is None:
                                        continue
                                    if pay:
                                        traversals += 1
                                    if bits is None:  # accept-only: a leaf
                                        accepted[child] = accepted.get(child, 0) | mask
                                        continue
                                    seen = bits.get(child, 0)
                                    new = mask & ~seen
                                    if not new:
                                        continue
                                    bits[child] = seen | new
                                    next_bucket[child] = next_bucket.get(child, 0) | new
                                    if accepting:
                                        accepted[child] = accepted.get(child, 0) | new
                            continue
                        children = obj.value
                        if done is _UNSEEN:
                            traversals += len(children)
                        elif done is not None:  # the index paid some labels
                            for child in children:
                                child_obj = peek(child)
                                if child_obj is None or child_obj.label not in done:
                                    traversals += 1
                        expanded[oid] = None
                        for child in children:
                            child_obj = objects.get(child, _UNSEEN)
                            if child_obj is _UNSEEN:
                                child_obj = objects[child] = fetch(child)
                                reads += 1
                            if child_obj is None:
                                continue
                            move = moves.get(child_obj.label, _UNSEEN)
                            if move is _UNSEEN:
                                move = self._move(
                                    states,
                                    child_obj.label,
                                    moves,
                                    visited,
                                    next_frontier,
                                )
                            if move is None:
                                continue
                            bits, next_bucket, accepting = move
                            if bits is None:  # accept-only: a leaf
                                accepted[child] = accepted.get(child, 0) | mask
                                continue
                            seen = bits.get(child, 0)
                            new = mask & ~seen
                            if not new:
                                continue
                            bits[child] = seen | new
                            next_bucket[child] = next_bucket.get(child, 0) | new
                            if accepting:
                                accepted[child] = accepted.get(child, 0) | new
                frontier = {
                    states: bucket
                    for states, bucket in next_frontier.items()
                    if bucket
                }
        finally:  # charge what was touched, even if a fetch raised
            counters = store.counters
            if peek is not None:
                counters.object_reads += reads
            counters.edge_traversals += traversals
        if len(order) == 1:
            results[order[0]] = set(accepted)
            return results
        for member, mask in accepted.items():
            while mask:
                low = mask & -mask
                results[order[low.bit_length() - 1]].add(member)
                mask ^= low
        return results

    def _move(self, states, label, moves, visited, next_frontier):
        """Derive (and memoize in *moves*) one label's step out of a
        frontier state set: the target's visited masks, its bucket in
        the next frontier, and whether it accepts; None when it dies.
        An accept-only target is never expanded, so it needs neither
        masks nor a bucket: its arrivals only join the answer."""
        next_states = self.step(states, label)
        if not next_states:
            moves[label] = None
            return None
        if self.transition_labels(next_states) == frozenset():
            move = moves[label] = (None, None, True)
            return move
        bits = visited.get(next_states)
        if bits is None:
            bits = visited[next_states] = {}
        bucket = next_frontier.get(next_states)
        if bucket is None:
            bucket = next_frontier[next_states] = {}
        move = moves[label] = (bits, bucket, self._accept in next_states)
        return move


@lru_cache(maxsize=512)
def _compile_cached(expression: PathExpression) -> PathNFA:
    return PathNFA(expression)


def compile_expression(expression: PathExpression) -> PathNFA:
    """Compile (with caching — expressions are immutable and hashable)."""
    return _compile_cached(expression)


def evaluate_expression(
    store: ObjectStore, start: str, expression: PathExpression
) -> set[str]:
    """Convenience: ``start.expression`` on *store* (paper's ``N.e``)."""
    return compile_expression(expression).evaluate(store, start)
