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

:meth:`PathNFA.evaluate_many` is the one evaluator over a store: one
multi-source sweep from many starts (a select path from its entry, a
WHERE path from every candidate at once, a maintainer's residual walk
from one subtree root with ``from_states``), expanding whole OID
frontiers level by level.  Given a
:class:`~repro.gsdb.indexes.LabelIndex` it probes the children-by-label
adjacency wherever the residual alphabet is bounded, and otherwise
scans out-edges; pass an index only for the same, unscoped store (a
:class:`~repro.query.evaluator.ScopedStore` must keep the scan so
out-of-scope children stay invisible).  The frozen epochs of the MVCC
tier have their own multi-source evaluator over integer rows
(:mod:`repro.paths.kernel`); for any starts,
``evaluate_many(store, starts)`` equals the kernel's answer on the
state an epoch froze.

The charge rule (one evaluation — the select sweep plus every WHERE
sweep of one query or one recompute, or one maintainer walk — shares
one :class:`ChargeLedger`):

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
        #: (state-set, label) → the step as a sweep uses it: None when
        #: it dies, else (target, accepting), the target None when it
        #: is accept-only.
        self._move_cache: dict[tuple[StateSet, str], tuple | None] = {}
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
        :meth:`evaluate_many` uses a bounded alphabet to probe the label
        index instead of scanning out-edges, and an empty one to leave
        an accept-only state set unexpanded.
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

    def evaluate_many(
        self,
        store: ObjectStore,
        starts: Iterable[str],
        *,
        label_index=None,
        charged: ChargeLedger | None = None,
        from_states: StateSet | None = None,
    ) -> dict[str, set[str]]:
        """``start.e`` for every start, in one multi-source sweep.

        Origin provenance rides along as an integer bitmask (one bit
        per distinct start), so each (object, state-set) pair is
        expanded once per *new* origin arrival instead of once per
        start; ``evaluate_many(store, starts)[s]`` equals
        ``evaluate_many(store, [s])[s]`` for every start.

        With *from_states*, every start continues an already-consumed
        prefix (the residual trick of incremental maintenance of
        wildcard views) instead of the initial state set.  A start is
        its own member when the (residual) expression accepts the empty
        path, even if no such object exists.

        Charges follow the module's charge rule against *charged* (a
        fresh ledger when None): pass one ledger to every sweep of an
        evaluation and each object, probe and out-edge is paid for once
        across all of them.  Counters are added once per call; a single
        start skips the origin-mask decoding.

        Only pass a *label_index* built over the *same, unscoped*
        store: a :class:`~repro.query.evaluator.ScopedStore` must keep
        the scan so out-of-scope children stay invisible (and charge
        their probe reads).  Answers are the same with or without one.

        Cycle-safe, and expansion order is free: the sweep is
        level-synchronous and deduplicates on (object, state-set,
        origin), so the pairs expanded — and with them every charge and
        the answer — are the same whichever order a frontier's state
        sets, OIDs and labels are visited in.
        """
        order = list(dict.fromkeys(starts))
        initial = self._initial if from_states is None else from_states
        if not order or not initial:
            return {start: set() for start in order}
        ledger = ChargeLedger() if charged is None else charged
        objects = ledger.objects
        expanded = ledger.expanded
        adjacency = ledger.adjacency
        peek = getattr(store, "peek", None)
        fetch = store.get_optional if peek is None else peek
        indexed = label_index is not None and peek is not None
        transition_labels = self.transition_labels
        reads = traversals = 0
        seeds = {start: 1 << bit for bit, start in enumerate(order)}
        visited: dict[StateSet, dict[str, int]] = {initial: dict(seeds)}
        accepted = dict(seeds) if self._accept in initial else {}
        frontier: dict[StateSet, dict[str, int]] = {initial: seeds}
        try:
            while frontier:
                next_frontier: dict[StateSet, dict[str, int]] = {}
                for states, bucket in frontier.items():
                    if not bucket:
                        continue  # a step was derived, but nothing new
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
                frontier = next_frontier
        finally:  # charge what was touched, even if a fetch raised
            counters = store.counters
            if peek is not None:
                counters.object_reads += reads
            counters.edge_traversals += traversals
        if len(order) == 1:
            return {order[0]: set(accepted)}
        results: dict[str, set[str]] = {start: set() for start in order}
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
        masks nor a bucket: its arrivals only join the answer.  The
        step itself is pure, so it is memoized per automaton."""
        key = (states, label)
        pure = self._move_cache.get(key, _UNSEEN)
        if pure is _UNSEEN:
            target = self.step(states, label)
            if not target:
                pure = None
            elif self.transition_labels(target) == frozenset():
                pure = (None, True)
            else:
                pure = (target, self._accept in target)
            self._move_cache[key] = pure
        if pure is None:
            moves[label] = None
            return None
        target, accepting = pure
        if target is None:
            move = moves[label] = (None, None, True)
            return move
        bits = visited.get(target)
        if bits is None:
            bits = visited[target] = {}
        bucket = next_frontier.get(target)
        if bucket is None:
            bucket = next_frontier[target] = {}
        move = moves[label] = (bits, bucket, accepting)
        return move


@lru_cache(maxsize=512)
def _compile_cached(expression: PathExpression) -> PathNFA:
    return PathNFA(expression)


def compile_expression(expression: PathExpression) -> PathNFA:
    """Compile (with caching — expressions are immutable and hashable)."""
    return _compile_cached(expression)

