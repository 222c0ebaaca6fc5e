"""Bitset frontier kernels over columnar snapshots.

The interpreted evaluators (:meth:`~repro.paths.automaton.PathNFA.
evaluate` / ``evaluate_frontier``) run the NFA product construction
over Python objects: a dict lookup, a set-membership test, and a
counter increment per edge.  These kernels run the *same* product
construction over a frozen :class:`~repro.gsdb.columnar.EpochView`'s
integer rows: a whole frontier's children arrive as one
:meth:`~repro.gsdb.columnar.EpochView.gather` (a C-level slice per CSR
row), and the visited-pair memo of the interpreted path —
"expand each (object, state-set) pair once" — becomes one ``bytearray``
bitset per reachable state set, six integer operations per child.

Equivalence contract: for any store and any compiled expression,
``evaluate_on_snapshot(snapshot, nfa, start)`` returns exactly
``nfa.evaluate(store, start)`` on the state the snapshot froze — the
property suite ``tests/property/test_kernel_equivalence.py`` pins
kernel ≡ ``evaluate_frontier`` ≡ ``evaluate`` member sets under random
graphs, cycles, shared subtrees, wildcard expressions, and mid-stream
updates.  Notable mirrored corner cases: the start OID is a member
when the expression accepts the empty path, *even if no such object
exists*; a non-set (or absent) start has no expansions; dangling child
references are never admitted.

Cost accounting: kernels charge only ``snapshot_rows_scanned``
(inside ``gather``) — columnar rows are copies, not base objects, so
the interpreted path's ``object_reads``/``edge_traversals`` stay
untouched and benchmark tables compare the two currencies explicitly.

The functions take the snapshot view protocol
(``nrows``/``row``/``oid``/``label_names``/``gather``), which only
:class:`~repro.gsdb.columnar.EpochView` implements: the kernels serve
the MVCC tier's frozen epochs and nothing else.
"""

from __future__ import annotations

from typing import Iterable

from repro.paths.automaton import PathNFA, StateSet


def evaluate_on_snapshot(view, nfa: PathNFA, start: str) -> set[str]:
    """``start.e`` over a frozen columnar epoch (set-at-a-time).

    Frontiers are keyed by NFA state set; each level derives the step
    once per (state set, label) and sweeps the whole frontier through
    one :meth:`gather`.  Per-state-set visited bitsets make each
    (row, state set) pair expand at most once — cycle-safe exactly
    like the interpreted evaluators.
    """
    initial = nfa.initial()
    if not initial:
        return set()
    results: set[str] = set()
    if nfa.is_accepting(initial):
        results.add(start)  # empty path: included even if absent
    start_row = view.row(start)
    if start_row is None:
        return results
    nbytes = (view.nrows + 7) >> 3
    visited: dict[StateSet, bytearray] = {initial: bytearray(nbytes)}
    visited[initial][start_row >> 3] |= 1 << (start_row & 7)
    accepted = bytearray(nbytes)
    accepted_rows: list[int] = []
    if nfa.is_accepting(initial):
        accepted[start_row >> 3] |= 1 << (start_row & 7)
    all_labels = view.label_names()
    frontier: dict[StateSet, list[int]] = {initial: [start_row]}
    while frontier:
        next_frontier: dict[StateSet, list[int]] = {}
        # Sorted state-set order: charges must not depend on dict
        # iteration order.
        for states in sorted(frontier, key=sorted):
            rows = frontier[states]
            alphabet = nfa.transition_labels(states)
            if alphabet is None:
                labels: Iterable[str] = all_labels
            elif not alphabet:
                continue  # accept-only state set: nothing to expand
            else:
                labels = sorted(alphabet.intersection(all_labels))
            # Group labels by successor state set: a wildcard step sends
            # every label to the same successor, and one combined-CSR
            # gather then replaces a per-label pass over the frontier.
            groups: dict[StateSet, list[str]] = {}
            for label in labels:
                stepped = nfa.step(states, label)
                if stepped:
                    groups.setdefault(stepped, []).append(label)
            for next_states in sorted(groups, key=sorted):
                group = groups[next_states]
                if len(group) == len(all_labels):
                    children = view.gather(rows, None)
                else:
                    children = []
                    for label in group:
                        children.extend(view.gather(rows, label))
                if not children:
                    continue
                bits = visited.get(next_states)
                if bits is None:
                    bits = visited[next_states] = bytearray(nbytes)
                bucket = next_frontier.get(next_states)
                if bucket is None:
                    bucket = next_frontier[next_states] = []
                push = bucket.append
                if nfa.is_accepting(next_states):
                    admit = accepted_rows.append
                    for child in children:
                        word = child >> 3
                        mask = 1 << (child & 7)
                        if bits[word] & mask:
                            continue
                        bits[word] |= mask
                        push(child)
                        if not accepted[word] & mask:
                            accepted[word] |= mask
                            admit(child)
                else:
                    for child in children:
                        word = child >> 3
                        mask = 1 << (child & 7)
                        if not bits[word] & mask:
                            bits[word] |= mask
                            push(child)
        frontier = {
            states: bucket
            for states, bucket in next_frontier.items()
            if bucket
        }
    oid = view.oid
    results.update(oid(row) for row in accepted_rows)
    return results


def evaluate_many_on_snapshot(
    view, nfa: PathNFA, starts: Iterable[str]
) -> dict[str, set[str]]:
    """``start.e`` for *many* starts in one multi-source product sweep.

    Equivalent to ``{s: evaluate_on_snapshot(view, nfa, s) for s in
    starts}`` but shares the frontier machinery across all starts:
    origin provenance rides along as an integer bitmask (one bit per
    distinct start), so each (row, state set) pair is expanded at most
    once per *new* origin arrival instead of once per start.  When the
    starts root disjoint subgraphs — the common case for WHERE-clause
    candidates over tree-shaped stores — every pair is expanded exactly
    once in total, and the per-start setup cost (visited bitsets,
    per-level NFA bookkeeping) is paid once rather than ``len(starts)``
    times.  Worst case (all starts reach everything) degrades to the
    per-start cost with wider masks, never worse asymptotically.

    The E20 serving tier uses this to vectorize condition filtering:
    one sweep per condition path per query instead of one interpreted
    evaluation per candidate (see ``repro.serving.mvcc``).
    """
    order: list[str] = []
    bit_of: dict[str, int] = {}
    for start in starts:
        if start not in bit_of:
            bit_of[start] = 1 << len(order)
            order.append(start)
    results: dict[str, set[str]] = {start: set() for start in order}
    initial = nfa.initial()
    if not initial or not order:
        return results
    if nfa.is_accepting(initial):
        for start in order:
            results[start].add(start)  # empty path: even if absent
    init_rows: dict[int, int] = {}
    for start in order:
        row = view.row(start)
        if row is not None:
            init_rows[row] = init_rows.get(row, 0) | bit_of[start]
    if not init_rows:
        return results
    # visited / frontier / accepted map row -> origin mask.  A row
    # re-enters the frontier only with origins it has not carried yet,
    # which both terminates cycles and lets shared substructure serve
    # many starts from one expansion.
    visited: dict[StateSet, dict[int, int]] = {initial: dict(init_rows)}
    accepted: dict[int, int] = {}
    if nfa.is_accepting(initial):
        accepted.update(init_rows)
    all_labels = view.label_names()
    frontier: dict[StateSet, dict[int, int]] = {initial: dict(init_rows)}
    while frontier:
        next_frontier: dict[StateSet, dict[int, int]] = {}
        for states in sorted(frontier, key=sorted):
            row_masks = frontier[states]
            alphabet = nfa.transition_labels(states)
            if alphabet is None:
                labels: Iterable[str] = all_labels
            elif not alphabet:
                continue  # accept-only state set: nothing to expand
            else:
                labels = sorted(alphabet.intersection(all_labels))
            groups: dict[StateSet, list[str]] = {}
            for label in labels:
                stepped = nfa.step(states, label)
                if stepped:
                    groups.setdefault(stepped, []).append(label)
            # Rows sharing an origin mask sweep through gather as one
            # batch — their children all inherit that same mask.
            by_mask: dict[int, list[int]] = {}
            for row, mask in row_masks.items():
                by_mask.setdefault(mask, []).append(row)
            for next_states in sorted(groups, key=sorted):
                group = groups[next_states]
                wildcard = len(group) == len(all_labels)
                bits = visited.setdefault(next_states, {})
                bucket = next_frontier.setdefault(next_states, {})
                accepting = nfa.is_accepting(next_states)
                bits_get = bits.get
                bucket_get = bucket.get
                accepted_get = accepted.get
                for mask, rows in by_mask.items():
                    if wildcard:
                        children = view.gather(rows, None)
                    else:
                        children = []
                        for label in group:
                            children.extend(view.gather(rows, label))
                    for child in children:
                        seen = bits_get(child, 0)
                        if seen:
                            new = mask & ~seen
                            if not new:
                                continue
                            bits[child] = seen | new
                        else:
                            new = mask
                            bits[child] = mask
                        bucket[child] = bucket_get(child, 0) | new
                        if accepting:
                            accepted[child] = accepted_get(child, 0) | new
        frontier = {
            states: bucket
            for states, bucket in next_frontier.items()
            if bucket
        }
    oid = view.oid
    for row, mask in accepted.items():
        member = oid(row)
        while mask:
            low = mask & -mask
            results[order[low.bit_length() - 1]].add(member)
            mask ^= low
    return results
