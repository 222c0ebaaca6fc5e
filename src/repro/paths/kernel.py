"""The bitset frontier kernel over frozen columnar epochs.

:meth:`~repro.paths.automaton.PathNFA.evaluate_many` runs the NFA
product construction over a store's Python objects, many starts in one
sweep with origin bitmasks.  :func:`evaluate_many_on_snapshot` is its
twin: the *same* multi-source product construction over a frozen
:class:`~repro.gsdb.columnar.EpochView`'s integer rows: a whole
frontier's children arrive as one
:meth:`~repro.gsdb.columnar.EpochView.gather` (a C-level slice per CSR
row), and the visited-pair memo — "expand each (object, state-set)
pair once" — becomes a row → origin-mask dict per reachable state set.
A single-source evaluation is the one-start call.

Equivalence contract: for any store, any compiled expression and any
starts, ``evaluate_many_on_snapshot(view, nfa, starts)[start]`` and
``nfa.evaluate_many(store, starts)[start]`` are the same set on the
state the view froze — the read-path suite
``tests/property/test_read_path_equivalence.py`` pins both
against a brute-force reference under random cyclic graphs, wildcard
expressions and mid-stream updates.  Notable mirrored corner
cases: the start OID is a member when the expression accepts the empty
path, *even if no such object exists*; a non-set (or absent) start has
no expansions; dangling child references are never admitted.

Cost accounting: the kernel charges only ``snapshot_rows_scanned``
(inside ``gather``) — columnar rows are copies, not base objects, so
the store's ``object_reads``/``edge_traversals`` stay untouched.  Cost
follows the rows reached, never the number of labels in the image: a
live ``*``/``?`` gathers label-blind, a bounded alphabet once per
label, and each child steps on its own label through the automaton's
move memo (``PathNFA._move``), as the store sweep does.

The kernel takes the epoch view protocol
(``row``/``oid``/``label_of``/``gather``), which only
:class:`~repro.gsdb.columnar.EpochView` implements: it serves the MVCC
tier's frozen epochs and nothing else.
"""

from __future__ import annotations

from typing import Iterable

from repro.paths.automaton import _UNSEEN, PathNFA, StateSet


def evaluate_many_on_snapshot(
    view, nfa: PathNFA, starts: Iterable[str]
) -> dict[str, set[str]]:
    """``start.e`` for *many* starts in one multi-source product sweep.

    Equivalent to one evaluation per start: origin provenance rides
    along as an integer bitmask (one bit per distinct start), so each
    (row, state set) pair is expanded at most once per *new* origin
    arrival instead of once per start.  Worst case (all starts reach
    everything) degrades to the per-start cost with wider masks.

    The MVCC tier (``repro.serving.mvcc``) calls it with the one entry
    OID for a select path, and with every candidate at once for each
    WHERE-clause path.
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
    label_of = view.label_of
    move_of = nfa._move
    frontier: dict[StateSet, dict[int, int]] = {initial: dict(init_rows)}
    while frontier:
        next_frontier: dict[StateSet, dict[int, int]] = {}
        for states, row_masks in frontier.items():
            if not row_masks:
                continue  # a step was derived, but nothing new
            alphabet = nfa.transition_labels(states)
            if alphabet is not None and not alphabet:
                continue  # accept-only state set: nothing to expand
            # label -> (visited masks, next bucket, accepting) of this
            # state set's step on it; None when the step dies.
            moves: dict[str, tuple | None] = {}
            # Rows sharing an origin mask sweep through gather as one
            # batch — their children all inherit that same mask.
            by_mask: dict[int, list[int]] = {}
            for row, mask in row_masks.items():
                by_mask.setdefault(mask, []).append(row)
            for mask, rows in by_mask.items():
                if alphabet is None:
                    children = view.gather(rows, None)
                else:
                    children = []
                    for label in alphabet:
                        children.extend(view.gather(rows, label))
                for child in children:
                    label = label_of[child]
                    move = moves.get(label, _UNSEEN)
                    if move is _UNSEEN:
                        move = move_of(states, label, moves, visited, next_frontier)
                    if move is None:
                        continue
                    bits, bucket, accepting = move
                    if bits is None:  # accept-only: a leaf
                        accepted[child] = accepted.get(child, 0) | mask
                        continue
                    seen = bits.get(child, 0)
                    new = mask & ~seen
                    if not new:
                        continue
                    bits[child] = seen | new
                    bucket[child] = bucket.get(child, 0) | new
                    if accepting:
                        accepted[child] = accepted.get(child, 0) | new
        frontier = next_frontier
    oid = view.oid
    for row, mask in accepted.items():
        member = oid(row)
        while mask:
            low = mask & -mask
            results[order[low.bit_length() - 1]].add(member)
            mask ^= low
    return results
