"""Shared maintenance dispatcher for multi-view workloads.

The paper's warehouse architecture (Section 5) assumes *many* views
maintained over one update stream, yet Algorithm 1 as literally
implemented makes each maintainer an independent store subscriber that
recomputes ``path(ROOT, N1)`` for every update — O(views × depth) per
update even when most views are unaffected.  This module makes the
multi-view hot path scale with the *affected* views instead:

:class:`PathContext`
    A per-update (or per-batch) memo of the base reads every
    maintainer needs.  ``path(ROOT, N1)`` / ``chain(ROOT, N1)`` are
    computed once and shared by all views rooted at the same entry,
    and so is the rest of the apply phase (below).

shared apply (:meth:`PathContext.shared`)
    Algorithm 1 touches the base only through ``path()``,
    ``ancestor()`` and ``eval()`` (Section 4.3), and those depend on
    the view's *definition parts*, not on the view.  So each distinct
    part is evaluated once per update (once per batch) by the first
    view that needs it, charged exactly as that view would have been,
    and handed to every later view as is: extended up-candidates by
    (root, select NFA, N1) and down-candidates by (root, select NFA,
    N1, N2); atomic witness values by (candidate, comparison path);
    ``N.p`` and its atomic values by (N, p); ``ancestor(X, p)`` by
    (search root, X, p); the N2 object ``_decompose`` reads; a batched
    delete's subtree by N2.  What stays per view is Algorithm 1's own
    logic — the ``cond()`` test against the view's constant and
    ``V_insert``/``V_delete``/refresh — so views differing only in a
    literal (or in nothing) pay for their path work once.  Extended
    screens with the same root and label sets likewise answer the
    label/region test once per update.  Without a context,
    ``maintainer.handle(update)`` computes every part itself.

    *Soundness*: dispatch evaluates every maintainer against one base
    state — the state after the update (the whole batch) — and
    maintenance never changes it: maintainers write only delegates and
    view objects, whose edges the :class:`~repro.gsdb.indexes.ParentIndex`
    ignores and which no base object points to, so no memoized chain,
    subtree or ``N.p`` can pass through them (a view defined over
    another view's object is maintained by recomputation, which reads
    no memo).  Every key holds all the
    inputs of its answer — the view root among them wherever the answer
    depends on where the view starts — so views with different entry
    points share only what is the same from both.

screening (:class:`_SimpleScreen` / :class:`_ExtendedScreen`)
    Before a maintainer runs, the dispatcher decides from the view's
    ``full_path`` (or path-expression label sets) whether the update
    can possibly affect it.  An incompatible update is dropped with
    zero base accesses — the label test uses the store's uncharged
    ``peek`` and the shared, memoized root chain.  This generalizes the
    warehouse's bulk-update label screening
    (:mod:`repro.warehouse.bulk`) to local maintenance.

    *Soundness* (simple views): the screen replays exactly the checks
    Algorithm 1's decomposition performs — for ``insert``/``delete`` it
    keeps the update iff ``sel_path.cond_path`` starts with
    ``path(ROOT,N1).label(N2)`` or N1 is a member (whose delegate needs
    a value refresh); for ``modify`` iff ``path(ROOT,N) =
    sel_path.cond_path`` (and the view has a condition) or N is a
    member.  Dropped updates are ones on which the maintainer provably
    no-ops, so screening is *exact*, not merely sound.

    *Soundness* (extended views): an edge update can change membership
    only if the new/removed child's label can appear somewhere on an
    instance of the select expression or of some comparison path (else
    no select instance and no condition witness path can pass through
    the edge); a modify only matters when the modified atom's label can
    be the final label of some comparison path, and when some
    comparison's verdict flips between the old and the new value
    (``cond`` is existential per witness and ``Exists`` reads no
    value, so with every verdict unchanged no candidate's ``cond``
    changes).  Wildcard segments make every label feasible, disabling
    the label part of the screen.  The reachable-region test (is N1 on
    the ROOT chain / is N1 a member) mirrors the maintainer's own early
    exit, so screened updates are again exact no-ops.

:class:`_DefinitionIndex`
    The screens above are the *single-view* definition of relevance;
    asking each of them per update is O(views) even when the answer is
    "one or two".  The dispatcher therefore screens an update **once**
    against an index over the registered simple *definitions* — label
    buckets, a dict from every prefix of ``sel_path.cond_path`` to the
    views sharing it, and member candidates bucketed by the select
    path's last label — which yields exactly the registrations whose
    screen would say yes, performing exactly the charged lookups the
    per-view loop would.  It is keyed by definitions only, never by
    membership, so ``register``/``unregister`` are the only events that
    invalidate it.

:func:`coalesce_updates`
    Batch pre-processing: cancel insert/delete pairs that leave an edge
    in its pre-batch state, fold modify chains on one object to
    ``(first old, last new)``, and drop modifies that return to the
    original value.  *Correctness conditions*: the whole batch must be
    applied to the base before dispatch (the dispatcher's
    :meth:`MaintenanceDispatcher.batch` guarantees this), the base must
    obey tree discipline, and the views must be consistent at batch
    start.  Then every maintainer decision re-evaluates against the
    final state, temporary intermediate states are never observable,
    and a net-unchanged edge or value contributes no membership delta
    — so the surviving updates cover exactly the pre/post difference.
    Surviving updates keep their relative order (each at its last
    occurrence), which preserves delete-then-reinsert sequencing.

    *Batched deletes are history-dependent.*  Additions are determined
    by the final state alone (a member exists iff derivable now), so
    insert/modify handling — and their screens — may reason from final
    paths.  Removals are not: a delete must evict members that were
    derivable *through the deleted edge at the time it was applied*,
    and later updates in the same batch may have detached or moved
    parts of that subtree before dispatch runs.  Maintainers therefore
    treat a batched delete specially (see
    :func:`~repro.views.maintenance.purge_stranded`): they purge the
    view members found in the deleted child's final-state subtree by
    direct ``contains`` inspection — complete where witness-driven
    discovery under-approximates — except those the final state still
    derives from the view's own root when that root lies inside the
    subtree, and skip the no-lost-witness shortcut before
    re-evaluating the surviving ancestor.  Members moved out of the
    subtree mid-batch are covered inductively: whatever op moved them
    is itself in the batch and dispatched in order.  Screens likewise
    must not use final-state reachability to drop a batched delete
    (the parent may have moved after the edge was cut) — unless N1's
    chain is *stable*: known from the parent index, N1 present, no
    multi-parent node on the way, and no node on it the child of an
    edge update anywhere in the raw batch.  Under tree discipline a
    node's parent changes only through an edge update naming it as
    the child, so every node of a stable chain kept its one parent all
    batch, and the final ``path(ROOT,N1)`` is the path N1 had when the
    edge was cut: the streamed prefix test is exact again.  Otherwise
    only the label gate remains, sound because a stranded member
    always carries the deleted child's label on its own select path.

Experiment E14 measures the effect; DESIGN.md §2 row S4b documents the
deviations from the paper.
"""

from __future__ import annotations

from contextlib import contextmanager
from heapq import heapify, heappop, heappush
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from repro.gsdb.indexes import ParentIndex
from repro.gsdb.store import ObjectStore
from repro.gsdb.traversal import chain_between, path_between
from repro.gsdb.updates import Delete, Insert, Modify, Update
from repro.paths.expression import LabelSegment, PathExpression
from repro.paths.path import Path
from repro.query.ast import And, Comparison
from repro.views.extended import ExtendedViewMaintainer
from repro.views.maintenance import SimpleViewMaintainer

T = TypeVar("T")

#: Marks a :meth:`PathContext.shared` miss (None is a valid answer).
_MISSING = object()


class PathContext:
    """Per-update memo of base reads, shared across maintainers.

    Chain and path lookups are keyed ``(root, oid)`` so views with
    different entry points share nothing by accident; :meth:`shared`
    holds the maintainers' definition parts (see "shared apply" in the
    module docstring).  Labels are resolved through the store's
    uncharged ``peek`` when it has one (screening must not charge base
    accesses); remote store shims without a free ``peek`` fall back to
    the charged lookup.

    A context may serve a whole batch *only after* the batch has been
    fully applied to the base: every memoized answer reflects the final
    state, which is exactly the state all maintainers evaluate against.
    *moved* — the child of every edge update in the raw batch — marks
    such a context: the update stream was coalesced, and deletes then
    need the history-aware handling described in the module docstring.
    """

    def __init__(
        self,
        store: ObjectStore,
        parent_index: ParentIndex | None = None,
        *,
        moved: frozenset[str] | None = None,
    ) -> None:
        self.store = store
        self.parent_index = parent_index
        self.moved = moved
        self._peek = getattr(store, "peek", None) or store.get_optional
        self._labels: dict[str, str | None] = {}
        self._paths: dict[tuple[str, str], list[str] | None] = {}
        self._chains: dict[tuple[str, str], list[str] | None] = {}
        self._chain_sets: dict[str, tuple[frozenset[str], bool]] = {}
        self._shared: dict[tuple, object] = {}

    @property
    def batched(self) -> bool:
        """Whether this context serves a coalesced batch."""
        return self.moved is not None

    def label_only(self, update: Update) -> bool:
        """Whether *update* is a batched delete whose screen may use the
        label gate only: N1's upward chain is not provably *stable* —
        known (a parent index, N1 present, no multi-parent stop) with no
        node on it the child of an edge update in the batch."""
        if self.moved is None or not isinstance(update, Delete):
            return False
        chain = self.chain_set(update.parent)
        if chain is None:
            return True
        oids, stopped = chain
        return (
            stopped
            or update.parent not in oids
            or not self.moved.isdisjoint(oids)
        )

    def shared(self, key: tuple, compute: Callable[[], T]) -> T:
        """The answer for one definition part: computed — and charged —
        by the first view asking, returned as is to every later one
        (callers must not mutate it).  *key* starts with a tag naming
        the part and includes every input the answer depends on,
        the view root among them wherever the answer has one."""
        value = self._shared.get(key, _MISSING)
        if value is _MISSING:
            value = self._shared[key] = compute()
        return value  # type: ignore[return-value]

    def label(self, oid: str) -> str | None:
        """The label of *oid*, or None when absent (uncharged)."""
        if oid not in self._labels:
            obj = self._peek(oid)
            self._labels[oid] = None if obj is None else obj.label
        return self._labels[oid]

    def path_between(self, root: str, oid: str) -> list[str] | None:
        """Memoized ``path(root, oid)`` — callers must not mutate."""
        key = (root, oid)
        if key not in self._paths:
            self._paths[key] = path_between(
                self.store, root, oid, parent_index=self.parent_index
            )
        return self._paths[key]

    def chain_between(self, root: str, oid: str) -> list[str] | None:
        """Memoized OID chain ``[root, ..., oid]`` — do not mutate."""
        key = (root, oid)
        if key not in self._chains:
            self._chains[key] = chain_between(
                self.store, root, oid, parent_index=self.parent_index
            )
        return self._chains[key]

    def chain_set(self, oid: str) -> tuple[frozenset[str], bool] | None:
        """OIDs on *oid*'s upward chain to the top of its tree, plus
        whether the walk stopped at a multi-parent node.

        Entry-point-agnostic ancestry: the batched-delete screen
        (:meth:`label_only`) tests every node of N1's chain against the
        batch's moved children.  Returns None when the context has no
        parent index (callers must fail open).
        """
        if self.parent_index is None:
            return None
        if oid not in self._chain_sets:
            oids, stopped = self.parent_index.chain_to_top(oid)
            self._chain_sets[oid] = (frozenset(oids), stopped)
        return self._chain_sets[oid]


# ---------------------------------------------------------------------------
# screening
# ---------------------------------------------------------------------------


def expression_labels(expression: PathExpression) -> set[str] | None:
    """Concrete labels an instance may step through; None means "any"
    (the expression contains a wildcard segment).

    The label gate shared by the dispatcher's view screens and the
    serving layer's query-cache invalidator: an edge update is relevant
    to a path expression only if the moved child's label can appear
    somewhere on an instance (every instance path through the edge
    carries that label at the edge's position).
    """
    labels: set[str] = set()
    for segment in expression.segments:
        if isinstance(segment, LabelSegment):
            labels.update(segment.labels)
        else:
            return None
    return labels


def _comparisons(condition) -> list[Comparison]:
    if condition is None:
        return []
    if isinstance(condition, Comparison):
        return [condition]
    if isinstance(condition, And):
        return [c for c in condition.operands if isinstance(c, Comparison)]
    return []


class _SimpleScreen:
    """Exact relevance test for a :class:`SimpleViewMaintainer`."""

    def __init__(self, maintainer: SimpleViewMaintainer) -> None:
        self.m = maintainer
        self._full_labels = set(maintainer.full_path.labels)

    def relevant(self, update: Update, ctx: PathContext) -> bool:
        m = self.m
        if isinstance(update, Modify):
            if m.view.contains(update.oid):
                return True  # member value refresh
            if not m.has_condition:
                return False  # membership is pure reachability
            full = m.full_path
            if not full:
                return update.oid == m.root
            if ctx.label(update.oid) != full.labels[-1]:
                return False
            path = ctx.path_between(m.root, update.oid)
            return path is not None and full == tuple(path)
        # Insert / Delete on edge N1 -> N2.
        if m.view.contains(update.parent):
            return True  # member value refresh (children changed)
        label = ctx.label(update.child)
        if label is None or label not in self._full_labels:
            return False  # label(N2) cannot continue sel_path.cond_path
        if ctx.label_only(update):
            # Removals are history-dependent: unless N1's chain held all
            # batch, its *final* path proves nothing about where the
            # subtree sat when the edge was cut.  Only the label gate
            # above is sound then.
            return True
        prefix = ctx.path_between(m.root, update.parent)
        if prefix is None:
            return False  # N1 unreachable from this view's ROOT
        return (
            m.full_path.strip_prefix(Path(tuple(prefix) + (label,)))
            is not None
        )


class _ExtendedScreen:
    """Label/region relevance test for an :class:`ExtendedViewMaintainer`."""

    def __init__(self, maintainer: ExtendedViewMaintainer) -> None:
        self.m = maintainer
        definition = maintainer.view.definition
        comparisons = self._comparisons = _comparisons(definition.condition)
        # Labels that can appear anywhere on a select instance or on a
        # condition witness path (edge updates).
        edge_labels = expression_labels(definition.select_expression)
        for comp in comparisons:
            if edge_labels is None:
                break
            comp_labels = expression_labels(comp.path)
            if comp_labels is None:
                edge_labels = None
            else:
                edge_labels = edge_labels | comp_labels
        self._edge_labels = edge_labels
        # Labels a condition witness (the final object of a comparison
        # path) can carry (modify updates).
        witness_labels: set[str] | None = set()
        for comp in comparisons:
            segments = comp.path.segments
            if not segments or not isinstance(segments[-1], LabelSegment):
                witness_labels = None
                break
            witness_labels.update(segments[-1].labels)
        self._witness_labels = witness_labels
        #: What the label/region verdict depends on: screens agreeing
        #: here answer it once per update.
        self._signature = (
            maintainer.root,
            None if edge_labels is None else frozenset(edge_labels),
            None if witness_labels is None else frozenset(witness_labels),
        )

    def relevant(
        self,
        update: Update,
        ctx: PathContext,
        verdicts: dict[tuple, bool] | None = None,
    ) -> bool:
        """*verdicts* collects :meth:`_reaches` by signature for one
        update, so identical screens answer it once.  (A dict local to
        the update, not :meth:`PathContext.shared`: keying the context
        memo by the update costs more than the screen it saves.)"""
        m = self.m
        if isinstance(update, Modify):
            if m.view.contains(update.oid):
                return True
            if m.condition is None:
                return False
            old, new = update.old_value, update.new_value
            if all(
                comp.test_value(old) == comp.test_value(new)
                for comp in self._comparisons
            ):
                return False  # no comparison's verdict flips
        elif m.view.contains(update.parent):
            return True
        if verdicts is None:
            return self._reaches(update, ctx)
        verdict = verdicts.get(self._signature)
        if verdict is None:
            verdict = verdicts[self._signature] = self._reaches(update, ctx)
        return verdict

    def _reaches(self, update: Update, ctx: PathContext) -> bool:
        """The view-independent half: label gate, then reachable region."""
        root = self.m.root
        if isinstance(update, Modify):
            if (
                self._witness_labels is not None
                and ctx.label(update.oid) not in self._witness_labels
            ):
                return False
            return ctx.chain_between(root, update.oid) is not None
        if (
            self._edge_labels is not None
            and ctx.label(update.child) not in self._edge_labels
        ):
            return False
        if ctx.label_only(update):
            return True  # removals are history-dependent; label gate only
        return ctx.chain_between(root, update.parent) is not None


# ---------------------------------------------------------------------------
# replay screening (at-least-once delivery)
# ---------------------------------------------------------------------------


def screen_replayed(
    store, updates: Iterable[Update], *, counters=None
) -> list[Update]:
    """Drop updates whose effect is already reflected in *store*.

    At-least-once delivery means a batch may be a partial or complete
    re-delivery of work the store already applied.  An ``Insert`` whose
    edge exists, a ``Delete`` whose edge is absent, and a ``Modify``
    whose object already carries the new value are exactly such
    replays — ``ObjectStore.apply`` would reject them with
    :class:`~repro.errors.InvalidUpdateError`, turning an idempotent
    retry into a crash.  The screen simulates the batch over an overlay
    of the store's current state (via the uncharged ``peek``) so
    intra-batch sequencing like delete-then-reinsert survives intact,
    and returns only the updates that still have an effect.

    Only *exact* replays are screened.  A genuinely conflicting update
    (e.g. an ``Insert`` of an absent edge whose parent is missing, or a
    ``Modify`` whose old value matches neither the stored nor the new
    value) is kept so the store raises — replay tolerance must not mask
    real protocol errors.

    Charges ``notifications_deduped`` on *counters* for every update
    screened out.
    """
    updates = list(updates)
    peek = getattr(store, "peek", None) or store.get_optional
    edges: dict[tuple[str, str], bool] = {}
    values: dict[str, object] = {}

    def edge_present(parent: str, child: str) -> bool:
        key = (parent, child)
        if key not in edges:
            obj = peek(parent)
            edges[key] = (
                obj is not None and obj.is_set and child in obj.children()
            )
        return edges[key]

    def current_value(oid: str) -> object:
        if oid not in values:
            obj = peek(oid)
            values[oid] = (
                None if obj is None or obj.is_set else obj.atomic_value()
            )
        return values[oid]

    survivors: list[Update] = []
    for update in updates:
        if isinstance(update, Insert):
            if edge_present(update.parent, update.child):
                continue  # edge already in place: a replay
            edges[(update.parent, update.child)] = True
        elif isinstance(update, Delete):
            if not edge_present(update.parent, update.child):
                continue  # edge already gone: a replay
            edges[(update.parent, update.child)] = False
        elif isinstance(update, Modify):
            if current_value(update.oid) == update.new_value:
                continue  # value already current: a replay (or no-op)
            values[update.oid] = update.new_value
        survivors.append(update)
    if counters is not None:
        counters.notifications_deduped += len(updates) - len(survivors)
    return survivors


# ---------------------------------------------------------------------------
# batch coalescing
# ---------------------------------------------------------------------------


def coalesce_updates(
    updates: Iterable[Update], *, counters=None
) -> list[Update]:
    """Reduce an applied batch to its net effect (see module docstring).

    * insert/delete pairs on the same edge cancel when counts balance
      (the edge ends in its pre-batch state); otherwise the last op on
      the edge is the net op and survives alone;
    * modify chains on one object fold to ``(first old, last new)`` and
      vanish entirely when the value returns to the original;
    * a surviving modify whose object is the child of a *surviving*
      insert folds into that insert: the insert handler re-derives
      every membership decision and delegate value about the child
      from the final base state (``v_insert`` refreshes existing
      members), and any effect the value had at the child's *previous*
      position is re-decided by the update that detached it — itself
      in the batch.  A modify whose insert was parity-cancelled (the
      edge is back in its pre-batch place) survives untouched;
    * survivors keep their relative order (each at the position of its
      key's last occurrence).

    Charges ``updates_coalesced`` on *counters* (when given) for every
    update removed or folded away.
    """
    updates = list(updates)
    groups: dict[tuple, list[Update]] = {}
    last_index: dict[tuple, int] = {}
    for i, update in enumerate(updates):
        if isinstance(update, (Insert, Delete)):
            key = ("edge", update.parent, update.child)
        elif isinstance(update, Modify):
            key = ("modify", update.oid)
        else:
            key = ("other", i)
        groups.setdefault(key, []).append(update)
        last_index[key] = i
    result: list[Update] = []
    for key in sorted(groups, key=last_index.__getitem__):
        ops = groups[key]
        if key[0] == "edge":
            inserts = sum(1 for op in ops if isinstance(op, Insert))
            if inserts * 2 == len(ops):
                continue  # net parity: edge is back in its old state
            result.append(ops[-1])
        elif key[0] == "modify":
            first, last = ops[0], ops[-1]
            if first.old_value == last.new_value:
                continue  # value returned to the original
            if len(ops) == 1:
                result.append(last)
            else:
                result.append(
                    Modify(last.oid, first.old_value, last.new_value)
                )
        else:
            result.append(ops[0])
    inserted_children = {
        update.child for update in result if isinstance(update, Insert)
    }
    if inserted_children:
        result = [
            update
            for update in result
            if not (
                isinstance(update, Modify)
                and update.oid in inserted_children
            )
        ]
    if counters is not None:
        counters.updates_coalesced += len(updates) - len(result)
    return result


# ---------------------------------------------------------------------------
# the dispatcher
# ---------------------------------------------------------------------------


class _Registration:
    __slots__ = ("maintainer", "screen", "supports_context", "order")

    def __init__(self, maintainer, screen, supports_context: bool) -> None:
        self.maintainer = maintainer
        self.screen = screen
        self.supports_context = supports_context
        self.order = 0  # position in registration order (set by the index)

    def deliver(self, update: Update, context: PathContext) -> None:
        if self.supports_context:
            self.maintainer.handle(update, context)
        else:
            self.maintainer.handle(update)


class _RootBuckets:
    """The simple definitions sharing one view root, by label and by path."""

    __slots__ = ("edge_gate", "modify_gate", "prefixes", "conditions")

    def __init__(self) -> None:
        #: label -> views with it anywhere on ``sel_path.cond_path``.
        self.edge_gate: dict[str, list[_Registration]] = {}
        #: label -> condition views whose ``sel_path.cond_path`` ends
        #: with it.
        self.modify_gate: dict[str, list[_Registration]] = {}
        #: every non-empty prefix of ``sel_path.cond_path`` -> the views
        #: sharing it.
        self.prefixes: dict[tuple[str, ...], list[_Registration]] = {}
        #: the whole ``sel_path.cond_path`` -> the condition views
        #: defined by it.
        self.conditions: dict[tuple[str, ...], list[_Registration]] = {}


#: Kinds of pending work in :meth:`_DefinitionIndex.matching`, in the
#: order they run when they fall on the same registration.
_RESOLVE, _MATCHED, _FALLBACK = range(3)


class _DefinitionIndex:
    """Discrimination index over the registered view definitions.

    Answers "which registrations can this update affect?" with a few
    dict probes instead of one screen call per view.  Simple views are
    bucketed by what their *definition* fixes (root, labels, prefixes of
    ``sel_path.cond_path``, the select path's last label — which every
    member carries); extended views and unscreened maintainers cannot
    be bucketed and keep their own screen, asked at their turn.

    :meth:`matching` yields in registration order and is lazy:
    ``path(ROOT, N1)`` — and, for a batched delete, the stable-chain
    test before it — is requested when the per-view loop would have
    reached the first view needing it — label gate passed, N1 not a
    member — so verdicts, charged lookups and chain-memo hits/misses
    equal those of asking every ``screen.relevant`` in turn.  (Label
    probes go through the store's uncharged ``peek``.)
    """

    def __init__(self, entries: Sequence[_Registration]) -> None:
        self.registered = len(entries)
        self.screened = sum(1 for e in entries if e.screen is not None)
        #: Unscreened and extended registrations, as pending work.
        self._fallback: list[tuple[int, int, _Registration]] = []
        #: Simple views by their select path's last label.
        self._members: dict[str, list[_Registration]] = {}
        #: Simple views selecting ROOT itself, by root OID.
        self._rooted: dict[str, list[_Registration]] = {}
        self._roots: dict[str, _RootBuckets] = {}
        for order, entry in enumerate(entries):
            entry.order = order
            if not isinstance(entry.screen, _SimpleScreen):
                self._fallback.append((order, _FALLBACK, entry))
                continue
            m = entry.maintainer
            if m.sel_path:
                self._members.setdefault(m.sel_path.labels[-1], []).append(
                    entry
                )
            else:
                self._rooted.setdefault(m.root, []).append(entry)
            buckets = self._roots.setdefault(m.root, _RootBuckets())
            for label in entry.screen._full_labels:
                buckets.edge_gate.setdefault(label, []).append(entry)
            full = m.full_path.labels
            for end in range(1, len(full) + 1):
                buckets.prefixes.setdefault(full[:end], []).append(entry)
            if m.has_condition and full:
                buckets.modify_gate.setdefault(full[-1], []).append(entry)
                buckets.conditions.setdefault(full, []).append(entry)

    def matching(
        self, update: Update, ctx: PathContext
    ) -> Iterator[_Registration]:
        """The registrations *update* can affect, in registration order."""
        modify = isinstance(update, Modify)
        oid = update.oid if modify else update.parent
        pending = self._fallback.copy()
        # Members of N1 / N need a value refresh whatever the paths say
        # (a member carries its view's last select label; an object the
        # store no longer holds is nobody's member).
        label = ctx.label(oid)
        for entry in self._members.get(label, ()):
            if entry.maintainer.view.contains(oid):
                pending.append((entry.order, _MATCHED, entry))
        for entry in self._rooted.get(oid, ()):
            m = entry.maintainer
            if m.view.contains(oid) or (
                modify and m.has_condition and not m.full_path
            ):
                pending.append((entry.order, _MATCHED, entry))
        # The label gate: label(N2) must continue sel_path.cond_path, a
        # modified N must carry its last label.
        gate = label if modify else ctx.label(update.child)
        if gate is not None:
            for root, buckets in self._roots.items():
                gated = (
                    buckets.modify_gate if modify else buckets.edge_gate
                ).get(gate, ())
                for entry in gated:
                    if not entry.maintainer.view.contains(oid):
                        # The first view to need path(ROOT, N1) settles
                        # every view of this root (members are already
                        # pending).
                        pending.append((entry.order, _RESOLVE, root))
                        break
        heapify(pending)
        verdicts: dict[tuple, bool] = {}  # extended screens, this update
        # Registration order of the last turn taken (delivered or
        # screened out).  A view's own delivery can make it look gated
        # again (``SELECT ROOT X WHERE ...`` dropping ROOT, re-pushed by
        # a later root resolution); a turn that has passed is never
        # taken twice.
        turn = -1
        while pending:
            order, kind, item = heappop(pending)
            if kind == _RESOLVE:
                buckets = self._roots[item]
                if ctx.label_only(update):
                    # Removals are history-dependent (see the module
                    # docstring): only the label gate is sound.
                    for entry in buckets.edge_gate[gate]:
                        if not entry.maintainer.view.contains(oid):
                            heappush(pending, (entry.order, _MATCHED, entry))
                    continue
                path = ctx.path_between(item, oid)
                if path is None:
                    continue  # N1 unreachable from this root
                if modify:
                    found = buckets.conditions.get(tuple(path), ())
                else:
                    found = buckets.prefixes.get((*path, gate), ())
                for entry in found:
                    if not entry.maintainer.view.contains(oid):
                        heappush(pending, (entry.order, _MATCHED, entry))
            elif order <= turn:
                continue
            else:
                turn = order
                if (
                    kind == _MATCHED
                    or item.screen is None
                    or item.screen.relevant(update, ctx, verdicts)
                ):
                    yield item


class MaintenanceDispatcher:
    """The single store subscriber fanning updates out to maintainers.

    Register it once (``subscribe=True``) instead of subscribing each
    maintainer; per update it builds one :class:`PathContext`, screens
    the update once against the :class:`_DefinitionIndex` over the
    registered views, and invokes only the maintainers the update can
    affect.  Per-update dispatch cost is then O(affected views), not
    O(total views) — experiment E14.

    Attributes:
        updates_dispatched: updates fanned out (post-coalescing).
        behind: maintainers a dispatch that raised part-way may have
            left behind the store; an owner takes one out once it has
            recomputed that maintainer's view.
    """

    def __init__(
        self,
        store: ObjectStore,
        *,
        parent_index: ParentIndex | None = None,
        subscribe: bool = False,
    ) -> None:
        self.store = store
        self.parent_index = parent_index
        self._entries: list[_Registration] = []
        self._index: _DefinitionIndex | None = None
        self._buffer: list[Update] | None = None
        self._dispatching = False
        self.behind: set = set()
        self.updates_dispatched = 0
        if subscribe:
            store.subscribe(self.handle)

    # -- registration ------------------------------------------------------

    def register(self, maintainer, *, screen: bool = True):
        """Route updates to *maintainer* (anything with ``handle``).

        Simple/extended maintainers get a relevance screen (unless
        *screen* is False) and receive the shared :class:`PathContext`;
        other maintainer kinds (DAG, recompute fallbacks) and a view's
        dependents (aggregates, a partial view's fragment refresh) are
        dispatched unscreened.  Every update reaches registrations in
        registration order.  Returns *maintainer* for chaining.
        """
        screener = None
        supports_context = False
        if isinstance(maintainer, SimpleViewMaintainer):
            supports_context = True
            if screen and hasattr(maintainer.view, "contains"):
                screener = _SimpleScreen(maintainer)
        elif isinstance(maintainer, ExtendedViewMaintainer):
            supports_context = True
            if screen and hasattr(maintainer.view, "contains"):
                screener = _ExtendedScreen(maintainer)
        self._entries.append(
            _Registration(maintainer, screener, supports_context)
        )
        self._index = None
        return maintainer

    def unregister(self, maintainer) -> None:
        """Stop routing updates to *maintainer* (no-op when absent)."""
        self._entries = [
            entry
            for entry in self._entries
            if entry.maintainer is not maintainer
        ]
        self._index = None
        self.behind.discard(maintainer)

    def registered(self) -> list:
        """The registered maintainers, in registration order."""
        return [entry.maintainer for entry in self._entries]

    @property
    def settled(self) -> bool:
        """Has every maintainer not :attr:`behind` seen every applied
        update?  False inside an open :meth:`batch` and while a
        dispatch runs."""
        return self._buffer is None and not self._dispatching

    # -- dispatch ----------------------------------------------------------

    def handle(self, update: Update) -> None:
        """Store-listener entry point: dispatch one applied update.

        Inside a :meth:`batch` block the update is buffered instead and
        dispatched (coalesced) when the block exits.
        """
        if self._buffer is not None:
            self._buffer.append(update)
            return
        self._dispatch([update])

    def handle_batch(self, updates: Sequence[Update]) -> list[Update]:
        """Dispatch an already-applied batch, coalesced, with one
        shared :class:`PathContext`.  Returns the surviving updates."""
        survivors = coalesce_updates(updates, counters=self.store.counters)
        if survivors:
            moved = frozenset(
                u.child for u in updates if isinstance(u, (Insert, Delete))
            )
            self._dispatch(survivors, moved=moved)
        return survivors

    @contextmanager
    def batch(self) -> Iterator[None]:
        """Buffer store notifications, then dispatch the net batch.

        ::

            with dispatcher.batch():
                store.apply_all(updates)   # applied, not yet dispatched
            # exiting coalesces + dispatches against the final state

        The flush runs even when the body raises (the updates *were*
        applied, so the views must still catch up).
        """
        if self._buffer is not None:
            raise RuntimeError("dispatcher batch already active")
        self._buffer = []
        try:
            yield
        finally:
            buffered, self._buffer = self._buffer, None
            if buffered:
                self.handle_batch(buffered)

    def _definition_index(self) -> _DefinitionIndex:
        """The index over the current registrations (rebuilt after
        ``register``/``unregister``, the only events that change it)."""
        if self._index is None:
            self._index = _DefinitionIndex(self._entries)
        return self._index

    def _dispatch(
        self, updates: Sequence[Update], *, moved: frozenset[str] | None = None
    ) -> None:
        context = PathContext(self.store, self.parent_index, moved=moved)
        counters = self.store.counters
        index = self._definition_index()
        outer, self._dispatching = self._dispatching, True
        try:
            for update in updates:
                self.updates_dispatched += 1
                matched = 0
                for entry in index.matching(update, context):
                    matched += 1
                    entry.deliver(update, context)
                counters.updates_screened += index.registered - matched
        except BaseException:
            self.behind.update(entry.maintainer for entry in self._entries)
            raise
        finally:
            self._dispatching = outer
