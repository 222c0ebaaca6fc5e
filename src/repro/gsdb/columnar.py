"""Epoch-versioned columnar snapshots: CSR adjacency over dense rows.

The interpreted read path walks Python dict-of-set structures one
OID-string at a time.  MV4PG's materialized property-graph views (and
Szárnyas's relational IVM encodings) get their throughput from compact
adjacency layouts instead; this module is that layout for the repro's
GSDB, built with the stdlib only:

* a dense ``OID ↔ int`` row mapping (``oid_of`` list / ``row_of`` dict,
  rows assigned in sorted-OID order at build time),
* per-label CSR adjacency — for each label, an ``array('I')`` offsets
  column of length ``rows+1`` and an ``array('I')`` targets column, so
  "children of row r carrying label l" is one C-level slice,
* a combined all-labels CSR for label-blind sweeps (GC mark), and
* a ``bytearray`` alive bitset tombstoning removed rows.

The image exists for one consumer: the MVCC serving tier
(:class:`~repro.serving.mvcc.EpochServer`, experiment E20), which owns
the only :class:`ColumnarSnapshot` and publishes frozen epochs of it.
Nothing reads the live snapshot directly; readers see an immutable
:class:`EpochView`, and the bitset kernels of :mod:`repro.paths.kernel`
run on that.

The image holds the base only: view objects and delegates (named by
``is_view_object``) change outside the update log and serve
themselves, so the snapshot skips them.

Snapshots are **epoch-versioned and refreshed by delta**.  A snapshot
remembers the store's update-log position it reflects; ``refresh()``
replays only ``log.since(position)``.  Creations and removals bypass
the update log (they are not basic updates, paper Section 4.1), so the
snapshot also subscribes to the store's creation/removal listeners and
stamps each such event with the log position at which it happened;
delta replay merges the two streams in log order.  When the pending
delta (or the accumulated patch overlay) grows past
:data:`REBUILD_THRESHOLD` × rows, the snapshot rebuilds from scratch
instead — delta cost is proportional to the delta, rebuild cost to the
graph, and the threshold picks whichever is cheaper.

Soundness rests on two methods:

* :meth:`ColumnarSnapshot.refresh` has ``is_fresh()`` as its
  postcondition: afterwards the snapshot's log position equals the
  store's and no creation/removal event is pending.  Delta replay
  refuses three events it cannot patch — a re-created OID (old CSR
  edges reference the tombstoned row), the removal of an unknown row,
  and an edge under an unknown parent — and flags a rebuild, which the
  same ``refresh()`` then performs.  The store cannot change
  mid-refresh: the writer that refreshes is the writer that applies.
* :meth:`ColumnarSnapshot.freeze` refreshes first, then captures
  every column the live snapshot mutates in place, so an
  :class:`EpochView` is exactly the store's state at the instant it
  froze and stays so while the live snapshot refreshes underneath it.

Work is charged in the kernel's own currency: ``snapshot_refreshes``
per epoch advanced, ``snapshot_rows_scanned`` per row touched by
builds, deltas, and :meth:`EpochView.gather` sweeps.  Columnar rows
are copies, not base objects, so none of it lands in
``total_base_accesses``.

MVCC-by-epoch: columns that only ever grow or get replaced
(``oid_of``/``label_of``/``row_of``/CSR arrays) are shared with a row
clamp, columns mutated in place (the alive bitset, the value column)
are copied, and the patch overlay is shared copy-on-write, so
publishing costs the change, not the overlay.  Atomic *values* are
imaged alongside structure (``value_of``; ``modify`` replay writes
the cell in place, uncharged — a column write, not a row scan) so
WHERE conditions evaluate on the frozen epoch without touching the
live store.
:class:`SnapshotRetention` keeps a ring of recently published epochs
with pin-counted reclamation: a pinned epoch is never reclaimed
(explicit reclaim raises :class:`~repro.errors.PinnedEpochError`;
capacity eviction skips it and retries when the pin drops).
"""

from __future__ import annotations

import threading
from array import array
from typing import Iterable, Sequence

from repro.errors import PinnedEpochError
from repro.gsdb.object import Object
from repro.gsdb.store import ObjectStore
from repro.gsdb.updates import Delete, Insert, Modify, Update

#: Queued creation/removal event: (kind, oid, label, is_set, children,
#: atomic value, log position at event time).  Removals carry no
#: label/children/value; set objects carry ``_SET_VALUE``.
_Event = tuple[str, str, str, bool, tuple[str, ...], object, int]

#: Sentinel stored in the value column for set-typed rows (atomic
#: values can legitimately be any scalar, including falsy ones).
_SET_VALUE = object()

#: Rebuild from scratch when the pending delta (or the patch overlay +
#: tombstones) exceeds this fraction of the row count.
REBUILD_THRESHOLD = 0.25


class ColumnarSnapshot:
    """A single store's columnar image, refreshed by delta.

    The writer-side half of the epoch tier: it only refreshes and
    freezes.  Readers evaluate on the :class:`EpochView` that
    :meth:`freeze` returns.

    Args:
        store: the :class:`~repro.gsdb.store.ObjectStore` to image.
        counters: where snapshot work is charged; defaults to the
            store's counters.
        is_view_object: ``oid -> bool`` naming the OIDs left out of the
            image (:meth:`~repro.gsdb.indexes.ParentIndex.is_view_object`);
            it must hold from before a view object is created until its
            last object is removed.  Images every object when omitted.
    """

    def __init__(
        self, store: ObjectStore, *, counters=None, is_view_object=None
    ) -> None:
        self._store = store
        self.counters = counters if counters is not None else store.counters
        self._is_view_object = is_view_object or (lambda oid: False)
        #: Epoch counter: bumped once per refresh that changed anything.
        self.epoch = 0
        self.full_rebuilds = 0
        self.delta_refreshes = 0
        # -- columnar state (populated by _rebuild) -----------------------
        self.oid_of: list[str] = []
        self.row_of: dict[str, int] = {}
        self.label_of: list[str] = []
        self.value_of: list = []
        self._alive = bytearray()
        self._dead = 0
        self._label_csr: dict[str, tuple[array, array]] = {}
        self._all_csr: tuple[array, array] | None = None
        self._csr_rows = 0
        #: row -> {label -> set of child rows}: full adjacency override
        #: for rows touched since the last CSR build.
        self._patched: dict[int, dict[str, set[int]]] = {}
        #: Patched rows touched since the last freeze (no epoch shares them).
        self._owned: set[int] = set()
        #: rowless child OID -> parent rows whose value references it.
        self._pending: dict[str, set[int]] = {}
        # -- staleness bookkeeping ----------------------------------------
        self._built = False
        self._needs_rebuild = False
        self._log_pos = 0
        self._events: list[_Event] = []
        store.subscribe_creations(self._on_creation)
        store.subscribe_removals(self._on_removal)

    # -- event capture (creations/removals bypass the update log) ---------

    def _on_creation(self, obj: Object) -> None:
        if not self._built or self._is_view_object(obj.oid):
            return
        children = tuple(sorted(obj.children())) if obj.is_set else ()
        value = _SET_VALUE if obj.is_set else obj.atomic_value()
        self._events.append(
            (
                "c",
                obj.oid,
                obj.label,
                obj.is_set,
                children,
                value,
                len(self._store.log),
            )
        )

    def _on_removal(self, obj: Object) -> None:
        if not self._built or self._is_view_object(obj.oid):
            return
        self._events.append(
            ("r", obj.oid, "", False, (), None, len(self._store.log))
        )

    # -- freshness ---------------------------------------------------------

    @property
    def nrows(self) -> int:
        return len(self.oid_of)

    def is_fresh(self) -> bool:
        """Does the snapshot reflect the store's exact current state?"""
        return (
            self._built
            and not self._needs_rebuild
            and not self._events
            and self._log_pos == len(self._store.log)
        )

    # -- refresh -----------------------------------------------------------

    def refresh(self) -> "ColumnarSnapshot":
        """Bring the snapshot up to date (delta replay or full rebuild).

        Postcondition: :meth:`is_fresh`.  A delta replay that met an
        event it refuses to patch is followed by a rebuild in the same
        call, never left for a later one.
        """
        if self.is_fresh():
            return self
        delta = (len(self._store.log) - self._log_pos) + len(self._events)
        threshold = REBUILD_THRESHOLD * max(1, self.nrows)
        replay = self._built and delta <= threshold
        if replay:
            self._apply_delta()
            self.delta_refreshes += 1
        # Rebuild when replay was not tried or refused an event, and
        # compact when the overlay outgrows the threshold: gather stays
        # slice-speed only while patches/tombstones are rare.
        if (
            not replay
            or self._needs_rebuild
            or len(self._patched) + self._dead > threshold
        ):
            self._rebuild()
            self.full_rebuilds += 1
        self.epoch += 1
        self.counters.snapshot_refreshes += 1
        return self

    def _rebuild(self) -> None:
        store = self._store
        peek = store.peek
        is_view_object = self._is_view_object
        oids = [oid for oid in store.oids() if not is_view_object(oid)]
        nrows = len(oids)
        self.oid_of = oids
        self.row_of = {oid: row for row, oid in enumerate(oids)}
        row_of = self.row_of
        label_of: list[str] = []
        value_of: list = []
        objs: list[Object] = []
        for oid in oids:
            obj = peek(oid)
            objs.append(obj)
            label_of.append(obj.label)
            value_of.append(_SET_VALUE if obj.is_set else obj.atomic_value())
        self.label_of = label_of
        self.value_of = value_of
        self._alive = bytearray(b"\xff" * ((nrows + 7) >> 3))
        self._dead = 0
        self._patched = {}
        self._owned = set()
        self._pending = {}
        # CSR build: count pass, prefix sums, fill pass — all array('I').
        zeros = bytes(4 * (nrows + 1))
        all_counts = array("I", zeros)
        label_counts: dict[str, array] = {}
        edges = 0
        pending = self._pending
        for row, obj in enumerate(objs):
            if not obj.is_set:
                continue
            for child in sorted(obj.children()):
                crow = row_of.get(child)
                if crow is None:
                    pending.setdefault(child, set()).add(row)
                    continue
                all_counts[row + 1] += 1
                counts = label_counts.get(label_of[crow])
                if counts is None:
                    counts = label_counts[label_of[crow]] = array("I", zeros)
                counts[row + 1] += 1
                edges += 1
        for counts in label_counts.values():
            total = 0
            for i in range(1, nrows + 1):
                total += counts[i]
                counts[i] = total
        total = 0
        for i in range(1, nrows + 1):
            total += all_counts[i]
            all_counts[i] = total
        all_targets = array("I", bytes(4 * edges))
        label_targets = {
            label: array("I", bytes(4 * counts[nrows]))
            for label, counts in label_counts.items()
        }
        all_cursor = array("I", all_counts)
        label_cursor = {
            label: array("I", counts) for label, counts in label_counts.items()
        }
        for row, obj in enumerate(objs):
            if not obj.is_set:
                continue
            for child in sorted(obj.children()):
                crow = row_of.get(child)
                if crow is None:
                    continue
                pos = all_cursor[row]
                all_targets[pos] = crow
                all_cursor[row] = pos + 1
                cursor = label_cursor[label_of[crow]]
                pos = cursor[row]
                label_targets[label_of[crow]][pos] = crow
                cursor[row] = pos + 1
        self._all_csr = (all_counts, all_targets)
        self._label_csr = {
            label: (label_counts[label], label_targets[label])
            for label in label_counts
        }
        self._csr_rows = nrows
        self._built = True
        self._needs_rebuild = False
        self._events = []
        self._log_pos = len(store.log)
        self.counters.snapshot_rows_scanned += nrows + edges

    # -- delta replay ------------------------------------------------------

    def _apply_delta(self) -> None:
        updates = self._store.log.since(self._log_pos)
        events = self._events
        self._events = []
        ei = 0
        pos = self._log_pos
        for update in updates:
            while ei < len(events) and events[ei][6] <= pos:
                self._apply_event(events[ei])
                ei += 1
            self._apply_update(update)
            pos += 1
        while ei < len(events):
            self._apply_event(events[ei])
            ei += 1
        self._log_pos = len(self._store.log)

    def _adjacency_of(self, row: int) -> dict[str, set[int]]:
        """*row*'s adjacency in the patch overlay, copied on the first
        mutation after a freeze (frozen epochs may share it)."""
        if row in self._owned:
            return self._patched[row]
        adj = self._patched.get(row)
        if adj is not None:
            adj = {label: set(bucket) for label, bucket in adj.items()}
        else:
            adj = {}
            if row < self._csr_rows:
                label_of = self.label_of
                off, tgt = self._all_csr
                for crow in tgt[off[row] : off[row + 1]]:
                    adj.setdefault(label_of[crow], set()).add(crow)
                self.counters.snapshot_rows_scanned += 1
        self._patched[row] = adj
        self._owned.add(row)
        return adj

    def _apply_update(self, update: Update) -> None:
        if isinstance(update, Modify):
            # Structure is unchanged; patch the value cell in place.
            # Uncharged: a column write, not a row scan, so the charged
            # shape of delta refreshes (E18) is unchanged.
            row = self.row_of.get(update.oid)
            if row is not None:
                self.value_of[row] = update.new_value
            return
        prow = self.row_of.get(update.parent)
        if prow is None:
            if self._is_view_object(update.parent):
                return  # a view's edges are outside the image
            # The parent predates the snapshot's event stream (should be
            # impossible); refuse to guess and rebuild.
            self._needs_rebuild = True
            return
        crow = self.row_of.get(update.child)
        self.counters.snapshot_rows_scanned += 1
        if isinstance(update, Insert):
            if crow is None:
                self._pending.setdefault(update.child, set()).add(prow)
                return
            adj = self._adjacency_of(prow)
            adj.setdefault(self.label_of[crow], set()).add(crow)
        elif isinstance(update, Delete):
            if crow is None:
                parents = self._pending.get(update.child)
                if parents is not None:
                    parents.discard(prow)
                    if not parents:
                        del self._pending[update.child]
                return
            adj = self._adjacency_of(prow)
            children = adj.get(self.label_of[crow])
            if children is not None:
                children.discard(crow)

    def _apply_event(self, event: _Event) -> None:
        kind, oid, label, is_set, children, value, _pos = event
        if kind == "c":
            if oid in self.row_of:
                # OID re-created after removal: stale CSR edges point at
                # the tombstoned row — only a rebuild re-links them.
                self._needs_rebuild = True
                return
            row = len(self.oid_of)
            self.oid_of.append(oid)
            self.label_of.append(label)
            self.value_of.append(value)
            self.row_of[oid] = row
            if (row >> 3) >= len(self._alive):
                self._alive.append(0)
            self._alive[row >> 3] |= 1 << (row & 7)
            self.counters.snapshot_rows_scanned += 1
            if is_set:
                adj: dict[str, set[int]] = {}
                for child in children:
                    crow = self.row_of.get(child)
                    if crow is None:
                        self._pending.setdefault(child, set()).add(row)
                        continue
                    adj.setdefault(self.label_of[crow], set()).add(crow)
                self._patched[row] = adj
                self._owned.add(row)
            waiting = self._pending.pop(oid, None)
            if waiting:
                for prow in waiting:
                    padj = self._adjacency_of(prow)
                    padj.setdefault(label, set()).add(row)
        else:  # removal
            row = self.row_of.get(oid)
            if row is None:
                self._needs_rebuild = True
                return
            mask = 1 << (row & 7)
            if self._alive[row >> 3] & mask:
                self._alive[row >> 3] &= ~mask & 0xFF
                self._dead += 1
            self.counters.snapshot_rows_scanned += 1

    # -- epoch freezing (MVCC, experiment E20) ------------------------------

    def freeze(self, counters=None) -> "EpochView":
        """An immutable image of the snapshot's exact current state.

        Refreshes first (writer-side; cheap when already fresh), then
        captures every column by the cheapest sound means: columns the
        live snapshot only appends to or wholesale-replaces
        (``oid_of``/``label_of``/``row_of``, the CSR arrays) are shared
        with an ``nrows`` clamp; columns mutated in place (the alive
        bitset, the value column) are copied; the patch overlay is
        shared copy-on-write (:meth:`_adjacency_of`).
        Reader work on the frozen view is charged to *counters* (the
        serving tier's own currency), defaulting to the snapshot's.
        """
        self.refresh()
        view = EpochView(self, counters if counters is not None else self.counters)
        self._owned.clear()
        return view


class EpochView:
    """One store's columnar state frozen at a single epoch (immutable).

    The one implementation of the snapshot view protocol (``nrows`` /
    :meth:`row` / :meth:`oid` / ``label_of`` / :meth:`gather`) plus
    :meth:`atomic_value`: the bitset kernels and the serving tier's
    condition evaluation run on it.  Sharing
    contract with the live :class:`ColumnarSnapshot` it was frozen
    from: ``oid_of``/``label_of`` only ever *append* between rebuilds
    and a rebuild *replaces* the list objects, so sharing them with an
    ``nrows`` clamp is sound; likewise ``row_of`` only gains keys
    (mapping to rows ≥ the frozen ``nrows``, filtered here) and CSR
    arrays are replaced, never mutated.  The alive bitset and value
    column are mutated in place by delta refreshes, so those are copied
    at freeze time; the patch overlay's row map is copied and each
    row's adjacency shared, copy-on-write.
    """

    def __init__(self, snapshot: ColumnarSnapshot, counters) -> None:
        self.epoch = snapshot.epoch
        self.counters = counters
        self.nrows = snapshot.nrows
        self.oid_of = snapshot.oid_of
        self.label_of = snapshot.label_of
        self._row_of = snapshot.row_of
        self._value_of = list(snapshot.value_of)
        self._alive = bytes(snapshot._alive)
        self._dead = snapshot._dead
        self._label_csr = snapshot._label_csr
        self._all_csr = snapshot._all_csr
        self._csr_rows = snapshot._csr_rows
        self._patched = dict(snapshot._patched)

    def row(self, oid: str) -> int | None:
        row = self._row_of.get(oid)
        if row is None or row >= self.nrows:
            return None  # absent, or born after this epoch froze
        if self._dead and not (self._alive[row >> 3] & (1 << (row & 7))):
            return None
        return row

    def oid(self, row: int) -> str:
        return self.oid_of[row]

    def label(self, row: int) -> str:
        return self.label_of[row]

    def atomic_value(self, row: int) -> object | None:
        value = self._value_of[row]
        return None if value is _SET_VALUE else value

    def gather(self, rows: Sequence[int], label: str | None = None) -> list[int]:
        """Child rows of *rows* (carrying *label*, or any when None).

        One C-level slice per CSR row, a dict lookup per patched row; a
        tombstone filter runs only while dead rows exist.  Charges one
        ``snapshot_rows_scanned`` per input row and per emitted child,
        to the frozen view's own counters (the reader currency).
        """
        counters = self.counters
        counters.snapshot_rows_scanned += len(rows)
        out: list[int] = []
        patched = self._patched
        csr = self._all_csr if label is None else self._label_csr.get(label)
        ncsr = self._csr_rows
        alive = self._alive
        dead = self._dead
        for row in rows:
            adj = patched.get(row)
            if adj is not None:
                if label is None:
                    children: Iterable[int] = [
                        crow for bucket in adj.values() for crow in bucket
                    ]
                else:
                    children = adj.get(label, ())
            elif csr is not None and row < ncsr:
                off, tgt = csr
                children = tgt[off[row] : off[row + 1]]
            else:
                continue
            if dead:
                out.extend(
                    crow
                    for crow in children
                    if alive[crow >> 3] & (1 << (crow & 7))
                )
            else:
                out.extend(children)
        counters.snapshot_rows_scanned += len(out)
        return out


class PublishedEpoch:
    """One retained publication: a frozen view plus pin accounting.

    ``seq`` is the ring's monotonically increasing publication number
    (the unit freshness lag is measured in — epochs of *published*
    history, not raw refresh counts).  ``cache`` is an opaque slot the
    serving tier hangs its per-epoch query-cache partition on.
    """

    __slots__ = ("seq", "epoch", "view", "pins", "cache", "reclaimed")

    def __init__(self, seq: int, epoch: int, view) -> None:
        self.seq = seq
        self.epoch = epoch
        self.view = view
        self.pins = 0
        self.cache = None
        self.reclaimed = False

    def __repr__(self) -> str:
        return (
            f"PublishedEpoch(seq={self.seq}, epoch={self.epoch}, "
            f"pins={self.pins})"
        )


class SnapshotRetention:
    """A ring of recently published frozen epochs with pinned reclamation.

    The write path calls :meth:`publish` after each maintenance batch
    (idempotent while nothing changed); readers list retained epochs,
    :meth:`pin` one, evaluate on its immutable view, and :meth:`unpin`.
    Capacity eviction drops the oldest *unpinned* superseded entries;
    an entry a reader still pins is retained past capacity and
    reclaimed lazily when its last pin drops.  Explicitly reclaiming a
    pinned epoch raises :class:`~repro.errors.PinnedEpochError` — there
    is no code path that frees a view a reader holds.

    All ring mutations happen under one small lock; the expensive parts
    (snapshot refresh, freezing) run outside it on the writer thread.
    Bookkeeping is charged to *counters*: ``epochs_published``,
    ``epochs_reclaimed``, and ``snapshot_pins`` per reader pin.
    """

    def __init__(self, manager, *, capacity: int = 4, counters=None) -> None:
        if capacity < 1:
            raise ValueError("retention capacity must be positive")
        self.manager = manager
        self.capacity = capacity
        self.counters = counters if counters is not None else manager.counters
        self._lock = threading.Lock()
        self._entries: list[PublishedEpoch] = []  # oldest .. newest
        self._next_seq = 0

    # -- write side ---------------------------------------------------------

    def publish(self) -> PublishedEpoch:
        """Freeze the store's current state as the newest retained epoch.

        Writer-side only (refresh/freeze read the live snapshot).  When
        nothing changed since the last publication the existing entry
        is returned and no new epoch is minted — publication sequence
        numbers advance only on real change, which is what makes
        ``max_lag_epochs`` a bound on *observed history*, not on time.
        """
        manager = self.manager
        manager.refresh()
        epoch = manager.epoch
        with self._lock:
            latest = self._entries[-1] if self._entries else None
            if latest is not None and latest.epoch == epoch:
                return latest
        view = manager.freeze(self.counters)
        with self._lock:
            entry = PublishedEpoch(self._next_seq, view.epoch, view)
            self._next_seq += 1
            self._entries.append(entry)
            self.counters.epochs_published += 1
            self._evict_locked()
            return entry

    def _evict_locked(self) -> None:
        while len(self._entries) > self.capacity:
            victim = next(
                (e for e in self._entries[:-1] if e.pins == 0), None
            )
            if victim is None:
                break  # every superseded epoch is pinned: retain them all
            self._entries.remove(victim)
            victim.reclaimed = True
            self.counters.epochs_reclaimed += 1

    def reclaim(self, seq: int) -> None:
        """Explicitly drop the publication numbered *seq*.

        Raises :class:`~repro.errors.PinnedEpochError` when a reader
        still pins it, and :class:`KeyError` when it is not retained.
        """
        with self._lock:
            for entry in self._entries:
                if entry.seq == seq:
                    if entry.pins:
                        raise PinnedEpochError(seq, entry.pins)
                    self._entries.remove(entry)
                    entry.reclaimed = True
                    self.counters.epochs_reclaimed += 1
                    return
        raise KeyError(f"no retained epoch publication {seq}")

    # -- read side ----------------------------------------------------------

    def latest(self) -> PublishedEpoch | None:
        with self._lock:
            return self._entries[-1] if self._entries else None

    def entries(self) -> list[PublishedEpoch]:
        """Retained publications, oldest first (a consistent copy)."""
        with self._lock:
            return list(self._entries)

    def pin(self, entry: PublishedEpoch) -> bool:
        """Take a reader pin on *entry*; False when it was already
        reclaimed (the caller re-selects from :meth:`entries`)."""
        with self._lock:
            if entry.reclaimed:
                return False
            entry.pins += 1
            self.counters.snapshot_pins += 1
            return True

    def unpin(self, entry: PublishedEpoch) -> None:
        """Drop a reader pin, lazily evicting over-capacity entries."""
        with self._lock:
            if entry.pins <= 0:
                raise ValueError(f"epoch publication {entry.seq} is not pinned")
            entry.pins -= 1
            self._evict_locked()

    # -- freshness ----------------------------------------------------------

    def store_dirty(self) -> bool:
        """Has the store moved past the newest publication?

        True when there is no publication yet, when the live snapshot
        trails the store, or when the snapshot was refreshed past the
        published epoch without a publish.  Contributes one epoch of
        lag: the next publication is at most one batch away.
        """
        with self._lock:
            latest = self._entries[-1] if self._entries else None
        if latest is None:
            return True
        manager = self.manager
        return not manager.is_fresh() or latest.epoch != manager.epoch

    def lag_of(self, entry: PublishedEpoch) -> int:
        """How many published epochs behind the store *entry* is."""
        with self._lock:
            latest = self._entries[-1] if self._entries else None
        behind = 0 if latest is None else latest.seq - entry.seq
        return behind + (1 if self.store_dirty() else 0)

    def describe(self) -> str:
        with self._lock:
            entries = list(self._entries)
        pins = sum(e.pins for e in entries)
        seqs = ", ".join(str(e.seq) for e in entries)
        return (
            f"{len(entries)} retained epoch(s) [{seqs}] "
            f"(capacity {self.capacity}, {pins} pin(s))"
        )
