"""Logical cost counters.

The paper argues about costs in terms of *base-data accesses* and
*source queries* (Sections 4.4 and 5.1), not wall-clock time.  Every
store, index, and warehouse component in this library therefore charges
its work to a :class:`CostCounters` instance, and the benchmark harness
reports these logical costs alongside pytest-benchmark timings.

Counter semantics
-----------------
``object_reads``      lookups of an object by OID in a store
``object_writes``     creations / value mutations in a store
``object_scans``      objects visited during a full-store scan
``index_probes``      lookups answered by an index (parent / label)
``edge_traversals``   parent→child edge followings during traversal
``source_queries``    queries sent from a warehouse to a source
``messages_sent``     warehouse protocol messages (either direction)
``bytes_sent``        estimated payload bytes of those messages
``delegates_inserted``/``delegates_deleted``/``delegates_refreshed``
                      materialized-view churn
``view_recomputations`` full recomputations performed
``chain_cache_hits``  root-chain lookups answered by the parent index's
                      memoized chain cache (no base access charged)
``chain_cache_misses`` chain lookups that had to walk the index; a walk
                      that stops at a memoized ancestor and splices its
                      chain on is one miss, charged for the nodes it
                      walked plus one ``index_probes`` for the suffix
``updates_screened``  (view, update) pairs dropped by the dispatcher's
                      label/prefix screen with zero base accesses
``updates_coalesced`` updates removed from a batch by coalescing
                      (cancelled edge pairs, folded modify chains)
``query_retries``     source-query attempts repeated after a timeout or
                      outage (the backoff state machine, experiment E15)
``query_timeouts``    source answers lost in flight (injected timeouts)
``source_failures``   queries that found the source down
``notifications_deduped`` duplicate deliveries dropped: notifications
                      caught by the warehouse's sequence-number dedup,
                      and re-delivered updates screened out by
                      ``screen_replayed`` before application
``notifications_replayed`` lost notifications retransmitted from the
                      monitor's history during gap-detection resync
``view_resyncs``      warehouse views rebuilt by full recomputation
                      because replay was impossible
``query_cache_hits``  queries answered from the serving layer's result
                      cache with zero base accesses
``query_cache_misses`` queries that had to be evaluated (then cached)
``query_cache_evictions`` entries dropped by the cache's LRU bound
``query_cache_invalidations`` entries precisely invalidated because an
                      update could affect their answer (experiment E16)
``snapshot_refreshes`` the MVCC tier's columnar snapshot brought up to
                      date (delta-applied or fully rebuilt; experiment
                      E18c)
``snapshot_rows_scanned`` columnar rows touched by snapshot builds and
                      delta refreshes (writer side) and by kernel
                      sweeps on frozen epochs (reader side) — the
                      kernel's analogue of reads + traversals
``epochs_published``  frozen snapshot epochs published into the MVCC
                      retention ring (experiment E20)
``epochs_reclaimed``  retained epochs whose frozen views were released
                      by the ring (capacity eviction or explicit,
                      never while pinned)
``snapshot_pins``     reader pins taken on retained epochs — one per
                      epoch-pinned evaluation, so E20 can report how
                      much read traffic rode frozen views

The charge rule of query evaluation
-----------------------------------
One *evaluation* — the select sweep plus every WHERE sweep of one query
or one view recomputation
(:func:`~repro.query.evaluator.select_and_filter`), or one view
maintainer's walk — shares one
:class:`~repro.paths.automaton.ChargeLedger`, and within it:

* an object costs one ``object_reads`` the first time it is touched
  (a probe for an absent or out-of-scope OID included);
* a parent's ``index_probes`` and its out-edge ``edge_traversals`` are
  charged once, the first time it is expanded (through the index, each
  followed label group's existing children once);
* reading a witness atom's value after the sweep reached it costs
  nothing;
* a state set with no outgoing transition is never expanded, with or
  without an index, so an accepted leaf's children are not read.

A store without an uncharged ``peek`` (a warehouse's remote store)
charges through its own ``get_optional``, once per object per ledger.

The cache/screening counters are bookkeeping, not base accesses, so
they do not contribute to :meth:`CostCounters.total_base_accesses` —
they exist to *explain* why base accesses went down (experiment E14).
The snapshot counters are likewise kept out of the base-access total:
columnar rows are copies, not base objects, so kernel work is reported
in its own currency (``snapshot_rows_scanned``) next to the
interpreted path's reads + traversals (experiment E18); the MVCC
ring counters (``epochs_published``, ``epochs_reclaimed``,
``snapshot_pins``) are retention bookkeeping in the same spirit
(experiment E20).
The recovery counters (retries, dedups, replays, resyncs) likewise are
event counts, not base accesses; the base accesses a recovery action
*causes* (e.g. a resync's recomputation) are charged where they happen
and show up in the usual read/query counters (experiment E15).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields


@dataclass
class CostCounters:
    """A mutable bundle of named counters.

    Counters support addition, difference (snapshot deltas), and
    conversion to a plain dict for reporting.
    """

    object_reads: int = 0
    object_writes: int = 0
    object_scans: int = 0
    index_probes: int = 0
    edge_traversals: int = 0
    source_queries: int = 0
    messages_sent: int = 0
    bytes_sent: int = 0
    delegates_inserted: int = 0
    delegates_deleted: int = 0
    delegates_refreshed: int = 0
    view_recomputations: int = 0
    chain_cache_hits: int = 0
    chain_cache_misses: int = 0
    updates_screened: int = 0
    updates_coalesced: int = 0
    query_retries: int = 0
    query_timeouts: int = 0
    source_failures: int = 0
    notifications_deduped: int = 0
    notifications_replayed: int = 0
    view_resyncs: int = 0
    query_cache_hits: int = 0
    query_cache_misses: int = 0
    query_cache_evictions: int = 0
    query_cache_invalidations: int = 0
    snapshot_refreshes: int = 0
    snapshot_rows_scanned: int = 0
    epochs_published: int = 0
    epochs_reclaimed: int = 0
    snapshot_pins: int = 0
    notes: dict[str, int] = field(default_factory=dict)

    # -- arithmetic --------------------------------------------------------

    def snapshot(self) -> "CostCounters":
        """Return an independent copy of the current counts."""
        clone = CostCounters()
        for f in fields(self):
            if f.name == "notes":
                clone.notes = dict(self.notes)
            else:
                setattr(clone, f.name, getattr(self, f.name))
        return clone

    def delta_since(self, earlier: "CostCounters") -> "CostCounters":
        """Return counts accumulated since *earlier* (a snapshot)."""
        delta = CostCounters()
        for f in fields(self):
            if f.name == "notes":
                delta.notes = {
                    key: self.notes.get(key, 0) - earlier.notes.get(key, 0)
                    for key in set(self.notes) | set(earlier.notes)
                }
            else:
                setattr(
                    delta,
                    f.name,
                    getattr(self, f.name) - getattr(earlier, f.name),
                )
        return delta

    def add(self, other: "CostCounters") -> None:
        """Accumulate *other* into this instance."""
        for f in fields(self):
            if f.name == "notes":
                for key, count in other.notes.items():
                    self.notes[key] = self.notes.get(key, 0) + count
            else:
                setattr(
                    self, f.name, getattr(self, f.name) + getattr(other, f.name)
                )

    def reset(self) -> None:
        """Zero every counter."""
        for f in fields(self):
            if f.name == "notes":
                self.notes.clear()
            else:
                setattr(self, f.name, 0)

    def note(self, key: str, amount: int = 1) -> None:
        """Bump a free-form named counter (for experiment-local metrics)."""
        self.notes[key] = self.notes.get(key, 0) + amount

    # -- reporting ---------------------------------------------------------

    def total_base_accesses(self) -> int:
        """The paper's headline cost: touches of base data.

        Reads, scans, and edge traversals all hit base objects; index
        probes are counted separately because the paper treats indexes
        as the thing that *avoids* base access (Section 4.4).
        """
        return self.object_reads + self.object_scans + self.edge_traversals

    def as_dict(self) -> dict[str, int]:
        """Return all non-zero counters as a flat dict."""
        result: dict[str, int] = {}
        for f in fields(self):
            if f.name == "notes":
                result.update(
                    {k: v for k, v in sorted(self.notes.items()) if v}
                )
            else:
                value = getattr(self, f.name)
                if value:
                    result[f.name] = value
        return result

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"CostCounters({inner})"
