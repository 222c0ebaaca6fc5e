"""The read-path serving layer (experiments E16 and E20).

The paper's warehouse (Section 5) materializes *views* to make reads
cheap; this package applies the same idea one level up, to ad-hoc
queries, with one server.  An :class:`~repro.serving.mvcc.EpochServer`
keeps a bounded LRU :class:`~repro.serving.cache.QueryCache` keyed by
the canonical form of a parsed query, consistent with the live store
through a precise :class:`~repro.serving.invalidation.Invalidator`
that reuses the maintenance dispatcher's label screening and chain
memos.  Misses evaluate on a pinned, immutable epoch of the store with
the bitset kernel; every request names a
:class:`~repro.serving.mvcc.FreshnessPolicy` and gets back an
:class:`~repro.serving.mvcc.EpochAnswer` saying which epoch and which
source (cache, kernel, or the interpreted live-store path) answered.

:meth:`repro.views.ViewCatalog.serve` is the synchronous door;
:class:`~repro.serving.mvcc.AsyncEpochServer` lifts the same server
into asyncio, and :mod:`repro.serving.traffic` drives it with an
open-loop workload.
"""

from repro.serving.cache import CacheKey, QueryCache, cache_key
from repro.serving.invalidation import Invalidator, QueryScreen, build_screen
from repro.serving.mvcc import (
    AsyncEpochServer,
    EpochAnswer,
    EpochServer,
    FreshnessPolicy,
)

__all__ = [
    "AsyncEpochServer",
    "CacheKey",
    "EpochAnswer",
    "EpochServer",
    "FreshnessPolicy",
    "QueryCache",
    "cache_key",
    "Invalidator",
    "QueryScreen",
    "build_screen",
]
