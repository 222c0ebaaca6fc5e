"""The read-path serving layer (experiment E16).

The paper's warehouse (Section 5) materializes *views* to make reads
cheap; this package applies the same idea one level up, to ad-hoc
queries: a bounded LRU :class:`~repro.serving.cache.QueryCache` keyed
by the canonical form of a parsed query, kept consistent by a precise
:class:`~repro.serving.invalidation.Invalidator` that reuses the
maintenance dispatcher's label screening and chain memos, and a
:class:`~repro.serving.server.QueryServer` front door that evaluates
misses through the query evaluator, probing the label index where it
applies (:meth:`~repro.paths.automaton.PathNFA.evaluate`).

The server exposes the :class:`~repro.query.evaluator.QueryEvaluator`
interface (``evaluate`` / ``evaluate_oids``) so callers swap it in
transparently; :meth:`repro.views.ViewCatalog.enable_serving` and
:meth:`repro.warehouse.warehouse.Warehouse.enable_serving` wire it up.

:mod:`repro.serving.mvcc` (experiment E20) is the concurrent tier: an
:class:`~repro.serving.mvcc.EpochServer` serves epoch-pinned reads with
an explicit per-request :class:`~repro.serving.mvcc.FreshnessPolicy`,
and :class:`~repro.serving.mvcc.AsyncQueryServer` lifts it into
asyncio; :mod:`repro.serving.traffic` drives either tier with an
open-loop workload.
"""

from repro.serving.cache import CacheKey, QueryCache, cache_key
from repro.serving.invalidation import Invalidator, QueryScreen, build_screen
from repro.serving.mvcc import (
    AsyncQueryServer,
    EpochAnswer,
    EpochServer,
    FreshnessPolicy,
)
from repro.serving.server import QueryServer

__all__ = [
    "AsyncQueryServer",
    "CacheKey",
    "EpochAnswer",
    "EpochServer",
    "FreshnessPolicy",
    "QueryCache",
    "cache_key",
    "Invalidator",
    "QueryScreen",
    "build_screen",
    "QueryServer",
]
