"""The query server: cache + indexed evaluation + invalidation.

:class:`QueryServer` is a drop-in for :class:`~repro.query.evaluator.
QueryEvaluator` (``evaluate`` / ``evaluate_oids``) that

1. canonicalizes the parsed query and answers repeats from the
   :class:`~repro.serving.cache.QueryCache`,
2. evaluates misses through :class:`~repro.query.evaluator.
   QueryEvaluator`, whose select and condition paths probe the
   *label_index* where :func:`~repro.query.evaluator.index_applies`
   allows (without one, misses scan out-edges), and
3. registers each cached answer with the
   :class:`~repro.serving.invalidation.Invalidator` so later updates
   evict exactly the answers they may change.

A *cacheable* predicate lets integrations exclude queries whose
dependencies change outside the update stream — the view catalog
excludes queries resolving through virtual or materialized views
(delegate surgery bypasses ``store.apply``; a materialized view is
already its own cache), serving them fresh instead.
"""

from __future__ import annotations

from typing import Callable

from repro.gsdb.database import DatabaseRegistry
from repro.gsdb.indexes import LabelIndex, ParentIndex
from repro.gsdb.object import Object
from repro.query.answer import make_answer
from repro.query.ast import Query
from repro.query.evaluator import QueryEvaluator
from repro.query.parser import parse_query
from repro.serving.cache import QueryCache, cache_key
from repro.serving.invalidation import Invalidator, build_screen


class QueryServer:
    """Front door for the read path; one instance per registry/store."""

    def __init__(
        self,
        registry: DatabaseRegistry,
        *,
        parent_index: ParentIndex | None = None,
        label_index: LabelIndex | None = None,
        cache_size: int = 128,
        cacheable: Callable[[Query], bool] | None = None,
        subscribe: bool = True,
    ) -> None:
        self.registry = registry
        self.store = registry.store
        self.parent_index = parent_index
        self.label_index = label_index
        self._cacheable = cacheable
        self._evaluator = QueryEvaluator(registry, label_index=label_index)
        self.cache = QueryCache(cache_size, counters=self.store.counters)
        self.invalidator = Invalidator(
            self.store,
            self.cache,
            parent_index=parent_index,
            subscribe=subscribe,
        )
        self.cache.on_evict = self.invalidator.forget

    # -- the QueryEvaluator interface ----------------------------------------

    def evaluate(self, query: Query | str) -> Object:
        """Evaluate and return the answer object (registered in store)."""
        return make_answer(sorted(self.evaluate_oids(query)), store=self.store)

    def evaluate_oids(self, query: Query | str) -> set[str]:
        """Evaluate and return the raw answer OID set (cache-aware)."""
        if isinstance(query, str):
            query = parse_query(query)
        entry_oid = self._evaluator._resolve_entry(query.entry)
        if self._cacheable is not None and not self._cacheable(query):
            return self._evaluator.evaluate_from(query, entry_oid)
        key = cache_key(query, entry_oid)
        cached = self.cache.lookup(key)
        if cached is not None:
            return set(cached)
        answer = self._evaluator.evaluate_from(query, entry_oid)
        self.cache.store(key, frozenset(answer))
        self.invalidator.register(build_screen(key, self.registry))
        return answer

    # -- out-of-band invalidation & stats -------------------------------------

    def invalidate_entry(self, oid: str) -> int:
        """Evict cached answers referencing *oid* (see
        :meth:`~repro.serving.invalidation.Invalidator.
        invalidate_touching`)."""
        return self.invalidator.invalidate_touching(oid)

    def hit_rate(self) -> float:
        """Fraction of lookups answered from the cache so far."""
        counters = self.store.counters
        total = counters.query_cache_hits + counters.query_cache_misses
        return counters.query_cache_hits / total if total else 0.0

    def stats(self) -> dict[str, int]:
        """The cache counters plus the current cache size."""
        counters = self.store.counters
        return {
            "hits": counters.query_cache_hits,
            "misses": counters.query_cache_misses,
            "evictions": counters.query_cache_evictions,
            "invalidations": counters.query_cache_invalidations,
            "entries": len(self.cache),
        }
