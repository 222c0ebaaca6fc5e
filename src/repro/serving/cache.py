"""The bounded query-result cache.

A cache entry maps the *canonical form* of a parsed query to its answer
OID set.  Canonicalization (``cache_key``) resolves the entry point to
an OID (so ``SELECT PERSON...`` and a query spelled with the database
object's OID share one entry) and normalizes the condition tree
(``AND``/``OR`` operands sorted by their rendered form), so
syntactically different spellings of the same query hit the same slot.

The cache is a plain LRU bounded by ``capacity``.  All traffic is
charged to the owning store's :class:`~repro.instrumentation.counters.
CostCounters` in the store's style — ``query_cache_hits`` /
``query_cache_misses`` / ``query_cache_evictions`` /
``query_cache_invalidations`` are bookkeeping counters, not base
accesses (they explain why base accesses went down, experiment E16).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable

from repro.instrumentation.counters import CostCounters
from repro.paths.expression import PathExpression
from repro.query.ast import And, Condition, Not, Or, Query


def normalize_condition(condition: Condition | None) -> Condition | None:
    """Canonical form of a condition tree.

    ``AND``/``OR`` are commutative, so operands are normalized
    recursively and sorted by their rendered form; atoms are already
    frozen dataclasses and compare structurally.
    """
    if condition is None or not isinstance(condition, (And, Or, Not)):
        return condition
    if isinstance(condition, Not):
        return Not(normalize_condition(condition.operand))
    operands = tuple(
        sorted(
            (normalize_condition(op) for op in condition.operands),
            key=str,
        )
    )
    return And(operands) if isinstance(condition, And) else Or(operands)


@dataclass(frozen=True)
class CacheKey:
    """Canonical identity of a query's answer.

    ``entry_oid`` is the *resolved* entry point; ``within`` and
    ``ans_int`` stay as names — their member sets are part of the
    answer's dependencies and are watched by the invalidator, so two
    scopes with the same name share (and invalidate) one entry.  The
    hash is taken once: set operations would re-hash the whole AST.
    """

    entry_oid: str
    select_path: PathExpression
    condition: Condition | None
    within: str | None
    ans_int: str | None

    def __post_init__(self) -> None:
        parts = (self.entry_oid, self.select_path, self.condition)
        object.__setattr__(self, "_hash", hash(parts + (self.within, self.ans_int)))

    def __hash__(self) -> int:
        return self._hash


def cache_key(query: Query, entry_oid: str) -> CacheKey:
    """Build the canonical cache key for *query* entered at *entry_oid*."""
    return CacheKey(
        entry_oid=entry_oid,
        select_path=query.select_path,
        condition=normalize_condition(query.condition),
        within=query.within,
        ans_int=query.ans_int,
    )


class QueryCache:
    """Bounded LRU of canonical query → answer OID frozenset.

    ``on_evict`` (set by the server after wiring the invalidator) is
    called with the key whenever an entry leaves the cache — by LRU
    pressure *or* invalidation — so the invalidator's screen buckets
    never outlive their entries.
    """

    def __init__(
        self,
        capacity: int = 128,
        *,
        counters: CostCounters | None = None,
        on_evict: Callable[[CacheKey], None] | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be positive")
        self.capacity = capacity
        self.counters = counters if counters is not None else CostCounters()
        self.on_evict = on_evict
        self._entries: OrderedDict[CacheKey, frozenset[str]] = OrderedDict()

    # -- read path -----------------------------------------------------------

    def lookup(self, key: CacheKey) -> frozenset[str] | None:
        """The cached answer for *key*, or None on a miss (charged)."""
        answer = self._entries.get(key)
        if answer is None:
            self.counters.query_cache_misses += 1
            return None
        self._entries.move_to_end(key)
        self.counters.query_cache_hits += 1
        return answer

    def store(self, key: CacheKey, answer: frozenset[str]) -> None:
        """Insert (or refresh) an entry, evicting LRU overflow."""
        self._entries[key] = answer
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            victim, _ = self._entries.popitem(last=False)
            self.counters.query_cache_evictions += 1
            if self.on_evict is not None:
                self.on_evict(victim)

    # -- invalidation --------------------------------------------------------

    def invalidate(self, key: CacheKey) -> bool:
        """Drop one entry; True when it was present (charged)."""
        if self._entries.pop(key, None) is None:
            return False
        self.counters.query_cache_invalidations += 1
        if self.on_evict is not None:
            self.on_evict(key)
        return True

    def clear(self) -> int:
        """Drop every entry (counted as invalidations)."""
        dropped = len(self._entries)
        for key in list(self._entries):
            self.invalidate(key)
        return dropped

    # -- introspection -------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: CacheKey) -> bool:
        return key in self._entries

    def keys(self) -> list[CacheKey]:
        return list(self._entries)
