"""The quiescence consistency oracle.

After the channel drains and :meth:`~repro.warehouse.warehouse.
Warehouse.heal` reaches a fixed point, every materialized view must be
indistinguishable from a fresh recomputation against the current source
truth — membership *and* delegate values.  The oracle renders both
sides to a canonical byte string (sorted ``oid=value`` lines) and
compares for byte equality, so any divergence — a missed eviction, a
stale delegate value, a phantom member — fails loudly and reports
exactly what differs.

Truth is always evaluated against the **source's own store** (or the
catalog's base store), never through the warehouse's remote shims or
caches: a corrupted auxiliary cache must not be allowed to corrupt the
reference it is audited against.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import QuiescenceError
from repro.gsdb.object import Object
from repro.gsdb.store import ObjectStore
from repro.views.materialized import MaterializedView, SwizzleMode
from repro.views.recompute import compute_view_members


@dataclass(frozen=True)
class ViewAudit:
    """One view's oracle verdict."""

    name: str
    missing: tuple[str, ...]  # in truth, absent from the view
    extra: tuple[str, ...]  # in the view, absent from truth
    stale: tuple[str, ...]  # members whose delegate value differs
    expected: bytes  # canonical fresh-recomputation state
    actual: bytes  # canonical maintained state

    @property
    def consistent(self) -> bool:
        """Byte equality of maintained vs recomputed state."""
        return self.expected == self.actual

    def describe(self) -> str:
        if self.consistent:
            return f"{self.name}: consistent"
        parts = []
        if self.missing:
            parts.append(f"missing={sorted(self.missing)}")
        if self.extra:
            parts.append(f"extra={sorted(self.extra)}")
        if self.stale:
            parts.append(f"stale={sorted(self.stale)}")
        return f"{self.name}: INCONSISTENT ({', '.join(parts)})"


def _canonical(value: object) -> object:
    """Order-free canonical form: sets of OIDs become sorted tuples."""
    if isinstance(value, (set, frozenset)):
        return tuple(sorted(value))
    return value


def _fingerprint(pairs: list[tuple[str, object]]) -> bytes:
    return "\n".join(f"{oid}={value!r}" for oid, value in pairs).encode()


def _truth_value(
    view: MaterializedView,
    obj: Object,
    truth_members: set[str],
) -> object:
    """What *obj*'s delegate value should be, given the swizzle mode."""
    if not obj.is_set:
        return obj.atomic_value()
    children = set(obj.children())
    if view.swizzle is SwizzleMode.EAGER:
        children = {
            view.delegate_oid(child) if child in truth_members else child
            for child in children
        }
    return _canonical(children)


def audit_view(
    view: MaterializedView,
    truth_store: ObjectStore,
    *,
    registry=None,
) -> ViewAudit:
    """Compare one materialized view against fresh recomputation.

    *truth_store* must be the authoritative base (a source's own store,
    or a catalog's store) — reads go through its uncharged ``peek``
    where available so auditing does not distort cost measurements.
    """
    truth_members = compute_view_members(
        view.definition, truth_store, registry=registry
    )
    peek = getattr(truth_store, "peek", None) or truth_store.get_optional
    expected_pairs: list[tuple[str, object]] = []
    for oid in sorted(truth_members):
        obj = peek(oid)
        if obj is None:  # pragma: no cover - membership implies presence
            continue
        expected_pairs.append((oid, _truth_value(view, obj, truth_members)))
    view_members = view.members()
    actual_pairs: list[tuple[str, object]] = []
    stale: list[str] = []
    expected_by_oid = dict(expected_pairs)
    for oid in sorted(view_members):
        delegate = view.delegate(oid)
        if delegate is None:  # pragma: no cover - membership implies delegate
            actual_pairs.append((oid, None))
            continue
        value = _canonical(
            set(delegate.children()) if delegate.is_set
            else delegate.atomic_value()
        )
        actual_pairs.append((oid, value))
        if oid in expected_by_oid and expected_by_oid[oid] != value:
            stale.append(oid)
    return ViewAudit(
        name=view.definition.name,
        missing=tuple(sorted(truth_members - view_members)),
        extra=tuple(sorted(view_members - truth_members)),
        stale=tuple(stale),
        expected=_fingerprint(expected_pairs),
        actual=_fingerprint(actual_pairs),
    )


def check_quiescence(warehouse) -> dict[str, ViewAudit]:
    """Audit every warehouse view against its source's current truth."""
    audits: dict[str, ViewAudit] = {}
    for name, wview in warehouse.views.items():
        source = warehouse.monitors[wview.source_id].source
        audits[name] = audit_view(wview.view, source.store)
    return audits


def check_catalog(catalog) -> dict[str, ViewAudit]:
    """Audit every dispatcher-routed materialized view in a
    :class:`~repro.views.catalog.ViewCatalog` the same way."""
    return {
        name: audit_view(view, catalog.store, registry=catalog.registry)
        for name, view in catalog.materialized_views.items()
    }


@dataclass(frozen=True)
class ServingAudit:
    """One served query's oracle verdict (experiment E16)."""

    query: str
    stale: tuple[str, ...]  # served but absent from fresh truth
    missing: tuple[str, ...]  # in fresh truth, absent from the answer
    expected: bytes  # canonical fresh, uncached evaluation
    actual: bytes  # canonical served (possibly cached) answer

    @property
    def consistent(self) -> bool:
        """Byte equality of served vs freshly evaluated answer."""
        return self.expected == self.actual

    def describe(self) -> str:
        if self.consistent:
            return f"{self.query}: consistent"
        parts = []
        if self.stale:
            parts.append(f"stale={sorted(self.stale)}")
        if self.missing:
            parts.append(f"missing={sorted(self.missing)}")
        return f"{self.query}: INCONSISTENT ({', '.join(parts)})"


def _answer_fingerprint(store, oids: set[str]) -> bytes:
    """Canonical bytes of an answer: sorted members with their values."""
    peek = getattr(store, "peek", None) or store.get_optional
    pairs: list[tuple[str, object]] = []
    for oid in sorted(oids):
        obj = peek(oid)
        value = None if obj is None else _canonical(
            set(obj.children()) if obj.is_set else obj.atomic_value()
        )
        pairs.append((oid, value))
    return _fingerprint(pairs)


def audit_serving(server, queries) -> list[ServingAudit]:
    """Compare served answers against fresh uncached evaluation.

    For each query, the server's (possibly cached) answer is rendered
    to canonical bytes next to a fresh :class:`~repro.query.evaluator.
    QueryEvaluator` run over the same registry — a stale cached read,
    a missed invalidation, or an indexed/scan divergence all break
    byte equality and report exactly which members differ.
    """
    from repro.query.evaluator import QueryEvaluator
    from repro.query.parser import parse_query

    reference = QueryEvaluator(server.registry)
    audits: list[ServingAudit] = []
    for text in queries:
        query = parse_query(text) if isinstance(text, str) else text
        actual_oids = server.evaluate_oids(query)
        expected_oids = reference.evaluate_oids(query)
        audits.append(
            ServingAudit(
                query=str(query),
                stale=tuple(sorted(actual_oids - expected_oids)),
                missing=tuple(sorted(expected_oids - actual_oids)),
                expected=_answer_fingerprint(server.store, expected_oids),
                actual=_answer_fingerprint(server.store, actual_oids),
            )
        )
    return audits


def assert_quiescent(target) -> dict[str, ViewAudit]:
    """Run the oracle and raise :class:`~repro.errors.QuiescenceError`
    when any view diverges.  *target* is a Warehouse or a ViewCatalog;
    returns the audits when all views pass."""
    if hasattr(target, "views"):
        audits = check_quiescence(target)
    else:
        audits = check_catalog(target)
    broken = [a for a in audits.values() if not a.consistent]
    if broken:
        raise QuiescenceError(
            "; ".join(audit.describe() for audit in broken)
        )
    return audits
