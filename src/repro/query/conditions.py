"""Evaluation of WHERE conditions against a store.

``cond()`` semantics (paper Section 2): the function accepts the set of
atomic objects in ``X.cond_path_exp`` and returns true if *one* of
their values satisfies the condition — existential semantics.  Set
objects reached by the path never satisfy an atomic comparison.

Boolean connectives (our extension, anticipated by the paper's closing
remark in Section 2) evaluate compositionally on top of the atoms.

A condition is evaluated a candidate *set* at a time
(:func:`filter_candidates`): each Comparison/Exists leaf is one
multi-source sweep from every candidate, and the connectives are set
algebra over the results.  It is parameterised by the sweep and a value
reader, so the live store (:func:`filter_on_store`, over
:meth:`~repro.paths.automaton.PathNFA.evaluate_many` with one charge
ledger) and a frozen MVCC epoch (over the bitset kernel) share it; a
single candidate is the one-element set.

Every store helper takes an optional *label_index* and hands it to the
path evaluator: with one, condition paths resolve through its
children-by-label adjacency; without one, they scan out-edges.  Pass
an index only for the unscoped store it was built over.
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.gsdb.indexes import LabelIndex
from repro.gsdb.store import ObjectStore
from repro.paths.automaton import ChargeLedger, compile_expression
from repro.paths.expression import PathExpression
from repro.query.ast import And, Comparison, Condition, Exists, Not, Or


def atomic_values_on_path(
    store: ObjectStore,
    start: str,
    path: PathExpression,
    *,
    label_index: LabelIndex | None = None,
) -> list:
    """Values of atomic objects in ``start.path`` (sorted by OID): one
    :meth:`~repro.paths.automaton.PathNFA.evaluate_many` sweep under
    one ledger, so reading a witness the sweep reached is free."""
    ledger = ChargeLedger()
    members = compile_expression(path).evaluate_many(
        store, (start,), label_index=label_index, charged=ledger
    )[start]
    reached = ledger.objects
    values = []
    for oid in sorted(members):
        obj = reached[oid] if oid in reached else ledger.touch(store, oid)
        if obj is not None and obj.is_atomic:
            values.append(obj.atomic_value())
    return values


def filter_candidates(
    candidates: set[str],
    condition: Condition,
    members: Callable[[set[str], PathExpression], dict[str, set[str]]],
    value: Callable[[str], object | None],
) -> set[str]:
    """The subset of *candidates* satisfying *condition*.

    *members* answers ``(candidates, path)`` with ``candidate.path``
    for every candidate in one sweep; *value* reads a reached object's
    atomic value (None for set or absent objects).  Each
    Comparison/Exists leaf costs a single sweep for the whole candidate
    set, and the boolean connectives become set algebra: ``any``/
    ``all``/``not`` per candidate map to union / progressive
    intersection / complement.  ``And`` narrows the candidate set
    before evaluating later operands and ``Or`` only re-tests the
    still-unsatisfied remainder: short-circuiting at set granularity.
    """
    if isinstance(condition, Comparison):
        reached = members(candidates, condition.path)
        satisfied = set()
        test = condition.test_value
        for candidate in candidates:
            for oid in reached[candidate]:
                witnessed = value(oid)
                if witnessed is not None and test(witnessed):
                    satisfied.add(candidate)
                    break
        return satisfied
    if isinstance(condition, Exists):
        reached = members(candidates, condition.path)
        return {c for c in candidates if reached[c]}
    if isinstance(condition, Not):
        return candidates - filter_candidates(
            candidates, condition.operand, members, value
        )
    if isinstance(condition, And):
        surviving = candidates
        for operand in condition.operands:
            if not surviving:
                break
            surviving = filter_candidates(surviving, operand, members, value)
        return surviving
    if isinstance(condition, Or):
        satisfied: set[str] = set()
        remaining = candidates
        for operand in condition.operands:
            if not remaining:
                break
            hits = filter_candidates(remaining, operand, members, value)
            satisfied |= hits
            remaining = remaining - hits
        return satisfied
    raise TypeError(f"unknown condition node: {condition!r}")


def filter_on_store(
    store: ObjectStore,
    candidates: set[str],
    condition: Condition,
    *,
    label_index: LabelIndex | None = None,
    charged: ChargeLedger | None = None,
) -> set[str]:
    """:func:`filter_candidates` over a store: one
    :meth:`~repro.paths.automaton.PathNFA.evaluate_many` sweep per
    leaf, all charged against *charged* (the evaluation's ledger, or a
    fresh one), so a witness the sweep reached is read for free."""
    ledger = ChargeLedger() if charged is None else charged
    reached = ledger.objects

    def members(starts: Iterable[str], path: PathExpression):
        return compile_expression(path).evaluate_many(
            store, starts, label_index=label_index, charged=ledger
        )

    def value(oid: str):
        obj = reached[oid] if oid in reached else ledger.touch(store, oid)
        return None if obj is None or obj.is_set else obj.value

    return filter_candidates(candidates, condition, members, value)


def comparisons_disjoint(first: Comparison, second: Comparison) -> bool:
    """Can no atomic value satisfy both comparisons?

    Sound, not complete: returns True only when disjointness is
    provable (same condition path, incompatible value constraints);
    False means "might overlap".  Used by update-query-aware screening
    (paper Section 6: a salary raise for the Marks cannot affect a view
    over the Johns).
    """
    if first.path != second.path:
        return False  # different witnesses could satisfy each
    return _value_ranges_disjoint(first, second)


def _value_ranges_disjoint(first: Comparison, second: Comparison) -> bool:
    a_op, a_lit = first.op, first.literal
    b_op, b_lit = second.op, second.literal
    if a_op == "=" and b_op == "=":
        return a_lit != b_lit
    if a_op == "=" and b_op in ("<", "<=", ">", ">=", "!="):
        return not second.test_value(a_lit)
    if b_op == "=" and a_op in ("<", "<=", ">", ">=", "!="):
        return not first.test_value(b_lit)
    try:
        if a_op in ("<", "<=") and b_op in (">", ">="):
            strict = a_op == "<" or b_op == ">"
            return b_lit > a_lit or (strict and b_lit >= a_lit)  # type: ignore[operator]
        if a_op in (">", ">=") and b_op in ("<", "<="):
            strict = a_op == ">" or b_op == "<"
            return a_lit > b_lit or (strict and a_lit >= b_lit)  # type: ignore[operator]
    except TypeError:
        return False
    return False


def is_simple_condition(condition: Condition | None) -> bool:
    """True when the condition is a single comparison over a constant
    path — the class the simple-view maintainer (Algorithm 1) supports."""
    return (
        condition is None
        or (
            isinstance(condition, Comparison)
            and condition.path.is_constant
        )
    )
