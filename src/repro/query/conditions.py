"""Evaluation of WHERE conditions against a store.

``cond()`` semantics (paper Section 2): the function accepts the set of
atomic objects in ``X.cond_path_exp`` and returns true if *one* of
their values satisfies the condition — existential semantics.  Set
objects reached by the path never satisfy an atomic comparison.

Boolean connectives (our extension, anticipated by the paper's closing
remark in Section 2) evaluate compositionally on top of the atoms.

Every helper takes an optional *label_index* and hands it to
:meth:`~repro.paths.automaton.PathNFA.evaluate`: with one, condition
paths resolve through its children-by-label adjacency; without one,
they scan out-edges.  Pass an index only for the unscoped store it was
built over.
"""

from __future__ import annotations

from typing import Callable

from repro.gsdb.indexes import LabelIndex
from repro.gsdb.store import ObjectStore
from repro.paths.automaton import compile_expression
from repro.paths.expression import PathExpression
from repro.query.ast import And, Comparison, Condition, Exists, Not, Or


def objects_on_path(
    store: ObjectStore,
    start: str,
    path: PathExpression,
    *,
    label_index: LabelIndex | None = None,
) -> set[str]:
    """``start.path`` for a (possibly wildcard) path."""
    return compile_expression(path).evaluate(
        store, start, label_index=label_index
    )


def atomic_values_on_path(
    store: ObjectStore,
    start: str,
    path: PathExpression,
    *,
    label_index: LabelIndex | None = None,
) -> list:
    """Values of atomic objects in ``start.path`` (sorted by OID)."""
    values = []
    for oid in sorted(
        objects_on_path(store, start, path, label_index=label_index)
    ):
        obj = store.get_optional(oid)
        if obj is not None and obj.is_atomic:
            values.append(obj.atomic_value())
    return values


def evaluate_condition(
    store: ObjectStore,
    start: str,
    condition: Condition,
    *,
    values: Callable[[str, PathExpression], list] | None = None,
    label_index: LabelIndex | None = None,
) -> bool:
    """Evaluate a condition tree for candidate object *start*.

    *values* answers ``(start, comparison path)`` in place of
    :func:`atomic_values_on_path` — view maintainers pass a memoized
    one so views comparing the same witnesses against different
    constants read them once.
    """
    if isinstance(condition, Comparison):
        witnessed = (
            atomic_values_on_path(
                store, start, condition.path, label_index=label_index
            )
            if values is None
            else values(start, condition.path)
        )
        return any(condition.test_value(value) for value in witnessed)
    if isinstance(condition, Exists):
        return bool(
            objects_on_path(
                store, start, condition.path, label_index=label_index
            )
        )
    if isinstance(condition, Not):
        return not evaluate_condition(
            store,
            start,
            condition.operand,
            values=values,
            label_index=label_index,
        )
    if isinstance(condition, And):
        return all(
            evaluate_condition(
                store, start, operand, values=values, label_index=label_index
            )
            for operand in condition.operands
        )
    if isinstance(condition, Or):
        return any(
            evaluate_condition(
                store, start, operand, values=values, label_index=label_index
            )
            for operand in condition.operands
        )
    raise TypeError(f"unknown condition node: {condition!r}")


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
