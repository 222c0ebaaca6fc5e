"""Census of boolean knobs on the public API of ``src/repro``.

Walks the package with :mod:`ast` and lists every ``bool``-annotated
parameter that has a default, on a public function or method
(constructors included), plus every defaulted ``bool`` field of a
public dataclass (a constructor parameter too).  The list must equal
:data:`KNOBS`: a switch that appears or disappears fails this test
until the list changes with it, so the configuration surface only moves
deliberately.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "repro"

#: ``module:Qualified.name(parameter)`` for every public bool knob.
KNOBS = frozenset(
    {
        "repro.cli:Shell.run(interactive)",
        "repro.gsdb.gc:collect_garbage(dry_run)",
        "repro.gsdb.indexes:ParentIndex.__init__(chain_cache)",
        "repro.gsdb.store:ObjectStore.__init__(check_references)",
        "repro.views.catalog:ViewCatalog.__init__(with_label_index)",
        "repro.views.catalog:ViewCatalog.__init__(with_parent_index)",
        "repro.views.catalog:ViewCatalog.define(annotate_timestamps)",
        "repro.views.consistency:assert_consistent(check_values)",
        "repro.views.consistency:check_consistency(check_values)",
        "repro.views.definition:ViewDefinition(materialized)",
        "repro.views.dispatcher:MaintenanceDispatcher.__init__(subscribe)",
        "repro.views.dispatcher:MaintenanceDispatcher.register(screen)",
        "repro.views.materialized:MaterializedView.__init__(annotate_timestamps)",
        "repro.views.virtual:VirtualView.__init__(auto_refresh)",
        "repro.warehouse.bulk:BulkUpdate(functional_guard)",
        "repro.warehouse.warehouse:RemoteViewMaintainer.__init__(screen)",
        "repro.warehouse.warehouse:RemoteViewMaintainer.process(stale)",
        "repro.warehouse.warehouse:Warehouse.define_view(screen)",
        "repro.warehouse.warehouse:WarehouseView(needs_resync)",
        "repro.workloads.scenarios:person_db(tree)",
        "repro.workloads.serving:build_query_pool(conditions)",
        "repro.workloads.updates:UpdateStream(preserve_tree)",
    }
)


def _public(name: str) -> bool:
    return not name.startswith("_") or (
        name.startswith("__") and name.endswith("__")
    )


def _is_bool(annotation) -> bool:
    return (isinstance(annotation, ast.Name) and annotation.id == "bool") or (
        isinstance(annotation, ast.Constant) and annotation.value == "bool"
    )


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = target.attr if isinstance(target, ast.Attribute) else getattr(
            target, "id", None
        )
        if name == "dataclass":
            return True
    return False


def _defaulted(args: ast.arguments):
    positional = args.posonlyargs + args.args
    yield from positional[len(positional) - len(args.defaults):]
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg


def _knobs_in(node, module: str, scope: list[str]):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef) and _public(child.name):
            qualified = scope + [child.name]
            if _is_dataclass(child):
                for field in child.body:
                    if (
                        isinstance(field, ast.AnnAssign)
                        and field.value is not None
                        and isinstance(field.target, ast.Name)
                        and _is_bool(field.annotation)
                    ):
                        yield (
                            f"{module}:{'.'.join(qualified)}"
                            f"({field.target.id})"
                        )
            yield from _knobs_in(child, module, qualified)
        elif isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef)
        ) and _public(child.name):
            qualified = ".".join(scope + [child.name])
            for arg in _defaulted(child.args):
                if _is_bool(arg.annotation):
                    yield f"{module}:{qualified}({arg.arg})"


def census() -> set[str]:
    knobs: set[str] = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        if any(part.startswith("_") for part in parts):
            continue  # private module
        tree = ast.parse(path.read_text(encoding="utf-8"))
        knobs.update(_knobs_in(tree, ".".join(parts), []))
    return knobs


def test_bool_knobs_match_the_census():
    found = census()
    assert found, "the census found no knobs at all"
    added = sorted(found - KNOBS)
    removed = sorted(KNOBS - found)
    assert not added and not removed, (
        f"new bool knobs (justify, then list them): {added}; "
        f"gone (drop them from KNOBS): {removed}"
    )


def test_census_sees_a_planted_knob():
    tree = ast.parse(
        "class Server:\n"
        "    def __init__(self, *, fast: bool = False, size: int = 1):\n"
        "        pass\n"
        "    def _private(self, hidden: bool = True):\n"
        "        pass\n"
        "def helper(flag: bool = True, plain: bool = False, *, kw: bool):\n"
        "    def inner(nested: bool = True):\n"
        "        pass\n"
        "@dataclass(frozen=True)\n"
        "class Spec:\n"
        "    strict: bool = False\n"
        "    required: bool\n"
    )
    assert set(_knobs_in(tree, "m", [])) == {
        "m:Server.__init__(fast)",
        "m:helper(flag)",
        "m:helper(plain)",
        "m:Spec(strict)",
    }
