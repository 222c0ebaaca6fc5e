"""Tests for update-query-aware screening (paper §6, fourth open issue)."""

import pytest

from repro.gsdb import ObjectStore, ParentIndex
from repro.paths import PathExpression
from repro.query.ast import Comparison
from repro.query.conditions import comparisons_disjoint
from repro.views import (
    PartialMaterializedView,
    SimpleViewMaintainer,
    ViewDefinition,
)
from repro.views.recompute import compute_view_members
from repro.warehouse import BulkUpdate, bulk_is_relevant, execute_bulk

p = PathExpression.parse


@pytest.fixture
def payroll() -> ObjectStore:
    """The paper's Marks-and-Johns payroll."""
    s = ObjectStore()
    for i, (name, salary) in enumerate(
        [("Mark", 50_000), ("John", 60_000), ("Mark", 70_000),
         ("Jane", 80_000)]
    ):
        s.add_atomic(f"n{i}", "name", name)
        s.add_atomic(f"s{i}", "salary", salary)
        s.add_set(f"e{i}", "person", [f"n{i}", f"s{i}"])
    s.add_set("ROOT", "company", [f"e{i}" for i in range(4)])
    return s


RAISE_MARKS = BulkUpdate(
    owner_path=p("person"),
    guard=Comparison(p("name"), "=", "Mark"),
    target_label="salary",
    transform=lambda v: v + 1000,
    description="raise the Marks by $1000",
)


class TestComparisonsDisjoint:
    def test_paper_case(self):
        assert comparisons_disjoint(
            Comparison(p("name"), "=", "Mark"),
            Comparison(p("name"), "=", "John"),
        )

    def test_same_literal_overlaps(self):
        assert not comparisons_disjoint(
            Comparison(p("name"), "=", "Mark"),
            Comparison(p("name"), "=", "Mark"),
        )

    def test_different_paths_never_disjoint(self):
        assert not comparisons_disjoint(
            Comparison(p("name"), "=", "Mark"),
            Comparison(p("nick"), "=", "John"),
        )

    @pytest.mark.parametrize(
        "a_op,a_lit,b_op,b_lit,disjoint",
        [
            ("<", 10, ">", 20, True),
            ("<", 10, ">", 5, False),
            ("<=", 10, ">=", 10, False),
            ("<", 10, ">=", 10, True),
            (">", 100, "<", 50, True),
            ("=", 5, ">", 10, True),
            ("=", 15, ">", 10, False),
            ("=", 5, "!=", 5, True),
            ("!=", 5, "!=", 6, False),
        ],
    )
    def test_ranges(self, a_op, a_lit, b_op, b_lit, disjoint):
        assert comparisons_disjoint(
            Comparison(p("v"), a_op, a_lit),
            Comparison(p("v"), b_op, b_lit),
        ) is disjoint


class TestExecuteBulk:
    def test_only_guarded_owners_modified(self, payroll):
        applied = execute_bulk(payroll, "ROOT", RAISE_MARKS)
        assert {u.oid for u in applied} == {"s0", "s2"}
        assert payroll.get("s0").value == 51_000
        assert payroll.get("s1").value == 60_000  # John untouched

    def test_unguarded_bulk_hits_everyone(self, payroll):
        bulk = BulkUpdate(
            owner_path=p("person"),
            guard=None,
            target_label="salary",
            transform=lambda v: v + 1,
        )
        applied = execute_bulk(payroll, "ROOT", bulk)
        assert len(applied) == 4

    def test_noop_transform_produces_no_updates(self, payroll):
        bulk = BulkUpdate(
            owner_path=p("person"),
            guard=None,
            target_label="salary",
            transform=lambda v: v,
        )
        assert execute_bulk(payroll, "ROOT", bulk) == []


class TestMembershipScreening:
    def test_label_off_path_screened(self):
        d = ViewDefinition.parse(
            "define mview V as: SELECT ROOT.person X WHERE X.name = 'John'"
        )
        assert not bulk_is_relevant(d, RAISE_MARKS)

    def test_condition_on_salary_is_relevant(self):
        d = ViewDefinition.parse(
            "define mview V as: SELECT ROOT.person X WHERE X.salary > 55000"
        )
        assert bulk_is_relevant(d, RAISE_MARKS)

    def test_disjoint_selectors_screened(self):
        d = ViewDefinition.parse(
            "define mview V as: SELECT ROOT.dept.person X "
            "WHERE X.salary > 0"
        )
        # Bulk owners live directly under ROOT; the view needs a dept
        # level in between: path languages cannot intersect.
        assert not bulk_is_relevant(d, RAISE_MARKS)

    def test_wildcard_view_conservatively_relevant(self):
        d = ViewDefinition.parse(
            "define mview V as: SELECT ROOT.* X WHERE X.salary > 0"
        )
        assert bulk_is_relevant(d, RAISE_MARKS)


class TestValueScreening:
    JOHNS = ViewDefinition.parse(
        "define mview PJ as: SELECT ROOT.person X WHERE X.name = 'John'"
    )

    def test_paper_example_depth2_screened(self):
        # "a view containing the salary of persons named 'John' should
        # be unaffected" — depth-2 fragments copy the salaries.
        assert not bulk_is_relevant(self.JOHNS, RAISE_MARKS, fragment_depth=2)

    def test_overlapping_guard_is_relevant(self):
        raise_johns = BulkUpdate(
            owner_path=p("person"),
            guard=Comparison(p("name"), "=", "John"),
            target_label="salary",
            transform=lambda v: v + 1000,
        )
        assert bulk_is_relevant(self.JOHNS, raise_johns, fragment_depth=2)

    def test_unguarded_bulk_is_relevant(self):
        bulk = BulkUpdate(
            owner_path=p("person"),
            guard=None,
            target_label="salary",
            transform=lambda v: v + 1,
        )
        assert bulk_is_relevant(self.JOHNS, bulk, fragment_depth=2)

    def test_non_functional_guard_disables_screen(self):
        sneaky = BulkUpdate(
            owner_path=p("person"),
            guard=Comparison(p("name"), "=", "Mark"),
            target_label="salary",
            transform=lambda v: v + 1000,
            functional_guard=False,
        )
        assert bulk_is_relevant(self.JOHNS, sneaky, fragment_depth=2)

    def test_depth3_still_screened_when_salaries_sit_at_level_1(self):
        # Salaries only occur directly below the members (level 1), so
        # the guard screen remains sound even for deeper fragments.
        assert not bulk_is_relevant(self.JOHNS, RAISE_MARKS, fragment_depth=3)

    def test_deep_interior_owner_is_conservative(self):
        # Balances live below accounts (level 2): the owner of each
        # modified atom is an interior node, not the member, so the
        # guard screen must not fire.
        deep_bulk = BulkUpdate(
            owner_path=p("person.account"),
            guard=Comparison(p("name"), "=", "Mark"),
            target_label="balance",
            transform=lambda v: v + 1,
        )
        johns_with_accounts = ViewDefinition.parse(
            "define mview PJ as: SELECT ROOT.person X "
            "WHERE X.name = 'John'"
        )
        assert bulk_is_relevant(
            johns_with_accounts, deep_bulk, fragment_depth=3
        )

    def test_atomic_member_view(self):
        salaries = ViewDefinition.parse(
            "define mview S as: SELECT ROOT.person.salary X"
        )
        assert bulk_is_relevant(salaries, RAISE_MARKS)
        names = ViewDefinition.parse(
            "define mview N as: SELECT ROOT.person.name X"
        )
        assert not bulk_is_relevant(names, RAISE_MARKS)


class TestScreeningSoundness:
    """The screen must never declare an actually-affected view safe."""

    def test_screened_bulk_leaves_partial_view_untouched(self, payroll):
        index = ParentIndex(payroll)
        view = PartialMaterializedView(
            self_def := ViewDefinition.parse(
                "define mview PJ as: SELECT ROOT.person X "
                "WHERE X.name = 'John'"
            ),
            payroll,
            depth=2,
        )
        index.ignore_view("PJ")
        payroll.subscribe(
            SimpleViewMaintainer(view, parent_index=index).handle  # type: ignore[arg-type]
        )
        view.load_members(compute_view_members(self_def, payroll))
        payroll.subscribe(view.handle)

        assert not bulk_is_relevant(self_def, RAISE_MARKS, fragment_depth=2)
        salary_before = view.delegate("s1").value
        execute_bulk(payroll, "ROOT", RAISE_MARKS)
        # The view genuinely did not change: skipping it was safe.
        assert view.delegate("s1").value == salary_before
        assert view.check_fragments() == []
        assert view.members() == {"e1"}

    def test_relevant_bulk_changes_partial_view(self, payroll):
        index = ParentIndex(payroll)
        definition = ViewDefinition.parse(
            "define mview PM as: SELECT ROOT.person X "
            "WHERE X.name = 'Mark'"
        )
        view = PartialMaterializedView(definition, payroll, depth=2)
        index.ignore_view("PM")
        payroll.subscribe(
            SimpleViewMaintainer(view, parent_index=index).handle  # type: ignore[arg-type]
        )
        view.load_members(compute_view_members(definition, payroll))
        payroll.subscribe(view.handle)

        assert bulk_is_relevant(definition, RAISE_MARKS, fragment_depth=2)
        execute_bulk(payroll, "ROOT", RAISE_MARKS)
        assert view.delegate("s0").value == 51_000
        assert view.check_fragments() == []
