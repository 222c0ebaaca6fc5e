"""Tests for view-definition normalization and classification."""

import pytest

from repro.errors import ViewDefinitionError
from repro.paths import EMPTY_PATH, Path
from repro.views import ViewDefinition


class TestParsing:
    def test_paper_expression_4_7(self):
        d = ViewDefinition.parse(
            "define mview YP as: SELECT ROOT.professor X WHERE X.age <= 45"
        )
        assert d.name == "YP"
        assert d.materialized
        assert d.entry == "ROOT"
        assert d.sel_path() == Path.parse("professor")
        assert d.cond_path() == Path.parse("age")

    def test_virtual_keyword(self):
        d = ViewDefinition.parse("define view V as: SELECT ROOT.a X")
        assert not d.materialized

    def test_bare_query_rejected(self):
        with pytest.raises(ViewDefinitionError):
            ViewDefinition.parse("SELECT ROOT.a X")

    def test_str_round_trips(self):
        text = "define mview YP as: SELECT ROOT.professor X WHERE X.age <= 45"
        d = ViewDefinition.parse(text)
        assert ViewDefinition.parse(str(d)) == d


class TestSimpleClassification:
    """The Section 4.2 class: constant paths, single comparison."""

    @pytest.mark.parametrize(
        "text",
        [
            "define mview V as: SELECT ROOT.professor X WHERE X.age <= 45",
            "define mview V as: SELECT REL.r.tuple X WHERE X.age > 30",
            "define mview V as: SELECT ROOT.a.b.c X",
            "define mview V as: SELECT ROOT.a X WHERE X.b.c = 'x'",
        ],
    )
    def test_simple(self, text):
        d = ViewDefinition.parse(text)
        assert d.is_simple
        d.require_simple()  # no raise

    @pytest.mark.parametrize(
        "text",
        [
            "define mview V as: SELECT ROOT.* X WHERE X.name = 'J'",
            "define mview V as: SELECT ROOT.a.? X",
            "define mview V as: SELECT ROOT.a X WHERE X.*.b = 1",
            "define mview V as: SELECT ROOT.a X WHERE X.b = 1 AND X.c = 2",
            "define mview V as: SELECT ROOT.a X WHERE X.b = 1 WITHIN D",
            "define mview V as: SELECT ROOT.a X ANS INT D",
            "define mview V as: SELECT ROOT.a|b X",
        ],
    )
    def test_not_simple(self, text):
        d = ViewDefinition.parse(text)
        assert not d.is_simple
        with pytest.raises(ViewDefinitionError):
            d.require_simple()


class TestExtendedClassification:
    @pytest.mark.parametrize(
        "text",
        [
            "define mview V as: SELECT ROOT.* X WHERE X.name = 'J'",
            "define mview V as: SELECT ROOT.a.? X",
            "define mview V as: SELECT ROOT.a X WHERE X.b = 1 AND X.c = 2",
            "define mview V as: SELECT ROOT.a X",  # simple ⊂ extended
        ],
    )
    def test_extended(self, text):
        assert ViewDefinition.parse(text).is_extended

    @pytest.mark.parametrize(
        "text",
        [
            "define mview V as: SELECT ROOT.a X WHERE X.b = 1 OR X.c = 2",
            "define mview V as: SELECT ROOT.a X WHERE NOT X.b = 1",
            "define mview V as: SELECT ROOT.a X WHERE EXISTS X.b",
            "define mview V as: SELECT ROOT.a X WHERE X.b = 1 WITHIN D",
        ],
    )
    def test_not_extended(self, text):
        assert not ViewDefinition.parse(text).is_extended


class TestAccessors:
    def test_no_condition_cond_path_empty(self):
        d = ViewDefinition.parse("define mview V as: SELECT ROOT.a X")
        assert d.cond_path() == EMPTY_PATH
        assert not d.has_condition
        assert d.predicate()(123)  # constant true

    def test_full_path_concatenation(self):
        d = ViewDefinition.parse(
            "define mview V as: SELECT R.r.tuple X WHERE X.age > 30"
        )
        assert d.full_path() == Path.parse("r.tuple.age")

    def test_full_expression_with_wildcards(self):
        d = ViewDefinition.parse(
            "define mview V as: SELECT ROOT.* X WHERE X.name = 'J'"
        )
        assert str(d.full_expression()) == "*.name"

    def test_predicate(self):
        d = ViewDefinition.parse(
            "define mview V as: SELECT ROOT.a X WHERE X.b <= 45"
        )
        cond = d.predicate()
        assert cond(45) and not cond(46)

    def test_sel_path_on_wildcard_raises(self):
        d = ViewDefinition.parse("define mview V as: SELECT ROOT.* X")
        with pytest.raises(ViewDefinitionError):
            d.sel_path()

    def test_cond_path_on_compound_raises(self):
        d = ViewDefinition.parse(
            "define mview V as: SELECT ROOT.a X WHERE X.b = 1 AND X.c = 2"
        )
        with pytest.raises(ViewDefinitionError):
            d.cond_path()


def branch_conditions(text):
    definition = ViewDefinition.parse(f"define mview V as: {text}")
    return [str(branch.query.condition) for branch in definition.branches]


class TestBranches:
    def test_a_query_without_or_is_its_own_branch(self):
        d = ViewDefinition.parse(
            "define mview V as: SELECT ROOT.a X WHERE X.b > 1 AND X.c < 2"
        )
        assert d.branches == (d,)

    def test_or_splits_into_dnf(self):
        assert branch_conditions(
            "SELECT ROOT.a X WHERE X.b > 1 AND (X.c < 2 OR X.d = 3)"
        ) == ["X.b > 1 AND X.c < 2", "X.b > 1 AND X.d = 3"]

    def test_repeated_disjuncts_are_one_branch(self):
        assert branch_conditions(
            "SELECT ROOT.a X WHERE X.b > 1 OR X.b > 1 OR X.c < 2"
        ) == ["X.b > 1", "X.c < 2"]

    @pytest.mark.parametrize(
        "text",
        [
            "SELECT ROOT.a X WHERE X.b > 1 OR NOT X.c < 2",
            "SELECT ROOT.a X WHERE X.b > 1 OR EXISTS X.c",
            "SELECT ROOT.a X WHERE X.b > 1 OR X.c < 2 WITHIN DB",
        ],
    )
    def test_not_exists_and_scope_keep_the_query_whole(self, text):
        d = ViewDefinition.parse(f"define mview V as: {text}")
        assert d.branches == (d,)

    def test_branches_are_simple_or_extended(self):
        d = ViewDefinition.parse(
            "define mview V as: SELECT ROOT.a X "
            "WHERE X.b > 1 OR (X.c < 2 AND X.d = 3)"
        )
        simple, conjunctive = d.branches
        assert simple.is_simple
        assert conjunctive.is_extended and not conjunctive.is_simple
        assert {b.name for b in d.branches} == {"V"}


class TestUnion:
    def test_union_of_select_paths(self):
        d = ViewDefinition.union(
            "U",
            [
                "define mview A as: SELECT ROOT.a X WHERE X.b > 1 OR X.c < 2",
                ViewDefinition.parse("define view B as: SELECT ROOT.d X"),
            ],
        )
        assert d.query is None and d.materialized
        assert d.entry == "ROOT"
        assert [str(b.query) for b in d.branches] == [
            "SELECT ROOT.a X WHERE X.b > 1",
            "SELECT ROOT.a X WHERE X.c < 2",
            "SELECT ROOT.d X",
        ]
        assert not d.is_simple and not d.is_extended
        with pytest.raises(ViewDefinitionError):
            d.cond_path()

    def test_union_of_one_is_that_query(self):
        d = ViewDefinition.union(
            "U", ["define mview A as: SELECT ROOT.a X WHERE X.b > 1"]
        )
        assert d == ViewDefinition.parse(
            "define mview U as: SELECT ROOT.a X WHERE X.b > 1"
        )

    def test_unions_flatten(self):
        inner = ViewDefinition.union(
            "I",
            [
                "define mview I as: SELECT ROOT.a X",
                "define mview I as: SELECT ROOT.b X",
            ],
        )
        d = ViewDefinition.union(
            "U", [inner, "define mview U as: SELECT ROOT.c X"]
        )
        assert len(d.selects) == 3
