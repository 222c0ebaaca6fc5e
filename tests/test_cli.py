"""Tests for the interactive shell."""

import io

import pytest

from repro.cli import Shell, _parse_literal, main
from repro.gsdb import dump_store
from repro.workloads import person_db


def run(*lines: str, catalog=None) -> str:
    out = io.StringIO()
    shell = Shell(catalog, stdout=out)
    shell.run(lines)
    return out.getvalue()


@pytest.fixture
def person_file(tmp_path, person_store):
    path = tmp_path / "person.gsdb"
    path.write_text(dump_store(person_store))
    return str(path)


class TestLiterals:
    @pytest.mark.parametrize(
        "text, value",
        [
            ("42", 42),
            ("3.5", 3.5),
            ("true", True),
            ("false", False),
            ("'John'", "John"),
            ("plain", "plain"),
        ],
    )
    def test_parse(self, text, value):
        assert _parse_literal(text) == value


class TestDataCommands:
    def test_load_and_dump(self, person_file):
        output = run(f"load {person_file}", "dump P2")
        assert "loaded 15 objects" in output
        assert "< P2, professor, set," in output

    def test_new_and_newset(self):
        output = run(
            "new A1 age 45",
            "newset P1 professor A1",
            "dump P1",
        )
        assert "object A1 created" in output
        assert "< P1, professor, set, {A1} >" in output

    def test_object_literal_line(self):
        output = run("< A9, age, integer, 9 >", "dump A9")
        assert "object A9 created" in output

    def test_updates(self, person_file):
        output = run(
            f"load {person_file}",
            "new A9 age 30",
            "insert P2 A9",
            "modify A9 31",
            "delete P2 A9",
        )
        assert output.count("ok") == 3

    def test_db_command(self, person_file):
        output = run(f"load {person_file}", "db D1 P1 P2")
        assert "database D1 with 2 members" in output


class TestViewCommands:
    def test_define_query_members_check(self, person_file):
        output = run(
            f"load {person_file}",
            "define mview YP as: SELECT ROOT.professor X WHERE X.age <= 45",
            "members YP",
            "new A2 age 40",
            "insert P2 A2",
            "members YP",
            "check",
            "views",
        )
        assert "view YP defined (1 member)" in output
        assert "P1, P2" in output
        assert "YP: consistent" in output
        assert "maintained by SimpleViewMaintainer" in output

    def test_select_statement(self, person_file):
        output = run(
            f"load {person_file}",
            "select ROOT.professor X WHERE X.age > 40",
        )
        assert "= {P1}" in output

    def test_virtual_view(self, person_file):
        output = run(
            f"load {person_file}",
            "db PERSON ROOT P1 P2 P3 N1 A1 S1 N2 ADD2 N3 A3 M3 P4 N4 A4",
            "define view VJ as: SELECT ROOT.* X WHERE X.name = 'John' "
            "WITHIN PERSON",
            "members VJ",
        )
        assert "P1, P3" in output

    def test_unknown_view(self):
        assert "no view named ZZ" in run("members ZZ")


class TestServeCommands:
    def test_serve_reports_cache_origin(self, person_file):
        output = run(
            f"load {person_file}",
            "serve SELECT ROOT.professor X",
            "serve SELECT ROOT.professor X",
        )
        assert output.count("{P1, P2}") == 2
        assert "{P1, P2} (kernel, lag 0)" in output
        assert "{P1, P2} (carry, lag 0)" in output

    def test_serve_sees_updates(self, person_file):
        output = run(
            f"load {person_file}",
            "serve SELECT ROOT.professor.age X",
            "new A2 age 40",
            "insert P2 A2",
            "serve SELECT ROOT.professor.age X",
        )
        assert "{A1} (kernel, lag 0)" in output
        assert "{A1, A2} (kernel, lag 0)" in output

    def test_serve_usage(self):
        assert "usage: serve SELECT" in run("serve nonsense")

    def test_bench_serve_runs_oracle(self):
        output = run("bench-serve 40 0.8 16 3")
        assert "hit rate" in output
        assert "0 stale reads" in output


class TestErgonomics:
    def test_unknown_command(self):
        assert "unknown command" in run("frobnicate")

    def test_error_reported_not_raised(self):
        output = run("insert nope nada")
        assert "error:" in output

    def test_comments_and_blanks_ignored(self):
        assert run("# a comment", "", "   ") == ""

    def test_quit_stops_processing(self):
        output = run("quit", "new A1 age 4")
        assert "created" not in output

    def test_help(self):
        output = run("help")
        assert "members NAME" in output

    def test_counters(self, person_file):
        output = run(f"load {person_file}", "counters")
        assert "object_writes" in output

    def test_counters_empty(self):
        assert "(all zero)" in run("counters")


class TestMain:
    def test_script_execution(self, tmp_path, person_file):
        script = tmp_path / "session.gsdbsh"
        script.write_text(
            f"load {person_file}\n"
            "define mview YP as: SELECT ROOT.professor X "
            "WHERE X.age <= 45\n"
            "members YP\n"
        )
        import contextlib
        import io as _io

        buffer = _io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = main([str(script)])
        assert code == 0
        assert "P1" in buffer.getvalue()

    def test_repl_via_stdin(self, person_file):
        out = io.StringIO()
        shell = Shell(stdout=out)
        shell.repl(io.StringIO(f"load {person_file}\nmembers\nquit\n"))
        assert "loaded 15 objects" in out.getvalue()


class TestProfileCommand:
    def test_profile_smoke(self):
        import contextlib
        import io as _io

        buffer = _io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = main(["profile", "3", "3", "6"])
        assert code == 0
        out = buffer.getvalue()
        for phase in ("build", "define", "updates", "recompute",
                      "serve", "gc-mark"):
            assert phase in out

    def test_profile_prints_one_breakdown(self):
        import contextlib
        import io as _io

        buffer = _io.StringIO()
        with contextlib.redirect_stdout(buffer):
            assert main(["profile", "3", "3", "6"]) == 0
        out = buffer.getvalue()
        assert out.count("total ") == 1
        assert out.count("gc-mark") == 1
        # Only serving reads a columnar image: the one server publishes
        # one epoch (there are no writes during the phase) and answers
        # its misses on it.  Every other phase stays off the image.
        serve = out.index("  serve ")
        assert "snapshot_" not in out[:serve]
        assert "snapshot_" not in out[out.index("  gc-mark"):]
        assert "snapshot_refreshes: 1" in out[serve:]

    def test_profile_bad_argument(self, capsys):
        assert main(["profile", "three"]) == 2
        assert "usage: profile" in capsys.readouterr().err
