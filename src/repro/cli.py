"""A small interactive shell / script runner for GSDB views.

Lets a user drive the whole system from a terminal — load a database in
the paper's angle-bracket syntax, define views, run queries, apply
basic updates, and audit view consistency::

    $ python -m repro demo.gsdb
    gsdb> define mview YP as: SELECT ROOT.professor X WHERE X.age <= 45
    view YP defined (1 member)
    gsdb> insert P2 A2
    ok
    gsdb> members YP
    P1, P2
    gsdb> select ROOT.professor X WHERE X.age > 40
    ANS1 = {P1}

Commands (``help`` prints this at the prompt):

``load FILE``            read objects (paper syntax) into the store
``dump [OID]``           print the store, or one subtree
``db NAME OID...``       create a database object
``define ...``           define a view (``define [m]view N as: SELECT ...``)
``select ...``           run a query
``insert PARENT CHILD``  basic update insert(PARENT, CHILD)
``delete PARENT CHILD``  basic update delete(PARENT, CHILD)
``modify OID VALUE``     basic update modify(OID, old, VALUE)
``new OID LABEL VALUE``  create an atomic object (VALUE parses as a literal)
``newset OID LABEL [CHILD...]``  create a set object
``views``                list defined views and their members counts
``members NAME``         list a view's members
``check [NAME]``         audit one view (or all) against recomputation
``counters``             show cost counters
``chaos [SEED [STEPS [RATE [LEVEL]]]]``  run a fault-injection round
``serve SELECT ...``     serve a query; prints the answering source and lag
``bench-serve [STEPS [RATIO [CACHE [SEED]]]]``  mixed read/update round
``traffic [REQUESTS [RATE [RATIO [SEED]]]]``  open-loop serving round
``quit`` / EOF           leave

The shell is deliberately a thin veneer over :class:`ViewCatalog`; it
exists so the examples in the paper can be replayed by hand.
"""

from __future__ import annotations

import shlex
import sys
from typing import Callable, Iterable, TextIO

from repro.errors import ReproError
from repro.gsdb.serialization import dump_subtree, load_store, parse_object
from repro.views import ViewCatalog

PROMPT = "gsdb> "


def _parse_literal(text: str):
    """Parse a CLI literal: int, float, true/false, or a bare string."""
    if text == "true":
        return True
    if text == "false":
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    if len(text) >= 2 and text[0] == text[-1] == "'":
        return text[1:-1]
    return text


class Shell:
    """One interactive session over a :class:`ViewCatalog`."""

    def __init__(
        self,
        catalog: ViewCatalog | None = None,
        *,
        stdout: TextIO | None = None,
    ) -> None:
        self.catalog = catalog if catalog is not None else ViewCatalog()
        self.out = stdout if stdout is not None else sys.stdout
        self._commands: dict[str, Callable[[list[str]], None]] = {
            "load": self.cmd_load,
            "dump": self.cmd_dump,
            "db": self.cmd_db,
            "insert": self.cmd_insert,
            "delete": self.cmd_delete,
            "modify": self.cmd_modify,
            "new": self.cmd_new,
            "newset": self.cmd_newset,
            "views": self.cmd_views,
            "members": self.cmd_members,
            "check": self.cmd_check,
            "counters": self.cmd_counters,
            "chaos": self.cmd_chaos,
            "bench-serve": self.cmd_bench_serve,
            "traffic": self.cmd_traffic,
            "help": self.cmd_help,
        }

    # -- plumbing -----------------------------------------------------------

    def _print(self, text: str = "") -> None:
        print(text, file=self.out)

    def execute(self, line: str) -> bool:
        """Run one command line; returns False when the session ends."""
        line = line.strip()
        if not line or line.startswith("#"):
            return True
        if line in ("quit", "exit"):
            return False
        lowered = line.split(None, 1)[0].lower()
        try:
            if lowered in ("define", "select"):
                self._statement(line)
            elif lowered == "serve":
                self._serve_statement(line.split(None, 1)[1] if " " in line else "")
            elif line.startswith("<"):
                self._add_object_line(line)
            else:
                handler = self._commands.get(lowered)
                if handler is None:
                    self._print(f"unknown command: {lowered} (try 'help')")
                else:
                    handler(shlex.split(line)[1:])
        except ReproError as error:
            self._print(f"error: {error}")
        except (ValueError, KeyError, OSError) as error:
            self._print(f"error: {error}")
        return True

    def run(self, lines: Iterable[str], *, interactive: bool = False) -> None:
        for line in lines:
            if interactive:
                pass  # prompt printed by the REPL loop, not here
            if not self.execute(line):
                break

    def repl(self, stdin: TextIO | None = None) -> None:
        stream = stdin if stdin is not None else sys.stdin
        while True:
            self.out.write(PROMPT)
            self.out.flush()
            line = stream.readline()
            if not line:
                self._print()
                break
            if not self.execute(line):
                break

    # -- statements -----------------------------------------------------------

    def _statement(self, line: str) -> None:
        if line.lower().startswith("define"):
            view = self.catalog.define(line)
            members = (
                len(view.members())
                if hasattr(view, "members")
                else 0
            )
            self._print(
                f"view {view.definition.name} defined ({members} member"
                f"{'s' if members != 1 else ''})"
            )
        else:
            answer = self.catalog.query(line)
            inner = ", ".join(answer.sorted_children())
            self._print(f"{answer.oid} = {{{inner}}}")

    def _add_object_line(self, line: str) -> None:
        obj = parse_object(line)
        previous = self.catalog.store.check_references
        self.catalog.store.check_references = False
        try:
            self.catalog.store.add_object(obj)
        finally:
            self.catalog.store.check_references = previous
        self._print(f"object {obj.oid} created")

    # -- commands ----------------------------------------------------------------

    def cmd_load(self, args: list[str]) -> None:
        if len(args) != 1:
            self._print("usage: load FILE")
            return
        before = len(self.catalog.store)
        with open(args[0], "r", encoding="utf-8") as handle:
            load_store(handle, self.catalog.store)
        self._print(f"loaded {len(self.catalog.store) - before} objects")

    def cmd_dump(self, args: list[str]) -> None:
        store = self.catalog.store
        if args:
            self._print(dump_subtree(store, args[0]).rstrip())
            return
        from repro.gsdb.serialization import dump_store

        self._print(dump_store(store).rstrip())

    def cmd_db(self, args: list[str]) -> None:
        if len(args) < 1:
            self._print("usage: db NAME [OID...]")
            return
        self.catalog.create_database(args[0], args[1:])
        self._print(f"database {args[0]} with {len(args) - 1} members")

    def cmd_insert(self, args: list[str]) -> None:
        if len(args) != 2:
            self._print("usage: insert PARENT CHILD")
            return
        self.catalog.store.insert_edge(args[0], args[1])
        self._print("ok")

    def cmd_delete(self, args: list[str]) -> None:
        if len(args) != 2:
            self._print("usage: delete PARENT CHILD")
            return
        self.catalog.store.delete_edge(args[0], args[1])
        self._print("ok")

    def cmd_modify(self, args: list[str]) -> None:
        if len(args) != 2:
            self._print("usage: modify OID VALUE")
            return
        self.catalog.store.modify_value(args[0], _parse_literal(args[1]))
        self._print("ok")

    def cmd_new(self, args: list[str]) -> None:
        if len(args) != 3:
            self._print("usage: new OID LABEL VALUE")
            return
        self.catalog.store.add_atomic(
            args[0], args[1], _parse_literal(args[2])
        )
        self._print(f"object {args[0]} created")

    def cmd_newset(self, args: list[str]) -> None:
        if len(args) < 2:
            self._print("usage: newset OID LABEL [CHILD...]")
            return
        self.catalog.store.add_set(args[0], args[1], args[2:])
        self._print(f"object {args[0]} created")

    def cmd_views(self, args: list[str]) -> None:
        catalog = self.catalog
        if not catalog.virtual_views and not catalog.materialized_views:
            self._print("no views defined")
            return
        for name in sorted(catalog.virtual_views):
            view = catalog.virtual_views[name]
            view.refresh()
            self._print(f"view  {name}: {len(view)} members (virtual)")
        for name in sorted(catalog.materialized_views):
            view = catalog.materialized_views[name]
            kinds = (type(m).__name__ for m in catalog.maintainers[name])
            kind = ", ".join(dict.fromkeys(kinds))
            self._print(
                f"mview {name}: {len(view)} members (maintained by {kind})"
            )

    def cmd_members(self, args: list[str]) -> None:
        if len(args) != 1:
            self._print("usage: members NAME")
            return
        name = args[0]
        catalog = self.catalog
        if name in catalog.materialized_views:
            members = catalog.materialized_views[name].members()
        elif name in catalog.virtual_views:
            view = catalog.virtual_views[name]
            view.refresh()
            members = view.members()
        else:
            self._print(f"no view named {name}")
            return
        self._print(", ".join(sorted(members)) if members else "(empty)")

    def cmd_check(self, args: list[str]) -> None:
        catalog = self.catalog
        names = args if args else sorted(catalog.materialized_views)
        if not names:
            self._print("no materialized views to check")
            return
        for name in names:
            report = catalog.check(name)
            self._print(f"{name}: {report.describe()}")

    def cmd_counters(self, args: list[str]) -> None:
        counters = self.catalog.store.counters.as_dict()
        if not counters:
            self._print("(all zero)")
            return
        for key, value in counters.items():
            self._print(f"{key}: {value:,}")

    def _serve_statement(self, text: str) -> None:
        """serve SELECT ... — query through the catalog's one server;
        reports which source answered and the answer's epoch lag."""
        if not text.lower().startswith("select"):
            self._print("usage: serve SELECT ...")
            return
        answer = self.catalog.serve(text)
        inner = ", ".join(sorted(answer.oids))
        self._print(f"{{{inner}}} ({answer.source}, lag {answer.lag})")

    def cmd_bench_serve(self, args: list[str]) -> None:
        """bench-serve [STEPS [RATIO [CACHE [SEED]]]] — a self-contained
        mixed read/update serving round on a synthetic tree (not the
        shell's catalog), with the staleness oracle on."""
        from repro.workloads.serving import run_serving_workload

        steps = int(args[0]) if len(args) > 0 else 400
        ratio = float(args[1]) if len(args) > 1 else 0.9
        cache = int(args[2]) if len(args) > 2 else 64
        seed = int(args[3]) if len(args) > 3 else 0
        result = run_serving_workload(
            seed=seed, steps=steps, read_ratio=ratio, cache_size=cache
        )
        self._print(
            f"{result.reads} reads / {result.updates} updates: "
            f"hit rate {result.hit_rate:.1%}, "
            f"{result.invalidations} invalidations "
            f"({result.mean_invalidations_per_update:.2f}/update)"
        )
        self._print(
            f"oracle: {result.oracle_checks} checks, "
            f"{result.oracle_mismatches} stale reads"
        )
        for line in result.stale_reads[:5]:
            self._print(f"  {line}")

    def cmd_traffic(self, args: list[str]) -> None:
        """traffic [REQUESTS [RATE [RATIO [SEED]]]] — a self-contained
        open-loop serving round on a synthetic tree (not the shell's
        catalog): one Poisson/Zipf schedule replayed against an epoch
        server driven from one thread at fresh, then through its
        concurrent front door, with tail latency and the staleness
        audit for both."""
        from repro.serving import AsyncEpochServer, EpochServer
        from repro.serving.traffic import run_concurrent, run_sequential
        from repro.workloads.generators import TreeSpec
        from repro.workloads.traffic import (
            TrafficSpec,
            build_traffic_env,
            poisson_schedule,
        )

        requests = int(args[0]) if len(args) > 0 else 600
        rate = float(args[1]) if len(args) > 1 else 600.0
        ratio = float(args[2]) if len(args) > 2 else 0.9
        seed = int(args[3]) if len(args) > 3 else 0
        spec = TrafficSpec(
            seed=seed, requests=requests, rate=rate, read_ratio=ratio
        )
        tree = TreeSpec(depth=4, seed=seed + 17)
        reports = []
        for concurrent in (False, True):
            env = build_traffic_env(seed=seed, tree=tree)
            core = EpochServer(
                env.registry,
                parent_index=env.parent_index,
                retention_capacity=4,
                cache_size=64,
            )
            events = poisson_schedule(spec, env.pool)
            if concurrent:
                report = run_concurrent(
                    AsyncEpochServer(core), env, events, seed=seed + 1
                )
            else:
                report = run_sequential(core, env, events, seed=seed + 1)
            reports.append(report)
        for report in reports:
            latency = report.read_summary()
            self._print(
                f"{report.label}: {report.reads} reads / "
                f"{report.writes} writes, "
                f"{report.throughput:.0f} req/s achieved "
                f"(offered {report.offered_rate:.0f}), "
                f"p50 {latency['p50'] * 1e3:.2f} ms, "
                f"p95 {latency['p95'] * 1e3:.2f} ms, "
                f"p99 {latency['p99'] * 1e3:.2f} ms, "
                f"violations {report.violations}"
            )
            if report.lag_histogram:
                lags = ", ".join(
                    f"{lag}:{count}"
                    for lag, count in sorted(report.lag_histogram.items())
                )
                self._print(f"  staleness lags {{{lags}}}")

    def cmd_chaos(self, args: list[str]) -> None:
        """chaos [SEED [STEPS [RATE [LEVEL]]]] — a self-contained
        fault-injection round on a synthetic warehouse (not the shell's
        catalog): RATE applies to drop/duplicate/reorder alike, LEVEL is
        the reporting level (1/2/3)."""
        from repro.chaos import ChaosHarness
        from repro.workloads.faults import uniform_rates

        seed = int(args[0]) if len(args) > 0 else 0
        steps = int(args[1]) if len(args) > 1 else 80
        rate = float(args[2]) if len(args) > 2 else 0.1
        level = int(args[3]) if len(args) > 3 else 2
        harness = ChaosHarness(seed=seed, level=level, rates=uniform_rates(rate))
        report = harness.run(steps)
        self._print(report.describe())
        for audit in report.audits.values():
            self._print(f"  {audit.describe()}")

    def cmd_help(self, args: list[str]) -> None:
        self._print(__doc__.split("Commands", 1)[1].split("::", 1)[0])
        for line in __doc__.splitlines():
            if line.startswith("``"):
                self._print(line.replace("``", ""))


def _profile_main(args: list[str]) -> int:
    """``repro profile [DEPTH [FANOUT [UPDATES [SEED]]]]``.

    Runs the canned workload (:mod:`repro.workloads.profiling`) and
    prints its per-phase wall-time and counter breakdown.
    """
    from repro.workloads.profiling import run_profile

    try:
        depth = int(args[0]) if len(args) > 0 else 4
        fanout = int(args[1]) if len(args) > 1 else 5
        updates = int(args[2]) if len(args) > 2 else 40
        seed = int(args[3]) if len(args) > 3 else 7
    except ValueError:
        print("usage: profile [DEPTH [FANOUT [UPDATES [SEED]]]]", file=sys.stderr)
        return 2
    report = run_profile(depth=depth, fanout=fanout, updates=updates, seed=seed)
    for line in report.describe_lines():
        print(line)
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point: ``python -m repro [script.gsdbsh | data.gsdb]``.

    A ``.gsdb`` argument is loaded as data before the REPL starts; any
    other argument is executed as a command script.
    ``profile`` as the first argument runs the canned profiling
    workload instead of a session (see :func:`_profile_main`).
    """
    args = list(sys.argv[1:] if argv is None else argv)
    if args and args[0] == "profile":
        return _profile_main(args[1:])
    shell = Shell()
    for arg in args:
        if arg.endswith(".gsdb"):
            shell.cmd_load([arg])
        else:
            with open(arg, "r", encoding="utf-8") as handle:
                shell.run(handle)
            return 0
    shell.repl()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via tests
    raise SystemExit(main())
