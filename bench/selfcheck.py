#!/usr/bin/env python3
"""Checks of the benchmark's own arithmetic and plumbing (not a pytest
file; run it directly: ``python3 bench/selfcheck.py``).

* nearest-rank percentiles, window medians and compare.py's verdicts
  against hand-computed cases;
* open-loop latency counts from the *scheduled* instant: a stub server
  that stalls once for 200 ms must show the stall in the latency of the
  requests that were due while it was stalled;
* BENCHMARK.json is well formed and names exactly what a run emits;
* every workload at ``--smoke`` scale passes all its correctness checks,
  and its inputs, final extents and answers hash the same in a second
  run under another ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def check_percentiles() -> None:
    sample = [15, 20, 35, 40, 50]
    assert stats.percentile(sample, 5) == 15
    assert stats.percentile(sample, 30) == 20
    assert stats.percentile(sample, 40) == 20
    assert stats.percentile(sample, 50) == 35
    assert stats.percentile(sample, 100) == 50
    assert stats.percentile(list(range(1, 101)), 95) == 95
    assert stats.percentile([7.5], 99) == 7.5
    assert stats.percentile([3, 1, 2], 50) == 2  # input need not be sorted
    for bad in (0, 101):
        try:
            stats.percentile(sample, bad)
        except ValueError:
            continue
        raise AssertionError(f"percentile accepted rank {bad}")


def check_window_medians() -> None:
    windows = [[1.0] * 99 + [50.0]] * 7 + [[9.0] * 100]  # one disturbed window
    summary = workloads._latency_windows(windows)
    assert summary == {"p50": 1.0, "p95": 1.0, "p99": 1.0}
    assert stats.quartiles([5.0]) == (5.0, 5.0, 5.0)
    assert abs(stats.spread([10, 11, 12, 13, 14, 15, 16, 17, 18, 19]) - 5.5 / 14.5) < 1e-12


def check_verdicts() -> None:
    steady, slower = [100.0, 101.0, 102.0], [140.0, 141.0, 142.0]
    assert compare.verdict(steady, steady, "lower", 0.25)[0] == "same"
    assert compare.verdict(steady, slower, "lower", 0.25)[0] == "worse"
    assert compare.verdict(steady, slower, "higher", 0.25)[0] == "better"
    # Spread beyond the bound and overlapping runs: noise, even though
    # the medians agree.
    noisy = [60.0, 100.0, 160.0]
    assert compare.verdict(noisy, steady, "lower", 0.25)[0] == "unresolved"
    assert compare.verdict([60.0, 70.0, 100.0], slower, "lower", 0.25)[0] == "worse"
    # Bound 0 is "any rise" / "any drop"; a failed share of 0 stays 0.
    assert compare.verdict([0.0] * 3, [0.0] * 3, "lower", 0.0)[0] == "same"
    assert compare.verdict([0.0] * 3, [0.0, 0.001, 0.001], "lower", 0.0)[0] == "unresolved"
    assert compare.verdict([0.0] * 3, [0.001] * 3, "lower", 0.0)[0] == "worse"
    assert compare.verdict([500] * 3, [250] * 3, "higher", 0.0)[0] == "worse"
    run = {"end_to_end": {"charged_accesses_per_op": 47.5}, "failed": 0, "attempted": 10,
           "info": {"inputs_sha": "a", "extent_sha": "b", "counts": {"updates": 10}}}
    other = dict(run, end_to_end={"charged_accesses_per_op": 47.6})
    assert compare.inexact({"maint-stream": [run, run]}) == []
    assert len(compare.inexact({"maint-stream": [run, other]})) == 1


class _Answer:
    source, lag, allowed = "carry", 0, None


class _StallingServer:
    """Answers at once, except that one read blocks the loop for 200 ms."""

    def __init__(self, stall_at: int) -> None:
        self.calls = 0
        self.stall_at = stall_at

    async def read(self, query, policy):
        self.calls += 1
        if self.calls == self.stall_at:
            time.sleep(0.2)
        return _Answer()


class _StubSystem:
    def __init__(self, server) -> None:
        self.server = server


def check_open_loop_counts_from_schedule() -> None:
    events = [("read", 0.01 * (i + 1), 0, "any") for i in range(50)]  # 100/s
    inputs = workloads.Inputs((), [], {"pool_texts": ["q"], "bursts": []}, {}, "", {})
    rec = workloads.Recorder()
    serving = workloads._Serving(_StubSystem(_StallingServer(10)), inputs, None, rec)
    result = asyncio.run(serving.open_loop(events))
    latency = {request: t2 - due for request, due, _, _, t2, _ in result["reads"]}
    assert rec.failed == 0 and len(latency) == 50
    assert latency[9] >= 0.19, "the stalled request itself"
    # Request 10 was due 10 ms into the stall: it waited out the rest.
    assert latency[10] >= 0.17, f"stall missing from a later request: {latency[10]:.3f}"
    assert latency[19] >= 0.08, f"stall missing from a later request: {latency[19]:.3f}"
    assert latency[40] < 0.05, "the backlog should have drained"
    assert max(result["late"]) >= 0.15, "the generator must report how late it ran"


def check_contract() -> dict:
    with (ROOT / "BENCHMARK.json").open() as handle:
        contract = json.load(handle)
    assert set(contract) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in contract["workloads"]] == list(workloads.NAMES)
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in contract[key]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in contract["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in contract["end_to_end"])
    assert any(m == {"name": "setup_s", "unit": "s", "better": "lower", "bound": m["bound"]}
               for m in contract["end_to_end"])
    assert 2 <= len(contract["workloads"]) <= 8 and len(contract["per_layer"]) <= 128
    return contract


def check_smoke(contract: dict) -> None:
    out = BENCH / "out" / "selfcheck.json"
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke", "--out", str(out)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    assert done.returncode == 0, done.stdout[-2000:]
    with out.open() as handle:
        document = json.load(handle)
    end_to_end = {m["name"] for m in contract["end_to_end"]}
    per_layer = {m["name"] for m in contract["per_layer"]}
    emitted_layers: set[str] = set()
    for name in workloads.NAMES:
        first = document["workloads"][name]["runs"][0]
        assert first["failed"] == 0 and first["attempted"] > 0, first["failures"]
        assert set(first["end_to_end"]) == end_to_end, set(first["end_to_end"]) ^ end_to_end
        assert all(value > 0 for value in first["end_to_end"].values()), first["end_to_end"]
        # Second run: traced, in a child of its own under another hash seed.
        again = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--child", "--smoke", "--workload", name,
             "--seed", str(document["seed"]), "--seconds", str(document["seconds"]),
             "--trace", "1"],
            cwd=ROOT, env=dict(os.environ, PYTHONHASHSEED="4242"),
            stdout=subprocess.PIPE, text=True)
        assert again.returncode == 0, name
        second = json.loads(again.stdout.strip().splitlines()[-1])
        assert second["failed"] == 0, second["failures"]
        for key in ("inputs_sha", "extent_sha", "answers_sha"):
            assert first["info"].get(key) == second["info"].get(key), (name, key)
        charged = [run["end_to_end"]["charged_accesses_per_op"] for run in (first, second)]
        if name == "serve-mixed":
            # With reader threads beside the writer the count depends on
            # thread timing: a few accesses in 600,000 differed between
            # full-size runs of the same inputs.
            assert abs(charged[0] - charged[1]) <= 1e-3 * charged[0], (name, charged)
        else:
            assert charged[0] == charged[1], (name, charged)
        emitted_layers |= set(second["layers"])
        assert (BENCH / "out" / f"trace.{name}.json").is_file()
    overhead = {n for n in per_layer if n.startswith("bench.trace_overhead_pct.")}
    assert emitted_layers == per_layer - overhead, emitted_layers ^ (per_layer - overhead)
    assert overhead == {f"bench.trace_overhead_pct.{n}" for n in end_to_end}


def main() -> int:
    began = time.perf_counter()
    check_percentiles()
    check_window_medians()
    check_verdicts()
    check_open_loop_counts_from_schedule()
    contract = check_contract()
    check_smoke(contract)
    print(f"selfcheck ok ({time.perf_counter() - began:.1f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
