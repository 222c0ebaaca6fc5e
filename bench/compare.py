#!/usr/bin/env python3
"""Compare two sets of benchmark runs, or the current tree with itself.

    python3 bench/compare.py A.json B.json    # files written by run.py --out
    python3 bench/compare.py --aa [--repeats 5] [--out AA.json]

For every workload and judged metric it prints both medians with their
quartiles, the ratio B / A, and a verdict by the metric's bound:

``unresolved``          the spread between one side's own runs exceeds
                        the bound and the two sides' runs overlap: the
                        runs cannot tell a change of that size from noise;
``same``                otherwise, B's median is within the bound of A's;
``worse`` / ``better``  otherwise, it is beyond A's by more than the bound.

Judged are the end-to-end metrics of BENCHMARK.json and the metrics in
``EXTRA`` below.  ``--aa`` measures the current tree against itself: two
interleaved sets of runs (A B A B ...), every run in fresh subprocesses.
It exits non-zero if any verdict is not ``same``, or if a value that
must repeat exactly (``EXACT``) differs between passes; it prints the
spread measured per metric, which is what the bounds must stay above.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from stats import quartiles, spread

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

#: Metrics the issue bounds that BENCHMARK.json cannot hold -- its list is
#: one for all workloads and its metrics may never be 0 -- judged here
#: from what every untraced run records: (name, better, bound, workloads).
#: A bound of 0 is the issue's "any rise" / "any drop".
EXTRA = (
    ("failed_share", "lower", 0.0, None),
    ("sustained_rate_per_s", "higher", 0.0, ("serve-mixed",)),
    ("write_p50_ms", "lower", 0.25, ("serve-mixed",)),
)
#: Must be identical in every pass of --aa.
EXACT = ("inputs_sha", "extent_sha", "answers_sha", "counts", "charged_accesses_per_op")
#: ... except that with reader threads beside the writer a few charged
#: accesses in 600,000 depend on thread timing.
SERVE_CHARGED_TOLERANCE = 1e-3


def load(path: Path) -> dict[str, list[dict]]:
    """workload -> its runs."""
    with path.open() as handle:
        document = json.load(handle)
    return {workload: entry["runs"] for workload, entry in document["workloads"].items()}


def value(run: dict, name: str):
    """One run's value of a judged or exact metric; None if it has none."""
    if name in run["end_to_end"]:
        return run["end_to_end"][name]
    if name == "failed_share":
        return run["failed"] / run["attempted"]
    if name == "write_p50_ms":
        first = next(iter(run["info"]["per_rate"].values()))  # 250 req/s
        return first["write_p50"] * 1e3
    return run["info"].get(name)


def judged(workload: str, contract: dict) -> list[tuple[str, str, float]]:
    rows = [(m["name"], m["better"], m["bound"]) for m in contract["end_to_end"]]
    rows += [(name, better, bound) for name, better, bound, where in EXTRA
             if where is None or workload in where]
    return rows


def verdict(a: list[float], b: list[float], better: str, bound: float) -> tuple[str, float]:
    """(verdict, B's median as a ratio of A's)."""
    median_a, median_b = quartiles(a)[1], quartiles(b)[1]
    if median_a:
        ratio = median_b / median_a
    else:
        ratio = 1.0 if median_b == 0 else float("inf")
    overlap = min(a) <= max(b) and min(b) <= max(a)
    if overlap and max(spread(a), spread(b)) > bound:
        return "unresolved", ratio
    gain = (ratio - 1) if better == "higher" else (1 - ratio)
    if abs(gain) <= bound:
        return "same", ratio
    return ("better" if gain > 0 else "worse"), ratio


def compare(a: dict, b: dict, contract: dict) -> list[tuple]:
    rows = []
    print(f"{'workload':<13} {'metric':<24} {'A median [q1, q3]':>34} "
          f"{'B median [q1, q3]':>34} {'B/A':>7} {'bound':>6}  verdict")
    for workload in a:
        if workload not in b:
            continue
        for name, better, bound in judged(workload, contract):
            va = [value(run, name) for run in a[workload]]
            vb = [value(run, name) for run in b[workload]]
            result, ratio = verdict(va, vb, better, bound)
            rows.append((workload, name, result, ratio))
            print(f"{workload:<13} {name:<24} {_cell(va):>34} {_cell(vb):>34} "
                  f"{ratio:>7.3f} {bound:>6.2f}  {result}")
    return rows


def _cell(values: list[float]) -> str:
    q1, q2, q3 = quartiles(values)
    return f"{q2:.4f} [{q1:.4f}, {q3:.4f}]"


def inexact(runs: dict[str, list[dict]]) -> list[str]:
    """What differs between runs of the same inputs and must not."""
    found = []
    for workload, passes in runs.items():
        for name in EXACT:
            values = [value(run, name) for run in passes]
            if name == "charged_accesses_per_op" and workload == "serve-mixed":
                same = max(values) - min(values) <= SERVE_CHARGED_TOLERANCE * min(values)
            else:
                same = all(v == values[0] for v in values)
            if not same:
                found.append(f"{workload} {name}: {values}")
    return found


def run_aa(repeats: int, out: Path | None) -> dict[str, Path]:
    """A B A B ...: each letter is one pass of all four workloads."""
    scratch = BENCH / "out"
    scratch.mkdir(exist_ok=True)
    merged: dict[str, dict] = {"A": {}, "B": {}}
    for index in range(2 * repeats):
        side = "AB"[index % 2]
        target = scratch / f"aa.pass{index}.json"
        print(f"-- pass {index + 1} of {2 * repeats} (set {side}) --", flush=True)
        done = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--out", str(target)],
            cwd=ROOT, stdout=subprocess.DEVNULL)
        if done.returncode != 0:
            raise SystemExit(f"pass {index + 1} failed with exit code {done.returncode}")
        for workload, runs in load(target).items():
            merged[side].setdefault(workload, {"runs": []})["runs"] += runs
    paths = {}
    for side, workloads in merged.items():
        paths[side] = (out.with_suffix(f".{side}.json") if out else scratch / f"aa.{side}.json")
        with paths[side].open("w") as handle:
            json.dump({"workloads": workloads}, handle)
    return paths


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("files", nargs="*", type=Path, help="A.json B.json")
    parser.add_argument("--aa", action="store_true",
                        help="run the current tree against itself (A B A B ...)")
    # Five: with three a side's quartiles are its extremes, and one slow
    # pass on this host then reads as a spread beyond the bound.
    parser.add_argument("--repeats", type=int, default=5, help="runs per side with --aa")
    parser.add_argument("--out", type=Path, help="with --aa: where to keep the two sets")
    args = parser.parse_args()
    with (ROOT / "BENCHMARK.json").open() as handle:
        contract = json.load(handle)
    if args.aa:
        paths = run_aa(args.repeats, args.out)
        files = [paths["A"], paths["B"]]
    elif len(args.files) == 2:
        files = args.files
    else:
        parser.error("give two files written by run.py --out, or --aa")
    a, b = load(files[0]), load(files[1])
    rows = compare(a, b, contract)
    if not args.aa:
        return 0
    pooled = {workload: a[workload] + b[workload] for workload in a}
    print("\nmeasured A/A spread (interquartile distance of all runs / median):")
    for workload, runs in pooled.items():
        for name, _, bound in judged(workload, contract):
            measured = spread([value(run, name) for run in runs])
            print(f"  {workload:<13} {name:<24} {measured:>8.2%}   bound {bound:.0%}")
    differing = [f"{workload} {name}: {result} (B/A {ratio:.3f})"
                 for workload, name, result, ratio in rows if result != "same"]
    for message in differing:
        print(f"A/A DIFFERS: {message}")
    unequal = inexact(pooled)
    for message in unequal:
        print(f"A/A NOT EXACT: {message}")
    if not unequal:
        print(f"exact in all {2 * args.repeats} passes: {', '.join(EXACT)}")
    return 1 if differing or unequal else 0


if __name__ == "__main__":
    sys.exit(main())
