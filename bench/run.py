#!/usr/bin/env python3
"""The repository benchmark: one command that measures the write path,
the serving tier and the cold read path, and checks every answer.

    python3 bench/run.py                       # all four workloads
    python3 bench/run.py --trace               # ... plus a traced run each
    python3 bench/run.py --workload cold-read --seed 11 --seconds 8 --trace 0

Each workload runs in a fresh subprocess (``PYTHONHASHSEED=0``), one at
a time.  With ``--workload`` the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics of BENCHMARK.json with ``--trace 0``, the per-layer
ones with ``--trace 1``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import fcntl
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from stats import quartiles, spread

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
NOISY_DRIFT_PCT = 15.0

#: What the issue that defined this benchmark called each end-to-end
#: metric on each workload (printed beside the uniform names).
_WRITE_ALIASES = {"ops_per_s": "updates_per_s", "op_p50_ms": "apply_p50_ms",
                  "op_p95_ms": "apply_p95_ms",
                  "charged_accesses_per_op": "charged_accesses_per_update"}
ALIASES = {
    "maint-stream": _WRITE_ALIASES,
    "maint-batch": _WRITE_ALIASES,
    "serve-mixed": {"ops_per_s": "serve_capacity_per_s", "op_p50_ms": "read_p50_ms",
                    "op_p95_ms": "read_p95_ms"},
    "cold-read": {"ops_per_s": "reads_per_s", "op_p50_ms": "read_p50_ms",
                  "op_p95_ms": "read_p95_ms"},
}


def load_contract() -> dict:
    with (ROOT / "BENCHMARK.json").open() as handle:
        return json.load(handle)


def calibrate() -> float:
    """Milliseconds a fixed pure-Python loop takes (median of five, after
    one discarded warm-up): a reading of the host, taken before and
    after each workload.  Never used to rescale."""
    readings = []
    for _ in range(6):
        began = time.perf_counter()
        total = 0
        for i in range(500_000):
            total += i * i % 7
        readings.append((time.perf_counter() - began) * 1e3)
    return statistics.median(readings[1:])


# -- child: one workload in this process ----------------------------------------


def child(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    began = time.perf_counter()
    import workloads  # imports the library

    import_s = time.perf_counter() - began
    calib_before = calibrate()
    result = workloads.run(
        args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    calib_after = calibrate()
    tracer = result.pop("tracer")
    drift = (calib_after - calib_before) / calib_before * 100
    # Child start to measured phase, less input generation: importing the
    # library is set-up too, so work a change moves to import time shows.
    result["end_to_end"]["setup_s"] += import_s
    result["end_to_end"]["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    result["info"].update(
        calib_ms=calib_before, calib_drift_pct=drift, noisy=abs(drift) > NOISY_DRIFT_PCT)
    _check_golden(args, result)
    if tracer is not None:
        layers = result["layers"]
        layers["bench.import_s"] = import_s
        layers["host.calib_ms"] = calib_before
        layers["host.calib_drift_pct"] = drift
        tracer.write(OUT / f"trace.{args.workload}.json", {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds})
    print(json.dumps(result))
    return 0


def _check_golden(args, result) -> None:
    """At the golden seed and size the inputs, the final view extents and
    the cold-read answers must hash to the recorded values; a mismatch
    fails every operation of the workload."""
    with (BENCH / "golden.json").open() as handle:
        golden = json.load(handle)
    if args.smoke or (args.seed, args.seconds) != (golden["seed"], golden["seconds"]):
        return
    info = result["info"]
    for key, want in golden["workloads"].get(args.workload, {}).items():
        if info.get(key) != want:
            result["failed"] = result["attempted"]
            result["failures"].append(f"{key} {info.get(key)} differs from golden {want}")


# -- parent: run children one at a time, report ------------------------------------


def spawn(workload: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    command = [sys.executable, str(BENCH / "run.py"), "--child", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        command.append("--smoke")
    env = dict(os.environ, PYTHONHASHSEED="0")
    done = subprocess.run(command, env=env, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    if done.returncode != 0:
        raise SystemExit(f"{workload}: child exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarise(runs: list[dict], section: str) -> dict[str, dict]:
    """Per metric: the median over the repeats, with quartiles."""
    out = {}
    for name in runs[0][section]:
        values = [run[section][name] for run in runs]
        if any(value is None for value in values):
            out[name] = {"median": None, "values": values}
            continue
        q1, q2, q3 = quartiles(values)
        out[name] = {"median": q2, "q1": q1, "q3": q3, "spread": spread(values),
                     "values": values}
    return out


def overhead_pct(untraced: dict, traced: dict) -> dict[str, float]:
    """Tracing overhead: (traced - untraced) / untraced, per end-to-end metric."""
    return {
        f"bench.trace_overhead_pct.{name}":
            (traced[name] - value) / value * 100 if value else 0.0
        for name, value in untraced.items()
    }


def report(workload: str, runs: list[dict], summary: dict, units: dict, contract) -> None:
    info = runs[0]["info"]
    counts = ", ".join(f"{v} {k}" for k, v in info["counts"].items())
    print(f"\n== {workload}: {counts} ==")
    aliases = ALIASES[workload]
    for metric in contract["end_to_end"]:
        name = metric["name"]
        row = summary[name]
        label = f"{name} ({aliases[name]})" if name in aliases else name
        line = f"  {label:<54} {row['median']:>14.4f} {units[name]}"
        if len(runs) > 1:
            line += f"   q1 {row['q1']:.4f}  q3 {row['q3']:.4f}  spread {row['spread']:.1%}"
        print(line)
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    print(f"  {'failed_share':<54} {failed / attempted:>14.6f} ratio"
          f"   ({failed} of {attempted} operations)")
    if "sustained_rate_per_s" in info:  # serve-mixed; judged by compare.py
        print(f"  {'sustained_rate_per_s':<54} {info['sustained_rate_per_s']:>14} 1/s")
        write_p50 = statistics.median(
            next(iter(run["info"]["per_rate"].values()))["write_p50"] for run in runs)
        print(f"  {'write_p50_ms':<54} {write_p50 * 1e3:>14.4f} ms")
    shas = "  ".join(f"{key} {info[key][:16]}" for key in
                     ("inputs_sha", "extent_sha", "answers_sha") if key in info)
    print(f"  {shas}")
    if any(run["info"]["noisy"] for run in runs):
        print("  NOISY: the host calibration loop drifted by more than "
              f"{NOISY_DRIFT_PCT:.0f} % during this workload")
    for run in runs:
        for message in run["failures"]:
            print(f"  FAILED: {message}")


def report_layers(layers: dict, reasons: dict, units: dict) -> None:
    print("  -- per layer (traced run) --")
    for name in sorted(layers):
        value = layers[name]
        if value is None:
            print(f"  {name:<54} {'null':>14}   ({reasons.get(name, 'not measured')})")
        else:
            print(f"  {name:<54} {value:>14.4f} {units.get(name, '')}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float,
                        help="size of the measured phase (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="also make a traced run and report the per-layer metrics")
    parser.add_argument("--repeats", type=int, default=1,
                        help="fresh subprocesses per workload; medians with quartiles")
    parser.add_argument("--smoke", action="store_true",
                        help="1/20 of the operations on a base 1/8 the size")
    parser.add_argument("--out", type=Path, help="write every run's numbers here as JSON")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if not (ROOT / "src" / "repro").is_dir():
        print("bench/run.py: no src/repro beside bench/ -- nothing to measure",
              file=sys.stderr)
        return 2
    contract = load_contract()
    if args.seconds is None:
        args.seconds = float(contract["run_seconds"])
    names = [w["name"] for w in contract["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names}")
    if args.child:
        return child(args)

    OUT.mkdir(exist_ok=True)
    lock = (OUT / "run.lock").open("w")
    try:
        fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except BlockingIOError:
        print("bench/run.py: another bench/run.py is running; two at once "
              "would measure each other", file=sys.stderr)
        return 3

    units = {m["name"]: m["unit"] for m in contract["end_to_end"] + contract["per_layer"]}
    selected = [args.workload] if args.workload else names
    document = {"seed": args.seed, "seconds": args.seconds, "smoke": args.smoke,
                "workloads": {}}
    attempted = failed = 0
    for workload in selected:
        runs = [spawn(workload, args.seed, args.seconds, 0, args.smoke)
                for _ in range(args.repeats)]
        summary = summarise(runs, "end_to_end")
        report(workload, runs, summary, units, contract)
        entry = {"runs": runs, "end_to_end": summary}
        if args.trace:
            traced = spawn(workload, args.seed, args.seconds, 1, args.smoke)
            layers = traced["layers"]
            layers.update(overhead_pct(
                {name: row["median"] for name, row in summary.items()},
                traced["end_to_end"]))
            report_layers(layers, traced["unavailable"], units)
            print(f"  trace written to bench/out/trace.{workload}.json")
            entry["traced"] = traced
            runs = runs + [traced]
        document["workloads"][workload] = entry
        attempted += sum(run["attempted"] for run in runs)
        failed += sum(run["failed"] for run in runs)

    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        with args.out.open("w") as handle:
            json.dump(document, handle, indent=1)
    print(f"\n{'ALL CORRECT' if failed == 0 else 'FAILED'}: "
          f"{failed} of {attempted} operations failed")
    if args.workload is not None:
        entry = document["workloads"][args.workload]
        if args.trace:
            # A layer a workload never enters did no work there: 0.
            values = {m["name"]: entry["traced"]["layers"].get(m["name"]) or 0.0
                      for m in contract["per_layer"]}
        else:
            values = {m["name"]: entry["end_to_end"][m["name"]]["median"]
                      for m in contract["end_to_end"]}
        print(json.dumps({
            "correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in values.items()},
        }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
