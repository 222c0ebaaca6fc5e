"""Schema of ``BENCH_TRAJECTORY.json``, the benchmark's per-PR record.

The file is append-only: each PR adds one record with the exact
columns of ``bench/run.py`` (charged accesses per operation, the
golden hash prefixes, source and test line counts) and, per wall
metric, the change/parent ratio with the number of alternating pairs
it came from.  Ratios chain across hosts; absolute medians do not.
"""

from __future__ import annotations

import json
from numbers import Real
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRAJECTORY = ROOT / "BENCH_TRAJECTORY.json"
RECORD_KEYS = {
    "pr",
    "commit",
    "title",
    "claim",
    "seed",
    "charged_per_op",
    "hashes_equal_golden",
    "hashes",
    "src_lines",
    "test_lines",
    "wall",
}


def _number_or_null(value) -> bool:
    return value is None or (
        isinstance(value, Real) and not isinstance(value, bool) and value > 0
    )


def _count_or_null(value) -> bool:
    return value is None or (
        isinstance(value, int) and not isinstance(value, bool) and value > 0
    )


@pytest.fixture(scope="module")
def trajectory() -> dict:
    with TRAJECTORY.open() as handle:
        return json.load(handle)


def test_workloads_match_the_benchmark(trajectory):
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert trajectory["workloads"] == [w["name"] for w in contract["workloads"]]
    judged = {m["name"] for m in contract["end_to_end"]}
    assert set(trajectory["wall_metrics"]) <= judged
    assert "charged_accesses_per_op" not in trajectory["wall_metrics"]


def test_pr_numbers_strictly_increase(trajectory):
    numbers = [record["pr"] for record in trajectory["records"]]
    assert numbers, "the trajectory has no record"
    assert all(isinstance(n, int) for n in numbers)
    assert all(a < b for a, b in zip(numbers, numbers[1:])), numbers


def test_every_record_has_the_schema(trajectory):
    workloads = trajectory["workloads"]
    metrics = trajectory["wall_metrics"]
    for record in trajectory["records"]:
        where = f"PR {record.get('pr')}"
        assert set(record) == RECORD_KEYS, where
        assert isinstance(record["title"], str) and record["title"], where
        assert record["commit"] is None or isinstance(record["commit"], str)
        assert record["claim"] is None or isinstance(record["claim"], str)
        assert isinstance(record["seed"], int), where
        assert isinstance(record["hashes_equal_golden"], bool), where
        assert list(record["charged_per_op"]) == workloads, where
        assert all(
            _number_or_null(v) for v in record["charged_per_op"].values()
        ), where
        assert list(record["hashes"]) == workloads, where
        for hashes in record["hashes"].values():
            assert hashes and all(
                isinstance(h, str) and len(h) == 16 for h in hashes.values()
            ), where
        assert _count_or_null(record["src_lines"]), where
        assert _count_or_null(record["test_lines"]), where
        assert list(record["wall"]) == workloads, where
        for per_metric in record["wall"].values():
            assert list(per_metric) == metrics, where
            for cell in per_metric.values():
                assert set(cell) == {"ratio", "pairs"}, where
                assert _number_or_null(cell["ratio"]), where
                assert _count_or_null(cell["pairs"]), where
                if cell["ratio"] is not None:
                    assert cell["pairs"] is not None, where
