"""Shared helpers for the benchmark harness.

Each ``bench_e*.py`` module regenerates one experiment from DESIGN.md's
index: it prints a paper-style results table, persists it under
``benchmarks/results/`` as text, and writes a machine-readable JSON
twin next to it (same stem, ``.json``) so downstream tooling can diff
metric rows without parsing tables.

Run everything with::

    pytest benchmarks/ --benchmark-only -s

Plain runs print their tables and leave ``results/`` alone, so the test
suite never dirties the tracked tree; regenerate the committed artifacts
with ``REPRO_BENCH_REGEN=1``::

    REPRO_BENCH_REGEN=1 pytest benchmarks/ -q
"""

from __future__ import annotations

import json
import os
import platform
import sys
from pathlib import Path
from typing import Mapping, Sequence

from repro.instrumentation import render_table
from repro.instrumentation.stats import (  # noqa: F401 - shared bench helpers
    latency_summary,
    p50,
    p95,
    p99,
    percentile,
)

RESULTS_DIR = Path(__file__).parent / "results"

#: Regenerating the committed artifacts.  Plain runs (tier-1) use each
#: experiment's CI scale; a regeneration runs the full scale the
#: committed tables come from.
REGEN = os.environ.get("REPRO_BENCH_REGEN") == "1"


def environment_stamp() -> dict[str, str]:
    """The run environment recorded into every results JSON.

    Deterministic columns must reproduce across machines, but wall
    times never do — the stamp lets a reader (or CI diff) tell which
    is which.  ``PYTHONHASHSEED`` matters specifically: results tables
    are asserted byte-identical across hash seeds, and the stamp
    records which seed produced a committed artifact.
    """
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED", "random"),
        "argv0": Path(sys.argv[0]).name,
    }


def _json_value(value: object) -> object:
    """JSON-safe scalar: numbers and bools pass through, rest as str."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return str(value)


def emit(
    title: str,
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    *,
    note: str | None = None,
    filename: str,
    config: Mapping[str, object] | None = None,
    counters: Mapping[str, int] | None = None,
) -> str:
    """Render a results table, print it, and — under
    ``REPRO_BENCH_REGEN=1`` — persist it to disk.

    Writes ``results/<filename>`` (the rendered table) and
    ``results/<stem>.json`` with the schema::

        {"experiment": "e3", "title": ..., "config": {...},
         "environment": {...}, "headers": [...], "rows": [[...], ...],
         "note": ..., "counters": {...}}

    *config* records experiment parameters (sweep bounds, seeds) that
    the table itself does not carry; ``environment`` stamps the
    interpreter and platform the artifact was produced on
    (:func:`environment_stamp`).  *counters* optionally stamps the
    run's final logical cost counters (``CostCounters.as_dict()``) so a
    results diff can attribute a table change to the counter that moved
    — the key is present in the JSON only when provided.
    """
    text = render_table(title, headers, rows, note=note)
    print()
    print(text)
    if not REGEN:
        return text
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / filename).write_text(text + "\n")
    stem = Path(filename).stem
    payload = {
        "experiment": stem.split("_", 1)[0],
        "title": title,
        "config": {
            key: _json_value(value)
            for key, value in sorted((config or {}).items())
        },
        "environment": environment_stamp(),
        "headers": list(headers),
        "rows": [[_json_value(value) for value in row] for row in rows],
        "note": note,
    }
    if counters is not None:
        payload["counters"] = {
            key: int(value) for key, value in sorted(counters.items())
        }
    (RESULTS_DIR / f"{stem}.json").write_text(
        json.dumps(payload, indent=2, sort_keys=False) + "\n"
    )
    return text
