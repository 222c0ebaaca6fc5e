"""Fault-schedule generators for the chaos harness (experiment E15).

Thin, seeded constructors over :mod:`repro.chaos.faults` so benchmarks,
the CLI and the property suite all derive schedules the same way.  This
module is intentionally **not** re-exported from
:mod:`repro.workloads` — importing it pulls in :mod:`repro.chaos`, and
the chaos harness itself imports :mod:`repro.workloads`; keeping the
dependency one-directional at package level avoids the cycle.
"""

from __future__ import annotations

from repro.chaos.faults import FaultRates

#: The named severity presets the benchmark sweeps (message-fault mass
#: split evenly across drop/duplicate/reorder, plus a small crash and
#: query-timeout share at the heavier settings).
SEVERITIES: dict[str, FaultRates] = {
    "none": FaultRates(),
    "light": FaultRates(drop=0.05, duplicate=0.05, reorder=0.05),
    "moderate": FaultRates(
        drop=0.1, duplicate=0.1, reorder=0.1, crash=0.02, timeout=0.1
    ),
    "heavy": FaultRates(
        drop=0.2, duplicate=0.15, reorder=0.15, crash=0.05, timeout=0.2
    ),
    "extreme": FaultRates(
        drop=0.3, duplicate=0.3, reorder=0.3, crash=0.1, timeout=0.5
    ),
}


def uniform_rates(rate: float, *, timeout: float | None = None) -> FaultRates:
    """One *rate* applied to drop, duplicate and reorder alike (the CLI's
    single-knob shape).  ``timeout`` defaults to the same rate, capped so
    retries still terminate in reasonable time."""
    if not 0.0 <= rate <= 1.0 / 3.0:
        raise ValueError(
            f"uniform rate {rate} must stay in [0, 1/3] so the three "
            "message-fault kinds fit one draw"
        )
    return FaultRates(
        drop=rate,
        duplicate=rate,
        reorder=rate,
        timeout=min(rate, 0.5) if timeout is None else timeout,
    )
