"""E11 — abort-path cost: incremental undo vs full-history replay.

The event-driven engine repairs object states after an abort with
per-transaction undo segments (roll the touched objects back to the
pre-subtree snapshot, re-apply the surviving suffix) instead of replaying
the entire recorded history from the initial states.  The full-replay
strategy survives as a test-suite oracle
(:class:`tests.oracles.ReplayUndoEngine`).  This experiment drives an
abort-heavy hot-spot workload — NTO restarts aggressively under
contention — under both strategies and times the runs.  Scheduling
decisions are independent of the undo strategy, so both rows commit the
same transactions and abort the same attempts; only the abort-path cost
differs.

Each sweep also appends a ``BENCH_e11_abort_heavy.json`` file next to this
module (schema: ``{"experiment", "rows": [...]}``) so the repository's
performance trajectory is recorded run over run.
"""

from __future__ import annotations

import time
from pathlib import Path

from repro.scheduler import make_scheduler
from repro.simulation import HotspotWorkload, SimulationEngine
from tests.oracles import ReplayUndoEngine

from .harness import append_bench_rows, print_experiment

COLUMNS = [
    "undo", "wall_seconds", "aborts", "wasted_steps", "local_steps",
    "makespan", "committed", "gave_up",
]

BENCH_JSON = Path(__file__).resolve().parent / "BENCH_e11_abort_heavy.json"

#: The engine behind each ``undo`` row label.
ENGINES = {"replay": ReplayUndoEngine, "incremental": SimulationEngine}


def _workload() -> HotspotWorkload:
    return HotspotWorkload(
        transactions=32,
        hot_objects=2,
        cold_objects=8,
        operations_per_transaction=3,
        hot_probability=0.7,
        seed=1111,
    )


def run_configuration(undo: str) -> dict:
    base, specs = _workload().build()
    engine = ENGINES[undo](base, make_scheduler("nto"), seed=1111)
    engine.submit_all(specs)
    started = time.perf_counter()
    result = engine.run()
    elapsed = time.perf_counter() - started
    metrics = result.metrics
    return {
        "experiment": "e11_abort_heavy",
        "scheduler": "nto",
        "undo": undo,
        "wall_seconds": round(elapsed, 6),
        "aborts": metrics.aborted_attempts,
        "wasted_steps": metrics.wasted_steps,
        "local_steps": metrics.local_steps,
        "makespan": metrics.total_ticks,
        "committed": metrics.committed,
        "gave_up": metrics.gave_up,
    }


def run_experiment() -> list[dict]:
    return [run_configuration(undo) for undo in ("replay", "incremental")]


def write_bench_json(rows: list[dict], path: Path = BENCH_JSON) -> None:
    """Append this sweep's rows to the recorded trajectory."""
    append_bench_rows(path, "e11_abort_heavy", rows)


def test_e11_abort_heavy(benchmark):
    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print_experiment("E11: abort path — full replay vs incremental undo", rows, COLUMNS)
    write_bench_json(rows)
    by_undo = {row["undo"]: row for row in rows}
    # The strategy must not change the run itself, only its cost.
    for key in ("aborts", "wasted_steps", "local_steps", "makespan", "committed", "gave_up"):
        assert by_undo["replay"][key] == by_undo["incremental"][key]
    assert by_undo["replay"]["aborts"] > 0, "the workload must be abort-heavy"


if __name__ == "__main__":  # pragma: no cover - manual/CI smoke entry point
    experiment_rows = run_experiment()
    print_experiment("E11: abort path — full replay vs incremental undo", experiment_rows, COLUMNS)
    write_bench_json(experiment_rows)
