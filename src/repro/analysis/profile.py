"""Profile the simulation hot loop: where do scheduling decisions spend time?

The raw-speed work on the engine (ROADMAP item 3, locked in by
``benchmarks/bench_e16_hot_loop.py``) is profile-driven: optimisations are
picked from a ranked cProfile report of a standard scenario, not guessed.
This module is that workflow, packaged:

* :func:`profile_scenario` runs the E15 hotspot configuration for one
  scheduler under :mod:`cProfile` and returns a :class:`ProfileReport`
  with the top functions ranked by cumulative time, plus the run's
  decision throughput (so before/after comparisons come for free).
* ``python -m repro.analysis.profile`` prints that report per scheduler —
  the quickstart documented in the README.  ``--sort tottime`` ranks by
  self-time instead.

The report rows are plain dictionaries so tests (and future tooling) can
assert on them; the text rendering is one formatting call away.  For a
flame graph, feed the saved ``.pstats`` file (``--dump PATH``) to any
pstats-compatible visualiser — see DESIGN.md's hot-loop section.
"""

from __future__ import annotations

import cProfile
import io
import pstats
import time
from dataclasses import dataclass
from typing import Any, Callable

from ..scheduler import make_scheduler
from ..simulation import SimulationEngine
from ..simulation.workloads import make_workload

#: The standard profiling scenario: the E15 hotspot configuration (two hot
#: objects under heavy contention, a cold working set, backoff restarts).
DEFAULT_TRANSACTIONS = 300
DEFAULT_SEED = 1515
DEFAULT_SCHEDULERS = ("n2pl", "nto-step", "certifier")


@dataclass(slots=True)
class ProfileReport:
    """One profiled run: ranked hot spots plus headline throughput."""

    scheduler: str
    wall_seconds: float
    decisions: int
    rows: list[dict[str, Any]]

    @property
    def decisions_per_second(self) -> float:
        return self.decisions / max(self.wall_seconds, 1e-9)

    def format(self, limit: int = 15) -> str:
        lines = [
            f"== {self.scheduler}: "
            f"{self.decisions} decisions in {self.wall_seconds:.2f}s "
            f"({self.decisions_per_second:,.0f}/s) ==",
            f"{'cumtime':>9} {'tottime':>9} {'calls':>10}  function",
        ]
        for row in self.rows[:limit]:
            lines.append(
                f"{row['cumtime']:9.3f} {row['tottime']:9.3f} "
                f"{row['calls']:>10}  {row['function']}"
            )
        return "\n".join(lines)


def build_standard_engine(
    scheduler: str,
    *,
    transactions: int = DEFAULT_TRANSACTIONS,
    seed: int = DEFAULT_SEED,
) -> SimulationEngine:
    """The standard profiling scenario, ready to :meth:`run`."""
    workload = make_workload(
        "hotspot",
        transactions=transactions,
        hot_objects=2,
        cold_objects=128,
        operations_per_transaction=2,
        hot_probability=0.05,
        use_service_layer=False,
        seed=seed,
    )
    base, specs = workload.build()
    engine = SimulationEngine(
        base,
        make_scheduler(scheduler, restart_policy="backoff"),
        seed=seed,
    )
    engine.submit_all(specs)
    return engine


def profile_call(
    target: Callable[[], Any], *, sort: str = "cumtime", dump: str | None = None
) -> tuple[Any, list[dict[str, Any]]]:
    """Run ``target`` under cProfile; return (result, ranked stat rows)."""
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = target()
    finally:
        profiler.disable()
    if dump:
        profiler.dump_stats(dump)
    stats = pstats.Stats(profiler, stream=io.StringIO())
    stats.sort_stats(sort)
    rows = []
    for func in stats.fcn_list or []:
        cc, nc, tottime, cumtime, _ = stats.stats[func]
        filename, lineno, name = func
        location = f"{filename}:{lineno}" if lineno else filename
        rows.append(
            {
                "function": f"{name} ({location})",
                "calls": nc,
                "tottime": tottime,
                "cumtime": cumtime,
            }
        )
    return result, rows


def profile_scenario(
    scheduler: str,
    *,
    transactions: int = DEFAULT_TRANSACTIONS,
    seed: int = DEFAULT_SEED,
    sort: str = "cumtime",
    dump: str | None = None,
) -> ProfileReport:
    """Profile one scheduler on the standard scenario."""
    engine = build_standard_engine(scheduler, transactions=transactions, seed=seed)
    started = time.perf_counter()
    result, rows = profile_call(engine.run, sort=sort, dump=dump)
    wall = time.perf_counter() - started
    return ProfileReport(
        scheduler=scheduler,
        wall_seconds=wall,
        decisions=result.metrics.decisions,
        rows=rows,
    )


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.profile",
        description="Profile the engine hot loop on the standard E15 hotspot scenario.",
    )
    parser.add_argument(
        "--scheduler",
        action="append",
        choices=DEFAULT_SCHEDULERS,
        help="scheduler(s) to profile (default: all three)",
    )
    parser.add_argument(
        "--transactions", type=int, default=DEFAULT_TRANSACTIONS, help="batch size"
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--sort", choices=("cumtime", "tottime"), default="cumtime", help="ranking key"
    )
    parser.add_argument("--limit", type=int, default=15, help="rows per report")
    parser.add_argument(
        "--dump",
        metavar="PATH",
        help="also save raw pstats to PATH (suffixed per scheduler) for flame-graph tools",
    )
    args = parser.parse_args(argv)
    schedulers = tuple(args.scheduler) if args.scheduler else DEFAULT_SCHEDULERS
    for scheduler in schedulers:
        dump = f"{args.dump}.{scheduler}.pstats" if args.dump else None
        report = profile_scenario(
            scheduler,
            transactions=args.transactions,
            seed=args.seed,
            sort=args.sort,
            dump=dump,
        )
        print(report.format(args.limit))
        print()
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry point
    raise SystemExit(main())
