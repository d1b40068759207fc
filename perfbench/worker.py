"""One measured run of one workload, in a fresh process.

``run.py`` starts this script once per measured run, so every run pays
the same import cost outside the timed region and ``peak_rss_mb`` is the
peak of a process that made exactly one run.  The last line of standard
output is one JSON object with the run's figures.

Modes:

* ``timed``   tracing off.  Sets up ``SETUPS`` times or more (the median
              is the run's set-up time), runs the last engine once and
              times ``run()``.  Host-speed slices (``hostspeed.py``) run
              throughout; the times are reported as measured and in
              reference seconds, set-up by the slices among the set-ups
              and ``run()`` by all of them.
* ``check``   ``closed-modular`` only: the same run with
              ``certify="stream"``, untimed, for its certificate.
* ``traced``  every layer's public entry points wrapped in spans
              (``tracing.py``); per-layer self time and counts.
* ``memory``  ``tracemalloc`` on for ``run()`` only; its peak per commit.

Usage: ``python3 perfbench/worker.py <workload> <seed> <mode>`` from the
repository root with ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import statistics
import sys
import time
import tracemalloc
from typing import Any

from hostspeed import MIN_SLICES, HostSpeedSampler
from tracing import LAYERS, Tracer
from workloads import ROUND_TICKS, SHARDS, make_workload

#: Set-ups per process; the engine of the last one runs.  A timed
#: process sets up until ``MIN_SLICES`` host-speed slices fell among the
#: set-ups too, so that they have a host-speed factor of their own.
SETUPS = 5


class LatencySamples:
    """Collects every arrival-to-commit latency the engine notes.

    Wraps the public ``RunMetrics.note_latency`` so the samples behind the
    mean and max the program keeps become available for percentiles.
    """

    def __init__(self) -> None:
        from repro.simulation.metrics import RunMetrics

        self.samples: list[int] = []
        original = RunMetrics.note_latency
        samples = self.samples

        def note_latency(metrics, latency: int) -> None:
            samples.append(latency)
            original(metrics, latency)

        RunMetrics.note_latency = note_latency


class ShardSetupTimer:
    """Times shard-worker construction, which ``ShardedEngine.run`` does first.

    Sharded set-up (workload generation, engine construction, submission)
    happens inside ``run()``; its duration is set-up time, not run time.
    """

    def __init__(self, clock) -> None:
        from repro.shard.engine import ShardWorker

        self.seconds = 0.0
        original = ShardWorker.__init__
        timer = self

        def __init__(worker, payload) -> None:
            started = clock()
            try:
                original(worker, payload)
            finally:
                timer.seconds += clock() - started

        ShardWorker.__init__ = __init__


def build(workload):
    """Set up one run: workload generation, engine construction, submission."""
    if workload.sharded:
        from repro.shard import ShardedEngine, ShardMap

        return ShardedEngine(
            workload.spec, ShardMap(shards=SHARDS), mode="inprocess", round_ticks=ROUND_TICKS
        )
    from repro.sweep import build_engine

    return build_engine(workload.spec)


def certificate(workload, result) -> dict[str, Any]:
    """The run's certification verdicts; ``ok`` is the output check."""
    if workload.sharded:
        verdicts = [outcome.serialisable for outcome in result.shards]
        return {"ok": all(verdict is True for verdict in verdicts), "shard_verdicts": verdicts}
    if workload.spec.certify != "stream":
        return {"ok": True, "certified": False}
    report = result.streaming_report
    return {
        "ok": bool(
            report.legal
            and report.serialisable
            and report.theorem5_holds
            and report.committed_transactions == result.metrics.committed
        ),
        "legal": report.legal,
        "serialisable": report.serialisable,
        "theorem5_holds": report.theorem5_holds,
    }


def deterministic(result, samples: list[int]) -> dict[str, Any]:
    """The figures every run of one seed must reproduce bit for bit."""
    metrics = result.metrics
    figures = {
        "latency_samples": len(samples),
        "committed": metrics.committed,
        "submitted": metrics.submitted,
        "gave_up": metrics.gave_up,
    }
    digest = hashlib.sha256()
    digest.update("\n".join(result.committed_transaction_ids).encode())
    digest.update(json.dumps([figures, samples], sort_keys=True).encode())
    figures["digest"] = digest.hexdigest()
    return figures


def run_counts(workload, result) -> dict[str, Any]:
    """Deterministic counters the per-layer report uses."""
    metrics = result.metrics
    counts = {
        "decisions": metrics.decisions,
        "parks": metrics.parks,
        "wasted_fraction": metrics.wasted_fraction,
        "live_state_peak": metrics.live_state_peak,
        "remote_invocations": metrics.remote_invocations,
        "rounds": 0,
        "cross_aborts": 0,
    }
    if workload.sharded:
        counts["rounds"] = result.rounds
        counts["cross_aborts"] = result.coordinator["aborts_decided"]
    return counts


def main(argv: list[str]) -> int:
    name, seed, mode = argv[0], int(argv[1]), argv[2]
    workload = make_workload(name, seed, stream_check=(mode == "check"))
    latencies = LatencySamples()
    setup_timer = tracer = sampler = None
    clock = time.perf_counter
    if mode == "timed":
        sampler = HostSpeedSampler()
        clock = sampler.clock
    if mode == "traced":
        tracer = Tracer()
        tracer.install()
    elif workload.sharded:
        setup_timer = ShardSetupTimer(clock)

    setups: list[float] = []

    def more_setups() -> bool:
        if workload.sharded:
            # Sharded set-up happens mostly inside run(); see ShardSetupTimer.
            return not setups
        if len(setups) < SETUPS:
            return True
        return sampler is not None and sampler.slices < MIN_SLICES

    if sampler is not None:
        sampler.start()
    while more_setups():
        # Each set-up starts from a collected heap: collecting the
        # previous set-up's engine is not part of this one.
        gc.collect()
        started = clock()
        engine = build(workload)
        setups.append(clock() - started)
    setup_factor = None
    if sampler is not None and not workload.sharded:
        # Every slice so far fell among the set-ups.
        setup_factor = sampler.factor()
    gc.collect()

    if mode == "memory":
        tracemalloc.start()
    if tracer is not None:
        tracer.reset()
        tracer.start_collector_spans()
    started = clock()
    result = engine.run()
    wall = clock() - started
    if sampler is not None:
        sampler.stop()
    if tracer is not None:
        tracer.stop_collector_spans()
    peak_traced_bytes = tracemalloc.get_traced_memory()[1] if mode == "memory" else None
    if mode == "memory":
        tracemalloc.stop()

    inner_setup = 0.0
    if setup_timer is not None:
        inner_setup = setup_timer.seconds
    elif tracer is not None:
        inner_setup = tracer.layer_self("setup")
    run_wall = wall - inner_setup
    setup_wall = statistics.median(setups) + inner_setup
    figures = deterministic(result, latencies.samples)
    output: dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "mode": mode,
        "setup_wall_s": setup_wall,
        "run_s": run_wall,
        "commits_per_wall_s": result.metrics.committed / run_wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "latency_count_program": result.metrics.latency_count,
        "deterministic": figures,
        "latencies": latencies.samples,
        "certificate": certificate(workload, result),
        "counts": run_counts(workload, result),
    }
    if sampler is not None:
        # Reference seconds: the wall-clock figures with host drift taken out.
        factor = sampler.factor()
        output["host_factor"] = factor
        output["host_slices"] = sampler.slices
        output["setup_host_factor"] = setup_factor or factor
        output["setups"] = len(setups)
        output["setup_s"] = setup_wall / (setup_factor or factor)
        output["commits_per_s"] = result.metrics.committed / (run_wall / factor)
    if peak_traced_bytes is not None:
        output["memory_peak_bytes"] = peak_traced_bytes
    if tracer is not None:
        traced_layers = [layer for layer in LAYERS if layer != "setup"]
        output["trace"] = {
            "wall_s": run_wall,
            "root_s": tracer.root_s - tracer.layer_self("setup"),
            "self_s": {layer: tracer.layer_self(layer) for layer in traced_layers},
            "calls": {layer: tracer.layer_calls(layer) for layer in traced_layers},
            "setup_s": tracer.layer_self("setup"),
            "operations": tracer.operations,
            "grants": tracer.grants,
            "commit_requests": tracer.commit_requests,
            "commit_blocks": tracer.commit_blocks,
            "steps_recorded": tracer.steps_recorded,
            "streaming_live_state_peak": tracer.streaming_live_peak,
            "gen2_collections": tracer.gen2_collections,
            "transactions": tracer.transactions_summary(),
        }
    print(json.dumps(output, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
