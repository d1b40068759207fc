"""The layer-ledger benchmark: one command, four workloads, every metric by name.

Usage (from the repository root)::

    python3 perfbench/run.py --workload long-stream --seed 1 --seconds 15 --trace 0

The seed names ``SUBSTREAMS[workload]`` independent input streams
(``workloads.py``).  ``--trace 0`` measures the end-to-end metrics with
tracing off: it starts one fresh worker process per run (``worker.py``),
cycling through the sub-streams until each ran once and ``--seconds``
have passed.  Wall-clock metrics are medians over the runs, in reference
seconds: with the host's drifting speed divided out (``hostspeed.py``); the
deterministic ones (commit rate, latency percentiles in ticks) pool the
first run of every sub-stream.  ``--trace 1`` makes one ``tracemalloc`` run of
sub-stream 0, then alternates untraced and traced runs of it for the same
time, and reports the per-layer metrics.

Every run is checked: its certificate must hold (serialisable and legal,
or every shard's verdict true), no transaction may go missing, and a
digest of its committed order and latencies must equal every other run's
of the same sub-stream, traced or not.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are the report, one metric per row.  The full result, with the seed
and host metadata, is written to ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracing import LAYERS  # noqa: E402
from workloads import SUBSTREAMS, WORKLOAD_NAMES, substream_seed  # noqa: E402

#: Stop starting runs once this much wall time has gone, so that one
#: invocation ends well within three minutes.
TIME_LIMIT_S = 150.0
#: p99 needs at least ten samples beyond it.
MIN_LATENCY_SAMPLES = 1000

END_TO_END = (
    ("commits_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("commit_rate", "fraction"),
    ("latency_p50_ticks", "ticks"),
    ("latency_p99_ticks", "ticks"),
)

#: Layers whose self time is reported as ``<layer>.self_s``, in report
#: order; the collector is reported as ``pygc.pause_s``.
SELF_TIMED = tuple(layer for layer in LAYERS if layer not in ("pygc", "setup"))


class BenchmarkError(Exception):
    """The benchmark cannot produce a result (bad checkout, failed worker)."""


def host_metadata(root: Path) -> dict[str, Any]:
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without sched_getaffinity
        nproc = os.cpu_count() or 1
    try:
        networkx = importlib.metadata.version("networkx")
    except importlib.metadata.PackageNotFoundError:
        networkx = "missing"
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "networkx": networkx,
        "git_commit": commit,
        "platform": platform.platform(),
    }


class Runner:
    """Starts worker processes for one workload and seed, one run each."""

    def __init__(self, root: Path, workload: str, seed: int):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.started = time.monotonic()
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def run(self, mode: str, substream: int) -> dict[str, Any]:
        timeout = max(10.0, 175.0 - self.elapsed())
        seed = substream_seed(self.seed, substream)
        try:
            completed = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), self.workload, str(seed), mode],
                cwd=self.root,
                env=self.env,
                capture_output=True,
                text=True,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired as error:
            raise BenchmarkError(f"{mode} run timed out after {timeout:.0f}s") from error
        if completed.returncode != 0:
            raise BenchmarkError(
                f"{mode} run failed ({completed.returncode}):\n{completed.stderr[-4000:]}"
            )
        output = json.loads(completed.stdout.splitlines()[-1])
        output["substream"] = substream
        return output

    def repeat(
        self, modes: tuple[str, ...], substreams: int, seconds: float
    ) -> dict[str, list[dict[str, Any]]]:
        """Run ``modes`` on sub-streams 0, 1, ... in turn, cycling, until
        ``seconds`` passed since the runner started; every sub-stream once
        at least."""
        runs: dict[str, list[dict[str, Any]]] = {mode: [] for mode in modes}
        rounds = 0
        while True:
            round_started = self.elapsed()
            for mode in modes:
                runs[mode].append(self.run(mode, rounds % substreams))
            rounds += 1
            took = self.elapsed() - round_started
            if rounds >= substreams and (
                self.elapsed() >= seconds or self.elapsed() + took > TIME_LIMIT_S
            ):
                return runs


def check_runs(runs: list[dict[str, Any]]) -> list[str]:
    """Output checks over every run of one seed; returns the failures."""
    failures = []
    digests: dict[int, set[str]] = {}
    for run in runs:
        digests.setdefault(run["substream"], set()).add(run["deterministic"]["digest"])
    for substream, seen in sorted(digests.items()):
        if len(seen) != 1:
            failures.append(
                f"sub-stream {substream}: committed order / deterministic metrics "
                f"differ between runs: {sorted(seen)}"
            )
    for run in runs:
        label = f"{run['mode']} run of sub-stream {run['substream']}"
        if not run["certificate"]["ok"]:
            failures.append(f"{label}: certificate failed: {run['certificate']}")
        figures = run["deterministic"]
        if figures["committed"] + figures["gave_up"] != figures["submitted"]:
            failures.append(
                f"{label}: {figures['submitted']} submitted but {figures['committed']} "
                f"committed and {figures['gave_up']} gave up"
            )
        if figures["latency_samples"] != run["latency_count_program"]:
            failures.append(f"{label}: latency samples missed some commits")
        if figures["latency_samples"] != figures["committed"]:
            failures.append(f"{label}: latency samples do not match commits")
    return failures


def check_partition(trace: dict[str, Any]) -> list[str]:
    """Self times must partition the traced root spans; the rest is remainder."""
    failures = []
    covered = sum(trace["self_s"].values())
    if abs(covered - trace["root_s"]) > 1e-6 * max(1.0, trace["root_s"]):
        failures.append(
            f"layer self times {covered} do not add up to the root spans {trace['root_s']}"
        )
    remainder = trace["wall_s"] - trace["root_s"]
    if not 0.0 <= remainder <= trace["wall_s"]:
        failures.append(f"untraced remainder {remainder} outside [0, wall]")
    return failures


def percentile(sorted_samples: list[int], fraction: float) -> int:
    """Nearest-rank percentile of an ascending list."""
    return sorted_samples[max(1, math.ceil(len(sorted_samples) * fraction)) - 1]


def pooled_figures(runs: list[dict[str, Any]], substreams: int) -> dict[str, Any]:
    """Deterministic figures over the first run of every sub-stream."""
    first = {}
    for run in runs:
        first.setdefault(run["substream"], run)
    chosen = [first[index] for index in range(substreams)]
    samples = sorted(sample for run in chosen for sample in run["latencies"])
    committed = sum(run["deterministic"]["committed"] for run in chosen)
    submitted = sum(run["deterministic"]["submitted"] for run in chosen)
    return {
        "commit_rate": committed / submitted,
        "latency_p50_ticks": percentile(samples, 0.50),
        "latency_p99_ticks": percentile(samples, 0.99),
        "latency_samples": len(samples),
    }


def end_to_end_metrics(runs: list[dict[str, Any]], pooled: dict[str, Any]) -> dict[str, float]:
    return {
        "commits_per_s": statistics.median(run["commits_per_s"] for run in runs),
        "setup_s": statistics.median(run["setup_s"] for run in runs),
        "peak_rss_mb": statistics.median(run["peak_rss_mb"] for run in runs),
        "commit_rate": pooled["commit_rate"],
        "latency_p50_ticks": pooled["latency_p50_ticks"],
        "latency_p99_ticks": pooled["latency_p99_ticks"],
    }


def per_layer_metrics(
    untraced: list[dict[str, Any]], traced: list[dict[str, Any]], memory: dict[str, Any]
) -> dict[str, tuple[float, str]]:
    """Medians over the traced runs; counts are identical in each of them."""
    trace = traced[0]["trace"]
    counts = traced[0]["counts"]

    def median_self(layer: str) -> float:
        return statistics.median(run["trace"]["self_s"][layer] for run in traced)

    def median_share(layer: str) -> float:
        return statistics.median(
            run["trace"]["self_s"][layer] / run["trace"]["wall_s"] for run in traced
        )

    metrics: dict[str, tuple[float, str]] = {}
    for layer in SELF_TIMED:
        metrics[f"{layer}.self_s"] = (median_self(layer), "s")
        metrics[f"{layer}.self_share"] = (median_share(layer), "fraction")
    decisions = counts["decisions"]
    metrics["engine.us_per_decision"] = (median_self("engine") / decisions * 1e6, "us")
    metrics["engine.decisions"] = (decisions, "count")
    metrics["engine.parks"] = (counts["parks"], "count")
    metrics["engine.wasted_fraction"] = (counts["wasted_fraction"], "fraction")
    metrics["engine.live_state_peak"] = (counts["live_state_peak"], "count")
    metrics["scheduler.calls"] = (trace["calls"]["scheduler"], "count")
    metrics["scheduler.grant_ratio"] = (trace["grants"] / max(1, trace["operations"]), "fraction")
    metrics["scheduler.commit_blocks"] = (trace["commit_blocks"], "count")
    metrics["coordinator.calls"] = (trace["calls"]["coordinator"], "count")
    metrics["deadlock.calls"] = (trace["calls"]["deadlock"], "count")
    metrics["history.steps_recorded"] = (trace["steps_recorded"], "count")
    metrics["streaming.live_state_peak"] = (trace["streaming_live_state_peak"], "count")
    metrics["adts.calls"] = (trace["calls"]["adts"], "count")
    metrics["shard.rounds"] = (counts["rounds"], "count")
    metrics["shard.remote_invocations"] = (counts["remote_invocations"], "count")
    metrics["shard.cross_aborts"] = (counts["cross_aborts"], "count")
    metrics["pygc.pause_s"] = (median_self("pygc"), "s")
    metrics["pygc.pause_share"] = (median_share("pygc"), "fraction")
    metrics["pygc.gen2_collections"] = (trace["gen2_collections"], "count")
    metrics["memory.peak_bytes_per_commit"] = (
        memory["memory_peak_bytes"] / memory["deterministic"]["committed"],
        "bytes",
    )
    metrics["trace.overhead"] = (
        statistics.median(run["trace"]["wall_s"] for run in traced)
        / statistics.median(run["run_s"] for run in untraced),
        "ratio",
    )
    metrics["trace.remainder_share"] = (
        statistics.median(
            (run["trace"]["wall_s"] - run["trace"]["root_s"]) / run["trace"]["wall_s"]
            for run in traced
        ),
        "fraction",
    )
    return metrics


def check_counts(traced: list[dict[str, Any]]) -> list[str]:
    """Counts are deterministic: every traced run must report the same."""
    keys = ("calls", "grants", "operations", "commit_blocks", "steps_recorded")
    first = traced[0]
    failures = []
    for run in traced[1:]:
        if run["counts"] != first["counts"] or any(
            run["trace"][key] != first["trace"][key] for key in keys
        ):
            failures.append("traced runs disagree on deterministic counts")
    return failures


def measure(args: argparse.Namespace, root: Path) -> dict[str, Any]:
    runner = Runner(root, args.workload, args.seed)
    result: dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host_metadata(root),
    }
    substreams = SUBSTREAMS[args.workload]
    if args.trace == 0:
        # closed-modular's timed runs do not certify: one untimed run of
        # sub-stream 0 with certify="stream" stands in for them.
        checked = [runner.run("check", 0)] if args.workload == "closed-modular" else []
        runs = runner.repeat(("timed",), substreams, args.seconds)["timed"]
        if len(checked) + len(runs) == substreams:
            # Determinism needs one sub-stream run twice.
            runs.append(runner.run("timed", 0))
        checked += runs
        failures = check_runs(checked)
        pooled = pooled_figures(runs, substreams)
        if pooled["latency_samples"] < MIN_LATENCY_SAMPLES:
            failures.append(
                f"{pooled['latency_samples']} commits; p99 needs {MIN_LATENCY_SAMPLES}"
            )
        values = end_to_end_metrics(runs, pooled)
        metrics = {name: (values[name], unit) for name, unit in END_TO_END}
        measured = runs
        result["latency_samples"] = pooled["latency_samples"]
    else:
        # Per-layer figures come from sub-stream 0 only, so that every
        # traced run repeats the untraced run's decisions and counts.
        memory = runner.run("memory", 0)
        paired = runner.repeat(("timed", "traced"), 1, args.seconds)
        untraced, traced = paired["timed"], paired["traced"]
        checked = untraced + traced + [memory]
        failures = check_runs(checked)
        for run in traced:
            failures += check_partition(run["trace"])
        failures += check_counts(traced)
        metrics = per_layer_metrics(untraced, traced, memory)
        measured = untraced + traced
        result["transactions"] = traced[0]["trace"]["transactions"]
    for run in checked:
        run.pop("latencies")
    used = substreams if args.trace == 0 else 1
    result["substream_seeds"] = [substream_seed(args.seed, index) for index in range(used)]
    result["runs"] = checked
    result["failures"] = failures
    result["metrics"] = {
        name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
    }
    result["attempted"] = sum(run["deterministic"]["submitted"] for run in measured)
    result["failed"] = sum(run["deterministic"]["gave_up"] for run in measured)
    result["elapsed_s"] = runner.elapsed()
    return result


def report(result: dict[str, Any]) -> None:
    """Human-readable rows: metadata, then one metric per row."""
    host = result["host"]
    print(
        f"# perfbench workload={result['workload']} seed={result['seed']} "
        f"trace={result['trace']} runs={len(result['runs'])} "
        f"nproc={host['nproc']} python={host['python']} networkx={host['networkx']} "
        f"commit={host['git_commit']}"
    )
    if "latency_samples" in result:
        print(
            f"# latency percentiles over {result['latency_samples']} commits pooled from "
            f"sub-stream seeds {result['substream_seeds']}"
        )
    for name, entry in result["metrics"].items():
        print(f"{result['workload']:<16} {name:<34} {entry['value']:>18.6f} {entry['unit']}")
    for failure in result["failures"]:
        print(f"# CHECK FAILED: {failure}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(
            "perfbench: run from the repository root; src/repro is missing here",
            file=sys.stderr,
        )
        return 2
    try:
        result = measure(args, root)
    except BenchmarkError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1

    out_dir = root / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    report(result)
    print(f"# full result: {out_file.relative_to(root)}")
    print(
        json.dumps(
            {
                "correct": not result["failures"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": result["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
