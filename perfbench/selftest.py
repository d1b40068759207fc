"""Self-test of the benchmark: the names in BENCHMARK.json match what it prints.

Usage (from the repository root)::

    python3 perfbench/selftest.py

For each workload and for ``--trace 0`` and ``--trace 1`` it runs
``perfbench/run.py`` with the shortest measuring time and checks that

* the last line is one JSON object with exactly ``correct``,
  ``attempted``, ``failed`` and ``metrics``, and ``correct`` is true;
* its metrics are exactly the ``end_to_end`` (trace 0) or ``per_layer``
  (trace 1) names of ``BENCHMARK.json``, each with the declared unit;
* every metric also appears in its own report row;

and, once, that the benchmark exits non-zero without printing a result
when the checkout holds nothing but ``BENCHMARK.json`` and ``perfbench/``.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import WORKLOAD_NAMES  # noqa: E402


def run_benchmark(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload",
            workload,
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            str(trace),
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=200,
    )


def check_output(spec: dict, workload: str, trace: int) -> list[str]:
    completed = run_benchmark(ROOT, workload, trace)
    label = f"{workload} --trace {trace}"
    if completed.returncode != 0:
        return [f"{label}: exit {completed.returncode}: {completed.stderr[-2000:]}"]
    lines = completed.stdout.splitlines()
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append(f"{label}: correct is {result.get('correct')}")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1):
        problems.append(f"{label}: attempted {result.get('attempted')}")
    declared = {
        entry["name"]: entry["unit"]
        for entry in spec["end_to_end" if trace == 0 else "per_layer"]
    }
    printed = {name: entry["unit"] for name, entry in result.get("metrics", {}).items()}
    if printed != declared:
        missing = sorted(set(declared) - set(printed))
        extra = sorted(set(printed) - set(declared))
        units = sorted(
            name for name in set(declared) & set(printed) if declared[name] != printed[name]
        )
        problems.append(f"{label}: missing {missing}, undeclared {extra}, unit mismatch {units}")
    rows = {line.split()[1] for line in lines[:-1] if line.startswith(workload)}
    unreported = sorted(set(declared) - rows)
    if unreported:
        problems.append(f"{label}: no report row for {unreported}")
    return problems


def check_bare_directory() -> list[str]:
    """Without the program's sources the benchmark must fail, printing no result."""
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench-out") as bare_dir:
        bare = Path(bare_dir)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(
            ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
        )
        completed = run_benchmark(bare, WORKLOAD_NAMES[0], 0)
    problems = []
    if completed.returncode == 0:
        problems.append("bare directory: exit code 0")
    if '"metrics"' in completed.stdout:
        problems.append("bare directory: printed a result")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    (ROOT / ".perfbench-out").mkdir(exist_ok=True)

    problems = []
    declared_workloads = [entry["name"] for entry in spec["workloads"]]
    if declared_workloads != list(WORKLOAD_NAMES):
        problems.append(f"BENCHMARK.json workloads {declared_workloads} != {list(WORKLOAD_NAMES)}")
    problems += check_bare_directory()
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            problems += check_output(spec, workload, trace)
            print(f"checked {workload} --trace {trace}", flush=True)
    for problem in problems:
        print(f"FAIL: {problem}")
    print("selftest passed" if not problems else f"selftest failed: {len(problems)} problem(s)")
    return 0 if not problems else 1


if __name__ == "__main__":
    raise SystemExit(main())
