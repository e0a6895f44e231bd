"""braidalg benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload graded-primitives --seed 7 --seconds 30 --trace 0

Runs the workload in a fresh worker process (``worker.py``) and prints, as
the last stdout line, ``{"correct", "attempted", "failed", "metrics"}``.
With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json;
with ``--trace 1`` they are the per-layer ones.  ``setup_s`` is the median,
over several fresh processes, of the time from process start until the
first job is ready.  The exit code is nonzero, and no result is printed,
when the run cannot be made or its metrics do not match BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic, perf_counter

from paths import ROOT, WORKLOADS

WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_RUNS = 8
DEADLINE_S = 170.0


class RunFailed(RuntimeError):
    pass


def start_worker(args: list[str], deadline: float) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for its ``ready`` line; returns the process
    and the seconds from spawning it to that line."""
    start = perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), *args], cwd=ROOT,
                            stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = perf_counter() - start
    if line.strip() != "ready":
        finish(proc, deadline)
        raise RunFailed("worker did not finish set-up")
    return proc, ready


def finish(proc: subprocess.Popen, deadline: float) -> str:
    """Wait for the worker until the deadline; kill it after that."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RunFailed("worker ran past the deadline") from None
    if proc.returncode != 0:
        raise RunFailed(f"worker exited with code {proc.returncode}")
    return out


def declared_metrics(trace: int) -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = monotonic() + DEADLINE_S
    common = ["--workload", workload, "--seed", str(seed)]
    setup_s = []
    if not trace:
        for _ in range(SETUP_RUNS):
            proc, ready = start_worker([*common, "--setup-only"], deadline)
            finish(proc, deadline)
            setup_s.append(ready)
    proc, ready = start_worker([*common, "--seconds", str(seconds), "--trace", str(trace)],
                               deadline)
    lines = finish(proc, deadline).strip().splitlines()
    if not lines:
        raise RunFailed("worker printed no result")
    result = json.loads(lines[-1])
    if not trace:
        setup_s.append(ready)
        result["metrics"]["setup_s"] = {"value": statistics.median(setup_s), "unit": "s"}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != declared_metrics(trace):
        raise RunFailed("reported metrics differ from those declared in BENCHMARK.json")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one braidalg benchmark workload.")
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace)
    except (RunFailed, OSError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
