"""One benchmark run of one workload, in a fresh single-threaded process.

Set-up imports ``braidalg``, generates the seeded inputs and writes them under
``.bench_work/<workload>/``, then prints ``ready``.  The run is a closed loop
with one client: each job calls ``braidalg.cli.main(argv)`` in-process with
stdout captured, and the next job starts when the previous one returns.

Untraced (``--trace 0``): whole passes over the job list while less than
``--seconds`` has passed, and at least two, so outputs can be compared
across passes.
Traced (``--trace 1``): one pass that runs each job untraced and then with
spans, and two counting passes; the per-layer metrics come from those.

The last stdout line is the result object; ``run.py`` adds ``setup_s``.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import resource
import statistics
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from time import perf_counter

from paths import ROOT, WORK, MissingSources, use_checkout

DEFAULT_SEED = 0
DIGESTS = ROOT / "bench" / "digests.json"

# Spans that must record calls on each workload; a traced run that sees
# none of one of them is wrong, not merely slow.
EXPECTED_SPANS = {
    "graded-primitives": ("cli.main", "serialize.to_json", "tensoralg.build",
                          "primitives.primitives_of_tensor", "matrix.rref", "matrix.nullspace"),
    "build-verify": ("cli.main", "serialize.to_json", "serialize.from_json", "tensoralg.build",
                     "tensoralg.axioms", "braidrep.block", "braided.compare", "matrix.construct",
                     "matrix.mul", "matrix.kron", "matrix.addsub"),
    "small-structures": ("cli.main", "serialize.from_json", "braided.check_yang_baxter",
                         "braided.check_braided_bialgebra", "primitives.primitives",
                         "primitives.restrict_braiding", "braidrep.block",
                         "adjunctions.check_triangles_T_Omega",
                         "adjunctions.check_triangles_Tbar_P",
                         "adjunctions.check_zeta_coalgebra",
                         "adjunctions.primitive_counit_blocks",
                         "transport.transport_bialgebra", "transport.check_primfunct_square",
                         "transport.check_J_compatibility", "matrix.construct", "matrix.solve",
                         "matrix.inverse"),
}
EXPECTED_COUNTS = {
    "graded-primitives": ("fields.mul.calls", "fields.sub.calls", "fields.inv.calls"),
    "build-verify": ("serialize.cells", "braided.compare.cells", "matrix.kron.cells_out"),
    "small-structures": ("fields.element.calls",),
}


@dataclass
class JobResult:
    seconds: float
    nbytes: int


@dataclass
class Runner:
    """Runs passes over a workload's jobs and checks every output.

    A job fails on a wrong exit code, a traceback, an oracle mismatch, a
    digest mismatch (pinned seed only) or stdout that differs from the
    first pass of this run.
    """

    cli: object
    jobs: list
    pinned: dict[str, str] | None = None
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    first_digest: dict[str, str] = field(default_factory=dict)

    def run_pass(self) -> list[JobResult]:
        return [self.run_job(job) for job in self.jobs]

    def run_job(self, job) -> JobResult:
        if job.prepare:
            job.prepare()
        out, err = io.StringIO(), io.StringIO()
        crash = ""
        start = perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                rc = self.cli.main(job.argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:
            rc, crash = None, traceback.format_exc()
        elapsed = perf_counter() - start
        text = out.getvalue()
        self.record(job, self.check(job, text, rc, crash + err.getvalue()))
        return JobResult(elapsed, len(text.encode()))

    def check(self, job, text: str, rc, stderr: str) -> list[str]:
        problems = []
        if rc != job.expect_rc:
            problems.append(f"exit code {rc}, want {job.expect_rc}")
        if "Traceback" in stderr:
            problems.append("traceback: " + stderr.strip().splitlines()[-1])
        try:
            parsed = json.loads(text)
        except ValueError:
            problems.append("stdout is not JSON")
        else:
            message = job.check(parsed) if job.check else None
            if message:
                problems.append("oracle: " + message)
        digest = hashlib.sha256(text.encode()).hexdigest()
        if self.pinned is not None and self.pinned.get(job.name) != digest:
            problems.append("stdout digest differs from the pinned one")
        if self.first_digest.setdefault(job.name, digest) != digest:
            problems.append("stdout differs from the first pass")
        return problems

    def record(self, job, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{job.name}: {p}" for p in problems)


def geomean(values) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure_untraced(runner: Runner, seconds: float) -> dict:
    passes: list[list[JobResult]] = []
    pass_s: list[float] = []
    start = perf_counter()
    while len(passes) < 2 or perf_counter() - start < seconds:
        passes.append(runner.run_pass())
        pass_s.append(sum(r.seconds for r in passes[-1]))
        if len(passes) == 1:
            # Every job has run once; later passes only add heap fragmentation.
            peak_mib = peak_rss_mib()
    per_job_ms = [statistics.median(p[i].seconds for p in passes) * 1e3
                  for i in range(len(passes[0]))]
    log(f"{len(passes)} passes; pass_s {', '.join(f'{s:.4f}' for s in pass_s)}")
    for job, ms in zip(runner.jobs, per_job_ms):
        log(f"  {ms:10.3f} ms  {job.name}")
    return {
        "pass_s": (statistics.median(pass_s), "s"),
        "job_geomean_ms": (geomean(per_job_ms), "ms"),
        "peak_rss_mib": (peak_mib, "MiB"),
    }


def measure_traced(runner: Runner, workload: str) -> dict:
    from tracer import (LAYERS, CallCounter, SpanRecorder, count_metrics, instrumented,
                        span_metrics)

    recorder = SpanRecorder()
    base_s = traced_s = 0.0
    # Each job runs untraced and then traced, back to back, so both runs see
    # the same machine load and their ratio isolates the tracing overhead.
    for job in runner.jobs:
        base_s += runner.run_job(job).seconds
        recorder.job = job.name
        with instrumented(recorder.wrap):
            traced_s += runner.run_job(job).seconds
    counted = []
    for _ in range(2):
        counter = CallCounter()
        with instrumented(counter.wrap, counter.wrap_op):
            counter.counts["cli.stdout_bytes"] = sum(r.nbytes for r in runner.run_pass())
        counted.append(counter.totals())
    with open("spans.json", "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "job"],
                   "spans": recorder.spans}, fh)

    spans = span_metrics(recorder.spans)
    counts = count_metrics(counted[0])
    if counted[0] != counted[1]:
        runner.problems.append("two counting passes gave different counts")
    layer_sum = sum(spans[f"{layer}.self_s"] for layer in LAYERS)
    root_s = spans.pop("trace.root_s")
    cli_s = sum(end - start for name, start, end, _, _ in recorder.spans if name == "cli.main")
    tolerance = 1e-9 * max(1.0, cli_s)
    if abs(layer_sum - cli_s) > tolerance or abs(root_s - cli_s) > tolerance:
        runner.problems.append(f"layer self times sum to {layer_sum}, cli.main spans to {cli_s}")
    for name in EXPECTED_SPANS[workload]:
        if not spans[f"{name}.calls"]:
            runner.problems.append(f"span {name} recorded no calls")
    for name in EXPECTED_COUNTS[workload]:
        if not counts[name]:
            runner.problems.append(f"count {name} is zero")
    log(f"untraced jobs {base_s:.4f} s, traced jobs {traced_s:.4f} s; "
        f"layer self times sum to {layer_sum:.6f} s of {cli_s:.6f} s in cli.main")
    metrics = {k: (v, unit_of(k)) for k, v in {**spans, **counts}.items()}
    metrics["trace.overhead_frac"] = (traced_s / base_s - 1.0, "ratio")
    return metrics


def unit_of(name: str) -> str:
    if name.endswith(("_frac", "_ratio")):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "s" if name.endswith("_s") else "count"


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def pinned_digests(workload: str, seed: int) -> dict[str, str] | None:
    if seed != DEFAULT_SEED:
        return None
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)[workload]


def set_up(workload: str, seed: int):
    """Import the package, generate the seeded inputs and write them; the
    working directory is left at the workload's own directory."""
    use_checkout()
    import braidalg.cli as cli
    from workloads import build_workload, write_json

    files, jobs = build_workload(workload, seed)
    home = WORK / workload
    for sub in ("in", "out"):
        (home / sub).mkdir(parents=True, exist_ok=True)
    os.chdir(home)
    for rel, obj in files.items():
        write_json(rel, obj)
    return cli, jobs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    try:
        cli, jobs = set_up(args.workload, args.seed)
    except MissingSources as exc:
        log(f"cannot run: {exc}")
        return 2
    print("ready", flush=True)
    if args.setup_only:
        return 0
    runner = Runner(cli, jobs, pinned_digests(args.workload, args.seed))
    if args.trace:
        metrics = measure_traced(runner, args.workload)
    else:
        metrics = measure_untraced(runner, args.seconds)
    for problem in runner.problems:
        log("FAIL " + problem)
    log(f"error_rate {runner.failed}/{runner.attempted}")
    result = {
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
