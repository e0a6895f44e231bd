"""The benchmark's traced gates, run once in the test suite.

A traced benchmark run reads ``correct: false`` when one of the spans or
counts that ``bench/worker.py`` expects of a workload records nothing: a
kernel change that stops calling ``kron``, ``mul`` or ``compare`` on the
build-verify path, or stops calling ``FieldSpec.sub`` on the elimination
path, fails there.  This runs the seed-0 job list of those two workloads,
and of small-structures (the only one that runs ``transport``,
``adjunctions``, ``solve`` and ``inverse``), once under the tracer's
``CallCounter``, in a temporary directory, so the same change fails here
too.  ``bench/`` is only read.
"""

import importlib
from pathlib import Path

import pytest

import braidalg.cli as cli

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.mark.parametrize("workload", ["build-verify", "graded-primitives", "small-structures"])
def test_every_expected_span_and_count_is_nonzero(workload, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    worker = importlib.import_module("worker")
    tracer = importlib.import_module("tracer")
    workloads = importlib.import_module("workloads")

    files, jobs = workloads.build_workload(workload, worker.DEFAULT_SEED)
    monkeypatch.chdir(tmp_path)
    for sub in ("in", "out"):
        (tmp_path / sub).mkdir()
    for rel, obj in files.items():
        workloads.write_json(rel, obj)
    runner = worker.Runner(cli, jobs, worker.pinned_digests(workload, worker.DEFAULT_SEED))
    counter = tracer.CallCounter()
    with tracer.instrumented(counter.wrap, counter.wrap_op):
        runner.run_pass()
    assert runner.problems == []
    counts = counter.totals()
    metrics = tracer.count_metrics(counts)
    silent = [name for name in worker.EXPECTED_SPANS[workload] if not counts[f"{name}.calls"]]
    silent += [name for name in worker.EXPECTED_COUNTS[workload] if not metrics[name]]
    assert silent == []
