"""Tests of the benchmark harness itself.

    python3 -m pytest -q bench/tests
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from paths import use_checkout  # noqa: E402

use_checkout()

import braidalg.cli  # noqa: E402
from braidalg.fields import RATIONALS  # noqa: E402
from braidalg.gallery import flip_braiding  # noqa: E402
from braidalg.serialize import braiding_to_json  # noqa: E402
from oracles import witt_dimension  # noqa: E402
from tracer import (CallCounter, SpanRecorder, count_metrics, instrumented,  # noqa: E402
                    self_times, span_metrics)
from worker import Runner  # noqa: E402
from workloads import Job, expect_passed, restricted_witt  # noqa: E402


class TestRestrictedWitt:
    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
    def test_equals_witt_when_p_does_not_divide_n(self, p):
        for d in range(1, 5):
            for n in range(1, 13):
                if n % p:
                    assert restricted_witt(d, n, p) == witt_dimension(d, n)

    def test_adds_the_p_power_quotients(self):
        # W(2,4) + W(2,2) + W(2,1) = 3 + 1 + 2
        assert restricted_witt(2, 4, 2) == 6


class TestSelfTime:
    # root [0, 10] with children [1, 4] and [5, 9]; [2, 3] nests in [1, 4]
    SPANS = [
        ("cli.main", 0.0, 10.0, -1, "job"),
        ("tensoralg.build", 1.0, 4.0, 0, "job"),
        ("matrix.kron", 2.0, 3.0, 1, "job"),
        ("matrix.rref", 5.0, 9.0, 0, "job"),
    ]

    def test_self_time_subtracts_direct_children(self):
        assert self_times(self.SPANS) == [3.0, 2.0, 1.0, 4.0]

    def test_layer_self_times_sum_to_root_time(self):
        metrics = span_metrics(self.SPANS)
        assert metrics["cli.self_s"] == 3.0
        assert metrics["tensoralg.self_s"] == 2.0
        assert metrics["matrix.self_s"] == 5.0
        assert metrics["matrix.rref.calls"] == 1
        assert metrics["trace.root_s"] == 10.0


@pytest.fixture
def flip_file(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "flip.json").write_text(json.dumps(braiding_to_json(flip_braiding(RATIONALS, 2))))
    return "flip.json"


class TestChecker:
    def test_wrong_exit_code_and_digest_count_as_failures(self, flip_file):
        argv = ["verify", "--input", flip_file]
        jobs = [Job("right", argv, check=expect_passed),
                Job("wrong_rc", argv, expect_rc=1, check=expect_passed),
                Job("wrong_digest", argv, check=expect_passed)]
        pinned = {"right": None, "wrong_rc": None, "wrong_digest": "0" * 64}
        first = Runner(braidalg.cli, jobs[:1])
        first.run_pass()
        pinned["right"] = pinned["wrong_rc"] = first.first_digest["right"]
        runner = Runner(braidalg.cli, jobs, pinned)
        runner.run_pass()
        assert (runner.attempted, runner.failed) == (3, 2)
        assert any(p.startswith("wrong_rc: exit code 0") for p in runner.problems)
        assert any(p.startswith("wrong_digest: stdout digest") for p in runner.problems)

    def test_oracle_mismatch_counts_as_failure(self, flip_file):
        job = Job("bad_oracle", ["verify", "--input", flip_file], check=lambda r: "mismatch")
        runner = Runner(braidalg.cli, [job])
        runner.run_pass()
        assert (runner.attempted, runner.failed) == (1, 1)


class TestTracer:
    def test_call_through_cli_imported_name_is_captured(self):
        original = braidalg.cli.build_truncated
        recorder = SpanRecorder()
        with instrumented(recorder.wrap):
            assert braidalg.cli.build_truncated is not original
            braidalg.cli.build_truncated(flip_braiding(RATIONALS, 2), 2)
        assert braidalg.cli.build_truncated is original
        names = [span[0] for span in recorder.spans]
        assert names.count("tensoralg.build") == 1
        build = names.index("tensoralg.build")
        assert recorder.spans[names.index("matrix.kron")][3] >= build

    def test_cli_job_nests_under_cli_main(self, flip_file):
        recorder = SpanRecorder()
        with instrumented(recorder.wrap):
            braidalg.cli.main(["build", "--input", flip_file, "--degree", "3", "--out", "d.json"])
        roots = [s for s in recorder.spans if s[3] < 0]
        assert [s[0] for s in roots] == ["cli.main"]
        assert span_metrics(recorder.spans)["tensoralg.build.calls"] == 1

    def test_counting_passes_repeat_exactly(self, flip_file, capsys):
        totals = []
        for _ in range(2):
            counter = CallCounter()
            with instrumented(counter.wrap, counter.wrap_op):
                braidalg.cli.main(["primitives", "--input", flip_file, "--degree", "4"])
            totals.append(counter.totals())
        assert totals[0] == totals[1]
        metrics = count_metrics(totals[0])
        assert metrics["fields.mul.calls"] > 0
        assert metrics["matrix.rref.cells_in"] > 0
        assert metrics["primitives.kernel_cols"] == 2 + 1 + 2 + 3
