"""Tests of the benchmark itself: probes, metric names, failure counting.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import gauge  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

PROGRAM = "int main() {\n    print(1);\n    print(2);\n    print(3);\n}\n"


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


class StubWorkload(workloads.Workload):
    """``repro-run`` on a three-print program; each printed value is an
    operation, and ``wrong`` of them are expected to differ."""

    name = "stub"
    entry = "repro.evalharness.cli:main_run"
    setup_reps = 1

    def __init__(self, wrong):
        self.wrong = wrong

    def arguments(self, seed, workdir, index):
        path = os.path.join(workdir, "prog.mc")
        with open(path, "w") as handle:
            handle.write(PROGRAM)
        return [path]

    def check(self, stdout, stderr, returncode, goldens):
        expected = ["1", "2", "3"]
        expected[:self.wrong] = ["-1"] * self.wrong
        printed = stdout.splitlines()[:3]
        failed = sum(a != b for a, b in zip(printed, expected))
        return workloads.Verdict(3, failed, workloads.sim_digest(stdout))


def test_probes_wrap_callers_and_restore_originals():
    import repro.evalharness.cli as cli
    import repro.evalharness.experiment as experiment
    import repro.lang.parser as parser
    import repro.unified.pipeline as pipeline
    from repro.vm.machine import Machine
    from repro.vm.memory import RecordingMemory
    from repro.vm.trace import TraceBuffer

    compile_source = pipeline.compile_source
    replay_trace = experiment.replay_trace
    parse_program = parser.parse_program
    machine_run = vars(Machine)["run"]
    from_bytes = vars(TraceBuffer)["from_bytes"]

    recorder = tracer.Recorder()
    probes = tracer.install(recorder, tracer.PROBES)
    try:
        assert pipeline.compile_source is not compile_source
        # ``from x import y`` bindings reach the wrapper too ...
        assert cli.compile_source is pipeline.compile_source
        assert experiment.replay_trace is not replay_trace
        # ... except for stage functions, wrapped where the pipeline
        # calls them only.
        assert pipeline.parse_program is not parse_program
        assert parser.parse_program is parse_program
        assert vars(Machine)["run"] is not machine_run
        assert isinstance(vars(TraceBuffer)["from_bytes"], classmethod)

        program = cli.compile_source(PROGRAM)
        memory = RecordingMemory()
        assert program.run(memory=memory).output == [1, 2, 3]
        TraceBuffer.from_bytes(memory.buffer.to_bytes())
    finally:
        probes.restore()

    assert pipeline.compile_source is compile_source
    assert cli.compile_source is compile_source
    assert experiment.replay_trace is replay_trace
    assert pipeline.parse_program is parse_program
    assert vars(Machine)["run"] is machine_run
    assert vars(TraceBuffer)["from_bytes"] is from_bytes

    names = [span[0] for span in recorder.spans]
    assert names[0] == "compile"
    assert {"lang.frontend", "regalloc.alloc", "vm.run",
            "trace.decode"} <= set(names)
    assert recorder.counters["compile.calls"] == 1
    assert recorder.counters["vm.steps"] > 0


def test_summary_self_time_and_nesting():
    dump = {
        "spans": [
            ["compile", "compile", 0.0, 4.0, -1],
            ["lang.frontend", "compile", 0.0, 1.0, 0],
            ["vm.run", "vm", 1.0, 2.0, 0],
            ["staticcheck", "staticcheck", 5.0, 8.0, -1],
            ["staticcheck", "staticcheck", 6.0, 7.0, 3],
            ["cache.replay_trace", "cache", 8.0, 9.5, -1],
            ["cache.vectorized", "cache", 8.5, 9.0, 5],
        ],
        "counters": {},
        "samples": {"robustness.check": [float(i) for i in range(24)]},
    }
    metrics, _engines = tracer.summarize(dump, 10.0)
    assert metrics["compile.s"] == 4.0
    assert metrics["compile.self_share"] == pytest.approx(0.3)
    assert metrics["vm.self_share"] == pytest.approx(0.1)
    assert metrics["staticcheck.s"] == 3.0
    assert metrics["staticcheck.calls"] == 1
    assert metrics["cache.replay_trace_s"] == 1.5
    # Replay's own time leaves out the kernel span nested in it.
    assert metrics["cache.replay_self_share"] == pytest.approx(0.1)
    assert metrics["cache.self_share"] == pytest.approx(0.15)
    assert metrics["unaccounted_share"] == pytest.approx(0.15)
    assert metrics["robustness.checks"] == 24
    # 24 checks: median 11.5; the 14th slowest has ten above it.
    checks = dump["samples"]["robustness.check"]
    assert tracer.check_latency(checks) == (11.5, 13.0)
    assert tracer.check_latency([3.0, 1.0, 2.0]) == (2.0, 3.0)


def test_gauge_rescales_by_the_median_unit():
    with gauge.Gauge() as meter:
        time.sleep(0.1)
    assert len(meter.units) >= 2
    assert meter.factor() == (gauge.REFERENCE_S
                              / statistics.median(meter.units))
    sample = run.Sample(2.0, 2.0, 0, 1.0, "", "", meter.factor())
    assert sample.norm_wall == 2.0 * meter.factor()


def test_stub_workload_counts_failed_operations():
    result, detail = run.run_benchmark(StubWorkload(wrong=1), seed=0,
                                       seconds=0.1, trace=False)
    assert result["attempted"] == 3 * detail["samples"]
    assert result["failed"] == detail["samples"]
    assert not result["correct"]
    assert detail["error_rate"] == pytest.approx(1 / 3)

    result, detail = run.run_benchmark(StubWorkload(wrong=0), seed=0,
                                       seconds=0.1, trace=False)
    assert result["correct"] and result["failed"] == 0
    assert detail["error_rate"] == 0.0


def test_metric_names_match_the_declaration():
    spec = declared()
    pattern = re.compile(r"[A-Za-z0-9_.-]+\Z")
    plain, _detail = run.run_benchmark(StubWorkload(wrong=0), seed=0,
                                       seconds=0.1, trace=False)
    traced, detail = run.run_benchmark(StubWorkload(wrong=0), seed=0,
                                       seconds=0.1, trace=True)
    assert traced["correct"], detail["problems"]
    for result, key in ((plain, "end_to_end"), (traced, "per_layer")):
        names = {metric["name"] for metric in spec[key]}
        assert set(result["metrics"]) == names
        for name, metric in result["metrics"].items():
            assert pattern.match(name)
            unit = [m["unit"] for m in spec[key] if m["name"] == name][0]
            assert metric["unit"] == unit


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "figure5",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""
