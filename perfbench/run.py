"""The repro benchmark: one workload, timed end to end, outputs checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Every timed sample is a fresh
interpreter running one ``repro`` command as its console script would,
serially, with ``REPRO_*`` overrides cleared and the artifact store and
fuzz crash corpus in a directory of the run's own.  Samples repeat
until ``--seconds`` have passed.  Every sample's output is checked (see
``workloads.py``); a failed check counts against ``failed`` and makes
the exit status 1.  The runner and its children share one CPU, whose
speed a gauge thread (``gauge.py``) measures while each child runs;
end-to-end times are rescaled by it to a host of fixed speed.

With ``--trace 0`` the result's metrics are the end-to-end ones; with
``--trace 1`` each untraced sample is followed by a traced one whose
layer probes (``tracer.py``) give the per-layer metrics.  The last
stdout line is the JSON result; the line before it, prefixed
``detail``, records the environment, the samples and the checks.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gauge  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")

#: A sample still running after this many seconds is killed and fails.
SAMPLE_TIMEOUT = 150

#: Environment variables that change what a ``repro`` command does or
#: how the interpreter runs it (``PYTHON*``: bytecode caching, hashing,
#: buffering, module search path); the children see none of the
#: caller's, except where to find Python itself.
CLEARED_PREFIXES = ("REPRO_ARTIFACT_", "REPRO_UNIT_", "PYTHON")
CLEARED_NAMES = ("REPRO_SWEEP_ENGINE", "REPRO_FAULT_PLAN")
KEPT_NAMES = ("PYTHONHOME",)

#: What a console script does: import the entry point and call it.
CONSOLE_STUB = ("import sys\n"
                "from {module} import {function}\n"
                "sys.exit({function}())\n")

#: Set-up probe: import the entry module in a fresh interpreter and
#: report the versions and the replay engine it would select.
SETUP_PROBE = """\
import importlib, json, os, sys
importlib.import_module(sys.argv[1])
from repro.cache.vectorized import vector_available
try:
    import numpy
    numpy_version = numpy.__version__
except ImportError:
    numpy_version = None
print(json.dumps({
    "python": sys.version.split()[0],
    "numpy": numpy_version,
    "sweep_engine": os.environ.get("REPRO_SWEEP_ENGINE", "auto"),
    "lru_sweep_kernel": "vectorized" if vector_available() else "stackdist",
}))
"""


@dataclass
class Sample:
    """One finished child process."""

    wall: float
    #: User plus system CPU time of the child.
    cpu: float
    returncode: int
    rss_mb: float
    stdout: str
    stderr: str
    #: Reference-host seconds per wall second while the child ran.
    speed: float

    @property
    def norm_wall(self):
        """The wall time on the reference host (``gauge.py``)."""
        return self.wall * self.speed


def hermetic_env():
    env = {
        name: value for name, value in os.environ.items()
        if name in KEPT_NAMES or (
            name not in CLEARED_NAMES
            and not name.startswith(CLEARED_PREFIXES))
    }
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    # One thread: keep any BLAS pool NumPy brings from spinning up.
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def spawn(command, env, cwd):
    """Run ``command`` to completion; time it, gauge the host's speed
    meanwhile and read the child's max RSS."""
    out_path = os.path.join(cwd, "stdout.txt")
    err_path = os.path.join(cwd, "stderr.txt")
    with open(out_path, "wb") as out, open(err_path, "wb") as err, \
            gauge.Gauge() as meter:
        start = time.perf_counter()
        process = subprocess.Popen(command, stdout=out, stderr=err,
                                   env=env, cwd=cwd)
        timer = threading.Timer(SAMPLE_TIMEOUT, process.kill)
        timer.start()
        try:
            _pid, status, usage = os.wait4(process.pid, 0)
        except BaseException:
            # Interrupted or terminated: take the child down too.
            process.kill()
            process.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    process.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as handle:
        stdout = handle.read()
    with open(err_path, encoding="utf-8", errors="replace") as handle:
        stderr = handle.read()
    return Sample(wall, usage.ru_utime + usage.ru_stime, process.returncode,
                  usage.ru_maxrss / 1024.0, stdout, stderr, meter.factor())


def console_command(entry, arguments):
    module, function = entry.split(":")
    stub = CONSOLE_STUB.format(module=module, function=function)
    return [sys.executable, "-c", stub] + list(arguments)


def traced_command(entry, arguments, spans_out):
    return ([sys.executable, os.path.join(HERE, "child.py"), spans_out,
             entry] + list(arguments))


def fresh_dir(parent, label):
    return tempfile.mkdtemp(prefix=label + "-", dir=parent)


def source_digest():
    digest = hashlib.sha256()
    source = os.path.join(ROOT, "src")
    for directory, dirs, files in sorted(os.walk(source)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, source).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return done.stdout.strip() or None


class Run:
    """One benchmark run of one workload: set-up, samples, checks."""

    def __init__(self, workload, seed, seconds, trace, goldens, env,
                 workdir):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.goldens = goldens
        self.env = env
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.problems = []
        #: sim_digests seen per distinct input (sample arguments).
        self.digests = {}
        self.band = (0, 0)

    def run_sample(self, index, traced, label):
        """One fresh-interpreter run on sample ``index``'s input; judged.

        Returns the sample and, when ``traced``, its spans.
        """
        arguments = self.workload.arguments(self.seed, self.workdir, index)
        sample_dir = fresh_dir(self.workdir, label)
        dump = None
        if traced:
            spans_out = os.path.join(sample_dir, "spans.json")
            sample = spawn(
                traced_command(self.workload.entry, arguments, spans_out),
                self.env, sample_dir)
            try:
                with open(spans_out) as handle:
                    dump = json.load(handle)
            except (OSError, ValueError):
                # Killed before writing its spans; the check fails it.
                dump = {"spans": [], "counters": {}, "samples": {}}
        else:
            sample = spawn(console_command(self.workload.entry, arguments),
                           self.env, sample_dir)
        verdict = self.workload.check(sample.stdout, sample.stderr,
                                      sample.returncode, self.goldens)
        self.attempted += verdict.attempted
        self.failed += verdict.failed
        self.problems += ["{}: {}".format(label, problem)
                          for problem in verdict.problems]
        self.digests.setdefault(tuple(arguments), set()).add(verdict.digest)
        self.band = (verdict.band_misses, verdict.band_cells)
        return sample, dump

    def setup(self):
        """Set up once: probe the environment and, for a store
        workload, fill the store.  Return the time taken, in host and
        in reference-host seconds, the environment and the traced
        populate run's spans."""
        module = self.workload.entry.split(":")[0]
        start = time.perf_counter()
        probe = spawn([sys.executable, "-c", SETUP_PROBE, module],
                      self.env, fresh_dir(self.workdir, "setup"))
        if probe.returncode != 0:
            raise RuntimeError("set-up probe failed:\n" + probe.stderr)
        children = [probe]
        populate_dump = None
        if self.workload.populates_store:
            populate, populate_dump = self.run_sample(0, self.trace,
                                                      "populate")
            children.append(populate)
        elapsed = time.perf_counter() - start
        # The runner's own share of the set-up runs at the children's
        # speed.
        speed = (sum(child.norm_wall for child in children)
                 / sum(child.wall for child in children))
        environment = json.loads(probe.stdout.strip().splitlines()[-1])
        return (elapsed, elapsed * speed), environment, populate_dump

    def measure(self):
        """Set up, then sample until ``seconds`` have passed, and at
        least the workload's ``min_samples`` times.

        The further set-ups (``setup_reps`` in all) run one after each
        sample and the rest after the last, so a burst of host noise
        reaches few of them.  With tracing, each untraced sample is
        followed by a traced one on the same input.  Returns the set-up
        times (host and reference-host seconds), the environment, the
        populate spans and the samples.
        """
        setup_times = []
        elapsed, environment, populate_dump = self.setup()
        setup_times.append(elapsed)
        plain = []
        traced = []
        start = time.perf_counter()
        while (len(plain) < self.workload.min_samples
               or time.perf_counter() - start < self.seconds):
            index = len(plain)
            sample, _dump = self.run_sample(index, False,
                                            "sample-{}".format(index))
            plain.append(sample)
            if self.trace:
                traced.append(self.run_sample(index, True,
                                              "traced-{}".format(index)))
            if len(setup_times) < self.workload.setup_reps:
                setup_times.append(self.setup()[0])
        while len(setup_times) < self.workload.setup_reps:
            setup_times.append(self.setup()[0])
        return setup_times, environment, populate_dump, plain, traced


def layer_metrics(run, plain, traced, populate_dump):
    """Per-layer metrics: medians over the traced samples."""
    untraced_wall = statistics.median(sample.wall for sample in plain)
    per_sample = []
    engines = set()
    for sample, dump in traced:
        metrics, seen = tracer.summarize(dump, sample.wall)
        engines.update(seen)
        metrics["traced_wall_s"] = sample.wall
        mismatches = metrics["check.output_mismatches"]
        if mismatches:
            run.failed += mismatches
            run.problems.append("{} program output(s) differ from "
                                "expected_output".format(mismatches))
        per_sample.append(metrics)
    metrics = {name: statistics.median(m[name] for m in per_sample)
               for name in per_sample[0]}
    # Check latencies pool over the traced samples, for a steadier tail.
    (metrics["robustness.check_s"],
     metrics["robustness.check_tail_s"]) = tracer.check_latency(
        [latency for _sample, dump in traced
         for latency in dump["samples"].get("robustness.check", [])])
    metrics["tracing_overhead_s"] = metrics["traced_wall_s"] - untraced_wall
    metrics["artifacts.setup_store_s"] = 0.0
    if populate_dump is not None:
        populate, _engines = tracer.summarize(populate_dump, 1.0)
        metrics["artifacts.setup_store_s"] = populate["artifacts.store_s"]
    metrics["model.paper_band_misses"] = run.band[0]
    metrics["model.paper_band_cells"] = run.band[1]
    metrics["error_rate"] = run.failed / run.attempted
    return metrics, sorted(engines)


def environment_record(probe, seed, workload):
    record = dict(probe)
    record.update({
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "source_digest": source_digest(),
        "seed": seed,
        "seed_used": workload.uses_seed,
    })
    return record


def declared_units():
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {metric["name"]: metric["unit"]
            for metric in spec["end_to_end"] + spec["per_layer"]}


def run_benchmark(workload, seed, seconds, trace):
    """Run one workload; return ``(result, detail)`` dicts."""
    units = declared_units()
    goldens = workloads.load_goldens(ROOT)
    os.makedirs(WORK, exist_ok=True)
    workdir = fresh_dir(WORK, workload.name)
    try:
        run = Run(workload, seed, seconds, trace, goldens, hermetic_env(),
                  workdir)
        setup_times, probe, populate_dump, plain, traced = run.measure()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # Every sample of one input, traced or not and the set-up populate
    # run included, must print the same statistics.
    for arguments, digests in run.digests.items():
        if len(digests) != 1:
            run.failed += 1
            run.problems.append("sim_digest differs between samples of "
                                "input {}".format(" ".join(arguments)))
    norm_walls = [sample.norm_wall for sample in plain]
    norm_setups = [norm for _elapsed, norm in setup_times]
    detail = {
        "workload": workload.name,
        "environment": environment_record(probe, seed, workload),
        "samples": len(plain),
        "wall_s": [sample.wall for sample in plain],
        "cpu_s": [sample.cpu for sample in plain],
        "speed": [sample.speed for sample in plain],
        "norm_wall_s": norm_walls,
        "norm_wall_s_median": statistics.median(norm_walls),
        "norm_wall_s_upper": tracer.upper_percentile(norm_walls),
        "setup_wall_s": [elapsed for elapsed, _norm in setup_times],
        "setup_s": norm_setups,
        "sim_digest": sorted(set().union(*run.digests.values())),
        "paper_band_misses": run.band[0],
    }
    if trace:
        metrics, engines = layer_metrics(run, plain, traced, populate_dump)
        detail["replay_engines"] = engines
        detail["claims"] = workload.claims(metrics)
    else:
        metrics = {
            "norm_wall_s": statistics.median(norm_walls),
            "setup_s": statistics.median(norm_setups),
            "peak_rss_mb": statistics.median(
                sample.rss_mb for sample in plain),
        }
    detail.update(operations=run.attempted, failed=run.failed,
                  error_rate=run.failed / run.attempted,
                  problems=run.problems)
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in sorted(metrics.items())},
    }
    return result, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run unwinds like an interrupted one: it kills the
    # sample it is waiting for and removes its work directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    gauge.pin_to_one_cpu()
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("perfbench: no repro source tree at {}".format(
            os.path.join(ROOT, "src")), file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    result, detail = run_benchmark(workload, args.seed, args.seconds,
                                   bool(args.trace))
    for problem in detail["problems"]:
        print("FAILED " + problem, file=sys.stderr)
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
