"""The benchmark's workloads and the checks of their printed outputs.

Each workload is one ``repro`` command run as a user runs it: one
fresh single-threaded process, no ``--jobs``.  Only ``fuzz`` consumes
the workload seed; the others run the paper's six fixed programs and
record that.  A check turns one run's stdout, stderr and exit status
into a :class:`Verdict`: operations attempted and failed, the
``sim_digest`` of the statistics it printed, and the paper-band count.
"""

import hashlib
import json
import os
import re
from dataclasses import dataclass, field

FIGURE5_ENTRY = "repro.evalharness.cli:main_figure5"
REPORT_ENTRY = "repro.evalharness.fullreport:main"
FUZZ_ENTRY = "repro.robustness.driver:main"

#: Programs per ``fuzz`` sample.  Every sample of a run fuzzes the same
#: block, chosen by the workload seed, so the run's samples time the
#: same inputs however many of them fit in the run.
FUZZ_PROGRAMS = 24

#: Generator seeds below this are the ones tests and development use;
#: benchmark seed ``n`` fuzzes the block starting at
#: ``FUZZ_SEED_BASE + n * FUZZ_PROGRAMS``, programs held back from tuning.
FUZZ_SEED_BASE = 100_000

#: The hierarchy geometry of the ``sweep-warm`` workload's E16 section.
SWEEP_HIERARCHY = "L1:64x2,L2:512x8"

#: Paper Section 5 reference bands for %unambiguous references.
STATIC_BAND = (70.0, 80.0)
DYNAMIC_BAND = (45.0, 75.0)

#: Report heading token -> section name used in the failure summary.
SECTION_NAMES = {
    "E1-E3": "figure5",
    "E5": "kill-bits",
    "E6": "spill",
    "E10": "combined-cache",
    "E13/E14": "access-time",
    "E16": "hierarchy",
    "E17": "policy-zoo",
}

_NUMBER = re.compile(r"-?\d+(?:\.\d+)?")
_FAILURE_LINE = re.compile(r"^  ([\w-]+)(?:/\S+)?: ")


@dataclass
class Verdict:
    """What one run of a workload did, judged from its outputs."""

    attempted: int
    failed: int
    digest: str
    band_misses: int = 0
    band_cells: int = 0
    problems: list = field(default_factory=list)


def sim_digest(stdout):
    """Hash of every number the run printed, wall-clock line excluded."""
    lines = []
    for line in stdout.splitlines():
        if line.startswith("(generated in"):
            continue
        numbers = _NUMBER.findall(line)
        if numbers:
            lines.append(" ".join(numbers))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def load_goldens(root):
    goldens = {}
    for name in ("figure5", "hierarchy", "policyzoo"):
        path = os.path.join(root, "tests", "golden", name + ".json")
        with open(path) as handle:
            goldens[name] = json.load(handle)
    return goldens


def table_rows(lines, header):
    """Whitespace-split rows of the table whose header matches.

    The table ends at the first line that does not split into as many
    cells as its dashed rule has columns.
    """
    pattern = re.compile(header)
    for index, line in enumerate(lines):
        if pattern.match(line) and index + 1 < len(lines):
            columns = len(lines[index + 1].split())
            rows = []
            for row in lines[index + 2:]:
                cells = row.split()
                if len(cells) != columns:
                    break
                rows.append(cells)
            return rows
    return []


def check_figure5_rows(lines, golden, problems):
    """Compare the Figure 5 rows with the golden; return band counts."""
    rows = {row[0]: row for row in
            table_rows(lines, r"benchmark\s+static %unamb")}
    for name, want in golden.items():
        expected = [
            "{:.1f}".format(want[key]) if want[key] is not None else "-"
            for key in ("static_percent_unambiguous",
                        "static_bypass_checked",
                        "dynamic_percent_unambiguous",
                        "cache_traffic_reduction",
                        "bus_traffic_reduction")
        ] + [str(want["dynamic_refs"])]
        row = rows.get(name)
        if row is None or row[1:] != expected:
            problems.append("figure5 row {}: {} != golden {}".format(
                name, row[1:] if row else None, expected))
    misses = cells = 0
    for name in golden:
        row = rows.get(name)
        if row is None:
            continue
        for value, (low, high) in ((row[1], STATIC_BAND),
                                   (row[3], DYNAMIC_BAND)):
            cells += 1
            if not low <= float(value) <= high:
                misses += 1
    return misses, cells


def check_hierarchy_rows(lines, golden, spec, problems):
    levels = [part.split(":")[0] for part in spec.split(",")]
    keys = ([levels[0].lower() + "_miss_rate"]
            + [name.lower() + "_local_miss_rate" for name in levels[1:]])
    rows = table_rows(lines, r"benchmark\s+inclusion\s+bypass")
    wanted = [key for key in golden if key.startswith(spec + "|")]
    seen = set()
    for row in rows:
        key = "|".join([spec] + row[:3])
        seen.add(key)
        want = golden.get(key)
        expected = (["{:.4f}".format(want[k]) for k in keys]
                    + [str(want["memory_bus_words"])]) if want else None
        if row[3:] != expected:
            problems.append("hierarchy row {}: {} != golden {}".format(
                key, row[3:], expected))
    for key in wanted:
        if key not in seen:
            problems.append("hierarchy row {} missing".format(key))


def check_policy_zoo_rows(lines, golden, problems):
    rows = table_rows(lines, r"benchmark\s+policy\s+conv hit")
    for row in rows:
        cells = []
        for scheme in ("conventional", "unified"):
            want = golden.get("{}/{}/{}".format(row[0], row[1], scheme))
            cells.append(want)
        if None in cells:
            problems.append("policy-zoo row {}/{} not in golden".format(
                row[0], row[1]))
            continue
        conv, unified = cells
        expected = ["{:.4f}".format(conv["hit_rate"]),
                    "{:.4f}".format(unified["hit_rate"]),
                    str(conv["bus_words"]), str(unified["bus_words"])]
        if row[2:] != expected:
            problems.append("policy-zoo row {}/{}: {} != golden {}".format(
                row[0], row[1], row[2:], expected))
    if len(rows) * 2 != len(golden):
        problems.append("policy-zoo: {} rows for {} golden cells".format(
            len(rows), len(golden)))


def report_sections(lines):
    """Section name -> body lines, from the ``===`` underlined headings."""
    sections = {}
    current = None
    for index, line in enumerate(lines):
        underline = lines[index + 1] if index + 1 < len(lines) else ""
        if line and underline == "=" * len(line):
            token = line.split()[0]
            if token == "SECTION":
                current = line.split()[1]
            else:
                current = SECTION_NAMES.get(token, token)
            sections[current] = []
        elif current is not None:
            sections[current].append(line)
    return sections


def failed_sections(stderr):
    names = set()
    listing = False
    for line in stderr.splitlines():
        if "experiment(s) failed:" in line:
            listing = True
        elif listing:
            match = _FAILURE_LINE.match(line)
            if match:
                names.add(match.group(1))
    return names


class Workload:
    """One benchmark workload: its command line and its output check."""

    name = ""
    entry = ""
    #: Times the benchmark sets up per run; set-up time is their median.
    setup_reps = 11
    #: Fewest samples per run, however long they take.
    min_samples = 1
    #: Whether set-up populates an artifact store with one cold run.
    populates_store = False
    #: Whether the workload seed changes the inputs.
    uses_seed = False

    def arguments(self, seed, workdir, index):
        """Command-line arguments of sample ``index`` (0 for the set-up
        populate run); ``workdir`` is the run's own directory."""
        raise NotImplementedError

    def check(self, stdout, stderr, returncode, goldens):
        raise NotImplementedError

    def claims(self, metrics):
        """The layer-stress statements a traced run should confirm."""
        return {}


class Figure5(Workload):
    name = "figure5"
    entry = FIGURE5_ENTRY

    def arguments(self, seed, workdir, index):
        return []

    def check(self, stdout, stderr, returncode, goldens):
        problems = []
        misses, cells = check_figure5_rows(
            stdout.splitlines(), goldens["figure5"], problems)
        failed = len(problems)
        if returncode != 0:
            problems.append("exit status {}".format(returncode))
            failed = max(failed, 1)
        return Verdict(len(goldens["figure5"]), failed, sim_digest(stdout),
                       misses, cells, problems)

    def claims(self, metrics):
        return {"replay_combined_events_zero":
                metrics["cache.replay_combined_events"] == 0}


class Report(Workload):
    """A ``repro-experiments`` run; each report section is an operation."""

    name = "report"
    entry = REPORT_ENTRY
    sections = ("figure5", "kill-bits", "spill", "combined-cache",
                "access-time")

    def arguments(self, seed, workdir, index):
        return []

    def check(self, stdout, stderr, returncode, goldens):
        lines = stdout.splitlines()
        problems = []
        bodies = report_sections(lines)
        broken = failed_sections(stderr)
        failed = misses = cells = 0
        for section in self.sections:
            before = len(problems)
            body = bodies.get(section)
            if body is None:
                problems.append("section {} missing".format(section))
            elif any("[section failed" in line
                     or "[every benchmark failed" in line for line in body):
                problems.append("section {} failed".format(section))
            elif section in broken:
                problems.append("section {} reported failures".format(
                    section))
            else:
                band = self.check_section(section, body, goldens, problems)
                misses += band[0]
                cells += band[1]
            failed += len(problems) > before
        if returncode != 0:
            problems.append("exit status {}".format(returncode))
            failed = max(failed, 1)
        return Verdict(len(self.sections), failed, sim_digest(stdout),
                       misses, cells, problems)

    def check_section(self, section, body, goldens, problems):
        """Golden checks of one section; returns its paper-band
        ``(misses, cells)``."""
        if section == "figure5":
            return check_figure5_rows(body, goldens["figure5"], problems)
        return 0, 0

    def claims(self, metrics):
        # Self times throughout: per-event replay against every other
        # layer and against the rest of the cache layer.
        replay = metrics["cache.replay_self_share"]
        others = [metrics[layer + ".self_share"]
                  for layer in ("compile", "vm", "trace", "staticcheck",
                                "artifacts", "robustness")]
        rest = metrics["cache.self_share"] - replay
        return {"replay_is_largest_layer": replay > max(others + [rest])}


class SweepWarm(Report):
    name = "sweep-warm"
    setup_reps = 1
    # One sample takes about as long as a run measures; with one sample
    # in slow runs and two in fast ones, the slow runs' single samples
    # would set the spread.
    min_samples = 2
    populates_store = True
    sections = ("figure5", "kill-bits", "spill", "hierarchy", "policy-zoo")

    def arguments(self, seed, workdir, index):
        return ["--fast", "--policy-zoo", "--hierarchy", SWEEP_HIERARCHY,
                "--artifact-cache", os.path.join(workdir, "store")]

    def check_section(self, section, body, goldens, problems):
        if section == "hierarchy":
            check_hierarchy_rows(body, goldens["hierarchy"],
                                 SWEEP_HIERARCHY, problems)
        elif section == "policy-zoo":
            check_policy_zoo_rows(body, goldens["policyzoo"], problems)
        return super().check_section(section, body, goldens, problems)

    def claims(self, metrics):
        return {"no_compile": metrics["compile.calls"] == 0,
                "no_vm": metrics["vm.steps"] == 0}


class Fuzz(Workload):
    """``repro-fuzz`` over :data:`FUZZ_PROGRAMS` generated programs per
    sample; each program is an operation judged by the fuzzer's own
    oracle."""

    name = "fuzz"
    entry = FUZZ_ENTRY
    uses_seed = True

    def arguments(self, seed, workdir, index):
        return ["--programs", str(FUZZ_PROGRAMS),
                "--seed", str(FUZZ_SEED_BASE + seed * FUZZ_PROGRAMS),
                "--crashes", os.path.join(workdir, "crashes")]

    def check(self, stdout, stderr, returncode, goldens):
        problems = []
        failed = FUZZ_PROGRAMS
        passed = re.search(r"^all (\d+) programs passed", stdout, re.M)
        broken = re.search(r"^(\d+) of (\d+) programs failed", stdout, re.M)
        if passed and int(passed.group(1)) == FUZZ_PROGRAMS:
            failed = 0
        elif broken:
            failed = int(broken.group(1))
            problems.append(broken.group(0))
            problems += re.findall(r"^FAIL .*$", stdout, re.M)
        else:
            problems.append("no fuzz verdict line")
        if returncode != 0 and failed == 0:
            problems.append("exit status {}".format(returncode))
            failed = 1
        return Verdict(FUZZ_PROGRAMS, failed, sim_digest(stdout),
                       problems=problems)

    def claims(self, metrics):
        return {"compile_self_over_half":
                metrics["compile.self_share"] > 0.5}


WORKLOADS = {workload.name: workload
             for workload in (Figure5(), Report(), SweepWarm(), Fuzz())}
