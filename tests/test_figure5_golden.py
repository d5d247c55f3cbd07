"""Golden-file regression test pinning the Figure 5 table.

The headline experiment's exact numbers — every float, every
reference count, for all six benchmarks — are pinned in
``tests/golden/figure5.json``.  Any change to the compiler, the VM,
the cache model, or the evaluation engine that moves a single value
fails here, deliberately loudly: the whole engine refactor is sold on
bit-identical results, so a drift is either a bug or a semantics
change that must re-pin the golden file on purpose.

To regenerate after an *intentional* semantics change::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest \
        tests/test_figure5_golden.py -q

and commit the refreshed ``tests/golden/figure5.json`` alongside the
change that moved the numbers.

Besides the production path (:func:`figure5_table`), every scorer of
the same traces must reproduce the golden file exactly: the per-event
oracle (``replay_trace``), the functional twin (each benchmark
re-executed against the data-carrying cache) and the sweep dispatcher
forced to each of its engines (``multi``, ``stackdist``,
``vectorized``).  Each benchmark is compiled and traced once for all
of them.
"""

import json
import os

import pytest

from repro.cache.functional import DataCachedMemory
from repro.cache.replay import replay_trace
from repro.cache.stackdist import replay_trace_sweep
from repro.evalharness.artifacts import resolve_artifact
from repro.evalharness.experiment import (
    DEFAULT_CACHE,
    ExperimentResult,
    _static_bypass_checked,
    conventional_config,
)
from repro.evalharness.figure5 import (
    Figure5Row,
    figure5_options,
    figure5_table,
)
from repro.programs import BENCHMARK_NAMES, get_benchmark

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "golden", "figure5.json"
)

#: The unified and conventional geometries behind one Figure 5 row.
SPECS = (DEFAULT_CACHE, conventional_config(DEFAULT_CACHE))

SCORERS = ("replay_trace", "functional", "multi", "stackdist",
           "vectorized")


def row_payload(row):
    return {
        "static_percent_unambiguous": row.static_percent_unambiguous,
        "static_bypass_checked": row.static_bypass_checked,
        "dynamic_percent_unambiguous": row.dynamic_percent_unambiguous,
        "cache_traffic_reduction": row.cache_traffic_reduction,
        "bus_traffic_reduction": row.bus_traffic_reduction,
        "dynamic_refs": row.dynamic_refs,
    }


def load_golden():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def artifacts():
    options = figure5_options()
    out = {}
    for name in BENCHMARK_NAMES:
        bench = get_benchmark(name)
        out[name] = resolve_artifact(name, bench.source, options,
                                     bench.expected_output)
    return out


def functional_stats(artifact, config):
    """Re-execute the program against the data-carrying twin: the
    stats are measured during execution, not replayed."""
    memory = DataCachedMemory(config)
    outcome = artifact.program.run(memory=memory)
    assert tuple(outcome.output) == artifact.output, artifact.name
    return memory.stats


def score(scorer, artifact):
    """``(unified, conventional)`` stats of one artifact."""
    if scorer == "replay_trace":
        return [replay_trace(artifact.trace, spec) for spec in SPECS]
    if scorer == "functional":
        return [functional_stats(artifact, spec) for spec in SPECS]
    return replay_trace_sweep(artifact.trace, SPECS, engine=scorer)


def scored_payload(artifact, unified, conventional):
    """The golden payload, assembled by the same
    :class:`ExperimentResult` arithmetic as the production path."""
    return row_payload(Figure5Row.from_result(ExperimentResult(
        name=artifact.name,
        options=artifact.program.options,
        cache_config=DEFAULT_CACHE,
        static=artifact.program.static,
        dynamic=artifact.trace.summary(),
        unified_stats=unified,
        conventional_stats=conventional,
        output=artifact.output,
        steps=artifact.steps,
        static_bypass_checked=_static_bypass_checked(
            artifact.program, DEFAULT_CACHE
        ),
    )))


def test_figure5_matches_golden():
    measured = {row.name: row_payload(row) for row in figure5_table()}
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        with open(GOLDEN_PATH, "w") as handle:
            json.dump(measured, handle, indent=2, sort_keys=True)
            handle.write("\n")
    golden = load_golden()
    assert set(golden) == set(BENCHMARK_NAMES)
    # Compare exactly — these are deterministic integer-arithmetic
    # pipelines; float equality is intentional, not a tolerance bug.
    assert measured == golden


@pytest.mark.parametrize("scorer", SCORERS)
def test_every_scorer_matches_golden(scorer, artifacts):
    measured = {
        name: scored_payload(artifact, *score(scorer, artifact))
        for name, artifact in artifacts.items()
    }
    assert measured == load_golden()


def test_golden_covers_all_benchmarks():
    golden = load_golden()
    assert sorted(golden) == sorted(BENCHMARK_NAMES)
    for name, values in golden.items():
        assert values["dynamic_refs"] > 0, name
