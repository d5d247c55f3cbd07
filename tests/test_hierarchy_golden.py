"""Golden-file regression tests pinning E16 (hierarchy) and E18
(multi-core shared LLC).

``tests/golden/hierarchy.json`` pins every
:func:`~repro.evalharness.sweeps.hierarchy_sweep` row — all six
benchmarks, both inclusion disciplines, both legacy bypass levels —
for the two-level E16 geometry *and* the three-level variant, so the
N-level refactor (and anything after it) is held to the exact numbers
the fixed L1/L2 implementation produced.  ``tests/golden/multicore.json``
pins the E18 kill-vs-partitioning grid on the default intmm+sieve
pairing under both quota policies.

To regenerate after an *intentional* semantics change::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest \
        tests/test_hierarchy_golden.py -q

The offline hierarchy scoring runs through the sweep dispatcher; the
golden file must come out exactly under its default ``auto`` routing
and with every engine forced.  Each benchmark is compiled and traced
once for the whole module.
"""

import functools
import json
import os

import pytest

import repro.cache.hierarchy as hierarchy
from repro.cache.stackdist import replay_trace_sweep
from repro.evalharness.artifacts import artifact_key, resolve_artifact
from repro.evalharness.fullreport import hierarchy_units
from repro.evalharness.parallel import evaluate_unit
from repro.evalharness.sweeps import (
    DEFAULT_HIERARCHY,
    DEFAULT_HIERARCHY3,
    hierarchy_sweep,
    multicore_sweep,
)
from repro.programs import BENCHMARK_NAMES

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
HIERARCHY_GOLDEN = os.path.join(GOLDEN_DIR, "hierarchy.json")
MULTICORE_GOLDEN = os.path.join(GOLDEN_DIR, "multicore.json")

MULTICORE_NAMES = ("intmm", "sieve")

#: The engines forced on top of the unforced ``auto`` routing.
FORCED_ENGINES = ("stackdist", "vectorized", "multi")


class MemoStore:
    """An in-memory artifact store: each (source, options) pair is
    compiled and traced once, then shared by every sweep."""

    def __init__(self):
        self.artifacts = {}

    def resolve(self, name, source, options, expected_output=None):
        key = artifact_key(source, options)
        if key not in self.artifacts:
            self.artifacts[key] = resolve_artifact(
                name, source, options, expected_output
            )
        return self.artifacts[key]


@pytest.fixture(scope="module")
def store():
    return MemoStore()


@pytest.fixture(scope="module")
def level_memo():
    """Memoized :func:`~repro.cache.hierarchy.filtered_trace`.

    The online inner-level replays do not depend on the sweep engine,
    so the engine tests reuse the ones the first test computed.  Each
    entry keeps its input trace alive, which keeps the ``id`` key
    unique.
    """
    memo = {}
    real = hierarchy.filtered_trace

    def filtered_trace(trace, config):
        key = (id(trace), config)
        if key not in memo:
            memo[key] = (trace, real(trace, config))
        return memo[key][1]

    return filtered_trace


def _round_floats(value):
    """Stabilize float repr across JSON round-trips (12 significant
    decimal places is far beyond any legitimate drift)."""
    if isinstance(value, float):
        return round(value, 12)
    if isinstance(value, dict):
        return {key: _round_floats(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round_floats(item) for item in value]
    return value


def measured_hierarchy(store):
    table = {}
    for spec in (DEFAULT_HIERARCHY, DEFAULT_HIERARCHY3):
        for name in BENCHMARK_NAMES:
            for row in hierarchy_sweep(name, hierarchy=spec,
                                       artifact_cache=store):
                key = "|".join([
                    spec, name, row["inclusion"], row["bypass_level"],
                ])
                table[key] = _round_floats(row)
    return table


def measured_multicore(store):
    table = {}
    for partition in ("umon", "even"):
        for row in multicore_sweep(MULTICORE_NAMES, partition=partition,
                                   artifact_cache=store):
            key = "|".join([
                "+".join(MULTICORE_NAMES), partition, row["config"],
            ])
            table[key] = _round_floats(row)
    return table


def _check(measured, path):
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        with open(path, "w") as handle:
            json.dump(measured, handle, indent=2, sort_keys=True)
            handle.write("\n")
    with open(path) as handle:
        golden = json.load(handle)
    assert measured == golden


@pytest.mark.slow
def test_hierarchy_matches_golden(store, level_memo, monkeypatch):
    monkeypatch.setattr(hierarchy, "filtered_trace", level_memo)
    _check(measured_hierarchy(store), HIERARCHY_GOLDEN)


@pytest.mark.slow
@pytest.mark.parametrize("engine", FORCED_ENGINES)
def test_hierarchy_golden_under_engine(engine, store, level_memo,
                                       monkeypatch):
    monkeypatch.setattr(hierarchy, "filtered_trace", level_memo)
    monkeypatch.setattr(
        hierarchy, "replay_trace_sweep",
        functools.partial(replay_trace_sweep, engine=engine),
    )
    with open(HIERARCHY_GOLDEN) as handle:
        assert measured_hierarchy(store) == json.load(handle)


@pytest.mark.slow
def test_e16_filters_l1_once_per_benchmark(store, monkeypatch):
    """E16's two non-inclusive specs share their L1, so each
    benchmark's unit replays that L1 filter once, not once per spec,
    and the section's rows still match the golden pins."""
    calls = []
    real = hierarchy.filtered_trace

    def counting(trace, config):
        calls.append(id(trace))
        return real(trace, config)

    monkeypatch.setattr(hierarchy, "filtered_trace", counting)
    with open(HIERARCHY_GOLDEN) as handle:
        golden = json.load(handle)
    for unit in hierarchy_units(DEFAULT_HIERARCHY, BENCHMARK_NAMES):
        del calls[:]
        rows = evaluate_unit(unit, artifact_cache=store)
        assert len(calls) == 1, unit.name
        assert len(rows) == 4
        for row in rows:
            key = "|".join([
                DEFAULT_HIERARCHY, unit.name, row["inclusion"],
                row["bypass_level"],
            ])
            assert _round_floats(row) == golden[key]


@pytest.mark.slow
def test_multicore_matches_golden(store):
    _check(measured_multicore(store), MULTICORE_GOLDEN)


def test_hierarchy_golden_covers_both_specs():
    with open(HIERARCHY_GOLDEN) as handle:
        golden = json.load(handle)
    specs = {key.split("|")[0] for key in golden}
    assert specs == {DEFAULT_HIERARCHY, DEFAULT_HIERARCHY3}
    names = {key.split("|")[1] for key in golden}
    assert names == set(BENCHMARK_NAMES)
    # 2 specs x 6 benchmarks x 2 inclusions x 2 bypass levels.
    assert len(golden) == 48


def test_multicore_golden_covers_grid():
    with open(MULTICORE_GOLDEN) as handle:
        golden = json.load(handle)
    configs = {key.split("|")[2] for key in golden}
    assert configs == {
        "shared", "partitioned", "kill", "kill+partitioned"
    }
    assert len(golden) == 8
    for row in golden.values():
        assert row["events"] > 0
        assert 0.0 <= row["shared_hit_rate"] <= 1.0
