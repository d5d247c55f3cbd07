"""Run one benchmark through the whole measurement pipeline.

One VM execution produces one annotated reference trace; the unified
and conventional cache numbers both come from replaying that same
trace (the conventional cache simply ignores the bypass/kill bits,
which yields exactly the reference stream conventional code would
produce, since annotations never change the instruction sequence —
``tests/test_pipeline.py`` locks that invariant).

The execution half — benchmark source to checked trace — is
:func:`~repro.evalharness.artifacts.resolve_artifact`; the evaluation
half is :func:`evaluate_trace`, so the compile-once/trace-once engine
(:mod:`repro.evalharness.parallel`) can resolve a stored artifact and
score any number of cache geometries against it without touching the
compiler or the VM again.
"""

from dataclasses import dataclass, field

from repro.cache.cache import CacheConfig
from repro.cache.replay import replay_trace
from repro.cache.stackdist import replay_trace_sweep
from repro.evalharness.artifacts import (
    check_output,
    resolve_artifact,
    run_program,
)
from repro.programs import get_benchmark
from repro.unified.pipeline import CompilationOptions

#: The default simulated data cache: 256 words on chip (the paper's
#: "typical cache implemented on the processor chip contains 128 to 256
#: words"), line size one (Section 1's stated assumption), 4-way LRU.
DEFAULT_CACHE = CacheConfig(size_words=256, line_words=1, associativity=4,
                            policy="lru")


@dataclass
class ExperimentResult:
    """Everything measured for one benchmark under one configuration."""

    name: str
    options: CompilationOptions
    cache_config: CacheConfig
    static: object
    dynamic: dict
    unified_stats: object
    conventional_stats: object
    output: tuple
    steps: int
    trace: object = field(default=None, repr=False)
    #: The static bypass ratio derived independently by the must/may
    #: analysis (:mod:`repro.staticcheck`), or ``None`` when the cache
    #: geometry is outside what the analysis models.  Cross-checks the
    #: annotation pass's own :attr:`StaticReport.percent_bypassed`.
    static_bypass_checked: object = None

    @property
    def static_percent_unambiguous(self):
        return self.static.percent_unambiguous

    @property
    def static_bypass_agrees(self):
        """Do the annotation pass and the static analysis agree on the
        bypass ratio?  ``None`` when the analysis could not run."""
        if self.static_bypass_checked is None:
            return None
        return abs(
            self.static_bypass_checked - self.static.percent_bypassed
        ) < 0.05

    @property
    def dynamic_percent_unambiguous(self):
        if self.dynamic["total"] == 0:
            return 0.0
        return 100.0 * self.dynamic["unambiguous"] / self.dynamic["total"]

    @property
    def dynamic_percent_bypassed(self):
        if self.dynamic["total"] == 0:
            return 0.0
        return 100.0 * self.dynamic["bypassed"] / self.dynamic["total"]

    @property
    def cache_traffic_reduction(self):
        return self.unified_stats.cache_traffic_reduction_vs(
            self.conventional_stats
        )

    @property
    def bus_traffic_reduction(self):
        return self.unified_stats.bus_traffic_reduction_vs(
            self.conventional_stats
        )


def conventional_config(cache_config):
    """The same geometry with every annotation bit ignored — the
    conventional-machine baseline of all unified-vs-conventional
    comparisons."""
    return CacheConfig(
        size_words=cache_config.size_words,
        line_words=cache_config.line_words,
        associativity=cache_config.associativity,
        policy=cache_config.policy,
        honor_bypass=False,
        honor_kill=False,
        kill_mode=cache_config.kill_mode,
        write_policy=cache_config.write_policy,
        allocate_on_write=cache_config.allocate_on_write,
        seed=cache_config.seed,
    )


def _static_bypass_checked(program, cache_config):
    """Independent derivation of the paper's static bypass claim: the
    must/may analysis re-counts the bypassed sites from the module it
    analyses, so a disagreement with the annotation pass's own
    StaticReport means one of the two mis-reads the annotations."""
    from repro.staticcheck import StaticCheckError
    from repro.staticcheck.mustmay import analyze_module

    try:
        analysis = analyze_module(program.module, program.alias, cache_config)
        return analysis.static_bypass_percent
    except StaticCheckError:
        return None  # geometry outside the model


def evaluate_trace(artifact, cache_configs=(DEFAULT_CACHE,),
                   keep_trace=False):
    """Score one traced :class:`~repro.evalharness.artifacts.Artifact`
    under each geometry of ``cache_configs``.

    Returns one :class:`ExperimentResult` per geometry, in order.  Any
    source of the artifact — a fresh VM run or an artifact-store hit —
    gives bit-identical results, and so does either replay route.
    """
    specs = []
    for cache_config in cache_configs:
        specs.append(cache_config)
        specs.append(conventional_config(cache_config))
    if len(cache_configs) == 1:
        # A single geometry replays per event.  Forcing Figure 5's six
        # one-geometry units through the sweep dispatcher cut its wall
        # time from 3.2 s to 2.0 s but doubled peak RSS (40 MB to
        # 79 MB): towers' unified vectorized pass alone allocates
        # 33 MB transiently, against 0.1 MB for per-event replay.
        stats = [replay_trace(artifact.trace, spec) for spec in specs]
    else:
        stats = replay_trace_sweep(artifact.trace, specs)
    summary = artifact.trace.summary()
    return [
        ExperimentResult(
            name=artifact.name,
            options=artifact.program.options,
            cache_config=cache_config,
            static=artifact.program.static,
            dynamic=dict(summary),
            unified_stats=stats[2 * index],
            conventional_stats=stats[2 * index + 1],
            output=artifact.output,
            steps=artifact.steps,
            trace=artifact.trace if keep_trace else None,
            static_bypass_checked=_static_bypass_checked(
                artifact.program, cache_config
            ),
        )
        for index, cache_config in enumerate(cache_configs)
    ]


def run_compiled(
    name,
    program,
    expected_output=None,
    cache_config=DEFAULT_CACHE,
    keep_trace=False,
):
    """Trace an already-compiled program and simulate both schemes."""
    artifact = check_output(run_program(name, program), expected_output)
    return evaluate_trace(artifact, (cache_config,), keep_trace)[0]


def run_benchmark(
    name,
    paper_scale=False,
    options=None,
    cache_config=DEFAULT_CACHE,
    keep_trace=False,
    artifact_cache=None,
):
    """Compile and measure one named benchmark.

    With ``artifact_cache`` (an
    :class:`~repro.evalharness.artifacts.ArtifactCache`) the compile
    and VM-execution happen at most once per annotation configuration
    across every run sharing that cache; the returned result is
    bit-identical to the direct path.
    """
    bench = get_benchmark(name, paper_scale)
    artifact = resolve_artifact(bench.name, bench.source, options,
                                bench.expected_output, store=artifact_cache)
    return evaluate_trace(artifact, (cache_config,), keep_trace)[0]
